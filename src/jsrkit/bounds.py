"""Two-sided joint spectral radius bounds by level enumeration.

For a tuple t and depth n* the engine reports

    lower = max over Lyndon words w, |w| <= n*,
            of spectral_radius(P_w) ** (1 / |w|)
    upper = min over levels n <= n* of
            (max over all words of length n of op_norm(P_w)) ** (1 / n)

Both sides converge to the joint spectral radius as n* grows; at any
finite depth the pair is a certificate lower <= jsr <= upper.  Each
rotation class is evaluated once, by its Lyndon word; a proper power u^m,
whose averaged radius is u's, would add only its rounding.

One level pass (_levels) runs, for n = 1 .. depth, one walk of level n
over all words, the Lyndon words marked by their FKM period n, whose
maximum L_n the later levels prune by.  bounds, spectral_maximal_candidates
and the default rho_hat of a candidate search (_candidates_and_midpoint)
each take one pass.  The walks are the one product walk,
tuples._PrefixStore's, over one store per pass, which builds each prefix
product and its cap once and hands them to every later level.  Products
come in lexicographic order, in blocks, with one numpy call per block
(linalg.spectral_radii, linalg.op_norms).  Ties keep the first word.

Each word below a prefix P_p of length k < n has P_w = P_s P_p, so
spectral_radius(P_w) <= op_norm(P_w) <= L_{n-k} * cap(P_p) =: bound, cap
being linalg.op_norm_caps.  The walk's prune drops p, with every word below
it, only when neither bound can use it: bound is strictly below best, and
p's period is 0 (no Lyndon word below) or bound ** (1/n) is strictly below
floor.  best is the level's running maximum, and floor = (1 - _TIE_TOL) *
top * (1 - 1e-9), top being the running maximum of the Lyndon word values
(no lower screening while floor <= 0; a bound that overflows to inf or NaN
keeps its row).  Full words are screened on the yielded stack, from which
each screen gathers only the rows it evaluates: Lyndon words whose
cap ** (1/n) (the prune's rule at k = n, L_0 = 1), then whose
linalg.spectral_radius_caps value ** (1/n), is below floor are skipped, and
eigenvalues are taken of the rest; rows whose cap is strictly below best
are skipped, and an SVD runs on the rest.  The factor 1 - 1e-9 absorbs the
rounding of the powers, and the cap's margin (linalg._CAP_MARGIN, 1e-10)
the rounding of sigma_1, of the computed L_{n-k} and of the products, so a
skipped row can neither tie lower nor raise a maximum: every output is
that of an unscreened scan.  best starts at _seed: the largest norm of the
products of the words (a,) + w and w + (a,), w being level n - 1's word of
largest norm, each built by product_along as the walk builds it, so L_n is
a value of the walk; 0.0 at level 1, and past the float range.

Budget accounting: the pass's store counts every row that its walks ask
a prune about, summed over every length and level, candidate scans
included, whether or not the store built the row at that level.  A
level's Lyndon ties and its maximum are kept only once its walk completes,
so the level whose walk the store's BudgetError stops leaves nothing: no
Lyndon word, no share of lower and no maximum.  Stopping short of the
requested depth sets partial; a budget that level 1 passes raises
BudgetError, and one below 1 InputError.  A level maximum below 2**-1022,
the least normal float, under a positive top (L_n >= jsr ** n >= top ** n)
is underflow: it ends the pass with ConvergenceError naming that length,
as an overflow does.
"""

from __future__ import annotations

import numpy as np

from . import linalg, words
from .config import DEFAULTS, _Record, require_tol
from .errors import BudgetError, ConvergenceError, InputError
from .tuples import MatrixTuple, _PrefixStore, product_along
from .words import Word


class JsrBounds(_Record):
    """Certificate lower <= jsr <= upper at a given enumeration depth.

    lower and upper are rounded float results, not outward-rounded
    enclosures.  Within the 1e-12 slack of the order check they can cross
    the true jsr, and each other, by an ulp: the exterior square of example
    4 (lam 0.5) at depth 8 reports upper = 0.24999999999999997 and lower =
    0.25, and its jsr is exactly 0.25.
    """

    __slots__ = _fields = ("lower", "upper", "depth", "lower_witness", "upper_level", "partial")

    def __init__(self, lower: float, upper: float, depth: int, lower_witness: Word,
                 upper_level: int, partial: bool):
        # slack is relative to the larger end, so the check holds at every scale
        if lower > upper + 1e-12 * max(lower, upper):
            raise ConvergenceError(f"bounds out of order: lower {lower} > upper {upper}")
        self._set(lower=lower, upper=upper, depth=depth, lower_witness=lower_witness,
                  upper_level=upper_level, partial=partial)

    def to_json_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "depth": self.depth,
            "witness": words.format_word(self.lower_witness),
            "upper_level": self.upper_level,
            "partial": self.partial,
        }


# A Lyndon word, or a necklace prefix, is skipped when its radius bound, to the
# power 1/n, falls below the floor times this factor.  The slack absorbs the
# rounding of the two powers, so a skipped word's value lies strictly below the floor.
_SCREEN_SLACK = 1.0 - 1e-9

# A Lyndon word whose value reaches (1 - _TIE_TOL) * lower ties the lower bound.
_TIE_TOL = 1e-9


def _seed(t: MatrixTuple, w):
    """(the largest norm, its first word) of the products of the words (a,) + w and w + (a,), each built
    by product_along as the walk builds it; (0.0, None) for w None or past the float range."""
    if w is None:
        return 0.0, None
    seeds = sorted({z for a in range(1, t.r + 1) for z in ((a,) + w, w + (a,))})
    with np.errstate(over="ignore", invalid="ignore"):
        ends = np.array([product_along(t, z) for z in seeds])
    if not np.isfinite(ends).all():
        return 0.0, None
    try:
        norms = linalg.op_norms(ends)
    except ConvergenceError:
        return 0.0, None
    i = int(np.argmax(norms))
    return float(norms[i]), seeds[i]


def _levels(t: MatrixTuple, depth: int, budget: int):
    """(candidates, maxima, bounds) from levels 1 .. depth, one walk each.

    candidates holds (word, value) for the Lyndon words whose value reaches
    (1 - _TIE_TOL) times the largest, by value descending, then length, then
    word, so the first is the lower bound and its witness.  When the largest
    is 0, only the first Lyndon word, (1,), ties.  maxima[n] is the level-n
    upper maximum L_n, after maxima[0] = 1.0 for the empty word; level n's
    walk prunes by maxima[1 .. n - 1] (module docstring).  bounds is the
    JsrBounds of both.  A level's ties and maximum are kept only once its
    walk completes, so a level that the budget cuts short leaves nothing:
    all three come from levels 1 .. bounds.depth, and a budget that level 1
    passes raises BudgetError.
    """
    candidates, maxima, top, argmax = [], [1.0], -np.inf, None
    store, floor = _PrefixStore(t, depth, budget), -np.inf

    def prune(digits: np.ndarray, periods: np.ndarray, caps: np.ndarray, k: int) -> np.ndarray:
        # below a prefix p, rho(P_s P_p) <= op_norm(P_s P_p) <= maxima[n - k] * cap(P_p)
        if k == n:
            return np.zeros(len(caps), dtype=bool)
        bound = caps * maxima[n - k]
        lower_drops = periods == 0
        if floor > 0:
            lower_drops |= bound ** (1.0 / n) < floor
        return (bound < best) & lower_drops

    try:
        for n in range(1, depth + 1):
            (best, argmax), ties = _seed(t, argmax), []
            for digits, periods, caps, stack in store.walk(n, prune=prune):
                rows = (periods == n).nonzero()[0]  # the Lyndon words
                if floor > 0 and len(rows):  # first the prune's own rule at k = n, then the radius caps
                    rows = rows[~(caps[rows] ** (1.0 / n) < floor)]
                    if len(rows):
                        radius_caps = linalg.spectral_radius_caps(stack[rows])
                        rows = rows[~(radius_caps ** (1.0 / n) < floor)]
                if len(rows):
                    radii = linalg.spectral_radii(stack[rows])
                    values = np.array([rho ** (1.0 / n) for rho in radii.tolist()])
                    top = max(top, float(values.max()))
                    floor = (1.0 - _TIE_TOL) * top * _SCREEN_SLACK
                    # top only rises, so a row below the window now never ties; at top 0 the result is fixed
                    keep = values >= (1.0 - _TIE_TOL) * top
                    if top > 0.0 and keep.any():
                        ties += zip(words._words_at(digits[rows[keep]]), values[keep].tolist())
                live = (~(caps < best)).nonzero()[0]
                if len(live):
                    norms = linalg.op_norms(stack[live])
                    i = int(np.argmax(norms))
                    if norms[i] > best:
                        best, argmax = float(norms[i]), words._words_at(digits[live[i:i + 1]])[0]
            if best < np.finfo(float).tiny and top > 0.0:
                raise ConvergenceError(f"products of length {n} underflow; the tuple's scale is out of range")
            candidates += ties
            maxima.append(best)
    except BudgetError:  # past the budget: level n, cut short, was never kept
        if len(maxima) == 1:
            raise BudgetError(f"enumeration budget {budget} cannot cover even level 1") from None
    # the largest kept value; ties are kept only under a positive top, so there are none at top 0
    top = max((value for _, value in candidates), default=0.0)
    candidates = [item for item in candidates if item[1] >= (1.0 - _TIE_TOL) * top] or [((1,), 0.0)]
    candidates.sort(key=lambda item: -item[1])  # stable: equal values keep scan order, length then word
    (lower_witness, lower), reached = candidates[0], len(maxima) - 1
    # the first level with the least L_n ** (1/n)
    upper, upper_level = min((m ** (1.0 / n), n) for n, m in enumerate(maxima[1:], start=1))
    return candidates, maxima, JsrBounds(lower=lower, upper=float(upper), depth=reached, lower_witness=lower_witness,
                                         upper_level=upper_level, partial=reached < depth)


def bounds(t: MatrixTuple, max_depth: int, *, budget: int = DEFAULTS.word_budget) -> JsrBounds:
    """Certified bounds through enumeration depth ``max_depth``."""
    if max_depth < 1:
        raise InputError(f"max_depth must be >= 1, got {max_depth}")
    return _levels(t, max_depth, budget)[2]


def _candidates_and_midpoint(t: MatrixTuple, depth: int, budget: int):
    """(the Lyndon ties, the default rho_hat) from one _levels pass to depth.

    The ties are spectral_maximal_candidates', and the default rho_hat is
    the midpoint of bounds(t, depth); a pass that the budget stops short of
    depth raises BudgetError."""
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    candidates, _, b = _levels(t, depth, budget)
    if b.partial:
        raise BudgetError(
            f"enumeration budget {budget} reaches depth {b.depth} of {depth}, "
            "too shallow for the default rho_hat"
        )
    return candidates, 0.5 * (b.lower + b.upper)


def spectral_maximal_candidates(
    t: MatrixTuple, depth: int, *, budget: int = DEFAULTS.word_budget
) -> list[tuple[Word, float]]:
    """Lyndon words whose averaged radius ties the lower bound.

    Scans every length up to ``depth`` and keeps the Lyndon words, one per
    rotation class of primitive words, with
    spectral_radius(P_w) ** (1/|w|) >= (1 - _TIE_TOL) * lower.  lower comes
    from the same words, so the first entry is bounds' witness.  Sorted by
    value descending, then length, then word.  When lower is 0, every
    Lyndon word would reach the window, and only the first, (1,), is kept.
    The scan is bounds' pass: budget is charged for every row its walks
    ask about, those only the upper bound needs too, and a level maximum
    that underflows raises ConvergenceError (module docstring).
    """
    try:
        return _candidates_and_midpoint(t, depth, budget)[0]
    except BudgetError:  # the pass stopped short of depth, at level 1 too
        raise BudgetError(f"candidate scan to depth {depth} exceeds enumeration budget {budget}") from None


def finiteness_verified_at_depth(b: JsrBounds, close_tol: float = DEFAULTS.close_tol) -> bool:
    """True when the certificate interval is closed to relative width close_tol."""
    require_tol("close_tol", close_tol, zero_ok=True)
    return b.upper - b.lower <= close_tol * b.upper
