"""Two-sided joint spectral radius bounds by level enumeration.

For a tuple t and depth n* the engine reports

    lower = max over rotation-class representatives w, |w| <= n*,
            of spectral_radius(P_w) ** (1 / |w|)
    upper = min over levels n <= n* of
            (max over all words of length n of op_norm(P_w)) ** (1 / n)

Both sides converge to the joint spectral radius as n* grows; at any
finite depth the pair is a certificate lower <= jsr <= upper.

One level pass (_levels) runs, for n = 1 .. depth, one walk of level n
over all words, necklaces marked by their FKM periods, whose maximum L_n
the later levels prune by.  bounds, spectral_maximal_candidates and the
default rho_hat of a candidate search (_candidates_and_midpoint) each take
one pass.  The walks are the one product walk, tuples._PrefixStore's, over
one store per pass, which builds each prefix product and its cap once and
hands them to every later level.  Products come in lexicographic order, in
blocks, with one numpy call per block (linalg.spectral_radii,
linalg.op_norms).  Ties keep the first word.

Each word below a prefix P_p of length k < n has P_w = P_s P_p, so
spectral_radius(P_w) <= op_norm(P_w) <= L_{n-k} * cap(P_p) =: bound, cap
being linalg.op_norm_caps.  The walk's prune drops p, with every word below
it, only when neither bound can use it: bound is strictly below max(best,
bar), and p's period is 0 (no necklace below) or bound ** (1/n) is strictly
below floor.  best is the level's running maximum, bar its seed, and floor
= (1 - _TIE_TOL) * top * (1 - 1e-9), top being the running maximum of the
necklace values (no lower screening while floor <= 0; a bound that
overflows to inf or NaN keeps its row).  Full words are screened on the
yielded stack, from which each screen gathers only the rows it
evaluates: necklaces whose cap ** (1/n) (the prune's rule at k = n, L_0 =
1), then whose linalg.spectral_radius_caps value ** (1/n), is below floor
are skipped, and eigenvalues are taken of the rest; rows whose cap is
strictly below max(best, bar) are skipped, and an SVD runs on the rest.
The factor 1 - 1e-9 absorbs the rounding of the powers, and the cap's
margin (linalg._CAP_MARGIN, 1e-10) the rounding of sigma_1, of the
computed L_{n-k} and of the products, so a skipped row can neither tie
lower nor raise a maximum: every output is that of an unscreened scan.
bar is 1 - 1e-9 times the largest norm of the 2r products A_a @ P and
P @ A_a of length n, P being level n - 1's product of largest norm; the
slack covers a product taken in another order.  bar only prunes and is
never a maximum; it is 0.0 at level 1, and when those products or their
norms leave the float range.

Budget accounting: the pass's store counts every row that its walks ask
a prune about, summed over every length and level, candidate scans
included, whether or not the store built the row at that level.  Its
BudgetError, past the budget, drops the level whose walk raised it: its
necklaces, their share of lower and its maximum.  Stopping short of the
requested depth sets partial; a budget that level 1 passes raises
BudgetError.  A level maximum of exactly 0 under a positive lower bound
can only be underflow, since L_n >= jsr ** n >= lower ** n > 0: the
certificate then raises ConvergenceError naming that length.
"""

from __future__ import annotations

import numpy as np

from . import linalg, words
from .config import DEFAULTS, _Record, require_tol
from .errors import BudgetError, ConvergenceError, InputError
from .tuples import MatrixTuple, _PrefixStore
from .words import Word


class JsrBounds(_Record):
    """Certificate lower <= jsr <= upper at a given enumeration depth."""

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


# A necklace, or a necklace prefix, is skipped when its radius bound, to the
# power 1/n, falls below the floor times this factor.  The slack absorbs the
# rounding of the two powers, so a skipped necklace's value lies strictly
# below the floor.  The seed of the upper screen takes the same factor.
_SCREEN_SLACK = 1.0 - 1e-9

# A necklace whose value reaches (1 - _TIE_TOL) * lower ties the lower bound.
_TIE_TOL = 1e-9


def _bar(slots: np.ndarray, p) -> float:
    """_SCREEN_SLACK times the largest norm of A_a @ p and p @ A_a, slots being the stacked A_a;
    0.0 for p None or past the float range."""
    if p is None:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        ends = np.concatenate((np.matmul(slots, p), np.matmul(p, slots)))
    if not np.isfinite(ends).all():
        return 0.0
    try:
        return _SCREEN_SLACK * float(np.max(linalg.op_norms(ends)))
    except ConvergenceError:
        return 0.0


def _levels(t: MatrixTuple, depth: int, budget: int):
    """(candidates, maxima, reached) from levels 1 .. depth, one walk each.

    candidates holds (word, value) for the necklaces whose value reaches
    (1 - _TIE_TOL) times the largest, by value descending, then length, then
    word, so the first is the lower bound and its witness; proper powers stay
    in (spectral_maximal_candidates drops them).  When the largest is 0, only
    the first necklace, (1,), ties.  maxima[n] is the level-n upper maximum
    L_n, after maxima[0] = 1.0 for the empty word; level n's walk prunes by
    maxima[1 .. n - 1] (module docstring).  reached is the last level within
    the budget; both come from levels 1 .. reached only (no candidates at 0).
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
        return (bound < max(best, bar)) & lower_drops

    for n in range(1, depth + 1):
        best, bar, before = 0.0, _bar(store.slots, argmax), (len(candidates), top)
        necklace = words._necklaces(np.arange(n + 1), n, n)  # by period: those that divide n
        try:
            for digits, periods, caps, stack in store.walk(n, prune=prune):
                rows = necklace[periods].nonzero()[0]
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
                        candidates += zip(words._words_at(digits[rows[keep]]), values[keep].tolist())
                live = (~(caps < max(best, bar))).nonzero()[0]
                if len(live):
                    norms = linalg.op_norms(stack[live])
                    i = int(np.argmax(norms))
                    if norms[i] > best:
                        best, argmax = float(norms[i]), stack[live[i]].copy()  # a copy outlives the block
            maxima.append(best)
        except BudgetError:  # past the budget: level n is dropped whole
            del candidates[before[0]:], maxima[n:]
            top, depth = before[1], n - 1
            break
    if top == 0.0:
        return [((1,), 0.0)], maxima, depth
    candidates = [item for item in candidates if item[1] >= (1.0 - _TIE_TOL) * top]
    candidates.sort(key=lambda item: -item[1])  # stable: equal values keep scan order, length then word
    return candidates, maxima, depth


def bounds(t: MatrixTuple, max_depth: int, *, budget: int = DEFAULTS.word_budget) -> JsrBounds:
    """Certified bounds through enumeration depth ``max_depth``."""
    if max_depth < 1:
        raise InputError(f"max_depth must be >= 1, got {max_depth}")
    return _certificate(_levels(t, max_depth, budget), max_depth, budget)


def _certificate(levels, max_depth: int, budget: int) -> JsrBounds:
    """bounds' certificate from levels, a _levels pass to max_depth; BudgetError if it kept no level,
    ConvergenceError if the chosen level maximum underflowed to 0 under a positive lower bound."""
    candidates, maxima, depth = levels
    if depth == 0:
        raise BudgetError(f"enumeration budget {budget} cannot cover even level 1")
    lower_witness, lower = candidates[0]
    # the first level with the least L_n ** (1/n)
    upper, upper_level = min((m ** (1.0 / n), n) for n, m in enumerate(maxima[1:], start=1))
    if lower > 0.0 and maxima[upper_level] == 0.0:
        raise ConvergenceError(f"products of length {upper_level} underflow; the tuple's scale is out of range")
    return JsrBounds(
        lower=lower,
        upper=float(upper),
        depth=depth,
        lower_witness=lower_witness,
        upper_level=upper_level,
        partial=depth < max_depth,
    )


def _primitive_ties(candidates: list[tuple[Word, float]]) -> list[tuple[Word, float]]:
    """The candidates whose words are primitive: a proper power u^m repeats u's rotation class."""
    return [item for item in candidates if words.is_primitive(item[0])]


def _candidates_and_midpoint(t: MatrixTuple, depth: int, budget: int):
    """(spectral_maximal_candidates(t, depth), the default rho_hat) from one _levels pass.

    The default rho_hat is the midpoint of bounds(t, depth); a pass that the
    budget stops short of depth raises BudgetError."""
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    levels = _levels(t, depth, budget)
    b = _certificate(levels, depth, budget)
    if b.partial:
        raise BudgetError(
            f"enumeration budget {budget} reaches depth {b.depth} of {depth}, "
            "too shallow for the default rho_hat"
        )
    return _primitive_ties(levels[0]), 0.5 * (b.lower + b.upper)


def spectral_maximal_candidates(
    t: MatrixTuple, depth: int, *, budget: int = DEFAULTS.word_budget
) -> list[tuple[Word, float]]:
    """Primitive rotation-class representatives whose averaged radius ties the lower bound.

    Scans every length up to ``depth`` and keeps representatives with
    spectral_radius(P_w) ** (1/|w|) >= (1 - _TIE_TOL) * lower, that are
    primitive words (words.is_primitive): a proper power u^m stands for u's
    class, which the list holds already.  lower comes from every necklace,
    so the first entry is bounds' witness unless rounding lifts a power
    above its root.  Sorted by value descending, then length, then word.
    When lower is 0, every necklace would reach the window, and only the
    first, (1,), is kept.  The scan is bounds' pass, and budget is charged
    for every row its walks ask about, those only the upper bound needs too.
    """
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    candidates, _, reached = _levels(t, depth, budget)
    if reached < depth:
        raise BudgetError(f"candidate scan to depth {depth} exceeds enumeration budget {budget}")
    return _primitive_ties(candidates)


def finiteness_verified_at_depth(b: JsrBounds, close_tol: float = DEFAULTS.close_tol) -> bool:
    """True when the certificate interval is closed to relative width close_tol."""
    require_tol("close_tol", close_tol, zero_ok=True)
    return b.upper - b.lower <= close_tol * b.upper
