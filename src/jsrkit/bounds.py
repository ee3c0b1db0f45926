"""Two-sided joint spectral radius bounds by level enumeration.

For a tuple t and depth n* the engine reports

    lower = max over rotation-class representatives w, |w| <= n*,
            of spectral_radius(P_w) ** (1 / |w|)
    upper = min over levels n <= n* of
            (max over all words of length n of op_norm(P_w)) ** (1 / n)

Both sides converge to the joint spectral radius as n* grows; at any
finite depth the pair is a certificate lower <= jsr <= upper.

Both sweeps take the products in lexicographic order from
tuples.product_blocks, in blocks, with one numpy call per block
(linalg.spectral_radii, linalg.op_norms).  Ties keep the first word.

One level pass (_levels) runs, for n = 1 .. depth, level n's necklace walk
and then level n's upper sweep, whose maxima L_0 .. L_{n-1} the next
walks prune by.  bounds, spectral_maximal_candidates and the default
rho_hat of a candidate search (_candidates_and_midpoint) each take one
pass.

The necklace walk's prune drops a necklace prefix P_p of length k < n,
with every word below it, once (op_norm_caps(P_p) * L_{n-k}) ** (1/n) is
strictly below (1 - _TIE_TOL) * best * (1 - 1e-9): every word below p has
spectral_radius(P_s P_p) <= op_norm(P_s P_p) <= L_{n-k} * cap(P_p), the
upper sweep's own bound below.  At k = n it drops each necklace whose
linalg.spectral_radius_caps value (a cheap upper bound on the spectral
radius) ** (1/n) is below the same floor, and eigenvalues are taken of the
rest.  best is the running maximum over earlier levels and blocks (no
screening while best <= 0, and a bound that overflows to inf or NaN keeps
its row).  The factor 1 - 1e-9 absorbs the rounding of the powers, so a
skipped necklace lies strictly below the tie window: lower, its witness and
the candidates come out as if every necklace had been taken.

Each upper sweep screens every product with linalg.op_norm_caps, a
cheap upper bound on op_norm, and runs an SVD only on the survivors.  It
keeps the level maxima L_1 .. L_{n-1} of the earlier levels, with L_0 = 1
for the empty word.  A product P_p of length k is dropped, with every word
below it, once cap(P_p) * L_{n-k} falls strictly below the running maximum:
each word below p has P_w = P_s P_p for a suffix s of length n - k, and
op_norm(P_s P_p) <= op_norm(P_s) * op_norm(P_p) <= L_{n-k} * cap(P_p).  The
walker's prune takes prefixes (k < n) and full words (k = n, times L_0 =
1.0, which is exact) alike.  The computed L_{n-k} and the computed products carry a
rounding of a small multiple of n * d * eps, which the cap's margin
(linalg._CAP_MARGIN, 1e-10) covers as it covers the rounding of sigma_1.
The running maximum starts at the norm of the level's necklace product with
the largest op_norm_caps value among the necklaces the walk kept, a value
the maximum includes anyway, or at 0.0 when the walk pruned them all, and
rises after each block.  Strictness keeps ties, and a skipped product's
norm is below the maximum, so screening never changes the computed maximum.

Budget accounting: the level walks share one tuples._Budget, which
product_blocks charges for every row a prune is asked about, summed over
every length, walk and level, candidate scans included.  Its BudgetError,
past the budget, drops the level whose walk raised it: its necklaces, their
share of lower and its maximum.  Stopping short of the requested depth sets
partial; a budget that level 1 passes raises BudgetError.
"""

from __future__ import annotations

import numpy as np

from . import linalg, words
from .config import DEFAULTS, require_tol
from .errors import BudgetError, ConvergenceError, InputError
from .tuples import MatrixTuple, _Budget, _Record, product_blocks
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
# below the floor.
_SCREEN_SLACK = 1.0 - 1e-9

# A necklace whose value reaches (1 - _TIE_TOL) * lower ties the lower bound.
_TIE_TOL = 1e-9


def _level_upper_max(t: MatrixTuple, n: int, maxima: list[float], seed: float, budget: _Budget) -> float:
    """Max of op_norm(P_w) over all words of length n, screened by op_norm_caps.

    maxima[j] must be the level-j maximum for every j < n, with maxima[0] = 1.0
    for the empty word; seed must be the norm of one of the level's products,
    or 0.0, and only prunes sooner.  budget is _levels' counter, charged for
    every row the sweep's prune is asked about.
    """
    best = seed

    def prune(digits: np.ndarray, stack: np.ndarray, k: int) -> np.ndarray:
        # every word below a prefix p of length k has P_w = P_s @ P_p for a
        # suffix s of length n - k, so op_norm(P_w) <= cap(P_p) * maxima[n - k];
        # a leaf (k = n) is multiplied by 1.0, exactly
        with np.errstate(over="ignore"):
            return linalg.op_norm_caps(stack) * maxima[n - k] < best

    for _, stack in product_blocks(t, n, budget, prune=prune):
        best = max(best, float(np.max(linalg.op_norms(stack))))
    return best


def _levels(t: MatrixTuple, depth: int, budget: int):
    """(candidates, maxima, reached) from levels 1 .. depth, each its necklace walk, then its upper sweep.

    candidates holds (word, value) for the necklaces whose value reaches
    (1 - _TIE_TOL) times the largest, by value descending, then length, then
    word, so the first is the lower bound and its witness; proper powers stay
    in (spectral_maximal_candidates drops them).  When the largest is 0, only
    the first necklace, (1,), ties.  maxima[n] is the level-n upper maximum
    L_n, after maxima[0] = 1.0 for the empty word.  Level n's necklace walk
    prunes prefixes by maxima[1 .. n - 1] (module docstring); its sweep is
    seeded by the norm of the level's kept necklace product with the largest
    op_norm_caps value, or by 0.0 when the walk pruned every necklace.
    reached is the last level within the budget, which counts the rows that
    both walks of every level ask about; both come from levels 1 .. reached
    only (no candidates at 0).
    """
    candidates, maxima, top, counter = [], [1.0], -np.inf, _Budget(budget)

    def prune(digits: np.ndarray, stack: np.ndarray, k: int) -> np.ndarray:
        # at k = n the seed first sees every necklace left, then rows strictly below
        # floor go (none while floor <= 0 or NaN; a non-finite bound keeps its row)
        nonlocal seed_cap, seed
        if k == n:
            caps = linalg.op_norm_caps(stack)
            i = int(np.argmax(caps))
            if caps[i] > seed_cap:
                seed_cap, seed = caps[i], stack[i].copy()  # a copy frees the block
        floor = (1.0 - _TIE_TOL) * top * _SCREEN_SLACK
        if not floor > 0:
            return np.zeros(len(stack), dtype=bool)
        if k == n:
            return linalg.spectral_radius_caps(stack) ** (1.0 / n) < floor
        # below a prefix p, rho(P_s P_p) <= op_norm(P_s P_p) <= maxima[n - k] * cap(P_p)
        with np.errstate(over="ignore", invalid="ignore"):
            return (linalg.op_norm_caps(stack) * maxima[n - k]) ** (1.0 / n) < floor

    for n in range(1, depth + 1):
        seed_cap, seed, before = -np.inf, None, (len(candidates), top)
        try:
            for digits, stack in product_blocks(t, n, counter, necklaces=True, prune=prune):
                values = np.array([rho ** (1.0 / n) for rho in linalg.spectral_radii(stack).tolist()])
                top = max(top, float(values.max()))
                # top only rises, so a row below the window now never ties; at top 0 the result is fixed
                keep = values >= (1.0 - _TIE_TOL) * top
                if top > 0.0 and keep.any():
                    candidates += zip(words._words_at(digits[keep]), values[keep].tolist())
            maxima.append(_level_upper_max(t, n, maxima, 0.0 if seed is None else linalg.op_norm(seed), counter))
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
    """bounds' certificate from levels, a _levels pass to max_depth; BudgetError if it kept no level."""
    candidates, maxima, depth = levels
    if depth == 0:
        raise BudgetError(f"enumeration budget {budget} cannot cover even level 1")
    lower_witness, lower = candidates[0]
    # the first level with the least L_n ** (1/n)
    upper, upper_level = min((m ** (1.0 / n), n) for n, m in enumerate(maxima[1:], start=1))
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


def _midpoint(t: MatrixTuple, depth: int, budget: int) -> float:
    """The default rho_hat: the midpoint of bounds(t, depth), or BudgetError if the budget stops short."""
    return _candidates_and_midpoint(t, depth, budget)[1]


def _candidates_and_midpoint(t: MatrixTuple, depth: int, budget: int):
    """(spectral_maximal_candidates(t, depth), _midpoint(t, depth)) from one _levels pass.

    A pass that the budget stops short of depth raises _midpoint's BudgetError."""
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
    first, (1,), is kept.  The scan is bounds' pass, upper sweeps included,
    and budget is charged for the rows of both walks of every level.
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
