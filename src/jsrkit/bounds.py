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

Each level runs its necklace sweep first.  The upper sweep then prunes by
submultiplicativity: a prefix p of length k cannot contribute to the
level-n maximum once op_norm(P_p) * M ** (n - k) falls strictly below the
running maximum, where M is the largest slot norm.  The running maximum
starts at the norm of the level's best necklace product, a value the
maximum includes anyway, and rises after each block.  Strictness keeps
ties, so pruning never changes the computed maximum.

Budget accounting: each completed level n charges 2 * r**n words against
the budget (one all-words sweep, one necklace sweep).  If the next level
will not fit, the result is returned at the deepest completed level with
partial set; a budget too small for level 1 raises BudgetError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, words
from .config import DEFAULTS, pick
from .errors import BudgetError, ConvergenceError
from .tuples import MatrixTuple, product_along, product_blocks
from .words import Word


@dataclass(frozen=True)
class JsrBounds:
    """Certificate lower <= jsr <= upper at a given enumeration depth."""

    lower: float
    upper: float
    depth: int
    lower_witness: Word
    upper_level: int
    partial: bool

    def __post_init__(self):
        # slack is relative to the larger end, so the check holds at every scale
        if self.lower > self.upper + 1e-12 * max(self.lower, self.upper):
            raise ConvergenceError(
                f"bounds out of order: lower {self.lower} > upper {self.upper}"
            )

    def to_json_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "depth": self.depth,
            "witness": words.format_word(self.lower_witness),
            "upper_level": self.upper_level,
            "partial": self.partial,
        }


def _necklace_values(t: MatrixTuple, n: int, budget: int):
    """(word index, spectral_radius(P_w) ** (1/n)) for the necklaces w of length n, in order."""
    for codes, stack in product_blocks(t, n, necklaces=True, budget=budget):
        radii = linalg.spectral_radii(stack).tolist()
        yield from zip(codes.tolist(), [rho ** (1.0 / n) for rho in radii])


def _level_lower_max(t: MatrixTuple, n: int, budget: int) -> tuple[float, Word]:
    """Max of spectral_radius(P_w) ** (1/n) over the necklaces w of length n, and the first w."""
    best, best_code = -np.inf, 0
    for code, value in _necklace_values(t, n, budget):
        if value > best:
            best, best_code = value, code
    return best, words.word_at(best_code, t.r, n)


def _level_upper_max(t: MatrixTuple, n: int, slot_norm_max: float, seed: float, budget: int) -> float:
    """Max of op_norm(P_w) over all words of length n, with prefix pruning.

    seed must be the norm of one of these products; it only prunes sooner.
    """
    best = seed

    def prune(stack: np.ndarray, k: int) -> np.ndarray:
        try:
            growth = slot_norm_max ** (n - k)
        except OverflowError:  # an infinite bound rules nothing out
            return np.zeros(len(stack), dtype=bool)
        with np.errstate(over="ignore"):
            return linalg.op_norms(stack) * growth < best

    for _, stack in product_blocks(t, n, prune=prune, budget=budget):
        best = max(best, float(np.max(linalg.op_norms(stack))))
    return best


def bounds(t: MatrixTuple, max_depth: int, *, budget: int | None = None) -> JsrBounds:
    """Certified bounds through enumeration depth ``max_depth``."""
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    budget = pick(budget, DEFAULTS.word_budget)
    r = t.r
    slot_norms = [linalg.op_norm(a) for a in t.matrices]
    slot_norm_max = max(slot_norms)

    best_lower = -np.inf
    witness: Word = (1,)
    best_upper = np.inf
    upper_level = 0
    spent = 0
    completed = 0
    partial = False
    for n in range(1, max_depth + 1):
        cost = 2 * r ** n
        if spent + cost > budget:
            partial = True
            break
        spent += cost
        level_lower, level_witness = _level_lower_max(t, n, budget)
        if level_lower > best_lower:
            best_lower = level_lower
            witness = level_witness
        seed = linalg.op_norm(product_along(t, level_witness))
        level_max = _level_upper_max(t, n, slot_norm_max, seed, budget)
        level_upper = level_max ** (1.0 / n) if level_max > 0 else 0.0
        if level_upper < best_upper:
            best_upper = level_upper
            upper_level = n
        completed = n
    if completed == 0:
        raise BudgetError(
            f"enumeration budget {budget} cannot cover even level 1 ({2 * r} words)"
        )
    return JsrBounds(
        lower=float(best_lower),
        upper=float(best_upper),
        depth=completed,
        lower_witness=witness,
        upper_level=upper_level,
        partial=partial,
    )


def spectral_maximal_candidates(
    t: MatrixTuple,
    depth: int,
    *,
    tie_tol: float | None = None,
    budget: int | None = None,
) -> list[tuple[Word, float]]:
    """Rotation-class representatives whose averaged radius ties the lower bound.

    Scans every length up to ``depth`` and keeps representatives with
    spectral_radius(P_w) ** (1/|w|) >= (1 - tie_tol) * lower.  Sorted by
    value descending, then length, then word.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    tie_tol = pick(tie_tol, DEFAULTS.tie_tol)
    budget = pick(budget, DEFAULTS.word_budget)
    r = t.r
    values: list[tuple[int, int, float]] = []  # (length, word index, value)
    spent = 0
    for n in range(1, depth + 1):
        spent += r ** n
        if spent > budget:
            raise BudgetError(
                f"candidate scan to depth {depth} exceeds enumeration budget {budget}"
            )
        values.extend((n, code, v) for code, v in _necklace_values(t, n, budget))
    lower = max(v for _, _, v in values)
    keep = [(words.word_at(code, r, n), v) for n, code, v in values if v >= lower * (1.0 - tie_tol)]
    keep.sort(key=lambda item: (-item[1], len(item[0]), item[0]))
    return keep


def finiteness_verified_at_depth(b: JsrBounds, close_tol: float | None = None) -> bool:
    """True when the certificate interval is closed to relative width close_tol."""
    close_tol = pick(close_tol, DEFAULTS.close_tol)
    return b.upper - b.lower <= close_tol * b.upper
