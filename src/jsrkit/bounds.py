"""Two-sided joint spectral radius bounds by level enumeration.

For a tuple t and depth n* the engine reports

    lower = max over rotation-class representatives w, |w| <= n*,
            of spectral_radius(P_w) ** (1 / |w|)
    upper = min over levels n <= n* of
            (max over all words of length n of op_norm(P_w)) ** (1 / n)

Both sides converge to the joint spectral radius as n* grows; at any
finite depth the pair is a certificate lower <= jsr <= upper.

Both sweeps walk words in lexicographic order with tuples.walk_products,
which builds each product once per shared prefix; the lower sweep gets
its necklaces straight from the FKM rule.  Ties keep the first word.

The upper sweep prunes by submultiplicativity: a prefix p of length k
cannot contribute to the level-n maximum once
op_norm(P_p) * M ** (n - k) falls strictly below the running maximum,
where M is the largest slot norm.  Strictness keeps ties, so pruning
never changes the computed maximum.

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
from .tuples import MatrixTuple, walk_products
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


def _level_upper_max(t: MatrixTuple, n: int, slot_norm_max: float, budget: int) -> float:
    """Max of op_norm(P_w) over all words of length n, with prefix pruning."""
    best = -np.inf

    def prune(product: np.ndarray, k: int) -> bool:
        return linalg.op_norm(product) * slot_norm_max ** (n - k) < best

    for _, product in walk_products(t, n, prune=prune, budget=budget):
        best = max(best, linalg.op_norm(product))
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
        level_max = _level_upper_max(t, n, slot_norm_max, budget)
        level_upper = level_max ** (1.0 / n) if level_max > 0 else 0.0
        if level_upper < best_upper:
            best_upper = level_upper
            upper_level = n
        for w, product in walk_products(t, n, necklaces=True, budget=budget):
            val = linalg.spectral_radius(product) ** (1.0 / n)
            if val > best_lower:
                best_lower = val
                witness = w
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
    values: list[tuple[Word, float]] = []
    spent = 0
    for n in range(1, depth + 1):
        spent += r ** n
        if spent > budget:
            raise BudgetError(
                f"candidate scan to depth {depth} exceeds enumeration budget {budget}"
            )
        for w, product in walk_products(t, n, necklaces=True, budget=budget):
            values.append((w, linalg.spectral_radius(product) ** (1.0 / n)))
    lower = max(v for _, v in values)
    keep = [(w, v) for w, v in values if v >= lower * (1.0 - tie_tol)]
    keep.sort(key=lambda item: (-item[1], len(item[0]), item[0]))
    return keep


def finiteness_verified_at_depth(b: JsrBounds, close_tol: float | None = None) -> bool:
    """True when the certificate interval is closed to relative width close_tol."""
    close_tol = pick(close_tol, DEFAULTS.close_tol)
    return b.upper - b.lower <= close_tol * b.upper
