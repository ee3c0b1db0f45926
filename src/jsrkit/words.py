"""Finite words over the alphabet {1, ..., r} and rotation combinatorics.

Words are plain tuples of 1-based ints.  The textual form is
comma-separated, e.g. "1,2,2".  Two words are rotation equivalent when
one is a cyclic shift of the other; the canonical representative of a
class (its necklace) is its lexicographically least rotation.

walk_words walks the word tree in lexicographic order for every
enumeration that carries per-word state, extending the state once per
shared prefix.  Necklaces come straight from the Fredricksen-Kessler-
Maiorana rule (Ruskey, Savage and Wang, "Generating necklaces", 1992).
"""

from __future__ import annotations

from itertools import product as _cartesian
from typing import Iterator

from .config import DEFAULTS, pick
from .errors import BudgetError, InputError

Word = tuple[int, ...]


def parse_word(text: str) -> Word:
    """Parse "1,2,2" into (1, 2, 2)."""
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise InputError("empty word")
    try:
        letters = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"word {text!r} is not a comma-separated list of integers") from exc
    if any(letter < 1 for letter in letters):
        raise InputError(f"word {text!r} has letters outside 1..r")
    return letters


def format_word(w: Word) -> str:
    return ",".join(str(letter) for letter in w)


def validate_word(w: Word, r: int | None = None) -> Word:
    w = tuple(int(letter) for letter in w)
    if len(w) == 0:
        raise InputError("empty word")
    if any(letter < 1 for letter in w):
        raise InputError(f"word {w} has letters below 1")
    if r is not None and any(letter > r for letter in w):
        raise InputError(f"word {w} uses letters above alphabet size {r}")
    return w


def rotation_class(w: Word) -> set[Word]:
    """The cyclic shifts of w."""
    w = validate_word(w)
    return {w[k:] + w[:k] for k in range(len(w))}


def canonical_rotation(w: Word) -> Word:
    return min(rotation_class(w))


def rotation_equivalent(z: Word, w: Word) -> bool:
    """True iff the words have equal length and one is a cyclic shift of the other."""
    return validate_word(z) in rotation_class(w)


def is_primitive(w: Word) -> bool:
    """True iff w is not a proper power, that is, iff its rotations are all distinct."""
    w = validate_word(w)
    return len(rotation_class(w)) == len(w)


def power(w: Word, p: int) -> Word:
    w = validate_word(w)
    if p < 1:
        raise InputError(f"power must be >= 1, got {p}")
    return w * p


def _check_budget(r: int, n: int, budget: int | None) -> None:
    budget = pick(budget, DEFAULTS.word_budget)
    if r < 1:
        raise InputError(f"alphabet size must be >= 1, got {r}")
    if n < 1:
        raise InputError(f"word length must be >= 1, got {n}")
    total = r ** n
    if total > budget:
        raise BudgetError(
            f"enumeration of {r}^{n} = {total} words exceeds budget {budget}; lower the length"
        )


def walk_words(r: int, n: int, *, necklaces=False, step=None, prune=None, budget=None):
    """Iterate (word, state) over the words of length n on {1..r}, in lexicographic order.

    A prefix's state is step(state of the prefix minus its last letter, that
    letter), from None, computed once per prefix.  necklaces=True keeps only
    least rotations.  prune(state, k) is asked at each prefix of length
    0 < k < n; True skips every word below it.  r**n is checked against the
    budget once, at the call.
    """
    _check_budget(r, n, budget)
    word = [1] * (n + 1)  # word[1:] is the word; word[0] is a sentinel for FKM

    def extend(k: int, period: int, state):
        # word[1:k] is a prenecklace with the given period when necklaces is set
        low = word[k - period] if necklaces else 1
        for letter in range(low, r + 1):
            word[k] = letter
            child = None if step is None else step(state, letter)
            child_period = period if letter == word[k - period] else k
            if k == n:
                if not necklaces or n % child_period == 0:
                    yield tuple(word[1:]), child
            elif prune is None or not prune(child, k):
                yield from extend(k + 1, child_period, child)

    return extend(1, 1, None)


def enumerate_words(r: int, n: int, budget: int | None = None) -> Iterator[Word]:
    """All words of length n over {1..r} in lexicographic order."""
    _check_budget(r, n, budget)
    return _cartesian(range(1, r + 1), repeat=n)


def enumerate_necklaces(r: int, n: int, budget: int | None = None) -> Iterator[Word]:
    """One representative per rotation class, its least rotation, in lexicographic order."""
    return (w for w, _ in walk_words(r, n, necklaces=True, budget=budget))
