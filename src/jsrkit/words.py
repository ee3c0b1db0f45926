"""Finite words over the alphabet {1, ..., r} and rotation combinatorics.

Words are plain tuples of 1-based ints.  The textual form is
comma-separated, e.g. "1,2,2".  Two words are rotation equivalent when
one is a cyclic shift of the other; the canonical representative of a
class (its necklace) is its lexicographically least rotation.

Necklaces come straight from the Fredricksen-Kessler-Maiorana rule
(Ruskey, Savage and Wang, "Generating necklaces", 1992).  word_index and
word_at map a word to its base-r position in lexicographic order and back;
the batched product sweep (tuples.product_blocks) names words that way,
and necklace_prefixes filters such positions for it.
"""

from __future__ import annotations

from itertools import product as _cartesian
from typing import Iterator

import numpy as np

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
    return ",".join(map(str, w))


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


def enumerate_words(r: int, n: int, budget: int | None = None) -> Iterator[Word]:
    """All words of length n over {1..r} in lexicographic order."""
    _check_budget(r, n, budget)
    return _cartesian(range(1, r + 1), repeat=n)


def enumerate_necklaces(r: int, n: int, budget: int | None = None) -> Iterator[Word]:
    """One representative per rotation class, its least rotation, in lexicographic order."""
    _check_budget(r, n, budget)
    return _necklaces(r, n)


def _necklaces(r: int, n: int) -> Iterator[Word]:
    # FKM: step through the prenecklaces in lexicographic order.  The next
    # one raises the last letter below r, at position i, and repeats the
    # first i letters up to length n; it is a necklace iff i divides n.
    w = [1] * n
    yield tuple(w)
    while True:
        i = n
        while i and w[i - 1] == r:
            i -= 1
        if not i:
            return
        w[i - 1] += 1
        w = (w[:i] * (n // i + 1))[:n]
        if n % i == 0:
            yield tuple(w)


def word_index(w: Word, r: int) -> int:
    """w's position among the words of its length in lexicographic order (its base-r value)."""
    index = 0
    for letter in w:
        index = index * r + letter - 1
    return index


def word_at(index: int, r: int, n: int) -> Word:
    """The word of length n over {1..r} at a lexicographic position; inverse of word_index."""
    letters = []
    for _ in range(n):
        index, digit = divmod(int(index), r)
        letters.append(digit + 1)
    return tuple(reversed(letters))


def necklace_prefixes(codes: np.ndarray, r: int, k: int, n: int) -> np.ndarray:
    """Mask of the word indices of length k that can begin a necklace of length n.

    At k == n it is exact: the mask of the necklaces.  Below n it keeps every
    prefix of a necklace and drops words with a suffix below their prefix of
    the same length.
    """
    keep = np.ones(len(codes), dtype=bool)
    for s in range(1, k):
        if k == n:  # a necklace is its own least rotation
            keep &= codes <= (codes % r ** (n - s)) * r ** s + codes // r ** (n - s)
        else:  # no suffix of a necklace is below its prefix of the same length
            keep &= codes % r ** (k - s) >= codes // r ** s
    return keep
