"""Finite words over the alphabet {1, ..., r} and rotation combinatorics.

Words are plain tuples of 1-based ints.  The textual form is
comma-separated, e.g. "1,2,2".  Two words are rotation equivalent when
one is a cyclic shift of the other; the canonical representative of a
class (its necklace) is its lexicographically least rotation.

word_index and word_at map a word to its base-r position in lexicographic
order and back.  prefix_blocks is the one prefix walker: it grows such
positions one letter at a time from the empty word, keeps necklaces by the
FKM rule of necklace_children, runs each screen with one mask per row as
its prune, and yields (codes, *rows) blocks of the words of one length.
tuples.product_blocks is the walker with one product per row; word_blocks
lists words, necklaces and, by a prune, primitive words on it.
enumerate_words and enumerate_necklaces decode its blocks to tuples, and
render_words turns a block into text without building them.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

import numpy as np

from . import config
from .config import DEFAULTS
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
    """w as a tuple of Python ints; letters must be Python or numpy integers, not bools."""
    letters = tuple(w) if np.iterable(w) else None
    if letters is None or not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in letters):
        raise InputError(f"word {w!r} is not a sequence of integer letters")
    w = tuple(map(int, letters))
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


def _check_budget(r: int, n: int, budget: int) -> None:
    if r < 1:
        raise InputError(f"alphabet size must be >= 1, got {r}")
    if n < 1:
        raise InputError(f"word length must be >= 1, got {n}")
    total = r ** n
    if total > budget:
        raise BudgetError(f"enumeration of {r}^{n} = {total} words exceeds budget {budget}; lower the length")
    _check_codes(r, n)


def _check_codes(r: int, n: int) -> None:
    if r ** n >= 1 << 63:
        raise BudgetError(f"{r}^{n} words do not fit int64 word indices; lower the length")


def enumerate_words(r: int, n: int, budget: int = DEFAULTS.word_budget) -> Iterator[Word]:
    """All words of length n over {1..r} in lexicographic order."""
    return _decoded(word_blocks(r, n, budget=budget), r, n)


def enumerate_necklaces(r: int, n: int, budget: int = DEFAULTS.word_budget) -> Iterator[Word]:
    """One representative per rotation class, its least rotation, in lexicographic order."""
    return _decoded(word_blocks(r, n, necklaces=True, budget=budget), r, n)


def _decoded(blocks: Iterator[np.ndarray], r: int, n: int) -> Iterator[Word]:
    return chain.from_iterable(_words_at(codes, r, n) for codes in blocks)


def word_blocks(r: int, n: int, *, necklaces: bool = False, primitive_only: bool = False,
                budget: int = DEFAULTS.word_budget) -> Iterator[np.ndarray]:
    """The word_index codes of the words of length n over {1..r}, in lexicographic order.

    Codes come in non-empty int64 blocks from prefix_blocks, whose digit
    arrays (n int64 per word) fit in config.BLOCK_BYTES unless one prefix's
    r children do not.  necklaces keeps one word per rotation class, its
    least rotation; primitive_only keeps the words that are no proper power
    (is_primitive), among necklaces the Lyndon words, by a prune on the full
    words.  The budget, r**n words, is checked at the call, before any is written.
    """
    _check_budget(r, n, budget)

    def proper_powers(codes, k):
        return ~_primitive(codes, r, n) if k == n else np.zeros(len(codes), dtype=bool)
    prune = proper_powers if primitive_only else None
    return (codes for codes, in prefix_blocks(r, n, 8 * n, necklaces=necklaces, prune=prune))


def prefix_blocks(r: int, n: int, row_bytes: int, *, necklaces=False, prune=None, grow=None):
    """Yield (codes, *rows) over the words of length n over {1..r}, in lexicographic order.

    The one prefix walker: a while loop over a LIFO list of pieces
    (k, codes, periods, *rows) of prefixes of length k, from the empty word.
    Children are split into pieces of BLOCK_BYTES // row_bytes // r rows and
    pushed in reverse, so the children of one piece make at most one block: a
    block exceeds config.BLOCK_BYTES only when one prefix's r children do,
    and a depth-n walk holds about n blocks.  grow(k, *rows) returns the
    arrays that go with the r children of each prefix of length k.
    necklaces=True keeps least rotations by necklace_children; their FKM
    periods stay in the walk.  prune(codes, *rows, k) is asked for every
    piece at every length 1 <= k <= n before it is grown or yielded, and masks
    the rows to drop with every word below them: each screen with one mask
    per row runs there.  No block is empty, and no budget is charged here.
    """
    leaf_rows = config.BLOCK_BYTES // row_bytes
    pending = [(0, np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))]
    while pending:
        k, codes, periods, *rows = pending.pop()
        if prune is not None and k:
            keep = ~prune(codes, *rows, k)
            if not keep.all():  # copy only when a row goes
                codes, periods, *rows = (a[keep] for a in (codes, periods, *rows))
        if k == n:
            if len(codes):
                yield codes, *rows
            continue
        rows = grow(k, *rows) if grow is not None else ()
        if necklaces:
            codes, periods, keep = necklace_children(codes, periods, r, k, n)
            rows = [a[keep] for a in rows]
        else:
            codes = periods = _children(codes, r)
        step = max(1, len(codes) if k + 1 == n else leaf_rows // r)
        for lo in reversed(range(0, len(codes), step)):
            pending.append((k + 1, *(a[lo:lo + step] for a in (codes, periods, *rows))))


def _children(codes: np.ndarray, r: int) -> np.ndarray:
    """The codes of the r children of each prefix, in lexicographic order, by r strided writes."""
    out = np.empty((len(codes), r), dtype=np.int64)
    base = codes * r
    for letter in range(r):
        np.add(base, letter, out=out[:, letter])
    return out.ravel()


def _primitive(codes: np.ndarray, r: int, n: int) -> np.ndarray:
    # a word with a period d dividing n is its first d letters repeated n // d times
    keep = np.ones(len(codes), dtype=bool)
    for d in range(1, n):
        if n % d == 0:
            repunit = sum(r ** (d * j) for j in range(n // d))
            keep &= codes != codes // r ** (n - d) * repunit
    return keep


def render_words(codes: np.ndarray, r: int, n: int) -> str:
    """The words at codes in text form, one "1,2,2\\n" line each, built from their digit array."""
    digits = _digits(codes, r, n)
    if r > 9:
        return "".join(",".join(map(str, row)) + "\n" for row in (digits + 1).tolist())
    text = np.full((len(codes), 2 * n), ord(","), dtype=np.uint8)
    text[:, ::2] = digits + ord("1")
    text[:, -1] = ord("\n")
    return text.tobytes().decode("ascii")


def word_index(w: Word, r: int) -> int:
    """w's position among the words of its length in lexicographic order (its base-r value)."""
    index = 0
    for letter in w:
        index = index * r + letter - 1
    return index


def word_at(index: int, r: int, n: int) -> Word:
    """The word of length n over {1..r} at a lexicographic position; inverse of word_index."""
    return _words_at(np.array([index], dtype=np.int64), r, n)[0]


def _digits(codes: np.ndarray, r: int, n: int) -> np.ndarray:
    """The (k, n) array of 0-based letters of the words at codes."""
    return codes[:, None] // r ** np.arange(n - 1, -1, -1, dtype=np.int64) % r


def _words_at(codes: np.ndarray, r: int, n: int) -> list[Word]:
    return list(map(tuple, (_digits(codes, r, n) + 1).tolist()))


def necklace_children(codes: np.ndarray, periods: np.ndarray, r: int, k: int, n: int):
    """(codes, periods, keep): the pre-necklaces of length k + 1 grown from those of length k.

    FKM rule (Cattell, Ruskey, Sawada, Serra, Miers, J. Algorithms 37, 2000):
    a period is the length of the longest Lyndon prefix, 1 for the empty word.
    A child letter may not be below the letter period places back; the period
    stays when the two are equal and becomes k + 1 otherwise.  At length n
    only necklaces, the children whose period divides n, are kept.  keep
    masks all r children of each prefix, in lexicographic order.
    """
    letters = np.arange(r, dtype=np.int64)
    back = (codes // r ** (periods - 1) % r)[:, None]
    periods = np.where(letters == back, periods[:, None], k + 1).ravel()
    keep = (letters >= back).ravel()
    if k + 1 == n:
        keep &= n % periods == 0
    return _children(codes, r)[keep], periods[keep], keep
