"""Finite words over the alphabet {1, ..., r} and rotation combinatorics.

Words are plain tuples of 1-based ints.  The textual form is
comma-separated, e.g. "1,2,2".  Two words are rotation equivalent when
one is a cyclic shift of the other; the canonical representative of a
class (its necklace) is its lexicographically least rotation.

In a walk a word is a row of 0-based letters (_digit_rows), and
prefix_blocks is the one prefix walker: it grows such rows one letter at a
time from the empty word with their FKM periods (necklace_children), runs
each screen with one mask per row as its prune, and yields (digits,
periods, *rows) blocks of the words of one length.
tuples._PrefixStore.walk is the one walk over products, with one product
per row, built once per store: the level passes of bounds and the offender
scans (finiteness._scan) run it.  word_blocks lists words and, by
prunes, necklaces (_necklaces) and primitive words.
enumerate_words and enumerate_necklaces decode its blocks to tuples
(_words_at: digits + 1), and render_words turns a block into text.
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
    """True iff w is not a proper power, that is, iff its rotations are all distinct (_primitive)."""
    w = validate_word(w)
    return bool(_primitive(_digit_rows([w], max(w)))[0])


def power(w: Word, p: int) -> Word:
    w = validate_word(w)
    if p < 1:
        raise InputError(f"power must be >= 1, got {p}")
    return w * p


def enumerate_words(r: int, n: int, budget: int = DEFAULTS.word_budget) -> Iterator[Word]:
    """All words of length n over {1..r} in lexicographic order."""
    return chain.from_iterable(map(_words_at, word_blocks(r, n, budget=budget)))


def enumerate_necklaces(r: int, n: int, budget: int = DEFAULTS.word_budget) -> Iterator[Word]:
    """One representative per rotation class, its least rotation, in lexicographic order."""
    return chain.from_iterable(map(_words_at, word_blocks(r, n, necklaces=True, budget=budget)))


def word_blocks(r: int, n: int, *, necklaces: bool = False, primitive_only: bool = False,
                budget: int = DEFAULTS.word_budget) -> Iterator[np.ndarray]:
    """The digit rows of the words of length n over {1..r}, in lexicographic order.

    Rows come in non-empty blocks from prefix_blocks, each row counted as
    8 * n bytes, the n references of its decoded word, so that a decoded
    block fits in config.BLOCK_BYTES unless one prefix's r children do not.
    necklaces keeps one word per rotation class, its least rotation;
    primitive_only keeps the words that are no proper power (is_primitive),
    among necklaces the Lyndon words.  Both are prunes.  The budget, r**n
    words, is checked at the call, before any is written; one below 1 is
    refused with InputError.
    """
    if r < 1:
        raise InputError(f"alphabet size must be >= 1, got {r}")
    if n < 1:
        raise InputError(f"word length must be >= 1, got {n}")
    if budget < 1:
        raise InputError(f"budget must be >= 1, got {budget}")
    if r ** n > budget:
        raise BudgetError(f"enumeration of {r}^{n} = {r ** n} words exceeds budget {budget}; lower the length")

    def prune(digits, periods, k):
        keep = _necklaces(periods, k, n) if necklaces else np.ones(len(digits), dtype=bool)
        return ~(keep & _primitive(digits)) if primitive_only and k == n else ~keep
    walk = prefix_blocks(r, n, 8 * n, prune=prune if necklaces or primitive_only else None)
    return (digits for digits, _ in walk)


def prefix_blocks(r: int, n: int, row_bytes: int, *, prune=None, grow=None):
    """Yield (digits, periods, *rows) over the words of length n over {1..r}, in lexicographic order.

    The one prefix walker: a while loop over a LIFO list of pieces
    (k, digits, periods, *rows) of prefixes of length k, from the empty word,
    digits being their (rows, k) digit rows and periods their FKM periods
    (necklace_children).  grow(k, digits, periods, *rows) returns the same
    arrays for the r children of each prefix of a piece of length k, in
    lexicographic order; the default is necklace_children, with no rows, and
    the empty word comes with none.  A grow may hand back rows that it built
    before, as tuples._PrefixStore's hands back store rows and builds only
    the children that no earlier walk kept.  Children are split into pieces of
    BLOCK_BYTES // row_bytes // r rows and pushed in reverse, so the children
    of one piece make at most one block: a block exceeds config.BLOCK_BYTES
    only when one prefix's r children do, and the pieces waiting at a time hold
    about n blocks of rows.  prune(digits, periods, *rows, k) is asked for
    every piece at every length 1 <= k <= n before it is grown or yielded, and
    masks the rows to drop with every word below them: each screen with one
    mask per row runs there.  No piece that prune empties is grown, no block is
    empty, and no budget is charged.
    """
    leaf_rows = config.BLOCK_BYTES // row_bytes
    if grow is None:
        def grow(k, digits, periods):
            return necklace_children(digits, periods, r)
    pending = [(0, _digit_rows([()], r), np.ones(1, dtype=np.int64))]
    while pending:
        k, *arrays = pending.pop()
        if prune is not None and k:
            keep = ~prune(*arrays, k)
            if np.count_nonzero(keep) < len(keep):  # copy only when a row goes
                arrays = [a.compress(keep, axis=0) for a in arrays]
        if not len(arrays[0]):
            continue
        if k == n:
            yield arrays
            continue
        arrays = grow(k, *arrays)
        step = max(1, len(arrays[0]) if k + 1 == n else leaf_rows // r)
        for lo in reversed(range(0, len(arrays[0]), step)):
            pending.append((k + 1, *[a[lo:lo + step] for a in arrays]))


def _digit_rows(ws, r: int) -> np.ndarray:
    """The 0-based letters of words of one length over {1..r}, one row each.

    The one place the walks' dtype is chosen: the least unsigned type that holds r (uint8 up to 255)."""
    return np.array(list(ws), dtype=np.min_scalar_type(r)) - 1


def _children(digits: np.ndarray, r: int) -> np.ndarray:
    """The digit rows of the r children of each prefix, in lexicographic order, by r strided copies."""
    m, k = digits.shape
    out = np.empty((m, r, k + 1), dtype=digits.dtype)
    for letter in range(r):
        out[:, letter, :k] = digits
        out[:, letter, k] = letter
    return out.reshape(m * r, k + 1)


def _primitive(digits: np.ndarray) -> np.ndarray:
    # a word with a period d dividing n equals its shift by d
    n = digits.shape[1]
    keep = np.ones(len(digits), dtype=bool)
    for d in range(1, n):
        if n % d == 0:
            keep &= (digits[:, d:] != digits[:, :-d]).any(axis=1)
    return keep


def _rows_among(ws, r: int):
    """A mask of the digit rows that spell one of the words ws, all of one length, over {1..r}.

    Each row, as one byte string, is looked up by np.searchsorted among the
    sorted ones of ws (np.isin may sort, which loads numpy.ma)."""
    def key(digits):  # keys of one width: a plain byte order, trailing zero bytes included
        return np.ascontiguousarray(digits).view(f"S{digits.shape[1] * digits.itemsize}")[:, 0]
    keys = np.sort(key(_digit_rows(ws, r)))

    def among(digits: np.ndarray) -> np.ndarray:
        found = key(digits)
        return keys[np.minimum(keys.searchsorted(found), len(keys) - 1)] == found
    return among


def render_words(digits: np.ndarray) -> str:
    """The words of digit rows in text form, one "1,2,2\\n" line each, built from the rows."""
    if digits.max() >= 9:
        return "".join(",".join(map(str, row)) + "\n" for row in (digits + 1).tolist())
    text = np.full((len(digits), 2 * digits.shape[1]), ord(","), dtype=np.uint8)
    text[:, ::2] = digits + ord("1")
    text[:, -1] = ord("\n")
    return text.tobytes().decode("ascii")


def _words_at(digits: np.ndarray) -> list[Word]:
    return list(map(tuple, (digits + 1).tolist()))


def necklace_children(digits: np.ndarray, periods: np.ndarray, r: int):
    """(digits, periods) of the r children of each row of length k, in lexicographic order (_child_periods)."""
    return _children(digits, r), _child_periods(digits, periods, r)


def _child_periods(digits: np.ndarray, periods: np.ndarray, r: int) -> np.ndarray:
    """The FKM periods of the r children of each row of length k, in lexicographic order.

    FKM rule (Cattell, Ruskey, Sawada, Serra, Miers, J. Algorithms 37, 2000):
    a pre-necklace's period is the length of its longest Lyndon prefix, 1 for
    the empty word, and any other word's is 0.  A child letter below the
    letter period places back gives 0; the period stays when the two are
    equal and becomes k + 1 otherwise.
    """
    m, k = digits.shape
    # the letter period places back, off the flat rows; r, above every letter, for period 0
    back = np.take(digits, np.arange(k, m * k + 1, k) - periods, mode="clip") if m * k else np.zeros(m, digits.dtype)
    back = np.where(periods > 0, back, r)
    out = np.empty((m, r), dtype=periods.dtype)
    for letter in range(r):  # r strided writes, one per letter, as in _children
        out[:, letter] = np.where(back == letter, periods, (back < letter) * (k + 1))
    return out.ravel()


def _necklaces(periods: np.ndarray, k: int, n: int) -> np.ndarray:
    """A mask of the pre-necklaces among rows of length k < n, and at k = n of the necklaces (period divides n)."""
    if k < n:
        return periods > 0
    divides = np.zeros(n + 1, dtype=bool)  # looked up by period; period 0 stays False
    divides[1:] = n % np.arange(1, n + 1) == 0
    return divides[periods]
