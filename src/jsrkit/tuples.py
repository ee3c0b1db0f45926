"""Finite matrix tuples: the model type, word-indexed products, serialization.

A tuple holds r square matrices of equal dimension d over a declared
field ("real" or "complex").  The JSON wire format is

    {"field": "real", "r": 2, "d": 2, "matrices": [[[0, 1], [0, 0]], ...]}

with each matrix given as d rows of d entries.  Complex entries are
two-element arrays [re, im].  Unknown top-level keys are ignored so
files carrying extra metadata (e.g. a "truth" block) round-trip.  Tuple
files and every CLI report are written by json.dumps(payload, indent=2,
sort_keys=True).  An array leaves as JSON numbers through one tolist
(_array_to_json), and _number_list, the one reader of number lists (tuple
rows, norm weights and meshes), takes an all-float list as it is.
"""

from __future__ import annotations

import json

import numpy as np

from . import config, linalg
from .errors import BudgetError, ConvergenceError, InputError
from .words import (
    Word,
    _child_periods,
    _children,
    _digit_rows,
    necklace_children,
    prefix_blocks,
    validate_word,
)

_FIELDS = ("real", "complex")


def _check_field(field) -> str:
    """field must be one of _FIELDS; else InputError."""
    if field not in _FIELDS:
        raise InputError(f"field must be one of {_FIELDS}, got {field!r}")
    return field


class MatrixTuple(config._Record):
    """Immutable ordered tuple of square matrices with a field tag."""

    __slots__ = _fields = ("field", "matrices")

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, MatrixTuple):
            return NotImplemented
        return (
            self.field == other.field
            and len(self.matrices) == len(other.matrices)
            and all(
                np.array_equal(a, b)
                for a, b in zip(self.matrices, other.matrices)
            )
        )

    def __init__(self, field: str, matrices):
        _check_field(field)
        if len(matrices) < 1:
            raise InputError("a matrix tuple needs at least one slot")
        dtype = np.complex128 if field == "complex" else np.float64
        frozen = []
        d = None
        for idx, raw in enumerate(matrices):
            a = np.asarray(raw)
            if field == "real" and np.iscomplexobj(a):
                if np.any(a.imag != 0):
                    raise InputError(f"slot {idx + 1} has complex entries in a real tuple")
                a = a.real
            a = np.array(a, dtype=dtype)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise InputError(f"slot {idx + 1} is not square: shape {a.shape}")
            if d is None:
                d = a.shape[0]
            elif a.shape[0] != d:
                raise InputError(
                    f"slot {idx + 1} has dimension {a.shape[0]}, expected {d}"
                )
            if not np.all(np.isfinite(a)):
                raise InputError(f"slot {idx + 1} has non-finite entries")
            a.flags.writeable = False
            frozen.append(a)
        if d < 1:
            raise InputError("matrix dimension must be >= 1")
        self._set(field=field, matrices=tuple(frozen))

    @property
    def r(self) -> int:
        return len(self.matrices)

    @property
    def d(self) -> int:
        return self.matrices[0].shape[0]

    def slot(self, letter: int) -> np.ndarray:
        """Matrix for a 1-based letter."""
        if not 1 <= letter <= self.r:
            raise InputError(f"letter {letter} outside alphabet 1..{self.r}")
        return self.matrices[letter - 1]


def product_along(t: MatrixTuple, w: Word) -> np.ndarray:
    """Matrix product read off a word.

    The first letter names the rightmost factor, so for w = (w1, ..., wn)
    the result is A_wn @ ... @ A_w1: letters are applied to a vector in
    reading order.
    """
    w = validate_word(w, t.r)
    out = t.slot(w[0])
    for letter in w[1:]:
        out = t.slot(letter) @ out
    return out


def _products_below(slots: np.ndarray, stack: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """A_letter @ P for each prefix product P of length k in stack, prefix by prefix, in one batched matmul.

    out, a (len(stack), r, d, d) array, receives them; a non-finite product
    raises ConvergenceError.
    """
    children = np.matmul(slots[None], stack[:, None], out=out)
    if np.count_nonzero(np.isfinite(children)) < children.size:
        raise ConvergenceError(f"products of length {k + 1} overflow; the tuple's scale is out of range")
    return children.reshape(-1, *slots.shape[1:])


# The products a _PrefixStore keeps take at most this many times
# config.BLOCK_BYTES.  A fixed bound on memory, as BLOCK_BYTES is.
_STORE_BLOCKS = 32


def _rows(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """table[index] for a non-empty index: a view when index counts up by one, else a gathered copy."""
    lo, hi = int(index[0]), int(index[-1]) + 1
    if hi - lo == len(index) and not np.count_nonzero(index[1:] - index[:-1] - 1):
        return table[lo:hi]
    return table[index]


class _PrefixStore:
    """The one walk over products: the prefix products of its walks, each built once, and their budget.

    walk(n, prune=...) runs words.prefix_blocks over the words of length n,
    in lexicographic order, and yields (digits, periods, caps, stack): the
    words' digit rows and periods, the linalg.op_norm_caps values of their
    products and those products as a (k, d, d) stack, valid until the next
    block is asked for.  Each row a walk asks its prune about is added to
    spent, the count of every walk of the store, before
    prune(digits, periods, caps, k) sees its caps: BudgetError once spent
    passes budget, which must be at least 1 (InputError).  The empty word's children are the slots and a prefix's
    are A_letter @ P_prefix in one batched matmul per piece
    (_products_below), product_along's 2-D products, so each P_w equals it
    bitwise.  bounds._levels walks one store per level pass.
    finiteness._scan walks a store of depth 1 once per scan: it keeps only
    the slots, and every later row goes into the scratch rows of its
    length, since a single walk reads no row again once its children are
    built.

    Inside, the walk's pieces carry each row's number and cap.  A kept row
    holds a prefix's FKM period, its product P_w, its cap and the row of its
    first child, -1 until its children are kept; the r children of a prefix
    are consecutive rows.  Only children that no earlier walk of the store kept
    are built, written into the store.  Rows are kept first come, first
    served, up to _STORE_BLOCKS * config.BLOCK_BYTES bytes of products and
    no more rows than there are words shorter than depth, or r.  When a
    piece's children do not all fit, have length depth (no later walk asks
    about them) or have parents that are not kept, all of them are built
    into the scratch rows of their length, numbered from capacity up: one
    buffer per length, reused piece after piece.  A piece is grown only
    after every piece of its children's length waiting in the walk is done,
    so those rows serve until the next piece of that length is grown.
    Parents, and the products of a yielded block, that form one run of rows
    are read in place (_rows).
    """

    def __init__(self, t: MatrixTuple, depth: int, budget: int):
        if budget < 1:
            raise InputError(f"budget must be >= 1, got {budget}")
        self.slots, self.r, self.depth = np.stack(t.matrices), t.r, depth
        self.budget, self.spent = budget, 0  # rows asked about, by every walk of the store
        # no pass keeps more rows than there are words of lengths 1 .. depth - 1, or r
        bound, rows, words = _STORE_BLOCKS * config.BLOCK_BYTES // self.slots[0].nbytes, t.r, t.r
        for _ in range(depth - 2):
            if rows >= bound:
                break
            words *= t.r
            rows += words
        self.capacity = max(t.r, min(bound, rows))
        # allocated once; their pages are touched only as rows are kept
        self.products = np.empty((self.capacity, *self.slots.shape[1:]), self.slots.dtype)
        self.caps, self.periods, self.first = np.empty(self.capacity), *np.empty((2, self.capacity), np.int64)
        self.size, self.scratch = 0, {}  # rows kept; by length, the scratch buffer
        digits, periods = necklace_children(_digit_rows([()], t.r), np.ones(1, dtype=np.int64), t.r)
        self.products[:t.r] = self.slots  # the empty word's children
        self._keep(periods, self.products[:t.r])
        self.root = digits, periods, np.arange(t.r), self.caps[:t.r]

    def _keep(self, periods: np.ndarray, built: np.ndarray) -> None:
        """Keep the next len(built) rows, which built already holds, with their periods and caps."""
        lo, self.size = self.size, self.size + len(built)
        kept = slice(lo, self.size)
        self.caps[kept], self.periods[kept], self.first[kept] = linalg.op_norm_caps(built), periods, -1

    def _table(self, k: int, index: np.ndarray):
        """(products, rows) that hold the rows index of length k: the store's or length k's scratch."""
        if index[0] < self.capacity:
            return self.products, index
        return self.scratch[k], index - self.capacity

    def _grow(self, k: int, digits: np.ndarray, periods: np.ndarray, index=None, caps=None):
        """(digits, periods, index, caps) of the children of the prefixes of length k at rows index."""
        if index is None:  # the empty word
            return self.root
        r, shape = self.r, self.slots.shape
        children = _children(digits, r)
        if index[0] < self.capacity:
            first = self.first[index]
            missing = (first < 0).nonzero()[0]
            m = len(missing) * r
            if not m or (k + 1 < self.depth and self.size + m <= self.capacity):
                if m:
                    lo, parents = self.size, index[missing]
                    out = self.products[lo:lo + m].reshape(len(missing), *shape)
                    built = _products_below(self.slots, _rows(self.products, parents), k, out)
                    self._keep(_child_periods(digits[missing], periods[missing], r), built)
                    first[missing] = self.first[parents] = lo + r * np.arange(len(missing))
                index = (first[:, None] + np.arange(r)).ravel()
                return children, self.periods[index], index, self.caps[index]
        products, rows = self._table(k, index)
        m = len(rows) * r
        buffer = self.scratch.get(k + 1)
        if buffer is None or len(buffer) < m:
            buffer = self.scratch[k + 1] = np.empty((m, *shape[1:]), self.slots.dtype)
        built = _products_below(self.slots, _rows(products, rows), k, buffer[:m].reshape(len(rows), *shape))
        return children, _child_periods(digits, periods, r), self.capacity + np.arange(m), linalg.op_norm_caps(built)

    def walk(self, n: int, *, prune):
        """Yield (digits, periods, caps, stack), the blocks of length n, each valid until the next is
        asked for; the prune and the blocks get the caps that the pieces carry.  Each step of
        prefix_blocks, with its prunes, grows and caps, runs under np.errstate(over="ignore",
        invalid="ignore"), which no yield holds: the caller's work on a block runs outside it."""
        def charged(digits, periods, index, caps, k):
            self.spent += len(digits)
            if self.spent > self.budget:
                raise BudgetError(f"enumeration of products of length {n} exceeds budget {self.budget} rows")
            return prune(digits, periods, caps, k)
        blocks = prefix_blocks(self.r, n, self.slots[0].nbytes, prune=charged, grow=self._grow)
        while True:
            with np.errstate(over="ignore", invalid="ignore"):
                block = next(blocks, None)
            if block is None:
                return
            digits, periods, index, caps = block
            products, rows = self._table(n, index)
            yield digits, periods, caps, _rows(products, rows)


def tuple_distance(s: MatrixTuple, t: MatrixTuple) -> float:
    """max over slots of the Euclidean operator norm of the difference; ConvergenceError past the float range."""
    if s.r != t.r or s.d != t.d:
        raise InputError(f"shape mismatch: ({s.r} slots, d={s.d}) vs ({t.r} slots, d={t.d})")
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = np.stack(s.matrices) - np.stack(t.matrices)
    if not np.isfinite(diffs).all():
        raise ConvergenceError("slot differences overflow; the tuples' scale is out of range")
    return float(np.max(linalg.op_norms(diffs)))


def scale(t: MatrixTuple, c) -> MatrixTuple:
    """Multiply every slot by the scalar c (complex c needs a complex tuple)."""
    if t.field == "real" and isinstance(c, complex):
        raise InputError("complex scale factor on a real tuple")
    return MatrixTuple(t.field, tuple(c * a for a in t.matrices))


def exterior_square_tuple(t: MatrixTuple) -> MatrixTuple:
    """Apply the second exterior power to every slot."""
    return MatrixTuple(t.field, tuple(linalg.exterior_square(a) for a in t.matrices))


def _check_seed(seed) -> None:
    """InputError unless numpy accepts seed: None, bools and the rest are refused."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")


def _seeded_rng(seed) -> np.random.Generator:
    """numpy's generator for a checked seed.

    numpy.random loads on first use, so a caller that may never draw checks
    the seed up front and builds the generator just before its first draw.
    """
    _check_seed(seed)
    return np.random.default_rng(seed)


def _json_number(x, where: str) -> float:
    """float(x) for a JSON number; bools, non-numbers and out-of-range integers raise InputError."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise InputError(f"{where}: non-numeric entry")
    try:
        return float(x)
    except OverflowError:
        raise InputError(f"{where}: integer entry too large for a float") from None


def _number_list(values, where: str) -> list:
    """A JSON list of numbers as floats: an all-float list as it is, else entry by entry through _json_number."""
    if not isinstance(values, list):
        raise InputError(f"{where} must be a list of numbers")
    if set(map(type, values)) <= {float}:
        return values
    return [_json_number(x, where) for x in values]


def _complex_from_json(x, where: str) -> complex:
    if not (isinstance(x, list) and len(x) == 2):
        raise InputError(f"{where}: complex entries must be [re, im] pairs")
    return complex(*_number_list(x, where))


def _array_to_json(a: np.ndarray, field: str) -> list:
    """a as nested lists of Python floats, complex entries as [re, im] pairs, in one tolist (exact for float64)."""
    return (np.stack((a.real, a.imag), axis=-1) if field == "complex" else a.real).tolist()


def to_json_dict(t: MatrixTuple) -> dict:
    return {"field": t.field, "r": t.r, "d": t.d, "matrices": _array_to_json(np.stack(t.matrices), t.field)}


def from_json_dict(payload: dict) -> MatrixTuple:
    if not isinstance(payload, dict):
        raise InputError("tuple payload must be a JSON object")
    for key in ("field", "r", "d", "matrices"):
        if key not in payload:
            raise InputError(f"tuple payload missing key {key!r}")
    field = _check_field(payload["field"])
    r, d = payload["r"], payload["d"]
    if any(not isinstance(x, int) or isinstance(x, bool) or x < 1 for x in (r, d)):
        raise InputError("r and d must be positive integers")
    mats = payload["matrices"]
    if not isinstance(mats, list) or len(mats) != r:
        raise InputError(f"expected {r} matrices, got {len(mats) if isinstance(mats, list) else 'non-list'}")
    parsed = []
    for i, rows in enumerate(mats):
        where = f"matrix {i + 1}"
        if not isinstance(rows, list) or len(rows) != d:
            raise InputError(f"{where}: expected {d} rows")
        mat = []
        for row in rows:
            if not isinstance(row, list) or len(row) != d:
                raise InputError(f"{where}: expected rows of {d} entries")
            mat.append([_complex_from_json(x, where) for x in row] if field == "complex" else _number_list(row, where))
        parsed.append(mat)
    return MatrixTuple(field, tuple(np.array(m) for m in parsed))


def to_json(t: MatrixTuple, extra: dict | None = None) -> str:
    payload = to_json_dict(t)
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def from_json(text: str) -> MatrixTuple:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise InputError(f"malformed JSON: {exc}") from exc
    return from_json_dict(payload)
