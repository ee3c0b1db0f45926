"""Finite matrix tuples: the model type, word-indexed products, serialization.

A tuple holds r square matrices of equal dimension d over a declared
field ("real" or "complex").  The JSON wire format is

    {"field": "real", "r": 2, "d": 2, "matrices": [[[0, 1], [0, 0]], ...]}

with each matrix given as d rows of d entries.  Complex entries are
two-element arrays [re, im].  Unknown top-level keys are ignored so
files carrying extra metadata (e.g. a "truth" block) round-trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import config, linalg
from .errors import ConvergenceError, InputError
from .words import Word, necklace_children, rotation_class, validate_word, word_index

_FIELDS = ("real", "complex")


def _check_field(field) -> str:
    """field must be one of _FIELDS; else InputError."""
    if field not in _FIELDS:
        raise InputError(f"field must be one of {_FIELDS}, got {field!r}")
    return field


@dataclass(frozen=True, eq=False)
class MatrixTuple:
    """Immutable ordered tuple of square matrices with a field tag."""

    field: str
    matrices: tuple[np.ndarray, ...]

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

    def __post_init__(self):
        _check_field(self.field)
        if len(self.matrices) < 1:
            raise InputError("a matrix tuple needs at least one slot")
        dtype = np.complex128 if self.field == "complex" else np.float64
        frozen = []
        d = None
        for idx, raw in enumerate(self.matrices):
            a = np.asarray(raw)
            if self.field == "real" and np.iscomplexobj(a):
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
        object.__setattr__(self, "matrices", tuple(frozen))

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


def product_blocks(t: MatrixTuple, n: int, *, necklaces=False, prune=None):
    """Yield (codes, stack) over the products of the words of length n, in lexicographic order.

    codes holds each word's int64 base-r index (words.word_at decodes it) and
    stack the products P_w, (k, d, d).  One loop grows pieces of prefixes from
    the empty word, whose children are the slots, as A_letter @ P_prefix in
    one batched layer, product_along's sequence of 2-D products, so each P_w
    equals it bitwise.  Children are split into pieces whose whole subtree fits
    in config.BLOCK_BYTES and pushed on a LIFO list in reverse.  necklaces=True
    keeps only least rotations: each prefix carries its FKM period, and
    words.necklace_children filters the children as they are built.
    prune(codes, stack, k) is asked for every piece at every length 1 <= k <= n,
    full words included, before it is grown or yielded, and masks the rows to
    drop with every word below them.  No block is empty.  Callers check r**n
    against their budget first; a non-finite product raises ConvergenceError.
    """
    r = t.r
    slots = np.stack(t.matrices)
    leaf_rows = config.BLOCK_BYTES // slots[0].nbytes
    # (codes, periods, stack, k) per piece of prefixes of length k; the empty word has no stack
    pending = [(np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64), None, 0)]
    while pending:
        codes, periods, stack, k = pending.pop()
        if prune is not None and k:
            keep = ~prune(codes, stack, k)
            if not keep.all():  # copy only when a row goes
                codes, periods, stack = codes[keep], periods[keep], stack[keep]
        if k == n:
            if len(codes):
                yield codes, stack
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            children = slots if k == 0 else np.matmul(slots[None], stack[:, None]).reshape(-1, *slots.shape[1:])
        if not np.isfinite(children).all():
            raise ConvergenceError(
                f"products of length {k + 1} overflow; the tuple's scale is out of range"
            )
        if necklaces:
            codes, periods, keep = necklace_children(codes, periods, r, k, n)
            children = children[keep]
        else:
            codes = periods = (codes[:, None] * r + np.arange(r)).ravel()
        # the words below one piece of length n - 1 make one block
        piece = max(1, len(codes) if k + 1 == n else leaf_rows // r ** (n - k - 1))
        for lo in reversed(range(0, len(codes), piece)):
            pending.append((codes[lo:lo + piece], periods[lo:lo + piece], children[lo:lo + piece], k + 1))


def off_class_blocks(t: MatrixTuple, omega: Word):
    """product_blocks over the words of length n = |omega| outside omega's rotation class.

    The prune drops each exactly zero product, at every length, with its subtree
    (a finite number times +-0 is +-0), and omega's rotations at k = n."""
    rotations = np.array([word_index(z, t.r) for z in rotation_class(omega)], dtype=np.int64)

    def prune(codes, stack, k):
        zero = ~stack.any(axis=(1, 2))
        # compared against each of the <= n rotations: np.isin may sort, which loads numpy.ma
        return zero | (codes[:, None] == rotations).any(axis=1) if k == len(omega) else zero
    return product_blocks(t, len(omega), prune=prune)


def tuple_distance(s: MatrixTuple, t: MatrixTuple) -> float:
    """max over slots of the Euclidean operator norm of the difference."""
    if s.r != t.r or s.d != t.d:
        raise InputError(
            f"shape mismatch: ({s.r} slots, d={s.d}) vs ({t.r} slots, d={t.d})"
        )
    return max(
        linalg.op_norm(a - b) for a, b in zip(s.matrices, t.matrices)
    )


def scale(t: MatrixTuple, c) -> MatrixTuple:
    """Multiply every slot by the scalar c (complex c needs a complex tuple)."""
    if t.field == "real" and isinstance(c, complex):
        raise InputError("complex scale factor on a real tuple")
    return MatrixTuple(t.field, tuple(c * a for a in t.matrices))


def exterior_square_tuple(t: MatrixTuple) -> MatrixTuple:
    """Apply the second exterior power to every slot."""
    return MatrixTuple(t.field, tuple(linalg.exterior_square(a) for a in t.matrices))


def _entry_to_json(x, field: str):
    if field == "complex":
        return [float(np.real(x)), float(np.imag(x))]
    return float(np.real(x))


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


def _entry_from_json(x, field: str, where: str):
    if field == "complex":
        if not (isinstance(x, list) and len(x) == 2):
            raise InputError(f"{where}: complex entries must be [re, im] pairs")
        re, im = x
        return complex(_json_number(re, where), _json_number(im, where))
    return _json_number(x, where)


def to_json_dict(t: MatrixTuple) -> dict:
    return {
        "field": t.field,
        "r": t.r,
        "d": t.d,
        "matrices": [
            [[_entry_to_json(x, t.field) for x in row] for row in np.asarray(a)]
            for a in t.matrices
        ],
    }


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
            mat.append([_entry_from_json(x, field, where) for x in row])
        parsed.append(mat)
    return MatrixTuple(field, tuple(np.array(m) for m in parsed))


def to_json(t: MatrixTuple, extra: dict | None = None) -> str:
    payload = to_json_dict(t)
    if extra:
        payload.update(extra)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def from_json(text: str) -> MatrixTuple:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from exc
    return from_json_dict(payload)
