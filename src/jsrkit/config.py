"""Central defaults for every numeric knob in the package.

All tolerances live here so reports can print the exact configuration
they ran under.  Each public function binds the defaults it uses in its
own signature (``budget: int = DEFAULTS.word_budget``), so a value is
resolved once, at the call, and the helpers below it take it resolved.
``None`` is not a default: leave an argument out to get the value below.
Every field is read outside this module; a fixed constant that no caller
sets, like the tie window bounds._TIE_TOL, lives with its code instead.
The record type that Defaults and every other record use, _Record, lives
here too, in the one module that every layer imports.
"""

from __future__ import annotations

import math

from .errors import InputError


class _Record:
    """Immutable record over __slots__: the one record type of the package.

    A subclass names its public fields in _fields.  The constructor binds
    them by position or by name, each once; a subclass that checks its input
    defines its own __init__ and stores each slot once, through _set.  Any
    later assignment raises AttributeError.  Equality, hashing, repr and
    pickling cover the fields named in _fields, in order, so a cached slot
    stays out of them, and a record equals only a record of its own class.
    """

    __slots__ = _fields = ()

    def __init__(self, *args, **kwargs):
        values = {**dict(zip(self._fields, args)), **kwargs}
        # each field once: a missing, repeated, unknown or surplus one changes a count or a key
        if len(args) + len(kwargs) != len(self._fields) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields} once each, "
                            f"got {len(args)} by position and {sorted(kwargs)} by name")
        self._set(**values)

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        return type(self), self._values()


class Defaults(_Record):
    __slots__ = _fields = (
        "depth", "word_budget", "close_tol", "rank_one_tol", "rank_tol", "span_drop_tol",
        "witness_rounds", "mesh_size", "max_iter", "step_tol", "verify_tol", "norm_check_tol",
        "offender_tol", "seed",
    )


DEFAULTS = Defaults(
    # enumeration
    depth=4,
    word_budget=10_000_000,
    # bounds engine
    close_tol=1e-9,        # relative gap for finiteness_verified_at_depth
    # structure tests
    rank_one_tol=1e-9,     # relative separation for the exterior-square verdict
    rank_tol=1e-9,         # relative singular-value cutoff for numeric rank
    span_drop_tol=1e-9,    # relative residual cutoff in span closures
    witness_rounds=200,    # random restarts in the invariant-subspace search
    # norm machinery
    mesh_size=720,         # directions on the upper half circle / sample circle
    max_iter=500,          # fixed-point sweeps for the norm approximation
    step_tol=1e-6,         # log-distance stop threshold between sweeps
    verify_tol=1e-9,       # default pass threshold for norm verification
    norm_check_tol=1e-3,   # admission threshold for norms fed into evidence runs
    offender_tol=1e-6,     # relative band for near-maximal competitor words
    # misc
    seed=0,
)

# Largest array, in bytes, that a batched sweep builds at once: a block of
# word products, or the images of one block under a sampled norm.  A fixed
# bound on memory, not a tuning knob, so it is not a Defaults field.
BLOCK_BYTES = 1 << 20


def require_tol(name: str, value: float, *, zero_ok: bool = False) -> float:
    """A tolerance must be finite and positive, or 0 with zero_ok; else InputError naming it."""
    if not (value >= 0 if zero_ok else value > 0):
        raise InputError(f"{name} must be {'>= 0' if zero_ok else 'positive'}, got {value}")
    if not math.isfinite(value):
        raise InputError(f"{name} must be finite, got {value}")
    return value


def require_fraction(name: str, value: float) -> float:
    """A relative tolerance must lie strictly between 0 and 1; else InputError naming it."""
    if not 0.0 < value < 1.0:
        raise InputError(f"{name} must be in (0, 1), got {value}")
    return value
