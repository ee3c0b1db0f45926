"""Central defaults for every numeric knob in the package.

All tolerances live here so reports can print the exact configuration
they ran under.  Each public function binds the defaults it uses in its
own signature (``budget: int = DEFAULTS.word_budget``), so a value is
resolved once, at the call, and the helpers below it take it resolved.
``None`` is not a default: leave an argument out to get the value below.
Every field is read outside this module; a fixed constant that no caller
sets, like the tie window bounds._TIE_TOL, lives with its code instead.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InputError


class Defaults(NamedTuple):
    # enumeration
    depth: int = 4
    word_budget: int = 10_000_000
    # bounds engine
    close_tol: float = 1e-9        # relative gap for finiteness_verified_at_depth
    # structure tests
    rank_one_tol: float = 1e-9     # relative separation for the exterior-square verdict
    rank_tol: float = 1e-9         # relative singular-value cutoff for numeric rank
    span_drop_tol: float = 1e-9    # relative residual cutoff in span closures
    witness_rounds: int = 200      # random restarts in the invariant-subspace search
    # norm machinery
    mesh_size: int = 720           # directions on the upper half circle / sample circle
    max_iter: int = 500            # fixed-point sweeps for the norm approximation
    step_tol: float = 1e-6         # log-distance stop threshold between sweeps
    verify_tol: float = 1e-9       # default pass threshold for norm verification
    norm_check_tol: float = 1e-3   # admission threshold for norms fed into evidence runs
    offender_tol: float = 1e-6     # relative band for near-maximal competitor words
    # misc
    seed: int = 0


DEFAULTS = Defaults()

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
