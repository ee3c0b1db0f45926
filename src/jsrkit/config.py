"""Central defaults for every numeric knob in the package.

All tolerances live here so reports can print the exact configuration
they ran under.  Functions take keyword overrides; ``None`` means "use
the default below".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Defaults:
    # enumeration
    depth: int = 4
    word_budget: int = 10_000_000
    # bounds engine
    tie_tol: float = 1e-9          # relative tie window for spectral-maximal candidates
    close_tol: float = 1e-9        # relative gap for finiteness_verified_at_depth
    # structure tests
    rank_one_tol: float = 1e-9     # relative separation for the exterior-square verdict
    rank_tol: float = 1e-9         # relative singular-value cutoff for numeric rank
    span_drop_tol: float = 1e-9    # relative residual cutoff in span closures
    eigen_gap_tol: float = 1e-9    # relative modulus gap for the 2x2 separation heuristic
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

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULTS = Defaults()

# Largest array, in bytes, that a batched sweep builds at once: a block of
# word products, or the images of one block under a sampled norm.  A fixed
# bound on memory, not a tuning knob, so it is not a Defaults field.
BLOCK_BYTES = 1 << 20


def pick(value, default):
    """Return ``value`` unless it is None, else ``default``."""
    return default if value is None else value
