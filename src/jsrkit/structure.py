"""Structural verdicts: irreducibility and the exterior-square rank test.

Verdicts are three-valued.  Certified and Refuted carry checkable
evidence; Unknown carries whatever partial information the search
produced.  Nothing here ever guesses: the real-field case with a
deficient algebra dimension but no real invariant subspace found stays
Unknown by design.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .bounds import bounds
from .config import DEFAULTS, _Record, require_fraction, require_tol
from .errors import InputError
from .tuples import MatrixTuple, _array_to_json, _check_seed, _seeded_rng, exterior_square_tuple


class PropertyVerdict(_Record):
    # status is "Certified", "Refuted" or "Unknown"
    __slots__ = _fields = ("status", "evidence")

    def to_json_dict(self) -> dict:
        return {"status": self.status, "evidence": self.evidence}


def algebra_basis(t: MatrixTuple, drop_tol: float = DEFAULTS.span_drop_tol) -> list[np.ndarray]:
    """Orthonormal basis (as d x d matrices) of span {identity and all products}.

    Closure under left multiplication by the slots, seeded with the
    identity, reaches every word product.  A candidate is kept when its residual
    after two classical Gram-Schmidt passes exceeds drop_tol times its norm.
    """
    require_fraction("drop_tol", require_tol("drop_tol", drop_tol))  # at 1 even the identity drops
    d = t.d
    queue = [np.eye(d, dtype=t.matrices[0].dtype)]
    basis = np.empty((d * d, d * d), dtype=queue[0].dtype)  # rows basis[:k] are orthonormal
    k = 0
    # entries near the float maximum overflow to inf and leave NaN residuals, which the keep test drops
    with np.errstate(over="ignore", invalid="ignore"):
        while queue and k < d * d:
            v = queue.pop(0).reshape(-1)
            scale = np.linalg.norm(v)
            for _ in range(2):  # the second pass restores orthogonality to working precision
                v = v - (basis[:k].conj() @ v) @ basis[:k]
            residual = np.linalg.norm(v)
            if scale > 0.0 and residual > drop_tol * scale:
                basis[k] = v / residual
                queue.extend(a @ basis[k].reshape(d, d) for a in t.matrices)
                k += 1
    return list(basis[:k].reshape(k, d, d))


def algebra_dimension(t: MatrixTuple, drop_tol: float = DEFAULTS.span_drop_tol) -> int:
    """Dimension over the tuple's field of the unital product span (at most d^2)."""
    return len(algebra_basis(t, drop_tol))


def _orbit_subspace(basis: list[np.ndarray], v: np.ndarray, drop_tol: float):
    """Span of {B v} for B over the algebra basis; returns (rank, orthonormal columns)."""
    stack = np.stack([b @ v for b in basis])
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.count_nonzero(s > drop_tol * s[0]))
    return rank, vh[:rank].conj().T


def _invariance_residual(t: MatrixTuple, w: np.ndarray) -> float:
    """max over the slots A of |A w - w w* A w| / max(1, op_norm(A)), for orthonormal columns w."""
    worst = 0.0
    # 2**-e puts each slot's largest entry in [0.5, 1), so nothing overflows, and it cancels exactly below
    scaled, exps = linalg._scaled_rows(np.stack(t.matrices))
    for a, e in zip(scaled, exps.tolist()):
        image = a @ w
        denom = max(np.ldexp(1.0, min(-e, 1023)), linalg.op_norm(a))  # capped only for all-subnormal slots
        worst = max(worst, float(np.linalg.norm(image - w @ (w.conj().T @ image)) / denom))
    return worst


def _real_eigenvectors(a: np.ndarray) -> list[np.ndarray]:
    vals, vecs = np.linalg.eig(a)
    out = []
    for lam, v in zip(vals, vecs.T):
        if abs(lam.imag) > 1e-9 * max(1.0, abs(lam)):
            continue
        # rotate the phase so a genuinely real eigenvector becomes real
        pivot = v[np.argmax(np.abs(v))]
        if abs(pivot) == 0.0:
            continue
        v = v * (pivot.conjugate() / abs(pivot))
        if np.max(np.abs(v.imag)) <= 1e-8 * max(np.max(np.abs(v.real)), 1e-30):
            out.append(np.real(v))
    return out


def is_irreducible(
    t: MatrixTuple,
    *,
    drop_tol: float = DEFAULTS.span_drop_tol,
    seed: int = DEFAULTS.seed,
    rounds: int = DEFAULTS.witness_rounds,
) -> PropertyVerdict:
    """Common-invariant-subspace test.

    Full algebra dimension d^2 gives Certified.  That is a numerical rank,
    d^2 vectors kept above drop_tol, not a proof: exactly reducible tuples
    can reach it.  Otherwise the search looks for a nonzero proper subspace
    invariant under every slot, trying standard basis vectors, slot
    eigenvectors, and orbits of eigenvectors of random algebra elements.
    Over the complex field a deficient dimension guarantees such a subspace
    exists, so the search continues until one is found; over the reals an
    unsuccessful search returns Unknown.
    """
    if rounds < 0:
        raise InputError(f"rounds must be >= 0, got {rounds}")
    _check_seed(seed)
    d = t.d
    basis = algebra_basis(t, drop_tol)
    dim = len(basis)
    if dim == d * d:
        return PropertyVerdict("Certified", {"algebra_dimension": dim})

    complex_field = t.field == "complex"
    dtype = t.matrices[0].dtype

    def check(v: np.ndarray) -> PropertyVerdict | None:
        v = np.asarray(v, dtype=dtype)
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            return None
        rank, w = _orbit_subspace(basis, v / nrm, drop_tol)
        if not 0 < rank < d:
            return None
        if _invariance_residual(t, w) > 1e-8:
            return None
        evidence = {
            "algebra_dimension": dim,
            "subspace_dimension": rank,
            "basis": _array_to_json(w.T, t.field),
        }
        return PropertyVerdict("Refuted", evidence)

    def eigenvectors(a: np.ndarray):
        return np.linalg.eig(a)[1].T if complex_field else _real_eigenvectors(a)

    def candidates():
        yield from np.eye(d, dtype=dtype)
        for a in t.matrices:
            yield from eigenvectors(a)
        rng = _seeded_rng(seed)  # numpy.random loads only for a run that draws
        for _ in range(rounds):
            coeffs = rng.standard_normal(dim)
            if complex_field:
                coeffs = coeffs + 1j * rng.standard_normal(dim)
            yield from eigenvectors(sum(c * b for c, b in zip(coeffs, basis)))
            if not complex_field:
                yield rng.standard_normal(d)

    for v in candidates():
        found = check(v)
        if found:
            return found
    note = (
        "deficient algebra dimension but no complex witness found within the round cap"
        if complex_field
        else "real field: algebra dimension is deficient but no real invariant subspace was found"
    )
    return PropertyVerdict("Unknown", {"algebra_dimension": dim, "note": note})


def rank_one_property(
    t: MatrixTuple,
    depth: int,
    *,
    tol: float = DEFAULTS.rank_one_tol,
    budget: int = DEFAULTS.word_budget,
) -> PropertyVerdict:
    """Exterior-square criterion at a given certification depth.

    The joint spectral radius of the exterior square never exceeds the
    square of the original one; strict inequality is the rank-one
    property.  Certified when the wedge upper bound sits below the
    squared lower bound (or every wedge product vanished outright,
    assuming relative product boundedness of the input); Refuted when
    the wedge lower bound forces equality; Unknown otherwise.
    """
    if t.d < 2:
        raise InputError("rank-one test needs dimension >= 2")
    # tol >= 1 would make the Refuted test b.upper**2 * (1 - tol) <= 0 always pass
    require_fraction("tol", tol)
    b = bounds(t, depth, budget=budget)
    bw = bounds(exterior_square_tuple(t), depth, budget=budget)
    evidence = {
        "bounds": b.to_json_dict(),
        "wedge_bounds": bw.to_json_dict(),
        "depth": depth,
    }
    if bw.upper == 0.0:
        status = "Certified"
    elif bw.upper < b.lower ** 2 * (1.0 - tol):
        status = "Certified"
    elif bw.lower >= b.upper ** 2 * (1.0 - tol):
        status = "Refuted"
    else:
        status = "Unknown"
    return PropertyVerdict(status, evidence)

