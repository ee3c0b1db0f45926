"""Dense matrix kernels used throughout the package.

Everything here works on square numpy arrays, real or complex.  Results
are plain floats (norms, radii) or arrays; no state is kept.  op_norms and
spectral_radii take a (k, d, d) stack and make one numpy call for all of
it, which loops over LAPACK in C; op_norm and spectral_radius are their
one-matrix forms.  op_norm_caps bounds op_norms from above row by row in a
few array passes, with no LAPACK call, so callers can skip the SVD of rows
whose bound already decides a comparison.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .config import DEFAULTS
from .errors import ConvergenceError, InputError


def _require_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    return a


def _require_square_stack(stack: np.ndarray) -> np.ndarray:
    stack = np.asarray(stack)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise InputError(f"expected a stack of square matrices, got shape {stack.shape}")
    return stack


def op_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (k, d, d) stack, in one numpy call.

    numpy runs the same routine on every matrix of a stack as on a single
    matrix, so each value equals the one-matrix call bitwise.
    """
    stack = _require_square_stack(stack)
    try:
        s = np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular value computation failed: {exc}") from exc
    return s[:, 0]


# ||P||_2 <= ||P||_F holds exactly; the margin covers the rounding on both
# sides of the computed comparison.  The Frobenius sum of d*d squares and its
# square root carry a relative error below (d*d + 1) * eps, and LAPACK's
# sigma_1 is backward stable, off by a small multiple of d * eps relative.
# For d up to about a hundred the two together stay below 1e-11, so the cap
# holds even for rank-one rows, where ||P||_F equals sigma_1.
_CAP_MARGIN = 1.0 + 1e-10


def op_norm_caps(stack: np.ndarray) -> np.ndarray:
    """Upper bound on op_norms(stack), row by row, from the Frobenius norm of each matrix.

    Each |P| is first scaled by the power of two that brings its largest
    entry into [0.5, 1), so the sum of squares neither underflows to 0 nor
    overflows at any scale.  The scaling is exact except for entries below
    2**-1022 times the largest, whose squares lie far under the margin.  It
    is undone after the margin is applied; a bound past the float range is
    inf, which rules nothing out.  An all-zero row gets 0.
    """
    mags = np.abs(_require_square_stack(stack))
    _, exps = np.frexp(mags.max(axis=(1, 2)))
    frob = np.linalg.norm(np.ldexp(mags, -exps[:, None, None]), axis=(1, 2))
    with np.errstate(over="ignore"):
        return np.ldexp(frob * _CAP_MARGIN, exps)


def spectral_radii(stack: np.ndarray) -> np.ndarray:
    """Largest eigenvalue modulus of each matrix in a (k, d, d) stack."""
    stack = _require_square_stack(stack)
    try:
        eig = np.linalg.eigvals(stack)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue computation failed: {exc}") from exc
    return np.max(np.abs(eig), axis=1)


def op_norm(a: np.ndarray) -> float:
    """Operator norm induced by the Euclidean vector norm (largest singular value)."""
    return float(op_norms(_require_square(a)[None])[0])


def spectral_radius(a: np.ndarray) -> float:
    """Largest eigenvalue modulus."""
    return float(spectral_radii(_require_square(a)[None])[0])


def determinant(a: np.ndarray):
    """Determinant; float for real input, complex otherwise."""
    a = _require_square(a)
    det = np.linalg.det(a)
    if np.iscomplexobj(a):
        return complex(det)
    return float(det)


def rank_eps(a: np.ndarray, tol: float = DEFAULTS.rank_tol) -> int:
    """Numeric rank: singular values above ``tol`` relative to the largest.

    The zero matrix has rank 0.
    """
    a = _require_square(a)
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def exterior_square(a: np.ndarray) -> np.ndarray:
    """Second exterior power: the matrix of 2x2 minors on wedge coordinates.

    Rows and columns are indexed by index pairs (i, j) with i < j in
    lexicographic order, so the result is m x m with m = d(d-1)/2 and
    entry[(i,j),(k,l)] = a[i,k]a[j,l] - a[i,l]a[j,k].  Requires d >= 2.
    """
    a = _require_square(a)
    d = a.shape[0]
    if d < 2:
        raise InputError("exterior square needs dimension >= 2")
    pairs = list(combinations(range(d), 2))
    out = np.zeros((len(pairs), len(pairs)), dtype=a.dtype)
    for row, (i, j) in enumerate(pairs):
        for col, (k, l) in enumerate(pairs):
            out[row, col] = a[i, k] * a[j, l] - a[i, l] * a[j, k]
    return out
