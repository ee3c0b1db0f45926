"""Dense matrix kernels used throughout the package.

Everything here works on square numpy arrays, real or complex.  Results
are plain floats (norms, radii) or arrays; no state is kept.  op_norms and
spectral_radii take a (k, d, d) stack and make one numpy call for all of
it, which loops over LAPACK in C; op_norm and spectral_radius are their
one-matrix forms.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .config import DEFAULTS, pick
from .errors import ConvergenceError


def _require_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _require_square_stack(stack: np.ndarray) -> np.ndarray:
    stack = np.asarray(stack)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {stack.shape}")
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


def rank_eps(a: np.ndarray, tol: float | None = None) -> int:
    """Numeric rank: singular values above ``tol`` relative to the largest.

    The zero matrix has rank 0.
    """
    tol = pick(tol, DEFAULTS.rank_tol)
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
        raise ValueError("exterior square needs dimension >= 2")
    pairs = list(combinations(range(d), 2))
    out = np.zeros((len(pairs), len(pairs)), dtype=a.dtype)
    for row, (i, j) in enumerate(pairs):
        for col, (k, l) in enumerate(pairs):
            out[row, col] = a[i, k] * a[j, l] - a[i, l] * a[j, k]
    return out
