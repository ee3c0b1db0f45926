"""Dense matrix kernels used throughout the package.

Everything here works on square numpy arrays, real or complex.  Results
are plain floats (norms, radii) or arrays; no state is kept.  op_norms and
spectral_radii take a (k, d, d) stack and make one numpy call for all of
it, which loops over LAPACK in C; op_norm and spectral_radius are their
one-matrix forms.  op_norm_caps and spectral_radius_caps bound op_norms and
spectral_radii from above row by row in a few array passes, with no LAPACK
call, so callers can skip the SVD or eigenvalues of rows whose bound already
decides a comparison.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .config import DEFAULTS, require_tol
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
    if not np.isfinite(s[:, 0]).all():
        raise ConvergenceError("singular values overflow; the tuple's scale is out of range")
    return s[:, 0]


# ||P||_2 <= ||P||_F holds exactly; the margin covers the rounding on both
# sides of the computed comparison.  The Frobenius sum of d*d squares and its
# square root carry a relative error below (d*d + 1) * eps, and LAPACK's
# sigma_1 is backward stable, off by a small multiple of d * eps relative.
# For d up to about a hundred the two together stay below 1e-11, so the cap
# holds even for rank-one rows, where ||P||_F equals sigma_1.
_CAP_MARGIN = 1.0 + 1e-10


def _scaled_rows(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S, e) with S = P * 2**-e row by row, e putting each row's largest entry modulus in [0.5, 1).

    An all-zero row has e = 0.  The scaling is exact except for entries
    below 2**-1022 times the largest, which lie far under any margin here.
    Complex rows are scaled through their real view, because ldexp rejects
    complex input.
    """
    stack = _require_square_stack(stack)
    _, exps = np.frexp(np.abs(stack).max(axis=(1, 2)))
    if np.iscomplexobj(stack):
        parts = np.ascontiguousarray(stack).view(stack.real.dtype)
        return np.ldexp(parts, -exps[:, None, None]).view(stack.dtype), exps
    return np.ldexp(stack, -exps[:, None, None]), exps


def _sums(stack: np.ndarray) -> np.ndarray:
    """Each row's sum of squared entry moduli, in one einsum pass over the real view of a complex stack."""
    parts = np.ascontiguousarray(stack).view(stack.real.dtype) if np.iscomplexobj(stack) else stack
    return np.einsum("kij,kij->k", parts, parts)


# A stack, real or complex, whose rows' sums of squared entry moduli all lie
# in this range is capped as it is, with no scaling: multiplying such a row by
# a power of two (_scaled_rows) scales its squares, their sums, square roots
# and products exactly, so the caps come out the same bitwise, and no copy is
# made.  An exactly zero row, whose sum 0 is exact, is capped as it is too; a
# sum of 0 alone proves nothing, as squares of entries below about 1e-162
# underflow.
_UNSCALED_SUMS = (2.0 ** -900, 2.0 ** 900)


def _sums_in_range(stack: np.ndarray):
    """Each row's _sums value when every row's sum lies in _UNSCALED_SUMS or the row is
    exactly zero, else None."""
    with np.errstate(over="ignore"):
        sums = _sums(stack)
    lo, hi = _UNSCALED_SUMS
    out = ~((sums >= lo) & (sums <= hi))
    return None if np.count_nonzero(out) and stack[out].any() else sums


def op_norm_caps(stack: np.ndarray) -> np.ndarray:
    """Upper bound on op_norms(stack), row by row, from the Frobenius norm of each matrix.

    Each row is first scaled by a power of two (_scaled_rows), so the sum of
    squares neither underflows to 0 nor overflows at any scale; a stack that
    needs no scaling (_UNSCALED_SUMS, exactly zero rows included) is capped
    as it is.  The scaling is undone after the margin is applied; a bound
    past the float range is inf, which rules nothing out.  An all-zero row
    gets 0, and only an all-zero row does.
    """
    sums = _sums_in_range(_require_square_stack(stack))
    if sums is not None:  # nothing to undo, and no bound in range overflows
        return np.sqrt(sums) * _CAP_MARGIN
    scaled, exps = _scaled_rows(stack)
    norms = np.sqrt(_sums(scaled))
    with np.errstate(over="ignore"):
        return np.ldexp(norms * _CAP_MARGIN, exps)


# rho(P)**2 = rho(P @ P) <= ||P @ P||_2 <= ||P @ P||_F holds exactly; the added
# term K * d * eps * ||P||_F**2 covers two absolute errors.  The computed
# square is P @ P + E1 with |E1| <= d * eps * |P| @ |P| entrywise (underflow
# aside, negligible after the scaling), so ||E1||_F <= d * eps * ||P||_F**2.
# LAPACK's eigenvalues are exact for some P + E2 with ||E2||_2 <= p(d) * eps *
# ||P||_2, p a modestly growing function (LAPACK Users' Guide, section 4.8),
# and rho(P + E2)**2 <= ||(P + E2)**2||_2 <= ||P @ P||_2 + (2 * p(d) + p(d)**2
# * eps) * eps * ||P||_F**2, which holds for defective P too.  With p(d) up to
# 10 * d, K = 21 would do; K = 100 allows p(d) up to about 50 * d, and the term
# is still below 3e-13 * ||P||_F**2 for d up to a dozen.  _CAP_MARGIN covers
# the relative rounding of the two Frobenius sums, the square root and the
# eigenvalue moduli.
_RADIUS_CAP_K = 100.0


def spectral_radius_caps(stack: np.ndarray) -> np.ndarray:
    """Upper bound on spectral_radii(stack), row by row, from ||P @ P||_F ** (1/2).

    Rows are scaled by a power of two as in op_norm_caps, unless the stack
    and its squares need no scaling (_UNSCALED_SUMS), and squared in one
    batched matmul; the bound holds for every row, defective or nilpotent ones
    included (see _RADIUS_CAP_K).  A bound past the float range is inf, which
    rules nothing out.  An all-zero row gets 0.
    """
    stack = _require_square_stack(stack)
    sums = _sums_in_range(stack)
    square_sums = None if sums is None else _sums_in_range(np.matmul(stack, stack))
    if square_sums is not None:
        norms, square, exps = np.sqrt(sums), np.sqrt(square_sums), None
    else:
        scaled, exps = _scaled_rows(stack)
        norms, square = np.sqrt(_sums(scaled)), np.sqrt(_sums(np.matmul(scaled, scaled)))
    slack = _RADIUS_CAP_K * stack.shape[1] * np.finfo(float).eps * norms ** 2
    if exps is None:  # nothing to undo, and no bound in range overflows
        return np.sqrt(square * _CAP_MARGIN + slack) * _CAP_MARGIN
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(square * _CAP_MARGIN + slack) * _CAP_MARGIN, exps)


def spectral_radii(stack: np.ndarray) -> np.ndarray:
    """Largest eigenvalue modulus of each matrix in a (k, d, d) stack."""
    stack = _require_square_stack(stack)
    try:
        eig = np.linalg.eigvals(stack)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue computation failed: {exc}") from exc
    radii = np.max(np.abs(eig), axis=1)
    if not np.isfinite(radii).all():
        raise ConvergenceError("eigenvalue moduli overflow; the tuple's scale is out of range")
    return radii


def op_norm(a: np.ndarray) -> float:
    """Operator norm induced by the Euclidean vector norm (largest singular value)."""
    return float(op_norms(_require_square(a)[None])[0])


def spectral_radius(a: np.ndarray) -> float:
    """Largest eigenvalue modulus."""
    return float(spectral_radii(_require_square(a)[None])[0])


def rank_eps(a: np.ndarray, tol: float = DEFAULTS.rank_tol) -> int:
    """Numeric rank: singular values above ``tol`` relative to the largest.

    The zero matrix has rank 0.
    """
    a = _require_square(a)
    require_tol("tol", tol, zero_ok=True)
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def exterior_square(a: np.ndarray) -> np.ndarray:
    """Second exterior power: the matrix of 2x2 minors on wedge coordinates.

    Rows and columns are indexed by index pairs (i, j) with i < j in
    lexicographic order, so the result is m x m with m = d(d-1)/2 and
    entry[(i,j),(k,l)] = a[i,k]a[j,l] - a[i,l]a[j,k].  Requires d >= 2; a
    minor past the float range raises ConvergenceError.
    """
    a = _require_square(a)
    d = a.shape[0]
    if d < 2:
        raise InputError("exterior square needs dimension >= 2")
    i, j = np.array(list(combinations(range(d), 2))).T
    with np.errstate(over="ignore", invalid="ignore"):
        minors = a[np.ix_(i, i)] * a[np.ix_(j, j)] - a[np.ix_(i, j)] * a[np.ix_(j, i)]
    if not np.isfinite(minors).all():
        raise ConvergenceError("2x2 minors overflow; the tuple's scale is out of range")
    return minors
