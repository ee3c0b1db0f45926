"""Norm candidates and Barabanov norm machinery.

Three representations are supported:

* ``WeightedMaxNorm(weights)``: max_k weights[k] * |v[k]|
* ``LpNorm(p, weights)``: (sum_k (weights[k] * |v[k]|) ** p) ** (1/p),
  finite p >= 1; the sup norm is expressed as a weighted max instead
* ``MeshNorm(angles, values)``: planar norms sampled on the upper half
  circle, extended by positive homogeneity and symmetry phi(-v) = phi(v),
  linearly interpolated in angle between mesh directions

A norm is a Barabanov norm for a tuple at rate rho when
max_i phi(A_i v) = rho * phi(v) for every v; an extremal norm only needs
the <= direction.  Both checks here are sampled: they report the worst
relative residual over a finite direction set, which is evidence rather
than proof.
"""

from __future__ import annotations

import numpy as np

from . import config
from .config import DEFAULTS, _Record, require_tol
from .errors import ConvergenceError, InputError
from .linalg import _require_square
from .tuples import MatrixTuple, _check_field, _json_number, _number_list, _seeded_rng, product_along
from .words import Word, validate_word


class WeightedMaxNorm(_Record):
    __slots__ = _fields = ("weights",)

    def __init__(self, weights: tuple[float, ...]):
        w = tuple(float(x) for x in weights)
        if len(w) == 0 or any(not np.isfinite(x) or x <= 0 for x in w):
            raise InputError("weighted max norm needs positive finite weights")
        self._set(weights=w)


class LpNorm(_Record):
    __slots__ = _fields = ("p", "weights")

    def __init__(self, p: float, weights: tuple[float, ...] | None = None):
        p = float(p)
        if not np.isfinite(p) or p < 1.0:
            raise InputError("p must be finite and >= 1; use WeightedMaxNorm for the sup norm")
        if weights is not None:
            weights = tuple(float(x) for x in weights)
            if len(weights) == 0 or any(not np.isfinite(x) or x <= 0 for x in weights):
                raise InputError("lp weights must be positive and finite")
        self._set(p=p, weights=weights)


class MeshNorm(_Record):
    """Piecewise-linear-in-angle planar norm; angles must start at 0, rise, stay below pi.

    The closed interpolation grid (the angles followed by pi, the values
    followed by the first value again) is built once, at construction, and
    every evaluation reads it.
    """

    _fields = ("angles", "values")
    __slots__ = _fields + ("_grid", "_closed")

    def __init__(self, angles: tuple[float, ...], values: tuple[float, ...]):
        ang = tuple(map(float, angles))
        val = tuple(map(float, values))
        if len(ang) < 2 or len(ang) != len(val):
            raise InputError("mesh norm needs matching angle/value lists of length >= 2")
        grid, closed = np.array(ang + (np.pi,)), np.array(val + val[:1])
        if abs(ang[0]) > 1e-12:
            raise InputError("mesh angles must start at 0")
        if np.any(np.diff(grid[:-1]) <= 0) or ang[-1] >= np.pi:
            raise InputError("mesh angles must increase strictly and stay below pi")
        if not np.all(np.isfinite(closed) & (closed > 0)):
            raise InputError("mesh values must be positive and finite")
        grid.flags.writeable = closed.flags.writeable = False
        self._set(angles=ang, values=val, _grid=grid, _closed=closed)


NormRep = WeightedMaxNorm | LpNorm | MeshNorm


def norm_to_json_dict(norm: NormRep) -> dict:
    if isinstance(norm, WeightedMaxNorm):
        return {"variant": "weighted_max", "weights": list(norm.weights)}
    if isinstance(norm, LpNorm):
        payload = {"variant": "ellp", "p": norm.p}
        if norm.weights is not None:
            payload["weights"] = list(norm.weights)
        return payload
    if isinstance(norm, MeshNorm):
        return {"variant": "mesh", "angles": list(norm.angles), "values": list(norm.values)}
    raise InputError(f"unknown norm representation {type(norm).__name__}")


def norm_from_json_dict(payload: dict) -> NormRep:
    if not isinstance(payload, dict) or "variant" not in payload:
        raise InputError("norm payload must be an object with a 'variant' key")
    variant = payload["variant"]
    if variant == "weighted_max":
        if "weights" not in payload:
            raise InputError("weighted_max norm needs 'weights'")
        return WeightedMaxNorm(_number_list(payload["weights"], "norm 'weights'"))
    if variant == "ellp":
        if "p" not in payload:
            raise InputError("ellp norm needs 'p'")
        p = _json_number(payload["p"], "ellp norm 'p'")
        weights = payload.get("weights")
        return LpNorm(p, None if weights is None else _number_list(weights, "norm 'weights'"))
    if variant == "mesh":
        for key in ("angles", "values"):
            if key not in payload:
                raise InputError(f"mesh norm needs {key!r}")
        return MeshNorm(*(_number_list(payload[key], f"norm {key!r}") for key in ("angles", "values")))
    raise InputError(f"unknown norm variant {variant!r}")


def _polar(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(radii, theta) of planar points, theta folded into [0, pi) by the symmetry phi(-v) = phi(v)."""
    theta = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), np.pi)
    return np.hypot(pts[:, 0], pts[:, 1]), np.where(theta >= np.pi, 0.0, theta)


def _mesh_interp(grid: np.ndarray, closed: np.ndarray, polar) -> np.ndarray:
    """The homogeneous-symmetric mesh extension at points given by _polar, on a closed grid."""
    radii, theta = polar
    return np.where(radii > 0.0, radii * np.interp(theta, grid, closed), 0.0)


def _lp_rows(scaled: np.ndarray, p: float) -> np.ndarray:
    """(sum_k scaled[:, k] ** p) ** (1/p) for each row of nonnegative entries.

    A row whose sum of powers leaves [2**-960, 2**960] (it overflowed, or
    underflowed, maybe to 0) is summed again divided by its largest entry m,
    whose term is then exactly 1, so the sum lies in [1, d] for every finite
    p, and its result is multiplied by m.  Rows in that range (every scale-1
    input among them) and rows whose m is 0 or not finite keep the plain sum.
    """
    with np.errstate(over="ignore"):  # a value past the float range is inf
        sums = np.sum(scaled ** p, axis=1)
        out = sums ** (1.0 / p)
        redo = np.flatnonzero(~((sums >= 2.0 ** -960) & (sums <= 2.0 ** 960)))
        if len(redo):
            top = np.max(scaled[redo], axis=1)
            finite = (top > 0) & (top < np.inf)
            redo, top = redo[finite], top[finite]
            out[redo] = top * np.sum((scaled[redo] / top[:, None]) ** p, axis=1) ** (1.0 / p)
    return out


def _eval_many(norm: NormRep, pts: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts))
    if isinstance(norm, (WeightedMaxNorm, LpNorm)):
        scaled = np.abs(pts)
        if norm.weights is not None:
            if pts.shape[1] != len(norm.weights):
                raise InputError(f"norm expects dimension {len(norm.weights)}, got {pts.shape[1]}")
            scaled = scaled * np.asarray(norm.weights)
        if isinstance(norm, WeightedMaxNorm):
            return np.max(scaled, axis=1)
        return _lp_rows(scaled, norm.p)
    if isinstance(norm, MeshNorm):
        if pts.shape[1] != 2 or np.iscomplexobj(pts):
            raise InputError("mesh norms evaluate real 2-vectors only")
        return _mesh_interp(norm._grid, norm._closed, _polar(pts))
    raise InputError(f"unknown norm representation {type(norm).__name__}")


def eval_norm(norm: NormRep, v) -> float:
    """Value of the represented norm at a single vector."""
    return float(_eval_many(norm, np.asarray(v)[None, :])[0])


def circle_mesh(count: int = DEFAULTS.mesh_size) -> np.ndarray:
    """Unit directions evenly spaced over the full circle (rows of a (count, 2) array)."""
    if count < 4:
        raise InputError(f"circle mesh needs at least 4 points, got {count}")
    theta = 2.0 * np.pi * np.arange(count) / count
    return np.column_stack([np.cos(theta), np.sin(theta)])


def sphere_samples(
    d: int, count: int, seed: int = DEFAULTS.seed, field: str = "real"
) -> np.ndarray:
    """Seeded unit-sphere sample directions for higher dimensions or complex tuples."""
    if d < 1 or count < 1:
        raise InputError("need d >= 1 and count >= 1")
    rng = _seeded_rng(seed)
    _check_field(field)
    pts = rng.standard_normal((count, d))
    if field == "complex":
        pts = pts + 1j * rng.standard_normal((count, d))
    norms = np.linalg.norm(pts, axis=1)
    norms[norms == 0.0] = 1.0
    pts /= norms[:, None]
    return pts


def _check_samples(samples, d: int) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(samples))
    if pts.size == 0:  # [] arrives as one row of no coordinates
        raise InputError("empty sample set")
    if pts.shape[1] != d:
        raise InputError(f"samples have dimension {pts.shape[1]}, tuple has {d}")
    return pts


def _directions(samples, d: int, real: bool) -> np.ndarray:
    """The caller's sample directions, else the circle mesh, which covers real d = 2 only."""
    if samples is not None:
        return _check_samples(samples, d)
    if d == 2 and real:
        return circle_mesh()
    raise InputError(
        "supply sample directions: the built-in mesh covers real 2-dimensional tuples only"
    )


def _base_values(norm: NormRep, pts: np.ndarray) -> np.ndarray:
    """The norm at each direction, which must be positive and finite for a ratio against it."""
    base = _eval_many(norm, pts)
    if np.any(base <= 0.0) or not np.all(np.isfinite(base)):
        raise InputError("norm vanishes or blows up on a sample direction")
    return base


def _check_rho(rho_hat: float) -> None:
    if not np.isfinite(rho_hat) or rho_hat <= 0:
        raise InputError(f"rho_hat must be positive and finite, got {rho_hat}")


class VerificationReport(_Record):
    # kind is "barabanov" or "extremal"
    __slots__ = _fields = ("kind", "rho_hat", "residual", "tol", "passed", "sample_count")

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


def _verify(t, norm, rho_hat, samples, tol, kind) -> VerificationReport:
    _check_rho(rho_hat)
    require_tol("tol", tol, zero_ok=True)  # 0 demands an exact fixed point
    pts = _directions(samples, t.d, t.field == "real")
    if t.field == "real" and np.iscomplexobj(pts):
        raise InputError("complex samples supplied for a real tuple")
    # directions go in blocks of config.BLOCK_BYTES, every base value checked
    # first, and the largest residual is the largest of the blocks' largest
    step = max(1, config.BLOCK_BYTES // pts[0].nbytes)
    blocks = [pts[lo:lo + step] for lo in range(0, len(pts), step)]
    worst = []
    for block, base in zip(blocks, [_base_values(norm, block) for block in blocks]):
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual raises below
            top = np.max(np.stack([_eval_many(norm, block @ a.T) for a in t.matrices]), axis=0)
            if kind == "barabanov":
                worst.append(np.max(np.abs(top - rho_hat * base) / base))
            else:
                worst.append(np.max(np.maximum(top - rho_hat * base, 0.0) / base))
    residual = float(np.max(worst))
    if not np.isfinite(residual):
        raise ConvergenceError("sampled residual overflows; the tuple's scale is out of range")
    return VerificationReport(
        kind=kind,
        rho_hat=float(rho_hat),
        residual=residual,
        tol=float(tol),
        passed=bool(residual <= tol),
        sample_count=len(pts),
    )


def verify_barabanov(
    t: MatrixTuple,
    norm: NormRep,
    rho_hat: float,
    samples=None,
    tol: float = DEFAULTS.verify_tol,
) -> VerificationReport:
    """Worst sampled relative residual of max_i phi(A_i v) = rho_hat * phi(v)."""
    return _verify(t, norm, rho_hat, samples, tol, "barabanov")


def verify_extremal(
    t: MatrixTuple,
    norm: NormRep,
    rho_hat: float,
    samples=None,
    tol: float = DEFAULTS.verify_tol,
) -> VerificationReport:
    """One-sided variant: only excesses max_i phi(A_i v) > rho_hat * phi(v) count."""
    return _verify(t, norm, rho_hat, samples, tol, "extremal")


class ApproxResult(_Record):
    __slots__ = _fields = ("norm", "iterations", "converged", "last_step")

    def to_json_dict(self) -> dict:
        return {
            "norm": norm_to_json_dict(self.norm),
            "iterations": self.iterations,
            "converged": self.converged,
            "last_step": self.last_step,
        }


def approx_barabanov(
    t: MatrixTuple,
    rho_hat: float,
    *,
    mesh_size: int = DEFAULTS.mesh_size,
    max_iter: int = DEFAULTS.max_iter,
    step_tol: float = DEFAULTS.step_tol,
    init: NormRep = LpNorm(2.0),
) -> ApproxResult:
    """Fixed-point iteration phi <- max_i phi(A_i .) / rho_hat on a planar mesh.

    Real 2-dimensional tuples only.  Values live on mesh directions over
    the upper half circle; each sweep is renormalized so phi(e1) = 1 and
    iteration stops when the log-distance between consecutive sweeps
    drops below step_tol, or flags non-convergence at max_iter.  Once a
    step is no smaller than the one before, every later sweep steps
    phi <- (phi + T phi) / 2, which also settles cycles of any period.
    """
    if t.field != "real" or t.d != 2:
        raise InputError("mesh approximation is limited to real 2-dimensional tuples")
    _check_rho(rho_hat)
    if mesh_size < 8:
        raise InputError(f"mesh size too small: {mesh_size}")
    if max_iter < 1:
        raise InputError(f"max_iter must be >= 1, got {max_iter}")
    require_tol("step_tol", step_tol)

    angles = np.arange(mesh_size) * (np.pi / mesh_size)
    grid = np.append(angles, np.pi)
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    cur = _base_values(init, pts)
    cur = cur / cur[0]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sweep raises below
        images = [_polar(pts @ a.T) for a in t.matrices]

    iterations = 0
    converged = False
    last_step, averaged = np.inf, False  # averaged once a step stalls
    for _ in range(max_iter):
        closed = np.append(cur, cur[0])
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = np.max(np.stack([_mesh_interp(grid, closed, img) for img in images]), axis=0) / rho_hat
        if not np.all(np.isfinite(nxt)):
            raise ConvergenceError("mesh values overflow; the tuple's scale is out of range")
        # a value at rounding level of the largest is a direction the tuple maps to zero
        if np.any(nxt <= np.finfo(float).eps * np.max(nxt)):
            raise ConvergenceError(
                "mesh values lost positivity; the tuple maps some direction to zero"
            )
        if averaged:
            nxt = (cur + nxt) / 2
        nxt = nxt / nxt[0]
        iterations += 1
        step = float(np.max(np.abs(np.log(nxt / cur))))
        averaged = averaged or step >= last_step
        last_step, cur = step, nxt
        if last_step < step_tol:
            converged = True
            break
    return ApproxResult(
        norm=MeshNorm(angles.tolist(), cur.tolist()),
        iterations=iterations,
        converged=converged,
        last_step=last_step,
    )


def norm_distance(a: NormRep, b: NormRep, samples=None) -> float:
    """Sampled log-distance: max over directions of |log(phi_a / phi_b)|."""
    d = 2 if samples is None else np.atleast_2d(samples).shape[1]  # each norm checks its own d
    pts = _directions(samples, d, real=True)
    return float(np.max(np.abs(np.log(_base_values(a, pts) / _base_values(b, pts)))))


# The bound below carries this relative margin for the rounding of one
# evaluation, on top of the margin of the Frobenius cap: the images (d * eps
# relative to cap * |x_k|_2), the norm of each image (a few eps; an lp norm's
# rounded exponent 1/p adds up to 710 * eps / p), the division by phi(x_k),
# the factor c itself and the underflow that the cap range below leaves
# (2**-44 of the bound).  For d up to a hundred they stay below 3e-13 in all.
_BOUND_MARGIN = 1.0 + 1e-12


def _induced_norm(norm: NormRep, d: int, *, real: bool, samples):
    """(induced, bound): two maps over (k, d, d) stacks of matrices.

    induced maps a stack to its k induced norms: for a weighted max norm the
    exact max_i w_i sum_j |a_ij| / w_j at any d over either field, else max_j
    phi(a x_j) / phi(x_j) over one direction set x_1 .. x_m, worked out once,
    with images taken for as many matrices at a time as fit in config.BLOCK_BYTES.

    bound maps linalg.op_norm_caps of a stack to upper bounds on those computed
    values.  phi(y) <= K * |y|_2, with K = max w for a weighted max norm, max w *
    d ** max(0, 1/p - 1/2) for an lp norm (1 for unit weights) and max(values)
    for a mesh norm, so phi(a x_j) / phi(x_j) <= ||a||_2 * c with c = K * max_j
    |x_j|_2 / phi(x_j), and the cap bounds ||a||_2; a weighted max norm's x_j
    are its box corners +-1/w, where phi = 1.  The bound is cap * c *
    _BOUND_MARGIN where the evaluation stays clear of overflow, and of underflow
    beyond the margin: the weights or mesh values, the |x_j|_2 and the phi(x_j)
    within [2**-64, 2**64], and the cap within [lo, hi] below, or 0 (a zero
    matrix has the value 0 exactly).  Elsewhere the bound is inf.
    """
    if isinstance(norm, WeightedMaxNorm):
        if len(norm.weights) != d:
            raise InputError(f"norm expects dimension {len(norm.weights)}, got {d}")
        w = np.asarray(norm.weights)
        lengths, base = np.linalg.norm(1.0 / w, keepdims=True), np.ones(1)

        def induced(stack: np.ndarray) -> np.ndarray:
            return np.max((np.abs(stack) @ (1.0 / w)) * w, axis=1)
    else:
        if isinstance(norm, MeshNorm) and samples is None:
            pts = np.column_stack([np.cos(norm._grid[:-1]), np.sin(norm._grid[:-1])])
        else:
            pts = _directions(samples, d, real)
        base, lengths = _base_values(norm, pts), np.linalg.norm(pts, axis=1)

        def induced(stack: np.ndarray) -> np.ndarray:
            image_bytes = pts.size * np.result_type(pts, stack).itemsize
            step = max(1, config.BLOCK_BYTES // image_bytes)
            out = np.empty(len(stack))
            for lo in range(0, len(stack), step):
                images = np.matmul(pts, stack[lo:lo + step].transpose(0, 2, 1))
                values = _eval_many(norm, images.reshape(-1, images.shape[2]))
                out[lo:lo + step] = np.max(values.reshape(len(images), -1) / base, axis=1)
            return out

    scales = np.asarray(norm.values if isinstance(norm, MeshNorm) else norm.weights or (1.0,))
    if not all(2.0 ** -64 <= np.min(v) and np.max(v) <= 2.0 ** 64 for v in (scales, lengths, base)):
        return induced, lambda caps: np.full(len(caps), np.inf)
    p = norm.p if isinstance(norm, LpNorm) else 1.0  # the power each image entry is raised to
    k = np.max(scales) * (d ** max(0.0, 1.0 / p - 0.5) if isinstance(norm, LpNorm) else 1.0)
    c = k * np.max(lengths / base) * _BOUND_MARGIN
    # Each image has |y|_2 <= cap * 2**64 and each scale factor is below 2**64,
    # so d powers (w |y_i|)**p stay below 2**1000 up to hi.  Underflow costs
    # each image component d * 2**-1074 and each power 2**-1074: at most
    # 2**64 * (d + 2)**2 * 2**(-1074 / p) in phi(y), and 2**64 times that in
    # the value, which is below 2**-44 * cap * c from lo up.  Row sums meet them with p = 1.
    lo = (d + 2) ** 2 * 2.0 ** (172 - 1074 / p) / c
    hi = (2.0 ** 1000 / d) ** (1.0 / p) * 2.0 ** -128

    def bound(caps: np.ndarray) -> np.ndarray:
        safe = ((caps >= lo) & (caps <= hi)) | (caps == 0.0)
        return np.where(safe, caps, np.inf) * c

    return induced, bound


def matrix_norm(norm: NormRep, a: np.ndarray, samples=None) -> float:
    """Operator norm of a matrix induced by the represented vector norm.

    Exact for weighted max norms, real or complex, in any dimension: the
    weighted row sum max_i w_i sum_j |a_ij| / w_j, and samples are not
    used.  Other representations use a sampled lower estimate over the
    given directions (mesh norms default to their own directions, planar
    norms to the standard circle mesh).
    """
    a = _require_square(a)
    induced, _ = _induced_norm(norm, len(a), real=not np.iscomplexobj(a), samples=samples)
    return float(induced(a[None])[0])


def theta(t: MatrixTuple, w: Word, norm: NormRep, samples=None) -> float:
    """Averaged growth of the word product under a norm: matrix norm to the power 1/|w|."""
    w = validate_word(w, t.r)
    p = product_along(t, w)
    return matrix_norm(norm, p, samples) ** (1.0 / len(w))
