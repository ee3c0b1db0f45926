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

from dataclasses import dataclass
from itertools import product as _cartesian

import numpy as np

from . import config
from .config import DEFAULTS, pick
from .errors import ConvergenceError, InputError
from .tuples import MatrixTuple, _json_number, product_along
from .words import Word, validate_word


@dataclass(frozen=True)
class WeightedMaxNorm:
    weights: tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if len(w) == 0 or any(not np.isfinite(x) or x <= 0 for x in w):
            raise InputError("weighted max norm needs positive finite weights")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class LpNorm:
    p: float
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        p = float(self.p)
        if not np.isfinite(p) or p < 1.0:
            raise InputError("p must be finite and >= 1; use WeightedMaxNorm for the sup norm")
        object.__setattr__(self, "p", p)
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            if len(w) == 0 or any(not np.isfinite(x) or x <= 0 for x in w):
                raise InputError("lp weights must be positive and finite")
            object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class MeshNorm:
    """Piecewise-linear-in-angle planar norm; angles must start at 0, rise, stay below pi."""

    angles: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        ang = tuple(float(x) for x in self.angles)
        val = tuple(float(x) for x in self.values)
        if len(ang) < 2 or len(ang) != len(val):
            raise InputError("mesh norm needs matching angle/value lists of length >= 2")
        if abs(ang[0]) > 1e-12:
            raise InputError("mesh angles must start at 0")
        if any(b - a <= 0 for a, b in zip(ang, ang[1:])) or ang[-1] >= np.pi:
            raise InputError("mesh angles must increase strictly and stay below pi")
        if any(not np.isfinite(x) or x <= 0 for x in val):
            raise InputError("mesh values must be positive and finite")
        object.__setattr__(self, "angles", ang)
        object.__setattr__(self, "values", val)


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


def _number_list(payload: dict, key: str) -> tuple:
    values = payload[key]
    if not isinstance(values, list):
        raise InputError(f"norm {key!r} must be a list of numbers")
    return tuple(_json_number(x, f"norm {key!r}") for x in values)


def norm_from_json_dict(payload: dict) -> NormRep:
    if not isinstance(payload, dict) or "variant" not in payload:
        raise InputError("norm payload must be an object with a 'variant' key")
    variant = payload["variant"]
    if variant == "weighted_max":
        if "weights" not in payload:
            raise InputError("weighted_max norm needs 'weights'")
        return WeightedMaxNorm(_number_list(payload, "weights"))
    if variant == "ellp":
        if "p" not in payload:
            raise InputError("ellp norm needs 'p'")
        p = _json_number(payload["p"], "ellp norm 'p'")
        weights = payload.get("weights")
        return LpNorm(p, None if weights is None else _number_list(payload, "weights"))
    if variant == "mesh":
        for key in ("angles", "values"):
            if key not in payload:
                raise InputError(f"mesh norm needs {key!r}")
        return MeshNorm(_number_list(payload, "angles"), _number_list(payload, "values"))
    raise InputError(f"unknown norm variant {variant!r}")


def _mesh_interp(angles: np.ndarray, values: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Evaluate the homogeneous-symmetric mesh extension at planar points."""
    radii = np.hypot(pts[:, 0], pts[:, 1])
    out = np.zeros(len(pts))
    nz = radii > 0.0
    theta = np.mod(np.arctan2(pts[nz, 1], pts[nz, 0]), np.pi)
    theta = np.where(theta >= np.pi, 0.0, theta)
    grid = np.append(angles, np.pi)
    vals = np.append(values, values[0])
    out[nz] = radii[nz] * np.interp(theta, grid, vals)
    return out


def _eval_many(norm: NormRep, pts: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts))
    if isinstance(norm, WeightedMaxNorm):
        if pts.shape[1] != len(norm.weights):
            raise InputError(
                f"norm expects dimension {len(norm.weights)}, got {pts.shape[1]}"
            )
        return np.max(np.abs(pts) * np.asarray(norm.weights), axis=1)
    if isinstance(norm, LpNorm):
        scaled = np.abs(pts)
        if norm.weights is not None:
            if pts.shape[1] != len(norm.weights):
                raise InputError(
                    f"norm expects dimension {len(norm.weights)}, got {pts.shape[1]}"
                )
            scaled = scaled * np.asarray(norm.weights)
        return np.sum(scaled ** norm.p, axis=1) ** (1.0 / norm.p)
    if isinstance(norm, MeshNorm):
        if pts.shape[1] != 2 or np.iscomplexobj(pts):
            raise InputError("mesh norms evaluate real 2-vectors only")
        return _mesh_interp(np.asarray(norm.angles), np.asarray(norm.values), pts)
    raise InputError(f"unknown norm representation {type(norm).__name__}")


def eval_norm(norm: NormRep, v) -> float:
    """Value of the represented norm at a single vector."""
    return float(_eval_many(norm, np.asarray(v)[None, :])[0])


def circle_mesh(count: int | None = None) -> np.ndarray:
    """Unit directions evenly spaced over the full circle (rows of a (count, 2) array)."""
    count = pick(count, DEFAULTS.mesh_size)
    if count < 4:
        raise InputError(f"circle mesh needs at least 4 points, got {count}")
    theta = 2.0 * np.pi * np.arange(count) / count
    return np.column_stack([np.cos(theta), np.sin(theta)])


def sphere_samples(
    d: int, count: int, seed: int | None = None, field: str = "real"
) -> np.ndarray:
    """Seeded unit-sphere sample directions for higher dimensions or complex tuples."""
    if d < 1 or count < 1:
        raise InputError("need d >= 1 and count >= 1")
    rng = np.random.default_rng(pick(seed, DEFAULTS.seed))
    pts = rng.standard_normal((count, d))
    if field == "complex":
        pts = pts + 1j * rng.standard_normal((count, d))
    norms = np.linalg.norm(pts, axis=1)
    norms[norms == 0.0] = 1.0
    return pts / norms[:, None]


def _default_samples(t: MatrixTuple) -> np.ndarray:
    if t.d == 2 and t.field == "real":
        return circle_mesh()
    raise InputError(
        "supply sample directions: the built-in mesh covers real 2-dimensional tuples only"
    )


def _check_samples(t: MatrixTuple, samples) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(samples))
    if pts.shape[0] == 0:
        raise InputError("empty sample set")
    if pts.shape[1] != t.d:
        raise InputError(f"samples have dimension {pts.shape[1]}, tuple has {t.d}")
    if t.field == "real" and np.iscomplexobj(pts):
        raise InputError("complex samples supplied for a real tuple")
    return pts


@dataclass(frozen=True)
class VerificationReport:
    kind: str  # "barabanov" | "extremal"
    rho_hat: float
    residual: float
    tol: float
    passed: bool
    sample_count: int

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rho_hat": self.rho_hat,
            "residual": self.residual,
            "tol": self.tol,
            "passed": self.passed,
            "sample_count": self.sample_count,
        }


def _verify(t, norm, rho_hat, samples, tol, kind) -> VerificationReport:
    if not np.isfinite(rho_hat) or rho_hat <= 0:
        raise InputError(f"rho_hat must be positive and finite, got {rho_hat}")
    tol = pick(tol, DEFAULTS.verify_tol)
    pts = _default_samples(t) if samples is None else _check_samples(t, samples)
    base = _eval_many(norm, pts)
    if np.any(base <= 0.0) or not np.all(np.isfinite(base)):
        raise InputError("norm vanishes or blows up on a sample direction")
    images = np.stack([_eval_many(norm, pts @ a.T) for a in t.matrices])
    top = np.max(images, axis=0)
    if kind == "barabanov":
        residual = float(np.max(np.abs(top - rho_hat * base) / base))
    else:
        residual = float(np.max(np.maximum(top - rho_hat * base, 0.0) / base))
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
    tol: float | None = None,
) -> VerificationReport:
    """Worst sampled relative residual of max_i phi(A_i v) = rho_hat * phi(v)."""
    return _verify(t, norm, rho_hat, samples, tol, "barabanov")


def verify_extremal(
    t: MatrixTuple,
    norm: NormRep,
    rho_hat: float,
    samples=None,
    tol: float | None = None,
) -> VerificationReport:
    """One-sided variant: only excesses max_i phi(A_i v) > rho_hat * phi(v) count."""
    return _verify(t, norm, rho_hat, samples, tol, "extremal")


@dataclass(frozen=True)
class ApproxResult:
    norm: MeshNorm
    iterations: int
    converged: bool
    last_step: float

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
    mesh_size: int | None = None,
    max_iter: int | None = None,
    step_tol: float | None = None,
    init: NormRep | None = None,
) -> ApproxResult:
    """Fixed-point iteration phi <- max_i phi(A_i .) / rho_hat on a planar mesh.

    Real 2-dimensional tuples only.  Values live on mesh directions over
    the upper half circle; each sweep is renormalized so phi(e1) = 1 and
    iteration stops when the log-distance between consecutive sweeps
    drops below step_tol, or flags non-convergence at max_iter.
    """
    if t.field != "real" or t.d != 2:
        raise InputError("mesh approximation is limited to real 2-dimensional tuples")
    if not np.isfinite(rho_hat) or rho_hat <= 0:
        raise InputError(f"rho_hat must be positive and finite, got {rho_hat}")
    m = pick(mesh_size, DEFAULTS.mesh_size)
    if m < 8:
        raise InputError(f"mesh size too small: {m}")
    max_iter = pick(max_iter, DEFAULTS.max_iter)
    step_tol = pick(step_tol, DEFAULTS.step_tol)
    init = init if init is not None else LpNorm(2.0)

    angles = np.arange(m) * (np.pi / m)
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    cur = _eval_many(init, pts)
    if np.any(cur <= 0.0) or not np.all(np.isfinite(cur)):
        raise InputError("initial norm must be positive on the mesh")
    cur = cur / cur[0]
    images = [pts @ a.T for a in t.matrices]

    iterations = 0
    converged = False
    last_step = np.inf
    for _ in range(max_iter):
        nxt = np.max(
            np.stack([_mesh_interp(angles, cur, img) for img in images]), axis=0
        ) / rho_hat
        # a value at rounding level of the largest is a direction the tuple maps to zero
        if not np.all(np.isfinite(nxt)) or np.any(nxt <= np.finfo(float).eps * np.max(nxt)):
            raise ConvergenceError(
                "mesh values lost positivity; the tuple maps some direction to zero"
            )
        nxt = nxt / nxt[0]
        iterations += 1
        last_step = float(np.max(np.abs(np.log(nxt / cur))))
        cur = nxt
        if last_step < step_tol:
            converged = True
            break
    return ApproxResult(
        norm=MeshNorm(tuple(angles), tuple(cur)),
        iterations=iterations,
        converged=converged,
        last_step=last_step,
    )


def norm_distance(a: NormRep, b: NormRep, samples=None) -> float:
    """Sampled log-distance: max over directions of |log(phi_a / phi_b)|."""
    if samples is None:
        pts = circle_mesh()
    else:
        pts = np.atleast_2d(np.asarray(samples))
        if pts.shape[0] == 0:
            raise InputError("empty sample set")
    va = _eval_many(a, pts)
    vb = _eval_many(b, pts)
    if np.any(va <= 0.0) or np.any(vb <= 0.0):
        raise InputError("norms must be positive on every sample direction")
    return float(np.max(np.abs(np.log(va / vb))))


def _box_corners(weights: tuple[float, ...]) -> np.ndarray:
    inv = 1.0 / np.asarray(weights)
    signs = np.array(list(_cartesian((-1.0, 1.0), repeat=len(weights))))
    return signs * inv


def _induced_norm(norm: NormRep, d: int, *, real: bool, samples):
    """The map from a (k, d, d) stack to the k values max phi(a x) / phi(x), over one direction set.

    The directions and their norms are worked out once, so a scan over
    many products pays for them once.  Images are taken for as many
    matrices at a time as fit in config.BLOCK_BYTES.
    """
    if isinstance(norm, WeightedMaxNorm) and real and len(norm.weights) == d and d <= 10:
        pts = _box_corners(norm.weights)
    elif samples is not None:
        pts = np.atleast_2d(np.asarray(samples))
    elif isinstance(norm, MeshNorm):
        ang = np.asarray(norm.angles)
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
    elif d == 2 and real:
        pts = circle_mesh()
    else:
        raise InputError("supply sample directions for this norm/matrix combination")
    base = _eval_many(norm, pts)
    if np.any(base <= 0.0):
        raise InputError("norm vanishes on a sample direction")

    def induced(stack: np.ndarray) -> np.ndarray:
        image_bytes = pts.size * np.result_type(pts, stack).itemsize
        step = max(1, config.BLOCK_BYTES // image_bytes)
        out = np.empty(len(stack))
        for lo in range(0, len(stack), step):
            images = np.matmul(pts, stack[lo:lo + step].transpose(0, 2, 1))
            values = _eval_many(norm, images.reshape(-1, images.shape[2]))
            out[lo:lo + step] = np.max(values.reshape(len(images), -1) / base, axis=1)
        return out

    return induced


def matrix_norm(norm: NormRep, a: np.ndarray, samples=None) -> float:
    """Operator norm of a matrix induced by the represented vector norm.

    Exact for real weighted-max norms up to dimension 10: the unit ball
    is a box and a convex function is maximized at one of its 2^d
    vertices.  Other representations use a sampled lower estimate over
    the given directions (mesh norms default to their own directions,
    planar norms to the standard circle mesh).
    """
    a = np.asarray(a)
    d = a.shape[0]
    if a.ndim != 2 or a.shape[1] != d:
        raise InputError(f"matrix_norm needs a square matrix, got shape {a.shape}")
    return float(_induced_norm(norm, d, real=not np.iscomplexobj(a), samples=samples)(a[None])[0])


def theta(t: MatrixTuple, w: Word, norm: NormRep, samples=None) -> float:
    """Averaged growth of the word product under a norm: matrix norm to the power 1/|w|."""
    w = validate_word(w, t.r)
    p = product_along(t, w)
    return matrix_norm(norm, p, samples) ** (1.0 / len(w))
