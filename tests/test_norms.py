"""Norm evaluation, verification, approximation, and induced matrix norms."""

from __future__ import annotations

import math

import numpy as np
import pytest

from jsrkit import config, norms
from jsrkit.errors import ConvergenceError, InputError
from jsrkit.norms import (
    ApproxResult,
    LpNorm,
    MeshNorm,
    WeightedMaxNorm,
    approx_barabanov,
    circle_mesh,
    eval_norm,
    matrix_norm,
    norm_distance,
    norm_from_json_dict,
    norm_to_json_dict,
    sphere_samples,
    theta,
    verify_barabanov,
    verify_extremal,
)
from jsrkit.tuples import MatrixTuple


def _shift_pair(l1=0.0, l2=0.0):
    return MatrixTuple(
        "real",
        (np.array([[0.0, 1.0], [l1, 0.0]]), np.array([[0.0, l2], [1.0, 0.0]])),
    )


def _diag_dominant_pair(lam=0.5):
    return MatrixTuple(
        "real", (np.diag([1.0, lam]), np.array([[0.0, lam], [lam, 0.0]]))
    )


def _sign_swap_pair(lam=0.5):
    return MatrixTuple(
        "real", (np.diag([1.0, -1.0]), np.array([[0.0, lam], [lam, 0.0]]))
    )


def _projector_swap_triple(lam=0.5):
    return MatrixTuple(
        "real",
        (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.array([[0.0, lam], [lam, 0.0]])),
    )


def _swap_half_pair():
    return MatrixTuple(
        "real", (np.array([[0.0, 1.0], [1.0, 0.0]]), 0.5 * np.eye(2))
    )


def test_eval_norm_values():
    assert eval_norm(WeightedMaxNorm((1.0, 1.0)), [3.0, -4.0]) == 4.0
    assert eval_norm(WeightedMaxNorm((1.0, 0.5)), [0.0, 1.0]) == 0.5
    assert eval_norm(LpNorm(2.0), [3.0, 4.0]) == pytest.approx(5.0, abs=1e-12)
    assert eval_norm(LpNorm(1.0), [1.0, -2.0]) == pytest.approx(3.0, abs=1e-12)
    assert eval_norm(LpNorm(2.0, (2.0, 1.0)), [1.0, 0.0]) == pytest.approx(2.0)
    assert eval_norm(WeightedMaxNorm((1.0,)), [1.0 + 1.0j]) == pytest.approx(math.sqrt(2.0))


def test_norm_validation():
    with pytest.raises(InputError):
        WeightedMaxNorm(())
    with pytest.raises(InputError):
        WeightedMaxNorm((1.0, -1.0))
    with pytest.raises(InputError):
        LpNorm(0.5)
    with pytest.raises(InputError):
        LpNorm(float("inf"))
    with pytest.raises(InputError):
        MeshNorm((0.1, 0.2), (1.0, 1.0))  # must start at 0
    with pytest.raises(InputError):
        MeshNorm((0.0, 0.5), (1.0, -1.0))
    with pytest.raises(InputError):
        eval_norm(WeightedMaxNorm((1.0, 1.0)), [1.0, 2.0, 3.0])


def test_mesh_norm_evaluates_homogeneous_symmetric():
    m = 8
    ang = tuple(k * math.pi / m for k in range(m))
    mesh = MeshNorm(ang, tuple(1.0 for _ in range(m)))  # the Euclidean norm
    assert eval_norm(mesh, [3.0, 0.0]) == pytest.approx(3.0, abs=1e-12)
    assert eval_norm(mesh, [-3.0, 0.0]) == pytest.approx(3.0, abs=1e-12)
    assert eval_norm(mesh, [0.0, 0.0]) == 0.0
    v = [0.3, -0.4]
    assert eval_norm(mesh, v) == pytest.approx(0.5, rel=1e-12)


def test_mesh_norm_interpolates_between_vertices():
    # two directions, values 1 and 2: halfway in angle gives 1.5 on the unit circle
    mesh = MeshNorm((0.0, math.pi / 2), (1.0, 2.0))
    quarter = math.pi / 4
    v = [math.cos(quarter), math.sin(quarter)]
    assert eval_norm(mesh, v) == pytest.approx(1.5, rel=1e-12)


def test_norm_serialization_round_trip():
    reps = [
        WeightedMaxNorm((1.0, 0.5)),
        LpNorm(2.0),
        LpNorm(1.0, (1.0, 2.0)),
        MeshNorm((0.0, 1.0, 2.0), (1.0, 2.0, 1.5)),
    ]
    for rep in reps:
        back = norm_from_json_dict(norm_to_json_dict(rep))
        assert back == rep
    with pytest.raises(InputError):
        norm_from_json_dict({"variant": "simplex"})
    with pytest.raises(InputError):
        norm_from_json_dict({"weights": [1.0]})


def test_verify_barabanov_exact_fixtures():
    report = verify_barabanov(_shift_pair(), WeightedMaxNorm((1.0, 1.0)), 1.0)
    assert report.residual == 0.0
    assert report.passed
    assert report.sample_count == 720

    report = verify_barabanov(_shift_pair(0.3, 0.5), WeightedMaxNorm((1.0, 1.0)), 1.0)
    assert report.residual == 0.0

    report = verify_barabanov(_diag_dominant_pair(), WeightedMaxNorm((1.0, 0.5)), 1.0)
    assert report.residual == 0.0

    for xi in (0.5, 1.0, 2.0):
        report = verify_barabanov(
            _projector_swap_triple(), WeightedMaxNorm((1.0, xi)), 1.0
        )
        assert report.residual < 1e-12, xi

    for candidate in (LpNorm(1.0), LpNorm(2.0), WeightedMaxNorm((1.0, 1.0))):
        report = verify_barabanov(_sign_swap_pair(), candidate, 1.0)
        assert report.residual < 1e-9


def test_verify_barabanov_detects_failure():
    # Euclidean norm is not Barabanov for the diagonal-dominant pair
    report = verify_barabanov(_diag_dominant_pair(), LpNorm(2.0), 1.0, tol=1e-9)
    assert not report.passed
    assert report.residual > 1e-3


def test_verify_rejects_bad_rho_and_samples():
    with pytest.raises(InputError):
        verify_barabanov(_shift_pair(), LpNorm(2.0), 0.0)
    with pytest.raises(InputError):
        verify_barabanov(_shift_pair(), LpNorm(2.0), 1.0, samples=np.zeros((0, 2)))
    with pytest.raises(InputError):
        verify_barabanov(_shift_pair(), LpNorm(2.0), 1.0, samples=np.zeros((3, 3)))
    t3 = MatrixTuple("real", (np.eye(3),))
    with pytest.raises(InputError):
        verify_barabanov(t3, LpNorm(2.0), 1.0)  # needs explicit samples


def test_verify_extremal():
    t = _shift_pair(0.3, 0.5)
    assert verify_extremal(t, LpNorm(2.0), 1.0).residual == 0.0
    scaled = MatrixTuple("real", tuple(2.0 * a for a in t.matrices))
    report = verify_extremal(scaled, LpNorm(2.0), 1.0, tol=1e-9)
    assert not report.passed
    # one-sided residual never exceeds the two-sided one
    for norm in (LpNorm(2.0), WeightedMaxNorm((1.0, 1.0))):
        two = verify_barabanov(t, norm, 1.0)
        one = verify_extremal(t, norm, 1.0)
        assert one.residual <= two.residual + 1e-15


def test_verify_complex_tuple_with_samples():
    lam1, lam2 = 0.3 + 0.2j, -0.4j
    t = MatrixTuple(
        "complex",
        (np.array([[0.0, 1.0], [lam1, 0.0]]), np.array([[0.0, lam2], [1.0, 0.0]])),
    )
    pts = sphere_samples(2, 512, seed=7, field="complex")
    report = verify_barabanov(t, WeightedMaxNorm((1.0, 1.0)), 1.0, samples=pts)
    assert report.residual < 1e-12


def test_approx_barabanov_shift_pair_recovers_max_norm():
    result = approx_barabanov(_shift_pair(), 1.0)
    assert result.converged
    assert result.iterations <= 10
    dist = norm_distance(result.norm, WeightedMaxNorm((1.0, 1.0)))
    assert dist < 1e-3


def test_approx_barabanov_general_parameters():
    result = approx_barabanov(_shift_pair(0.3, 0.5), 1.0)
    assert result.converged
    assert result.iterations <= 500
    assert result.last_step < 1e-6
    report = verify_barabanov(_shift_pair(0.3, 0.5), result.norm, 1.0, tol=1e-3)
    assert report.passed


def test_approx_barabanov_own_mesh_residual():
    result = approx_barabanov(_shift_pair(0.3, 0.5), 1.0)
    ang = np.asarray(result.norm.angles)
    own = np.column_stack([np.cos(ang), np.sin(ang)])
    report = verify_barabanov(_shift_pair(0.3, 0.5), result.norm, 1.0, samples=own)
    assert report.residual < 10 * 1e-6


def test_approx_barabanov_depends_on_init():
    t = _projector_swap_triple()
    a = approx_barabanov(t, 1.0)  # Euclidean start
    b = approx_barabanov(t, 1.0, init=WeightedMaxNorm((1.0, 4.0)))
    assert a.converged and b.converged
    assert norm_distance(a.norm, b.norm) > 0.1
    # both ends of the family verify
    for res in (a, b):
        assert verify_barabanov(t, res.norm, 1.0, tol=1e-3).passed


def test_approx_barabanov_rotation_is_instant_fixed_point():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    t = MatrixTuple("real", (rot,))
    result = approx_barabanov(t, 1.0)
    assert result.converged
    assert result.iterations == 1
    assert result.last_step < 1e-12


def test_approx_barabanov_rejects_rounding_level_values():
    # e2 is mapped to zero: its mesh value ends near 6e-17 while e1's stays 1
    t = MatrixTuple("real", (np.diag([1.0, 0.0]), np.diag([0.5, 0.0])))
    with pytest.raises(ConvergenceError, match="positivity"):
        approx_barabanov(t, 1.0)


def test_approx_barabanov_input_checks():
    with pytest.raises(InputError):
        approx_barabanov(MatrixTuple("complex", (np.eye(2),)), 1.0)
    with pytest.raises(InputError):
        approx_barabanov(MatrixTuple("real", (np.eye(3),)), 1.0)
    with pytest.raises(InputError):
        approx_barabanov(_shift_pair(), -1.0)
    with pytest.raises(ConvergenceError):
        # both slots kill the plane eventually: values collapse to zero
        approx_barabanov(MatrixTuple("real", (np.zeros((2, 2)),)), 1.0)


def test_norm_distance_values():
    assert norm_distance(LpNorm(2.0), LpNorm(2.0)) == 0.0
    dist = norm_distance(WeightedMaxNorm((1.0, 1.0)), LpNorm(2.0))
    assert dist == pytest.approx(math.log(math.sqrt(2.0)), rel=1e-6)
    d12 = norm_distance(WeightedMaxNorm((1.0, 1.0)), WeightedMaxNorm((1.0, 2.0)))
    assert d12 == pytest.approx(math.log(2.0), rel=1e-6)
    with pytest.raises(InputError):
        norm_distance(LpNorm(2.0), LpNorm(2.0), samples=np.zeros((0, 2)))


def test_matrix_norm_box_exact():
    lam = 0.5
    t = _diag_dominant_pair(lam)
    norm = WeightedMaxNorm((1.0, lam))
    # slot norms under the fixture norm are exactly one
    assert matrix_norm(norm, t.matrices[0]) == 1.0
    assert matrix_norm(norm, t.matrices[1]) == 1.0
    p = t.matrices[0] @ t.matrices[0] @ t.matrices[1]
    assert matrix_norm(norm, p) == 1.0
    assert matrix_norm(WeightedMaxNorm((1.0, 1.0)), np.zeros((2, 2))) == 0.0


def test_matrix_norm_box_matches_dense_sampling():
    dense = circle_mesh(10_000)
    cases = [
        (WeightedMaxNorm((1.0, 0.5)), _diag_dominant_pair(0.5).matrices[0]),
        (WeightedMaxNorm((1.0, 0.5)), _diag_dominant_pair(0.5).matrices[1]),
        (WeightedMaxNorm((1.0, 2.0)), _projector_swap_triple(0.5).matrices[2]),
        (WeightedMaxNorm((1.0, 1.0)), _shift_pair(0.3, 0.5).matrices[0]),
    ]
    for norm, mat in cases:
        exact = matrix_norm(norm, mat)
        sampled = matrix_norm(norm, mat, samples=dense)
        assert sampled <= exact + 1e-12
        assert exact - sampled < 1e-6


def test_matrix_norm_higher_dimension_box():
    norm = WeightedMaxNorm((1.0, 2.0, 4.0))
    a = np.diag([1.0, 1.0, 1.0])
    assert matrix_norm(norm, a) == 1.0
    perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    # oracle: maximize over the 8 unit-ball corners by hand
    corners = [
        np.array([sx * 1.0, sy * 0.5, sz * 0.25])
        for sx in (-1, 1)
        for sy in (-1, 1)
        for sz in (-1, 1)
    ]
    want = max(eval_norm(norm, perm @ c) for c in corners)
    assert matrix_norm(norm, perm) == pytest.approx(want, rel=1e-12)


def test_theta_values():
    t = _diag_dominant_pair(0.5)
    norm = WeightedMaxNorm((1.0, 0.5))
    assert theta(t, (2, 1, 1), norm) == pytest.approx(1.0, abs=1e-12)
    assert theta(_shift_pair(), (1, 1), WeightedMaxNorm((1.0, 1.0))) == 0.0
    ident = MatrixTuple("real", (np.eye(2),))
    assert theta(ident, (1,), LpNorm(2.0)) == pytest.approx(1.0, rel=1e-12)


def test_theta_mesh_norm_uses_own_directions():
    result = approx_barabanov(_swap_half_pair(), 1.0)
    assert theta(_swap_half_pair(), (2,), result.norm) == pytest.approx(0.5, rel=1e-9)


def test_sphere_samples_deterministic():
    a = sphere_samples(3, 16, seed=5)
    b = sphere_samples(3, 16, seed=5)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    c = sphere_samples(2, 8, seed=5, field="complex")
    assert np.iscomplexobj(c)


def test_stacked_induced_norms_equal_one_matrix_formula_bitwise(monkeypatch):
    rng = np.random.default_rng(22)
    default_cap = config.BLOCK_BYTES
    for d in (1, 2, 5):
        w = tuple(rng.uniform(0.5, 2.0, d))
        for field in ("real", "complex"):
            stack = rng.standard_normal((30, d, d))
            if field == "complex":
                stack = stack + 1j * rng.standard_normal((30, d, d))
            pts = sphere_samples(d, 64, seed=3, field=field)
            cases = [(LpNorm(3.0, w), pts, pts), (LpNorm(1.5), pts, pts)]
            if field == "complex":
                cases.append((WeightedMaxNorm(w), pts, pts))
            else:
                # real weighted-max norms always use the box corners
                cases.append((WeightedMaxNorm(w), pts, norms._box_corners(w)))
                if d == 2:
                    ang = np.arange(16) * (np.pi / 16)
                    mesh = MeshNorm(tuple(ang), tuple(1.0 + 0.3 * np.cos(2 * ang)))
                    own = np.column_stack([np.cos(ang), np.sin(ang)])
                    cases.append((mesh, None, own))
            for norm, samples, ref_pts in cases:
                base = norms._eval_many(norm, ref_pts)
                # the one-matrix formula the stacked map replaces
                want = [np.max(norms._eval_many(norm, ref_pts @ a.T) / base) for a in stack]
                # the default cap, and one that takes the images three matrices at a time
                image_bytes = ref_pts.size * stack.itemsize
                for cap in (default_cap, 3 * image_bytes):
                    monkeypatch.setattr(config, "BLOCK_BYTES", cap)
                    induced = norms._induced_norm(norm, d, real=field == "real", samples=samples)
                    assert induced(stack).tolist() == want, (d, field, norm)
                    assert matrix_norm(norm, stack[0], samples) == want[0]
