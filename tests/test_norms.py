"""Norm evaluation, verification, approximation, and induced matrix norms."""

from __future__ import annotations

import math

import numpy as np
import pytest

from jsrkit import config, linalg, norms
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


def test_lp_norms_stay_finite_and_positive_at_extreme_scales():
    # entries raised to the power p used to overflow to inf at 2**400 and
    # flush to 0 at 2**-400, where the norm then read as vanishing (a
    # RuntimeWarning fails the suite)
    rng = np.random.default_rng(3)
    assert eval_norm(LpNorm(3.0), [2.0 ** 400, 1.0]) == 2.0 ** 400
    assert eval_norm(LpNorm(3.0), [2.0 ** -400, 0.0]) == 2.0 ** -400
    assert norms._base_values(LpNorm(3.0), np.array([[2.0 ** -400, 0.0]]))[0] > 0
    for p in (1.0, 1.5, 3.0, 10.0):
        for weights in (None, (2.0, 0.5, 1.0)):
            norm = LpNorm(p, weights)
            pts = rng.standard_normal((6, 3))
            pts[0, 1:] = 0.0
            unit = norms._eval_many(norm, pts)
            # rows at scale 1 are summed as they are, bit for bit
            scaled = np.abs(pts) * np.asarray(weights or (1.0, 1.0, 1.0))
            assert unit.tobytes() == (np.sum(scaled ** p, axis=1) ** (1.0 / p)).tobytes()
            for c in (2.0 ** 400, 2.0 ** -400, 2.0 ** 1000, 2.0 ** -1000):
                got = norms._eval_many(norm, c * pts) / c
                assert got == pytest.approx(unit, rel=1e-12), (p, weights, c)


def test_lp_norms_of_high_order_keep_nonzero_vectors():
    # 0.5 ** 2000 underflows even after a power-of-two scaling, so the re-sum
    # must divide by the largest entry for the norm not to vanish at [0.5, 0]
    assert eval_norm(LpNorm(2000.0), [0.5, 0.0]) == 0.5
    for p in (2000.0, 1e6):
        norm = LpNorm(p)
        for v in ([0.5, 0.0], [0.5, 0.25], [0.5, -0.5], [0.3, 0.5, -0.5]):
            top = np.max(np.abs(v))
            ties = np.count_nonzero(np.abs(v) == top)  # the other entries fall below 2**-1000 relative
            for c in (1.0, 2.0 ** 400, 2.0 ** -400):
                got = norms._eval_many(norm, c * np.array([v]))
                assert got[0] / c == pytest.approx(top * ties ** (1.0 / p), rel=1e-15), (p, v, c)
                assert norms._base_values(norm, c * np.array([v]))[0] > 0


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


@pytest.mark.parametrize("key", ["angles", "values"])
@pytest.mark.parametrize(
    "entry, reason",
    [(True, "non-numeric entry"), ("1.5", "non-numeric entry"), (None, "non-numeric entry"),
     (10 ** 400, "integer entry too large for a float")],
)
def test_mesh_norm_json_rejects_bad_entries(key, entry, reason):
    payload = {"variant": "mesh", "angles": [0.0, 1.0, 2.0], "values": [1.0, 2.0, 1.5]}
    payload[key] = payload[key][:1] + [entry] + payload[key][2:]
    with pytest.raises(InputError) as info:
        norm_from_json_dict(payload)
    assert str(info.value) == f"norm {key!r}: {reason}"


def test_mesh_norm_json_takes_ints_as_floats():
    norm = norm_from_json_dict({"variant": "mesh", "angles": [0, 1.0, 2], "values": [1, 2.0, 1.5]})
    assert norm == MeshNorm((0.0, 1.0, 2.0), (1.0, 2.0, 1.5))
    assert all(type(x) is float for x in norm.angles + norm.values)
    with pytest.raises(InputError, match="must be a list of numbers"):
        norm_from_json_dict({"variant": "mesh", "angles": (0.0, 1.0), "values": [1.0, 1.0]})


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


def test_matrix_norm_rejects_malformed_samples():
    with pytest.raises(InputError, match="samples have dimension 3, tuple has 2"):
        matrix_norm(LpNorm(2.0), np.eye(2), samples=np.ones((4, 3)))
    with pytest.raises(InputError, match="empty sample set"):
        matrix_norm(LpNorm(2.0), np.eye(2), samples=np.zeros((0, 2)))
    # complex directions stay allowed for a real matrix, not for verifying a real tuple
    assert matrix_norm(LpNorm(2.0), np.eye(2), samples=np.array([[1.0, 1j]])) == 1.0
    with pytest.raises(InputError, match="complex samples supplied for a real tuple"):
        verify_barabanov(_shift_pair(), LpNorm(2.0), 1.0, samples=np.array([[1.0, 1j]]))


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


def test_approx_barabanov_averages_out_of_a_two_cycle():
    # from (1, 3) and (3, 1) the normalized map sends each norm onto the other,
    # so plain sweeps would run all 500 at a last step of log 9; the second
    # step is no smaller than the first, and the averaged steps from there converge
    t = _shift_pair(0.3, 0.5)
    rho_hat = linalg.spectral_radius(t.matrices[1] @ t.matrices[0]) ** 0.5
    runs = [approx_barabanov(t, rho_hat, init=WeightedMaxNorm(w)) for w in ((1.0, 3.0), (3.0, 1.0))]
    assert [(res.iterations, res.converged) for res in runs] == [(26, True), (25, True)]
    for res in runs:
        assert res.last_step < 1e-6
        assert verify_barabanov(t, res.norm, rho_hat).residual < 1e-6
    # a start that never cycles takes the plain sweeps, bit for bit
    plain = approx_barabanov(t, rho_hat, init=WeightedMaxNorm((1.0, 1.0)))
    assert (plain.iterations, plain.last_step) == (8, 7.731230869820479e-07)


def _rotation(angle):
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


@pytest.mark.parametrize("matrices, rho_hat, init, sweeps", [
    # period 3: the rotation by 2 pi / 3 carries the box (1, 3) round in three sweeps
    ((_rotation(2 * math.pi / 3),), 1.0, WeightedMaxNorm((1.0, 3.0)), 24),
    # period 4: the spiral is sqrt 2 times a map conjugate to the rotation by pi / 4,
    # and a norm is even, so plain sweeps settle into a cycle of four
    ((np.array([[1.0, -2.0], [0.5, 1.0]]),), math.sqrt(2.0), LpNorm(2.0), 41),
    # period 5: the rotation by 2 pi / 5 beside diag(1, 0.3)
    ((_rotation(2 * math.pi / 5), np.diag([1.0, 0.3])), 1.0, WeightedMaxNorm((1.0, 3.0)), 54),
])
def test_approx_barabanov_averages_out_of_longer_cycles(matrices, rho_hat, init, sweeps):
    # plain sweeps cycle here and would run all 500; the averaged steps taken
    # from the first step no smaller than the one before converge
    t = MatrixTuple("real", matrices)
    result = approx_barabanov(t, rho_hat, init=init)
    assert (result.iterations, result.converged) == (sweeps, True)
    assert verify_barabanov(t, result.norm, rho_hat).residual < 1e-5


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


def test_approx_barabanov_needs_one_iteration():
    # with no sweep there is no step, and last_step would stay inf
    for max_iter in (0, -1):
        with pytest.raises(InputError, match=f"max_iter must be >= 1, got {max_iter}"):
            approx_barabanov(_shift_pair(), 1.0, max_iter=max_iter)
    result = approx_barabanov(_shift_pair(), 1.0, max_iter=1)
    assert result.iterations == 1 and math.isfinite(result.last_step)


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
        assert matrix_norm(norm, mat, samples=dense) == exact  # samples are not used
        sampled = np.max(norms._eval_many(norm, dense @ mat.T) / norms._eval_many(norm, dense))
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


def test_matrix_norm_weighted_max_is_exact_past_dimension_10():
    # every row sums to 1, so the induced sup norm is 1; it is attained only at
    # the all-ones corners, which 2000 directions on the 12-sphere miss by far
    a = np.full((12, 12), 1.0 / 12)
    assert matrix_norm(WeightedMaxNorm((1.0,) * 12), a, samples=sphere_samples(12, 2000)) == 1.0


def test_matrix_norm_weighted_max_is_exact_over_the_complex_field():
    # the row (1, i) sends (1, -i) to 2, and |a_11| + |a_12| = 2 is the closed form
    a = np.array([[1.0, 1j], [0.0, 0.0]])
    assert matrix_norm(WeightedMaxNorm((1.0, 1.0)), a) == 2.0
    assert eval_norm(WeightedMaxNorm((1.0, 1.0)), a @ np.array([1.0, -1j])) == 2.0


def test_matrix_norm_weighted_max_checks_its_dimension():
    with pytest.raises(InputError, match="norm expects dimension 3, got 2"):
        matrix_norm(WeightedMaxNorm((1.0, 1.0, 1.0)), np.eye(2))


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


def test_norm_checks_share_one_message_each():
    # 1.7e308 * (|x| + |y|) passes the float range on the diagonal directions
    huge = LpNorm(1.0, (1.7e308, 1.7e308))
    positivity = "norm vanishes or blows up on a sample direction"
    with pytest.raises(InputError, match=positivity):
        verify_barabanov(_shift_pair(), huge, 1.0)
    with pytest.raises(InputError, match=positivity):
        matrix_norm(huge, np.eye(2))
    with pytest.raises(InputError, match=positivity):
        norm_distance(huge, LpNorm(2.0))
    with pytest.raises(InputError, match=positivity):
        norm_distance(LpNorm(2.0), huge)
    with pytest.raises(InputError, match=positivity):
        approx_barabanov(_shift_pair(0.3, 0.5), 1.0, init=huge)
    infinite = np.array([[np.inf, 0.0]])
    with pytest.raises(InputError, match=positivity):
        matrix_norm(LpNorm(2.0), np.eye(2), samples=infinite)
    with pytest.raises(InputError, match=positivity):
        norm_distance(WeightedMaxNorm((1.0, 1.0)), LpNorm(2.0), samples=infinite)
    for samples in ([], np.zeros((0, 2))):
        with pytest.raises(InputError, match="empty sample set"):
            norm_distance(LpNorm(2.0), LpNorm(3.0), samples=samples)
    directions = "supply sample directions: the built-in mesh covers real 2-dimensional tuples only"
    with pytest.raises(InputError, match=directions):
        verify_barabanov(MatrixTuple("real", (np.eye(3),)), LpNorm(2.0), 1.0)
    with pytest.raises(InputError, match=directions):
        matrix_norm(LpNorm(2.0), np.eye(3))


def test_sphere_samples_need_an_integer_seed():
    assert np.array_equal(sphere_samples(2, 3, seed=np.int64(4)), sphere_samples(2, 3, seed=4))
    for seed in (None, 1.0, True, -1, "0"):
        with pytest.raises(InputError, match="seed must be a non-negative integer"):
            sphere_samples(2, 3, seed=seed)


def test_sphere_samples_reject_an_unknown_field():
    # the same check, and text, as a MatrixTuple with that field
    message = "field must be one of ('real', 'complex'), got 'complx'"
    with pytest.raises(InputError) as tuple_error:
        MatrixTuple("complx", (np.eye(2),))
    assert str(tuple_error.value) == message
    with pytest.raises(InputError) as samples_error:
        sphere_samples(2, 2, 0, field="complx")
    assert str(samples_error.value) == message


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
            # weighted max norms take the row-sum formula and ignore the samples
            cases.append((WeightedMaxNorm(w), pts, None))
            if field == "real" and d == 2:
                ang = np.arange(16) * (np.pi / 16)
                mesh = MeshNorm(tuple(ang), tuple(1.0 + 0.3 * np.cos(2 * ang)))
                own = np.column_stack([np.cos(ang), np.sin(ang)])
                cases.append((mesh, None, own))
            for norm, samples, ref_pts in cases:
                # the one-matrix formula the stacked map replaces
                if ref_pts is None:
                    wts = np.array(w)
                    want = [np.max(wts * (np.abs(a) @ (1.0 / wts))) for a in stack]
                else:
                    base = norms._eval_many(norm, ref_pts)
                    want = [np.max(norms._eval_many(norm, ref_pts @ a.T) / base) for a in stack]
                # the default cap, and one that takes the images three matrices at a time
                image_bytes = (pts if ref_pts is None else ref_pts).size * stack.itemsize
                for cap in (default_cap, 3 * image_bytes):
                    monkeypatch.setattr(config, "BLOCK_BYTES", cap)
                    induced, bound = norms._induced_norm(
                        norm, d, real=field == "real", samples=samples
                    )
                    assert induced(stack).tolist() == want, (d, field, norm)
                    assert np.all(bound(linalg.op_norm_caps(stack)) >= want), (d, field, norm)
                    assert matrix_norm(norm, stack[0], samples) == want[0]


def test_value_bound_holds_where_powers_underflow_or_overflow():
    # rank-one stacks along an axis meet the bound up to rounding; near 2**(-1074/p)
    # an lp power rounds up to the least subnormal, which lifts the value past
    # cap * c by up to 26%, and near 2**(1000/p) it overflows: there the bound is inf
    a = 2.0 ** np.arange(-1074.0, 1024.0, 0.25)
    rows = [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.3, 0.0]], [[0.6, 0.8], [0.0, 0.0]]]
    stack = np.concatenate([a[:, None, None] * np.array(m) for m in rows])
    caps = linalg.op_norm_caps(stack)
    for norm in (LpNorm(1.0), LpNorm(1.5), LpNorm(3.0), LpNorm(2.0, (1.0, 3.0)),
                 WeightedMaxNorm((1.0, 2.0))):
        induced, bound = norms._induced_norm(norm, 2, real=True, samples=np.eye(2))
        with np.errstate(all="ignore"):
            values = induced(stack)
        assert np.all(bound(caps) >= values), norm
