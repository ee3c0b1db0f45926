"""Kernel checks against independent closed-form oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from jsrkit import linalg
from jsrkit.errors import ConvergenceError, InputError


def _sigma_max_2x2_oracle(a):
    # closed-form largest eigenvalue of the 2x2 Hermitian A^H A
    g = a.conj().T @ a
    tr = (g[0, 0] + g[1, 1]).real
    half = 0.5 * (g[0, 0] - g[1, 1]).real
    lam_max = 0.5 * tr + math.sqrt(half * half + abs(g[0, 1]) ** 2)
    return math.sqrt(max(lam_max, 0.0))


def _eig_moduli_2x2_oracle(a):
    # quadratic formula on the characteristic polynomial
    tr = complex(a[0, 0] + a[1, 1])
    det = complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    disc = (tr * tr - 4 * det) ** 0.5
    return sorted((abs((tr + disc) / 2), abs((tr - disc) / 2)), reverse=True)


def test_op_norm_simple_values():
    assert linalg.op_norm(np.array([[0.5, 0.0], [0.0, 0.5]])) == pytest.approx(0.5, abs=1e-12)
    assert linalg.op_norm(np.zeros((2, 2))) == 0.0
    assert linalg.op_norm(np.array([[-1.0]])) == pytest.approx(1.0, abs=1e-15)


def test_op_norm_matches_2x2_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.standard_normal((2, 2))
        assert linalg.op_norm(a) == pytest.approx(_sigma_max_2x2_oracle(a), rel=1e-10)
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert linalg.op_norm(a) == pytest.approx(_sigma_max_2x2_oracle(a), rel=1e-10)


def test_spectral_radius_small_cases():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert linalg.spectral_radius(swap) == pytest.approx(1.0, abs=1e-12)
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert linalg.spectral_radius(nil) == pytest.approx(0.0, abs=1e-12)
    # companion matrix of (x - 2)(x - 3) = x^2 - 5x + 6
    comp = np.array([[0.0, -6.0], [1.0, 5.0]])
    assert linalg.spectral_radius(comp) == pytest.approx(3.0, rel=1e-10)


def test_spectral_radius_matches_quadratic_formula():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = rng.standard_normal((2, 2))
        assert linalg.spectral_radius(a) == pytest.approx(_eig_moduli_2x2_oracle(a)[0], rel=1e-8)


def test_spectral_radius_prescribed_eigenvalues():
    rng = np.random.default_rng(5)
    for _ in range(20):
        diag = rng.uniform(-2.0, 2.0, size=3)
        t = rng.standard_normal((3, 3)) + np.eye(3) * 3.0  # well conditioned
        a = t @ np.diag(diag) @ np.linalg.inv(t)
        assert linalg.spectral_radius(a) == pytest.approx(np.max(np.abs(diag)), rel=1e-8)


def test_radius_bounded_by_op_norm():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a = rng.standard_normal((3, 3))
        assert linalg.spectral_radius(a) <= linalg.op_norm(a) + 1e-10


def test_radius_power_identity():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.standard_normal((3, 3))
        r1 = linalg.spectral_radius(a)
        r3 = linalg.spectral_radius(a @ a @ a)
        assert r3 == pytest.approx(r1 ** 3, rel=1e-8, abs=1e-8)


def test_rank_eps_values():
    assert linalg.rank_eps(np.eye(3)) == 3
    assert linalg.rank_eps(np.zeros((3, 3))) == 0
    v = np.array([[1.0], [2.0], [3.0]])
    assert linalg.rank_eps(v @ v.T) == 1


def test_exterior_square_small_cases():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    w = linalg.exterior_square(a)
    assert w.shape == (1, 1)
    assert w[0, 0] == pytest.approx(-2.0, abs=1e-12)  # det
    assert np.allclose(linalg.exterior_square(np.eye(3)), np.eye(3), atol=1e-12)
    with pytest.raises(InputError):
        linalg.exterior_square(np.array([[2.0]]))


def test_exterior_square_norm_is_sigma1_sigma2():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        s = np.linalg.svd(a, compute_uv=False)
        assert linalg.op_norm(linalg.exterior_square(a)) == pytest.approx(s[0] * s[1], rel=1e-10)


def test_exterior_square_functorial():
    rng = np.random.default_rng(9)
    for _ in range(25):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        lhs = linalg.exterior_square(a @ b)
        rhs = linalg.exterior_square(a) @ linalg.exterior_square(b)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_stacked_kernels_equal_one_matrix_calls_bitwise():
    rng = np.random.default_rng(21)
    for d in (1, 2, 5):
        real = rng.standard_normal((40, d, d))
        sym = real + real.transpose(0, 2, 1)  # real spectra only: eigvals returns a real array
        for stack in (real, real + 1j * rng.standard_normal((40, d, d)), sym):
            op_norms = linalg.op_norms(stack)
            radii = linalg.spectral_radii(stack)
            assert op_norms.shape == radii.shape == (40,)
            for a, s, rho in zip(stack, op_norms, radii):
                assert s == np.linalg.svd(a, compute_uv=False)[0]
                assert rho == np.max(np.abs(np.linalg.eigvals(a)))
                assert linalg.op_norm(a) == s and linalg.spectral_radius(a) == rho
    with pytest.raises(InputError):
        linalg.op_norms(np.zeros((2, 2)))


def test_op_norm_caps_bound_op_norms_at_every_scale():
    rng = np.random.default_rng(27)
    for d in (1, 2, 5):
        for k in range(-1000, 1001, 40):
            real = rng.standard_normal((6, d, d))
            rank_one = np.einsum("ki,kj->kij", rng.standard_normal((6, d)), rng.standard_normal((6, d)))
            for stack in (real, real + 1j * rng.standard_normal((6, d, d)), rank_one):
                stack = np.concatenate([stack, np.zeros((1, d, d))]) * 2.0 ** k
                caps, norms = linalg.op_norm_caps(stack), linalg.op_norms(stack)
                assert (caps >= norms).all(), (d, k)
                # the Frobenius norm is at most sqrt(rank) times sigma_1
                assert (caps <= np.sqrt(d) * norms * (1 + 1e-9)).all(), (d, k)
                assert caps[-1] == 0.0
    # a bound past the float range is inf, with no warning, and rules nothing out
    assert linalg.op_norm_caps(np.full((1, 2, 2), 2.0 ** 1023)).tolist() == [np.inf]
    with pytest.raises(InputError):
        linalg.op_norm_caps(np.zeros((2, 2)))


def test_spectral_radius_caps_bound_spectral_radii_at_every_scale():
    rng = np.random.default_rng(28)
    for d in (1, 2, 4):
        jordan = np.eye(d, k=1) + 0.5 * np.eye(d)
        for k in range(-1000, 1001, 40):
            real = rng.standard_normal((6, d, d))
            # rotated nilpotent rows: eigvals returns rounding-level radii, up to eps ** (1/d)
            q = np.linalg.qr(rng.standard_normal((6, d, d)))[0]
            nilpotent = q @ np.triu(rng.standard_normal((6, d, d)), 1) @ q.transpose(0, 2, 1)
            for stack in (real, real + 1j * rng.standard_normal((6, d, d)), nilpotent):
                stack = np.concatenate([stack, jordan[None], np.zeros((1, d, d))]) * 2.0 ** k
                caps, radii = linalg.spectral_radius_caps(stack), linalg.spectral_radii(stack)
                assert (caps >= radii).all(), (d, k)
                assert caps[-1] == 0.0
        # a symmetric row has ||P @ P||_F <= sqrt(d) * rho**2, so the cap is tight to d ** (1/4)
        sym = rng.standard_normal((6, d, d))
        sym = sym + sym.transpose(0, 2, 1)
        caps, radii = linalg.spectral_radius_caps(sym), linalg.spectral_radii(sym)
        assert (caps <= d ** 0.25 * radii * (1 + 1e-9)).all(), d
    # a bound past the float range is inf, with no warning, and rules nothing out
    assert linalg.spectral_radius_caps(np.full((1, 2, 2), 2.0 ** 1023)).tolist() == [np.inf]
    with pytest.raises(InputError):
        linalg.spectral_radius_caps(np.zeros((2, 2)))


def test_caps_of_unscaled_stacks_equal_the_scaled_formula_bitwise(monkeypatch):
    # a stack, real or complex, whose rows' sums of squared entry moduli all
    # lie in [2**-900, 2**900], or are exactly zero rows, is capped without the
    # power-of-two scaling, which is exact there: the caps equal those of the
    # scaled formula bit for bit; rows out of that range take the scaled
    # formula itself, rows of 1e-170 or 5e-324 too, whose squares underflow to a sum of 0
    rng = np.random.default_rng(33)
    stacks, unscaled, scaled = [], [], []
    for d in (1, 2, 3, 5, 8, 12, 20, 28):
        for k in range(-700, 701, 50):  # past +-450 the sums leave the range
            stacks.append(rng.standard_normal((12, d, d)) * 2.0 ** k)
        # rows of mixed scale, rank-one and nilpotent rows among them
        mixed = rng.standard_normal((12, d, d)) * 2.0 ** rng.integers(-400, 401, (12, 1, 1))
        rank_one = np.einsum("ki,kj->kij", rng.standard_normal((12, d)), rng.standard_normal((12, d)))
        stacks += [mixed, rank_one * 2.0 ** -300, np.triu(rng.standard_normal((12, d, d)), 1) * 2.0 ** 200]
        stacks += [np.concatenate([mixed, np.zeros((1, d, d))]), mixed + 1j * rng.standard_normal((12, d, d))]
        zeros, underflowing = np.zeros((2, d, d)), np.full((3, d, d), 1e-170)
        unscaled += [zeros, np.concatenate([zeros[:1], mixed, -zeros]),
                     np.concatenate([zeros[:1], mixed + 1j * mixed[::-1]])]
        scaled += [np.concatenate([zeros, underflowing]), np.concatenate([mixed, underflowing, zeros])]
        lone = np.zeros((1, d, d))
        lone[0, -1, 0] = 5e-324  # the least subnormal, whose square underflows too
        scaled += [np.concatenate([zeros, lone])]
    assert all(linalg._sums_in_range(s) is not None for s in unscaled)
    assert all(linalg._sums_in_range(s) is None for s in scaled)
    stacks += unscaled + scaled
    fast = [(linalg.op_norm_caps(s), linalg.spectral_radius_caps(s)) for s in stacks]
    assert sum(linalg._sums_in_range(s) is not None for s in stacks) >= len(stacks) // 3
    for s, (caps, radius_caps) in zip(unscaled + scaled, fast[-len(unscaled + scaled):]):
        nonzero = s.any(axis=(1, 2))  # a norm cap is 0 exactly for a zero row
        assert np.array_equal(caps > 0, nonzero) and not radius_caps[~nonzero].any()
    monkeypatch.setattr(linalg, "_UNSCALED_SUMS", (np.inf, -np.inf))  # every stack takes the scaled formula
    for s, (caps, radius_caps) in zip(stacks, fast):
        assert caps.tobytes() == linalg.op_norm_caps(s).tobytes()
        assert radius_caps.tobytes() == linalg.spectral_radius_caps(s).tobytes()


def test_non_square_input_is_input_error():
    for kernel in (linalg.op_norm, linalg.spectral_radius, linalg.rank_eps,
                   linalg.exterior_square):
        with pytest.raises(InputError, match="expected a square matrix"):
            kernel(np.ones((2, 3)))


def test_results_past_the_float_range_are_convergence_errors():
    # every entry is finite, but sigma_1 and rho are 2e308, and the minors of 1e160 are 1e320
    big = np.full((2, 2), 1e308)
    for kernel in (linalg.op_norm, linalg.spectral_radius):
        with pytest.raises(ConvergenceError, match="overflow; the tuple's scale is out of range"):
            kernel(big)
    assert linalg.op_norm(np.full((2, 2), 1e160)) == pytest.approx(2e160)
    with pytest.raises(ConvergenceError, match="2x2 minors overflow"):
        linalg.exterior_square(np.full((2, 2), 1e160))
