"""Kernel checks against independent closed-form oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from jsrkit import linalg


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


def test_determinant_hand_checked():
    lam = 0.5
    assert linalg.determinant(np.array([[1.0, 0.0], [0.0, -1.0]])) == pytest.approx(-1.0, abs=1e-12)
    assert linalg.determinant(np.array([[0.0, lam], [lam, 0.0]])) == pytest.approx(-lam * lam, abs=1e-12)


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
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
        linalg.op_norms(np.zeros((2, 2)))
