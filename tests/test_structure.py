"""Irreducibility and rank-one verdicts on hand-checked fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from jsrkit import linalg
from jsrkit.config import DEFAULTS
from jsrkit.errors import InputError
from jsrkit.structure import (
    PropertyVerdict,
    _invariance_residual,
    algebra_basis,
    algebra_dimension,
    is_irreducible,
    rank_one_property,
)
from jsrkit.tuples import MatrixTuple, exterior_square_tuple
from jsrkit.bounds import bounds


def _shift_pair():
    return MatrixTuple(
        "real",
        (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])),
    )


def _sign_swap_pair(lam=0.5):
    return MatrixTuple(
        "real",
        (np.diag([1.0, -1.0]), np.array([[0.0, lam], [lam, 0.0]])),
    )


def _swap_half_pair():
    return MatrixTuple(
        "real",
        (np.array([[0.0, 1.0], [1.0, 0.0]]), 0.5 * np.eye(2)),
    )


def _span_dim_oracle(t, max_len):
    # independent route: Gaussian-elimination rank of flattened products
    d = t.d
    rows = [np.eye(d).reshape(-1)]
    frontier = [np.eye(d)]
    for _ in range(max_len):
        nxt = []
        for m in frontier:
            for a in t.matrices:
                p = a @ m
                nxt.append(p)
                rows.append(p.reshape(-1))
        frontier = nxt
    return np.linalg.matrix_rank(np.stack(rows), tol=1e-9)


def test_algebra_dimension_fixtures():
    assert algebra_dimension(MatrixTuple("real", (np.eye(2),))) == 1
    assert algebra_dimension(_shift_pair()) == 4
    assert algebra_dimension(_swap_half_pair()) == 2


def test_algebra_dimension_matches_rank_oracle():
    rng = np.random.default_rng(31)
    fixtures = [
        _shift_pair(),
        _sign_swap_pair(),
        _swap_half_pair(),
        MatrixTuple("real", tuple(rng.standard_normal((2, 2)) for _ in range(2))),
        MatrixTuple("real", tuple(rng.standard_normal((3, 3)) for _ in range(2))),
    ]
    for t in fixtures:
        assert algebra_dimension(t) == _span_dim_oracle(t, max_len=t.d * t.d)


def test_algebra_dimension_similarity_invariant():
    rng = np.random.default_rng(32)
    t = MatrixTuple("real", tuple(rng.standard_normal((3, 3)) for _ in range(2)))
    g = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    ginv = np.linalg.inv(g)
    s = MatrixTuple("real", tuple(g @ a @ ginv for a in t.matrices))
    assert algebra_dimension(t) == algebra_dimension(s)


def test_algebra_basis_is_orthonormal():
    basis = algebra_basis(_sign_swap_pair())
    flat = np.stack([b.reshape(-1) for b in basis])
    gram = flat @ flat.conj().T
    assert np.allclose(gram, np.eye(len(basis)), atol=1e-10)


def _cgs2_algebra_basis(t, drop_tol=DEFAULTS.span_drop_tol):
    # the same closure with the basis as a list of flat vectors: each
    # candidate is projected twice, each time with all coefficients at once
    d = t.d
    flat, queue = [], [np.eye(d, dtype=t.matrices[0].dtype)]
    while queue and len(flat) < d * d:
        v = queue.pop(0).reshape(-1)
        scale = np.linalg.norm(v)
        q = np.array(flat, dtype=v.dtype).reshape(len(flat), d * d)
        for _ in range(2):
            v = v - (q.conj() @ v) @ q
        residual = np.linalg.norm(v)
        if scale > 0.0 and residual > drop_tol * scale:
            flat.append(v / residual)
            queue.extend(a @ flat[-1].reshape(d, d) for a in t.matrices)
    return [f.reshape(d, d) for f in flat]


def _reference_algebra_basis(t, drop_tol=DEFAULTS.span_drop_tol):
    # the closure as first written: one candidate at a time through a
    # boolean extension helper, with a flat and a matrix copy of the basis,
    # orthogonalised by modified Gram-Schmidt, one basis vector at a time
    def try_extend(basis, candidate):
        v = np.asarray(candidate).reshape(-1).astype(complex if np.iscomplexobj(candidate) else float)
        scale = np.linalg.norm(v)
        if scale == 0.0:
            return False
        for _ in range(2):
            for q in basis:
                v = v - np.vdot(q, v) * q
        residual = np.linalg.norm(v)
        if residual <= drop_tol * scale:
            return False
        basis.append(v / residual)
        return True

    d = t.d
    dtype = np.complex128 if t.field == "complex" else np.float64
    flat_basis, mats = [], []
    queue = [np.eye(d, dtype=dtype)]
    while queue:
        cand = queue.pop(0)
        if try_extend(flat_basis, cand):
            added = flat_basis[-1].reshape(d, d)
            mats.append(added)
            if len(flat_basis) == d * d:
                break
            for a in t.matrices:
                queue.append(a @ added)
    return mats


def _oracle_tuples(count=150):
    """Seeded tuples over both fields, d 2-6, r 1-3, of five kinds in turn."""
    rng = np.random.default_rng(1515)
    for i in range(count):
        field = ("real", "complex")[i % 2]
        d, r, kind = 2 + i % 5, 1 + (i // 5) % 3, (i // 15) % 5

        def draw(shape):
            if kind in (2, 3):  # integer entries
                a = rng.integers(-2, 3, shape).astype(float)
                return a + 1j * rng.integers(-2, 3, shape) if field == "complex" else a
            a = rng.standard_normal(shape)
            return a + 1j * rng.standard_normal(shape) if field == "complex" else a

        slots = [draw((d, d)) for _ in range(r)]
        if kind in (1, 3):  # a common invariant subspace of dimension d // 2
            for a in slots:
                a[d // 2:, :d // 2] = 0.0
        if kind == 1:  # hidden by a rotation
            q, _ = np.linalg.qr(draw((d, d)))
            slots = [q @ a @ q.conj().T for a in slots]
        if kind == 4:
            slots[0] = np.zeros((d, d))
        yield MatrixTuple(field, tuple(slots))


def test_algebra_basis_matches_the_reference_closure_bit_for_bit():
    for i, t in enumerate(_oracle_tuples()):
        got, want = algebra_basis(t), _cgs2_algebra_basis(t)
        assert len(got) == len(want), i
        assert all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want)), i


def _span_projector(basis):
    flat = np.stack([b.reshape(-1) for b in basis])
    return flat.T @ flat.conj()


def test_algebra_basis_spans_what_modified_gram_schmidt_spans():
    # a second oracle: the first closure, whose last digits differ
    for i, t in enumerate(_oracle_tuples()):
        got, want = algebra_basis(t), _reference_algebra_basis(t)
        assert len(got) == len(want) and got[0].dtype == want[0].dtype, i
        assert np.max(np.abs(_span_projector(got) - _span_projector(want))) <= 1e-12, i
        flat = np.stack([g.reshape(-1) for g in got])
        assert np.max(np.abs(flat.conj() @ flat.T - np.eye(len(got)))) <= 1e-12, i


def _witness_projector(verdict, field):
    w = _witness_columns(verdict, field)
    return w @ w.conj().T


def test_witnesses_span_the_subspace_the_first_closure_finds(monkeypatch):
    # a Refuted basis may turn within its subspace; the subspace stays.
    # Five rounds give the same statuses as the default 200 on these tuples
    tuples = list(_oracle_tuples())
    got = [is_irreducible(t, rounds=5) for t in tuples]
    monkeypatch.setattr("jsrkit.structure.algebra_basis", _reference_algebra_basis)
    for i, (t, g) in enumerate(zip(tuples, got)):
        w = is_irreducible(t, rounds=5)
        assert g.status == w.status, i
        keys = ("algebra_dimension", "subspace_dimension")
        assert [g.evidence.get(k) for k in keys] == [w.evidence.get(k) for k in keys], i
        if g.status == "Refuted":
            diff = _witness_projector(g, t.field) - _witness_projector(w, t.field)
            assert np.max(np.abs(diff)) <= 1e-12, i


def test_algebra_basis_starts_at_the_scaled_identity():
    # so the first orbit row B v of a unit vector v has norm 1 / sqrt(d) > 0
    for t in (_sign_swap_pair(), MatrixTuple("complex", (np.diag([1j, 2.0, 0.0]),))):
        assert np.array_equal(algebra_basis(t)[0], np.eye(t.d) / np.sqrt(t.d))


def test_a_nan_residual_drops_the_candidate():
    # entries near the float maximum overflow a @ q, and inf - inf in the
    # projection leaves a NaN residual; the reference closure kept such
    # vectors (dimension 4, all NaN past the second), the loop drops them
    t = MatrixTuple("real", (np.full((2, 2), 1.7e308), np.array([[1.0, 0.0], [1.0, 0.0]])))
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = algebra_basis(t), _reference_algebra_basis(t)
    assert len(want) == 4 and all(np.isnan(w).any() for w in want[2:])
    assert len(got) == 2 and all(np.array_equal(g, w) for g, w in zip(got, want))
    assert np.array_equal(got[1], [[0.408248290463863, 0.0], [0.816496580927726, -0.408248290463863]])


def test_invariance_near_the_float_maximum_refutes_with_the_true_line():
    # the same pair: only the line through (1, 1) is invariant.  op_norm of the
    # first slot used to overflow to inf, which let e_2 pass the invariance
    # test; each slot is now scaled by a power of two first
    t = MatrixTuple("real", (np.full((2, 2), 1.7e308), np.array([[1.0, 0.0], [1.0, 0.0]])))
    with np.errstate(over="ignore", invalid="ignore"):
        verdict = is_irreducible(t)
        assert _invariance_residual(t, np.array([[0.0], [1.0]])) > 0.1
    assert verdict.status == "Refuted"
    (line,) = verdict.evidence["basis"]
    assert np.allclose(np.abs(line), [2 ** -0.5, 2 ** -0.5], rtol=0, atol=1e-15)
    assert line[0] * line[1] > 0


def test_drop_tol_of_one_or_more_is_rejected():
    # at drop_tol 1 even the identity was dropped: dimension 0 and an empty basis
    for tol in (1.0, 2.0):
        for call in (algebra_basis, algebra_dimension):
            with pytest.raises(InputError, match=rf"drop_tol must be in \(0, 1\), got {tol}"):
                call(_shift_pair(), tol)
        with pytest.raises(InputError, match="drop_tol must be in"):
            is_irreducible(_shift_pair(), drop_tol=tol)


def test_irreducible_needs_an_integer_seed():
    # checked before the search, even when the verdict needs no random draw
    assert is_irreducible(_shift_pair(), seed=np.int64(3)).status == "Certified"
    for seed in (None, 2.5, False, -1):
        with pytest.raises(InputError, match="seed must be a non-negative integer"):
            is_irreducible(_shift_pair(), seed=seed)


def test_irreducible_rounds_draw_the_seeded_stream():
    # two 2x2 blocks in a rotated basis; every slot block has complex
    # eigenvalues, so neither a standard basis vector nor a slot eigenvector
    # finds a block, and the verdict comes from the random rounds, whose
    # draws decide which block is found
    q, _ = np.linalg.qr(np.array([[1.0, 2, 0, 1], [0, 1, 3, 1], [2, 0, 1, 1], [1, 1, 1, 0]]))

    def blocks(a, b):
        m = np.zeros((4, 4))
        m[:2, :2], m[2:, 2:] = a, b
        return q @ m @ q.T

    c, s = np.cos(1.0), np.sin(1.0)
    t = MatrixTuple("real", (blocks([[c, -s], [s, c]], [[0.0, -0.5], [0.5, 0.0]]),
                             blocks([[1.0, 2.0], [-3.0, 1.0]], [[0.0, 1.0], [-2.0, 1.0]])))
    r3, r6, r18 = np.sqrt([3.0, 6.0, 18.0])
    expected = {  # the seed picks the block; building the generator later keeps these
        0: [[0.0, 2 / 3, 1 / 3, -2 / 3], [1 / r3, -1 / r3, 0.0, -1 / r3]],
        1: [[-2 / r6, -1 / r6, 0.0, -1 / r6], [0.0, 1 / r18, -4 / r18, -1 / r18]],
    }
    for seed, basis in expected.items():
        verdict = is_irreducible(t, seed=seed)
        assert verdict.status == "Refuted"
        assert verdict.evidence["algebra_dimension"] == 8
        assert verdict.evidence["subspace_dimension"] == 2
        assert np.allclose(verdict.evidence["basis"], basis, rtol=0.0, atol=1e-12), seed
        _check_witness(t, verdict)


def test_irreducible_certified_fixtures():
    verdict = is_irreducible(_sign_swap_pair())
    assert verdict.status == "Certified"
    assert verdict.evidence["algebra_dimension"] == 4
    assert is_irreducible(_shift_pair()).status == "Certified"


def _witness_columns(verdict, field):
    cols = verdict.evidence["basis"]
    if field == "complex":
        return np.array([[complex(re, im) for re, im in col] for col in cols]).T
    return np.array(cols, dtype=float).T


def _check_witness(t, verdict):
    assert verdict.status == "Refuted"
    w = _witness_columns(verdict, t.field)
    k = w.shape[1]
    assert 0 < k < t.d
    for a in t.matrices:
        image = a @ w
        proj = w @ (w.conj().T @ image)
        assert np.linalg.norm(image - proj) <= 1e-7 * max(1.0, linalg.op_norm(a))


def test_irreducible_refuted_scalar_pair():
    t = MatrixTuple("real", (np.eye(2), np.eye(2)))
    verdict = is_irreducible(t)
    _check_witness(t, verdict)
    assert verdict.evidence["subspace_dimension"] == 1


def test_irreducible_refuted_shared_triangular():
    t = MatrixTuple(
        "real",
        (np.array([[1.0, 1.0], [0.0, 1.0]]), np.diag([2.0, 1.0])),
    )
    verdict = is_irreducible(t)
    _check_witness(t, verdict)
    # the found line must be the first axis
    col = np.array(verdict.evidence["basis"][0])
    assert abs(col[1]) <= 1e-8


def test_irreducible_real_rotation_pair_unknown():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    t = MatrixTuple("real", (rot, 0.5 * np.eye(2)))
    verdict = is_irreducible(t)
    assert verdict.status == "Unknown"
    assert verdict.evidence["algebra_dimension"] == 2


def test_irreducible_complex_rotation_pair_refuted():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    t = MatrixTuple("complex", (rot, 0.5 * np.eye(2)))
    verdict = is_irreducible(t)
    _check_witness(t, verdict)


def test_irreducible_complex_diag_pair_refuted():
    t = MatrixTuple("complex", (np.diag([1.0, 2.0]), np.diag([3.0, 4.0])))
    _check_witness(t, is_irreducible(t))


def test_irreducible_complex_block_multiplicity():
    # two identical 1x1 blocks stacked: every invariant line is a graph line
    b = np.array([[2.0, 1.0], [0.5, 1.0]])
    big = np.zeros((4, 4))
    big[:2, :2] = b
    big[2:, 2:] = b
    c = np.zeros((4, 4))
    c[:2, :2] = b @ b
    c[2:, 2:] = b @ b
    t = MatrixTuple("complex", (big, c))
    verdict = is_irreducible(t)
    assert verdict.status == "Refuted"
    _check_witness(t, verdict)


def test_certified_iff_full_dimension_complex_2x2():
    rng = np.random.default_rng(33)
    for _ in range(100):
        mats = tuple(
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(2)
        )
        t = MatrixTuple("complex", mats)
        verdict = is_irreducible(t)
        assert (verdict.status == "Certified") == (algebra_dimension(t) == 4)
        assert verdict.status in ("Certified", "Refuted")


def test_rank_one_certified_zero_wedge():
    verdict = rank_one_property(_shift_pair(), 1)
    assert verdict.status == "Certified"
    assert verdict.evidence["wedge_bounds"]["upper"] == 0.0


def test_rank_one_refuted_sign_swap():
    verdict = rank_one_property(_sign_swap_pair(), 1)
    assert verdict.status == "Refuted"
    assert verdict.evidence["bounds"]["lower"] == pytest.approx(1.0, abs=1e-12)
    assert verdict.evidence["wedge_bounds"]["lower"] == pytest.approx(1.0, abs=1e-12)


def test_rank_one_refuted_swap_half():
    assert rank_one_property(_swap_half_pair(), 1).status == "Refuted"


def test_rank_one_unknown_then_refuted():
    # spectral radius sqrt(2) but norm 2 at depth 1; |det| = 2 sits between
    t = MatrixTuple("real", (np.array([[0.0, 2.0], [-1.0, 0.0]]),))
    assert rank_one_property(t, 1).status == "Unknown"
    assert rank_one_property(t, 2).status == "Refuted"


def test_rank_one_certified_generic():
    rng = np.random.default_rng(34)
    # a pair with one dominant direction certifies quickly
    a1 = np.diag([1.0, 0.3])
    a2 = np.array([[0.9, 0.1], [0.0, 0.2]])
    verdict = rank_one_property(MatrixTuple("real", (a1, a2)), 4)
    assert verdict.status == "Certified"


def test_rank_one_requires_dimension_two():
    with pytest.raises(InputError):
        rank_one_property(MatrixTuple("real", (np.array([[1.0]]),)), 1)


def test_rank_one_tol_must_lie_in_unit_interval():
    # at tol >= 1 the Refuted test b.upper**2 * (1 - tol) <= 0 holds for every tuple
    for tol in (1.0, 2.0, 0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InputError, match="tol must be in"):
            rank_one_property(_shift_pair(), 2, tol=tol)


def test_irreducible_rounds_must_be_nonnegative():
    assert is_irreducible(_shift_pair(), rounds=0).status == "Certified"
    with pytest.raises(InputError, match="rounds must be >= 0, got -1"):
        is_irreducible(_shift_pair(), rounds=-1)


def test_wedge_never_exceeds_square():
    rng = np.random.default_rng(35)
    for _ in range(20):
        t = MatrixTuple("real", tuple(rng.standard_normal((2, 2)) for _ in range(2)))
        b = bounds(t, 3)
        bw = bounds(exterior_square_tuple(t), 3)
        assert bw.lower <= b.upper ** 2 + 1e-9


def test_verdict_serialization():
    v = PropertyVerdict("Unknown", {"algebra_dimension": 2})
    assert v.to_json_dict() == {"status": "Unknown", "evidence": {"algebra_dimension": 2}}
