"""Matrix tuple model: products, distances, serialization."""

from __future__ import annotations

import numpy as np
import pytest

from jsrkit import config, linalg, tuples, words
from jsrkit.errors import BudgetError, ConvergenceError, InputError


def _shift_pair():
    # two nilpotent shifts whose alternating products have spectral radius one
    a1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    a2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    return tuples.MatrixTuple("real", (a1, a2))


def test_construction_validation():
    with pytest.raises(InputError):
        tuples.MatrixTuple("rational", (np.eye(2),))
    with pytest.raises(InputError):
        tuples.MatrixTuple("real", ())
    with pytest.raises(InputError):
        tuples.MatrixTuple("real", (np.zeros((2, 3)),))
    with pytest.raises(InputError):
        tuples.MatrixTuple("real", (np.eye(2), np.eye(3)))
    with pytest.raises(InputError):
        tuples.MatrixTuple("real", (np.array([[np.nan, 0.0], [0.0, 0.0]]),))
    with pytest.raises(InputError):
        tuples.MatrixTuple("real", (np.array([[1j, 0], [0, 0]]),))
    t = tuples.MatrixTuple("complex", (np.eye(2),))
    assert t.matrices[0].dtype == np.complex128


def test_matrices_are_frozen():
    t = _shift_pair()
    with pytest.raises(ValueError):
        t.matrices[0][0, 0] = 5.0


def test_product_along_single_letters():
    t = _shift_pair()
    assert np.array_equal(tuples.product_along(t, (1,)), t.matrices[0])
    assert np.array_equal(tuples.product_along(t, (2,)), t.matrices[1])


def test_product_along_order_convention():
    # first letter is the rightmost factor: w = (1, 2) gives A2 @ A1
    t = _shift_pair()
    p = tuples.product_along(t, (1, 2))
    expected = t.matrices[1] @ t.matrices[0]
    assert np.array_equal(p, expected)
    assert linalg.spectral_radius(p) == pytest.approx(1.0, abs=1e-12)
    # and a length-3 word on a generic pair
    rng = np.random.default_rng(11)
    s = tuples.MatrixTuple("real", (rng.standard_normal((3, 3)), rng.standard_normal((3, 3))))
    got = tuples.product_along(s, (2, 1, 1))
    want = s.matrices[0] @ s.matrices[0] @ s.matrices[1]
    assert np.allclose(got, want, atol=1e-12)


def _blocks(t, n, **kwargs):
    """product_blocks as (list of words, list of blocks)."""
    blocks = list(tuples.product_blocks(t, n, **kwargs))
    got = [words.word_at(c, t.r, n) for codes, _ in blocks for c in codes.tolist()]
    return got, blocks


def test_product_blocks_match_product_along_bitwise(monkeypatch):
    rng = np.random.default_rng(15)
    default_cap = config.BLOCK_BYTES
    for r in (1, 2, 3):
        real = tuple(rng.standard_normal((3, 3)) for _ in range(r))
        cplx = tuple(a + 1j * rng.standard_normal((3, 3)) for a in real)
        for t in (tuples.MatrixTuple("real", real), tuples.MatrixTuple("complex", cplx)):
            # the default cap, and one of four products that forces many blocks
            for cap in (default_cap, 4 * t.matrices[0].nbytes):
                monkeypatch.setattr(config, "BLOCK_BYTES", cap)
                for n in range(1, 7):
                    for necklaces in (False, True):
                        got, blocks = _blocks(t, n, necklaces=necklaces)
                        want = words.enumerate_necklaces if necklaces else words.enumerate_words
                        assert got == list(want(r, n)), (r, n, necklaces)
                        stacks = [p for _, stack in blocks for p in stack]
                        for w, p in zip(got, stacks):
                            assert np.array_equal(p, tuples.product_along(t, w)), w
                        assert all(stack.nbytes <= cap for _, stack in blocks)
                        assert all(codes.dtype == np.int64 for codes, _ in blocks)
                        if cap < default_cap and len(got) > 4:
                            assert len(blocks) > 1


def test_product_blocks_prune_drops_subtrees():
    rng = np.random.default_rng(16)
    t = tuples.MatrixTuple("real", tuple(rng.standard_normal((2, 2)) for _ in range(3)))
    p21 = tuples.product_along(t, (2, 1))
    below = [tuples.product_along(t, (2, 1, x)) for x in (1, 2, 3)]
    asked = []

    def prune(stack, k):
        asked.append(k)
        # nothing below a dropped prefix is asked about
        assert not any(np.array_equal(p, q) for p in stack for q in below)
        return np.all(stack == p21, axis=(1, 2)) if k == 2 else np.zeros(len(stack), dtype=bool)

    for necklaces in (False, True):
        asked.clear()
        got, blocks = _blocks(t, 5, necklaces=necklaces, prune=prune)
        every = words.enumerate_necklaces(3, 5) if necklaces else words.enumerate_words(3, 5)
        assert got == [w for w in every if w[:2] != (2, 1)]
        stacks = [p for _, stack in blocks for p in stack]
        assert all(np.array_equal(p, tuples.product_along(t, w)) for w, p in zip(got, stacks))
        assert set(asked) == {1, 2, 3, 4}


def test_product_blocks_errors():
    t = _shift_pair()
    # the budget is checked when the sweep is created, before any product is built
    with pytest.raises(BudgetError):
        tuples.product_blocks(t, 10, budget=100)
    # products that overflow raise ConvergenceError naming the length, with no warning
    big = tuples.MatrixTuple("real", (np.full((2, 2), 1e200),))
    with pytest.raises(ConvergenceError, match="length 2"):
        list(tuples.product_blocks(big, 3))


def test_product_along_validates_letters():
    t = _shift_pair()
    with pytest.raises(InputError):
        tuples.product_along(t, (1, 3))
    with pytest.raises(InputError):
        tuples.product_along(t, ())


def test_product_of_word_power():
    rng = np.random.default_rng(12)
    t = tuples.MatrixTuple(
        "real", tuple(0.7 * rng.standard_normal((2, 2)) for _ in range(2))
    )
    for w in ((1,), (1, 2), (2, 2, 1)):
        p1 = tuples.product_along(t, w)
        p3 = tuples.product_along(t, words.power(w, 3))
        assert np.allclose(p3, np.linalg.matrix_power(p1, 3), atol=1e-10)


def test_radius_is_rotation_invariant():
    rng = np.random.default_rng(13)
    t = tuples.MatrixTuple(
        "real", tuple(rng.standard_normal((3, 3)) for _ in range(2))
    )
    w = (1, 2, 2, 1, 2)
    base = linalg.spectral_radius(tuples.product_along(t, w))
    for k in range(1, len(w)):
        rot = w[k:] + w[:k]
        assert linalg.spectral_radius(tuples.product_along(t, rot)) == pytest.approx(
            base, rel=1e-8, abs=1e-10
        )


def test_tuple_distance():
    t = _shift_pair()
    assert tuples.tuple_distance(t, t) == 0.0
    s = tuples.MatrixTuple("real", (t.matrices[0] + 0.25 * np.eye(2), t.matrices[1]))
    assert tuples.tuple_distance(t, s) == pytest.approx(0.25, abs=1e-12)
    # oracle: max over slots of op norm differences
    rng = np.random.default_rng(14)
    a = tuples.MatrixTuple("real", tuple(rng.standard_normal((2, 2)) for _ in range(3)))
    b = tuples.MatrixTuple("real", tuple(rng.standard_normal((2, 2)) for _ in range(3)))
    want = max(
        linalg.op_norm(x - y) for x, y in zip(a.matrices, b.matrices)
    )
    assert tuples.tuple_distance(a, b) == pytest.approx(want, rel=1e-12)
    with pytest.raises(InputError):
        tuples.tuple_distance(t, a)


def test_scale():
    t = _shift_pair()
    s = tuples.scale(t, 0.5)
    assert np.allclose(s.matrices[0], 0.5 * t.matrices[0], atol=1e-15)
    with pytest.raises(InputError):
        tuples.scale(t, 1.0 + 2.0j)
    c = tuples.MatrixTuple("complex", (np.eye(2),))
    sc = tuples.scale(c, 1j)
    assert np.allclose(sc.matrices[0], 1j * np.eye(2), atol=1e-15)


def test_exterior_square_tuple():
    t = _shift_pair()
    w = tuples.exterior_square_tuple(t)
    assert w.d == 1
    assert w.r == 2
    assert float(w.matrices[0][0, 0]) == pytest.approx(0.0, abs=1e-15)


def test_json_round_trip_real():
    t = _shift_pair()
    text = tuples.to_json(t)
    back = tuples.from_json(text)
    assert back.field == "real"
    assert back.r == 2 and back.d == 2
    for a, b in zip(t.matrices, back.matrices):
        assert np.array_equal(a, b)


def test_json_round_trip_complex():
    a = np.array([[0.0, 1.0 + 0.5j], [0.25j, 0.0]])
    t = tuples.MatrixTuple("complex", (a,))
    back = tuples.from_json(tuples.to_json(t))
    assert back.field == "complex"
    assert np.allclose(back.matrices[0], a, atol=0)


def test_json_ignores_extra_keys():
    t = _shift_pair()
    text = tuples.to_json(t, extra={"truth": {"jsr": 1.0}})
    back = tuples.from_json(text)
    assert back.r == 2


def test_json_malformed_inputs():
    with pytest.raises(InputError):
        tuples.from_json("{not json")
    with pytest.raises(InputError):
        tuples.from_json('{"field": "real", "r": 1, "d": 2}')
    with pytest.raises(InputError):
        tuples.from_json(
            '{"field": "real", "r": 1, "d": 2, "matrices": [[[1, 0], [0]]]}'
        )
    with pytest.raises(InputError):
        tuples.from_json(
            '{"field": "real", "r": 2, "d": 1, "matrices": [[[1]]]}'
        )
    with pytest.raises(InputError):
        tuples.from_json(
            '{"field": "complex", "r": 1, "d": 1, "matrices": [[[1.5]]]}'
        )
    with pytest.raises(InputError):
        tuples.from_json(
            '{"field": "real", "r": 1, "d": 1, "matrices": [[["x"]]]}'
        )
    with pytest.raises(InputError):
        tuples.from_json(
            '{"field": "complex", "r": 1, "d": 1, "matrices": [[[true, 0]]]}'
        )
