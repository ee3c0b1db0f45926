"""Matrix tuple model: products, distances, serialization."""

from __future__ import annotations

import itertools
import json
import warnings

import numpy as np
import pytest

from jsrkit import config, finiteness, linalg, tuples, words
from jsrkit.errors import BudgetError, ConvergenceError, InputError
from jsrkit.constructions import characteristic_tuple
from jsrkit.finiteness import sfh_evidence
from jsrkit.norms import WeightedMaxNorm, sphere_samples


def _store(t, depth):
    """A fresh prefix store of the given depth at the default budget, as one call's product walks have."""
    return tuples._PrefixStore(t, depth, config.DEFAULTS.word_budget)


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
    with pytest.raises(InputError, match="matrix dimension must be >= 1"):
        tuples.MatrixTuple("real", (np.zeros((0, 0)),))
    with pytest.raises(InputError):
        tuples.MatrixTuple("real", (np.eye(2), np.eye(3)))
    with pytest.raises(InputError):
        tuples.MatrixTuple("real", (np.array([[np.nan, 0.0], [0.0, 0.0]]),))
    with pytest.raises(InputError):
        tuples.MatrixTuple("real", (np.array([[1j, 0], [0, 0]]),))
    t = tuples.MatrixTuple("complex", (np.eye(2),))
    assert t.matrices[0].dtype == np.complex128
    # a real tuple keeps the real parts of complex entries whose imaginary parts are all zero
    t = tuples.MatrixTuple("real", (np.array([[1.0 + 0j, -2.0 + 0j], [0j, 0.5 - 0j]]),))
    assert t.matrices[0].dtype == np.float64
    assert t.matrices[0].tobytes() == np.array([[1.0, -2.0], [0.0, 0.5]]).tobytes()


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


def _keep(digits, periods, caps, k):
    """A prune that drops nothing."""
    return np.zeros(len(digits), dtype=bool)


def _blocks(t, n, necklaces=False, prune=_keep):
    """The store's walk of length n as (list of words, list of (digits, stack) blocks), with prune and,
    if asked, a prune on words._necklaces, which keeps the necklaces only; each stack is copied out
    before the next block is asked for."""
    def walk_prune(digits, periods, caps, k):
        drop = prune(digits, periods, caps, k)
        return drop | ~words._necklaces(periods, k, n) if necklaces else drop

    blocks = [(digits, stack.copy()) for digits, _, _, stack in _store(t, n).walk(n, prune=walk_prune)]
    got = [w for digits, _ in blocks for w in words._words_at(digits)]
    return got, blocks


def test_store_walk_matches_product_along_bitwise(monkeypatch):
    rng = np.random.default_rng(15)
    default_cap, default_blocks = config.BLOCK_BYTES, tuples._STORE_BLOCKS
    # one slot and 3000 letters, far past the interpreter's recursion limit,
    # with an orthogonal or unitary slot so that the product stays finite
    for r, lengths in ((1, range(1, 7)), (2, range(1, 7)), (3, range(1, 7)), (1, (3000,))):
        real = tuple(rng.standard_normal((3, 3)) for _ in range(r))
        cplx = tuple(a + 1j * rng.standard_normal((3, 3)) for a in real)
        if 3000 in lengths:
            real, cplx = (np.linalg.qr(real[0])[0],), (np.linalg.qr(cplx[0])[0],)
        for t in (tuples.MatrixTuple("real", real), tuples.MatrixTuple("complex", cplx)):
            # the default cap, and one of four products that forces many blocks; a store that
            # keeps its prefixes, and one that keeps only the slots and builds every later row
            # in the scratch rows of its length
            for cap, store_blocks in itertools.product((default_cap, 4 * t.matrices[0].nbytes), (default_blocks, 0)):
                monkeypatch.setattr(config, "BLOCK_BYTES", cap)
                monkeypatch.setattr(tuples, "_STORE_BLOCKS", store_blocks)
                for n in lengths:
                    for necklaces in (False, True):
                        got, blocks = _blocks(t, n, necklaces=necklaces)
                        want = words.enumerate_necklaces if necklaces else words.enumerate_words
                        assert got == list(want(r, n)), (r, n, necklaces)
                        stacks = [p for _, stack in blocks for p in stack]
                        for w, p in zip(got, stacks):  # bytes: signed zeros count too
                            assert p.tobytes() == tuples.product_along(t, w).tobytes(), w
                        assert all(stack.nbytes <= cap for _, stack in blocks)
                        assert all(digits.shape == (len(stack), n) and digits.dtype == np.uint8
                                   for digits, stack in blocks)
                        if cap < default_cap and len(got) > 4:
                            assert len(blocks) > 1
                        if not necklaces:  # the largest block holds as many words as fit under cap
                            fit = r * max(1, cap // t.matrices[0].nbytes // r) if n > 1 else r
                            assert max(len(digits) for digits, _ in blocks) == min(fit, r ** n)
                    # every walk carries the periods that mark the necklaces
                    marked = [w for digits, periods, *_ in _store(t, n).walk(n, prune=_keep)
                              for w, mark in zip(words._words_at(digits), words._necklaces(periods, n, n)) if mark]
                    assert marked == list(words.enumerate_necklaces(r, n)), (r, n)
    # the empty word's children are the slots themselves, not I @ A, so -0.0 stays
    t = tuples.MatrixTuple("real", (np.array([[-0.0, 1.0], [0.5, -0.0]]),))
    for necklaces in (False, True):
        _, ((_, stack),) = _blocks(t, 1, necklaces=necklaces)
        assert stack.tobytes() == t.matrices[0].tobytes()


def test_store_walk_prune_drops_subtrees():
    rng = np.random.default_rng(16)
    t = tuples.MatrixTuple("real", tuple(rng.standard_normal((2, 2)) for _ in range(3)))
    below = linalg.op_norm_caps(np.array([tuples.product_along(t, (2, 1, x)) for x in (1, 2, 3)]))
    asked = []

    def prune(digits, periods, caps, k):
        asked.append(k)
        # nothing below a dropped prefix is asked about: no cap of its children comes up
        assert not np.isin(caps, below).any()
        return np.all(digits == (1, 0), axis=1) if k == 2 else np.zeros(len(caps), dtype=bool)

    for necklaces in (False, True):
        asked.clear()
        got, blocks = _blocks(t, 5, necklaces=necklaces, prune=prune)
        every = words.enumerate_necklaces(3, 5) if necklaces else words.enumerate_words(3, 5)
        assert got == [w for w in every if w[:2] != (2, 1)]
        stacks = [p for _, stack in blocks for p in stack]
        assert all(np.array_equal(p, tuples.product_along(t, w)) for w, p in zip(got, stacks))
        assert set(asked) == {1, 2, 3, 4, 5}


def test_store_walk_yields_no_empty_block(monkeypatch):
    # one prefix per piece: (1,2,2,1) is a pre-necklace with no necklace
    # child of length 5, and a prune that drops everything leaves nothing
    t = tuples.MatrixTuple("real", (np.eye(2), 2.0 * np.eye(2)))
    monkeypatch.setattr(config, "BLOCK_BYTES", 1)
    got, blocks = _blocks(t, 5, necklaces=True)
    assert got == list(words.enumerate_necklaces(2, 5))
    assert all(len(digits) for digits, _ in blocks)
    def drop_all(digits, periods, caps, k):
        return np.ones(len(caps), dtype=bool)

    for necklaces in (False, True):
        assert _blocks(t, 5, necklaces=necklaces, prune=drop_all) == ([], [])


def test_store_walk_cuts_prefix_pieces_by_rows(monkeypatch):
    # with a cap of a few products and a prune that drops nothing, every piece
    # of prefixes holds max(1, leaf_rows // r) rows, whatever its length, but
    # the last slice of its parent's children; the LIFO list never holds more
    # than n * leaf_rows rows
    rng = np.random.default_rng(19)
    for r, leaf_rows in ((1, 3), (2, 6), (2, 5), (3, 7), (3, 3)):
        t = tuples.MatrixTuple("real", tuple(0.5 * rng.standard_normal((2, 2)) for _ in range(r)))
        monkeypatch.setattr(config, "BLOCK_BYTES", leaf_rows * t.matrices[0].nbytes)
        step = max(1, leaf_rows // r)
        for n in range(1, 9):
            waiting, peak = [r], [0]  # the empty word's r children wait first

            def keep_all(digits, periods, caps, k):
                if k < n:
                    last = digits[-1, -1] == r - 1
                    assert len(digits) == step or (len(digits) < step and last), (r, leaf_rows, n, k)
                peak[0] = max(peak[0], waiting[0])
                waiting[0] += (r - 1 if k < n else -1) * len(digits)
                return np.zeros(len(digits), dtype=bool)

            got, blocks = _blocks(t, n, prune=keep_all)
            assert got == list(words.enumerate_words(r, n))
            assert waiting[0] == 0 and 0 < peak[0] <= n * leaf_rows, (r, leaf_rows, n)
            assert all(len(digits) <= r * step for digits, _ in blocks)


def test_the_store_charges_every_walk_over_it_to_one_budget():
    # spent sums the rows that every walk of one store asks its prune about:
    # with nothing pruned, level n asks about 2**(n + 1) - 2 rows, 114 through
    # level 5; a further walk passes the budget before its prune sees a row
    store, asked = tuples._PrefixStore(_shift_pair(), 5, 114), []

    def count(digits, periods, caps, k):
        asked.append(len(caps))
        return _keep(digits, periods, caps, k)

    for n in range(1, 6):
        assert sum(len(stack) for *_, stack in store.walk(n, prune=count)) == 2 ** n
    assert store.spent == sum(asked) == 114
    with pytest.raises(BudgetError, match="^enumeration of products of length 1 exceeds budget 114 rows$"):
        next(store.walk(1, prune=count))
    assert (store.spent, sum(asked)) == (116, 114)


def test_the_walk_owns_its_errstate_and_holds_it_across_no_yield(monkeypatch):
    # no np.errstate around the walks: a prune whose bounds overflow to inf,
    # and whose inf - inf is NaN, warns nothing, while an overflow in the
    # loop body of every block still warns, so the state the walk steps
    # under does not leak; blocks of four products make many steps.  The
    # offender scan takes the same bounds from its norm, for its seeds and its
    # walk, and runs its loop body, seeds included, in the norm.
    rng = np.random.default_rng(39)
    t = tuples.MatrixTuple("real", tuple(rng.standard_normal((3, 3)) for _ in range(2)))
    monkeypatch.setattr(config, "BLOCK_BYTES", 4 * t.matrices[0].nbytes)
    asked, outside = [], np.geterr()

    def overflowing(caps):
        bound = caps * 1e308 * 1e308
        asked.append(np.isinf(bound).all())
        return bound - bound

    def body(caps):
        assert np.geterr() == outside
        with pytest.raises(RuntimeWarning, match="overflow"):
            caps * 1e308 * 1e308

    def prune(digits, periods, caps, k):
        return overflowing(caps) > 0  # NaN compares False: nothing is dropped

    def norm_of(stack):
        body(linalg.op_norm_caps(stack))
        blocks.append(len(stack))
        return np.zeros(len(stack))

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        blocks = []
        for digits, periods, caps, stack in _store(t, 5).walk(5, prune=prune):
            body(caps)
            blocks.append(len(stack))
        assert len(blocks) > 1
        blocks = []
        finiteness._scan(t, (1, 2, 2, 1, 2), [(norm_of, overflowing)], 1.0, 0.5, 10 ** 6)
        assert len(blocks) > 1 and sum(blocks) == 2 ** 5 - 5
    assert len(asked) > 10 and all(asked)


def _scan_walk(t, omega, budget=config.DEFAULTS.word_budget):
    """(seeds, blocks, stores) of the offender scan of omega under one norm that reads every product as
    0 and bounds it by its cap, so that its walk drops only zero products, and at k = n the rotations
    and the seed: the mutant of omega with the largest cap, the blocks (digits, caps, stack) that the
    walk yields, each stack copied out before the next block, and the stores it walks."""
    induced = [(lambda stack: np.zeros(len(stack)), lambda caps: caps)]
    blocks, stores, walk = [], [], tuples._PrefixStore.walk

    def spy(store, n, *, prune):
        stores.append(store)
        for digits, periods, caps, stack in walk(store, n, prune=prune):
            blocks.append((digits, caps, stack.copy()))
            yield digits, periods, caps, stack

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tuples._PrefixStore, "walk", spy)
        finiteness._scan(t, omega, induced, 1.0, 0.5, budget)
    n = len(omega)
    mutants = [omega[:j] + (a,) + omega[j + 1:] for j in range(n) for a in range(1, t.r + 1) if a != omega[j]]
    if not mutants:
        return [], blocks, stores
    caps = linalg.op_norm_caps(np.array([tuples.product_along(t, z) for z in mutants]))
    return [mutants[int(np.argmax(caps))]], blocks, stores


def test_scan_walk_yields_exactly_the_nonzero_competitors_but_its_seeds():
    # sparse signed 0/1 slots: many products vanish, some only at the last letter;
    # then slots of 2**-541 .. 2**-535, whose products of two letters are
    # subnormal, kept, or underflow to zero, dropped
    rng = np.random.default_rng(17)
    for _ in range(150):
        r, d, n = (int(rng.integers(1, hi)) for hi in (4, 5, 6))
        t = tuples.MatrixTuple("real", tuple(rng.choice([-1.0, 0.0, 0.0, 0.0, 1.0], (d, d)) for _ in range(r)))
        omega = tuple(int(x) for x in rng.integers(1, r + 1, n))
        _assert_scan_walk_yields_the_nonzero_competitors(t, omega)
    rng, kept, subnormal, underflowed = np.random.default_rng(18), 0, 0, 0
    for _ in range(60):
        r, d = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        field = ("real", "complex")[int(rng.integers(0, 2))]
        slots = [rng.choice([-1.0, 0.0, 1.0, 1.5], (d, d)) * 2.0 ** -int(rng.integers(535, 542)) for _ in range(r)]
        if field == "complex":
            slots = [a * (1.0 + 1.0j) for a in slots]
        t = tuples.MatrixTuple(field, tuple(slots))
        omega = tuple(int(x) for x in rng.integers(1, r + 1, 2))
        products = [tuples.product_along(t, w) for w in words.enumerate_words(r, 2)]
        subnormal += sum(bool(np.any(p)) and np.abs(p).max() < np.finfo(float).tiny for p in products)
        underflowed += sum(not np.any(p) for p in products)
        for _, _, stack in _assert_scan_walk_yields_the_nonzero_competitors(t, omega):
            kept += np.count_nonzero(np.abs(stack).max(axis=(1, 2)) < np.finfo(float).tiny)
    assert kept > 20 and subnormal > 20 and underflowed > 20, (kept, subnormal, underflowed)


def _assert_scan_walk_yields_the_nonzero_competitors(t, omega):
    seeds, blocks, _ = _scan_walk(t, omega)
    assert len(seeds) == (t.r > 1) and not any(words.rotation_equivalent(z, omega) for z in seeds)
    got = [w for digits, _, _ in blocks for w in words._words_at(digits)]
    expected = [
        w for w in words.enumerate_words(t.r, len(omega))
        if not words.rotation_equivalent(w, omega) and w not in seeds and np.any(tuples.product_along(t, w))
    ]
    assert got == expected, (t.r, t.d, omega)
    for digits, caps, stack in blocks:
        assert all(np.array_equal(p, tuples.product_along(t, w)) for w, p in zip(words._words_at(digits), stack))
        assert caps.tobytes() == linalg.op_norm_caps(stack).tobytes()
    return blocks


def test_off_class_walk_on_a_characteristic_tuple_asks_about_r_n_rows_per_length(monkeypatch):
    # its products are partial permutations, so at most n of each length are
    # nonzero: the walk asks about at most 2 * n of each length, not 2**k
    asked = []
    walk = tuples._PrefixStore.walk

    def counting(store, n, *, prune):
        def counted(digits, periods, caps, k):
            asked.append(len(digits))
            return prune(digits, periods, caps, k)

        return walk(store, n, prune=counted)

    monkeypatch.setattr(tuples._PrefixStore, "walk", counting)
    # past 62 letters too, where 2**63 words would not fit one int64 index each
    for omega in ((1, 2, 2, 1, 2, 1, 1, 2, 2, 2, 1, 2, 1, 1, 1, 2), (1,) * 62 + (2,)):
        n = len(omega)
        t = characteristic_tuple(2, n, omega)
        asked.clear()
        report = sfh_evidence(t, omega, WeightedMaxNorm((1.0,) * n), 1.0, samples=sphere_samples(n, 64, seed=0))
        assert (report.passed, report.margin) == (True, 1.0), n
        assert 0 < sum(asked) <= 2 * n ** 2, n


def test_off_class_scan_keeps_only_the_slots():
    # one walk reads no row twice, so its store keeps the r slots and builds
    # every longer row into the scratch rows of its length
    no_zero = tuples.MatrixTuple("real", (np.diag([1.0, 0.5]), np.array([[0.0, 0.5], [0.5, 0.0]])))
    omega = (1, 2, 3, 3, 1, 2, 2)
    cases = ((no_zero, (1, 2) * 3 + (1,)), (characteristic_tuple(3, len(omega), omega), omega))
    for t, omega in cases:
        _assert_scan_walk_yields_the_nonzero_competitors(t, omega)
        _, _, (store,) = _scan_walk(t, omega)
        assert store.size == store.capacity == t.r
        assert sorted(store.scratch) == list(range(2, len(omega) + 1))


def test_scan_walk_looks_rotations_up_by_their_bytes():
    # no product is zero, so exactly the rotations and the seed go: those of (2, 1, 1)
    # end in zero digits, and letters over an alphabet of 300 take two bytes each
    for r, omega in ((2, (2, 1, 1)), (300, (7, 290))):
        t = tuples.MatrixTuple("real", tuple(np.full((1, 1), 1.0 + letter / r) for letter in range(r)))
        seeds, blocks, _ = _scan_walk(t, omega)
        got = [w for digits, _, _ in blocks for w in words._words_at(digits)]
        rotations = words.rotation_class(omega)
        assert got == [w for w in words.enumerate_words(r, len(omega)) if w not in rotations | set(seeds)], (r, omega)
        assert len(got) == r ** len(omega) - len(rotations) - 1, (r, omega)


def test_store_walk_errors():
    # no product of this pair is zero, and its scan of length 11 asks about 3648 rows, past 100
    t = tuples.MatrixTuple("real", (np.diag([1.0, 0.5]), np.array([[0.0, 0.5], [0.5, 0.0]])))
    with pytest.raises(BudgetError, match="^enumeration of products of length 11 exceeds budget 100 rows$"):
        sfh_evidence(t, (1, 2) * 5 + (1,), WeightedMaxNorm((1.0, 0.5)), 1.0, budget=100)
    # products that overflow raise ConvergenceError naming the length, with no warning
    big = tuples.MatrixTuple("real", (np.full((2, 2), 1e200),))
    for necklaces in (False, True):
        with pytest.raises(ConvergenceError, match="length 2"):
            _blocks(big, 3, necklaces=necklaces)
    with pytest.raises(ConvergenceError, match="length 2"):
        _scan_walk(big, (1, 1, 1))


def test_product_along_validates_letters():
    t = _shift_pair()
    with pytest.raises(InputError):
        tuples.product_along(t, (1, 3))
    with pytest.raises(InputError):
        tuples.product_along(t, ())
    with pytest.raises(InputError):  # not slot 1
        tuples.product_along(t, (1.9,))


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


def test_tuple_distance_past_the_float_range_fails_without_a_warning():
    # 1e308 - (-1e308) overflows: one ConvergenceError, and no numpy RuntimeWarning before it
    a, b = (tuples.MatrixTuple("real", (np.full((2, 2), x),)) for x in (1e308, -1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConvergenceError, match="out of range"):
            tuples.tuple_distance(a, b)


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


_EDGE_ENTRIES = [[-0.0, 5e-324], [1e308, -1e-300]]


def _edge_tuples():
    """A real and a complex tuple whose entries hold -0.0, the smallest subnormal, 1e308 and -1e-300."""
    real = tuples.MatrixTuple("real", (np.array(_EDGE_ENTRIES), -np.array(_EDGE_ENTRIES)))
    parts = [[complex(-0.0, 1.0), complex(5e-324, -0.0)], [complex(1e308, -1e-300), complex(-0.0, -0.0)]]
    return real, tuples.MatrixTuple("complex", (np.array(parts), np.array(parts).T.copy()))


def _per_entry_file(t):
    # the tuple file as written entry by entry with float(), the reference for the whole-array conversion
    def entry(x):
        return [float(x.real), float(x.imag)] if t.field == "complex" else float(x)

    matrices = [[[entry(x) for x in row] for row in a] for a in t.matrices]
    payload = {"field": t.field, "r": t.r, "d": t.d, "matrices": matrices}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_json_writes_edge_entries_as_per_entry_floats_and_reads_them_back_bitwise():
    for t in _edge_tuples():
        text = tuples.to_json(t)
        assert text == _per_entry_file(t)
        back = tuples.from_json(text)
        assert back.field == t.field
        for a, b in zip(t.matrices, back.matrices):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()  # -0.0 keeps its sign


def test_json_rows_mixing_ints_and_floats_load():
    t = tuples.from_json('{"field": "real", "r": 1, "d": 2, "matrices": [[[1, 0.5], [-0.0, -2]]]}')
    assert t.matrices[0].dtype == np.float64
    assert t.matrices[0].tobytes() == np.array([[1.0, 0.5], [-0.0, -2.0]]).tobytes()
    t = tuples.from_json('{"field": "complex", "r": 1, "d": 1, "matrices": [[[[1, -0.0]]]]}')
    assert t.matrices[0].tobytes() == np.array([[complex(1.0, -0.0)]]).tobytes()


@pytest.mark.parametrize("field, entry", [("real", "true"), ("real", "1" + "0" * 400),
                                          ("complex", "[0.5, true]"), ("complex", "[1" + "0" * 400 + ", 0]")])
def test_json_refuses_bools_and_integers_past_the_float_range(field, entry):
    ok = "[0.0, 0.0]" if field == "complex" else "0.0"
    text = f'{{"field": "{field}", "r": 1, "d": 2, "matrices": [[[{ok}, {ok}], [{ok}, {entry}]]]}}'
    reason = "non-numeric entry" if "true" in entry else "integer entry too large for a float"
    with pytest.raises(InputError) as info:
        tuples.from_json(text)
    assert str(info.value) == f"matrix 1: {reason}"
