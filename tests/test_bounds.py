"""Bounds engine: fixtures with known certificates plus enumeration oracles."""

from __future__ import annotations

import importlib
from itertools import permutations, product

import numpy as np
import pytest

from jsrkit import finiteness, linalg, tuples, words
from jsrkit.bounds import (
    JsrBounds,
    bounds,
    finiteness_verified_at_depth,
    spectral_maximal_candidates,
)
from jsrkit.constructions import characteristic_tuple, example_tuple
from jsrkit.errors import BudgetError, ConvergenceError, InputError
from jsrkit.norms import WeightedMaxNorm
from jsrkit.structure import rank_one_property
from jsrkit.tuples import MatrixTuple, exterior_square_tuple, product_along


def _shift_pair():
    return MatrixTuple(
        "real",
        (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])),
    )


def _diag_dominant_pair(lam=0.5):
    return MatrixTuple(
        "real",
        (np.diag([1.0, lam]), np.array([[0.0, lam], [lam, 0.0]])),
    )


def _projector_swap_triple(lam=0.5):
    return MatrixTuple(
        "real",
        (
            np.diag([1.0, 0.0]),
            np.diag([0.0, 1.0]),
            np.array([[0.0, lam], [lam, 0.0]]),
        ),
    )


def _random_pair(rng, scale=1.0):
    return MatrixTuple(
        "real", tuple(scale * rng.standard_normal((2, 2)) for _ in range(2))
    )


def _random_tuple(rng, r, d, kind="real", scale=1.0):
    """r random d x d slots; kind is "real", "complex" or "rank-one" (real)."""
    if kind == "rank-one":  # every product is rank one, so its Frobenius norm is its op_norm
        mats = np.einsum("ki,kj->kij", rng.standard_normal((r, d)), rng.standard_normal((r, d)))
    else:
        mats = rng.standard_normal((r, d, d))
    if kind == "complex":
        mats = mats + 1j * rng.standard_normal((r, d, d))
    return MatrixTuple("complex" if kind == "complex" else "real", tuple(scale * mats))


def _unpruned_upper_oracle(t, n):
    level = max(
        linalg.op_norm(product_along(t, w)) for w in product(range(1, t.r + 1), repeat=n)
    )
    return level ** (1.0 / n) if level > 0 else 0.0


def _unscreened_lyndon_values(t, depth):
    """(word, spectral_radius(P_w) ** (1/|w|)) for every Lyndon word up to depth, in scan order."""
    return [
        (w, linalg.spectral_radius(product_along(t, w)) ** (1.0 / n))
        for n in range(1, depth + 1)
        for w in words.enumerate_necklaces(t.r, n)
        if words.is_primitive(w)
    ]


def test_shift_pair_closes_at_depth_two():
    b = bounds(_shift_pair(), 2)
    assert b.lower == pytest.approx(1.0, abs=1e-12)
    assert b.upper == pytest.approx(1.0, abs=1e-12)
    assert words.rotation_equivalent(b.lower_witness, (1, 2))
    assert b.depth == 2
    assert b.upper_level == 1  # level 1 already attains the minimum
    assert not b.partial
    assert finiteness_verified_at_depth(b)


def test_nilpotent_singleton():
    t = MatrixTuple("real", (np.array([[0.0, 1.0], [0.0, 0.0]]),))
    b = bounds(t, 2)
    assert b.lower == 0.0
    assert b.upper == 0.0
    assert finiteness_verified_at_depth(b)


def test_scalar_slots_past_one_byte_letters():
    # 300 letters take two bytes each; the jsr of 1x1 slots is the largest |entry|
    entries = np.random.default_rng(27).standard_normal(300)
    b = bounds(MatrixTuple("real", tuple(np.full((1, 1), x) for x in entries)), 2)
    top = int(np.argmax(np.abs(entries)))
    assert b.lower == b.upper == abs(entries[top])
    assert (b.lower_witness, b.depth, b.partial) == ((top + 1,), 2, False)


def test_projector_swap_triple_depth_one():
    b = bounds(_projector_swap_triple(), 1)
    assert b.lower == pytest.approx(1.0, abs=1e-12)
    assert b.upper == pytest.approx(1.0, abs=1e-12)
    assert b.lower_witness == (1,)


def test_witness_reproduces_lower():
    rng = np.random.default_rng(21)
    for _ in range(10):
        t = _random_pair(rng)
        b = bounds(t, 4)
        n = len(b.lower_witness)
        val = linalg.spectral_radius(product_along(t, b.lower_witness)) ** (1.0 / n)
        assert val == b.lower


def test_candidates_shift_pair():
    cands = spectral_maximal_candidates(_shift_pair(), 4)
    got = {w for w, _ in cands}
    assert got == {(1, 2)}  # (1, 2, 1, 2), a power of it, is not evaluated
    assert cands[0][0] == (1, 2)
    assert all(v == pytest.approx(1.0, abs=1e-12) for _, v in cands)


def test_candidates_diag_dominant_pair():
    cands = spectral_maximal_candidates(_diag_dominant_pair(), 3)
    assert {w for w, _ in cands} == {(1,)}  # (1, 1) and (1, 1, 1), powers of (1,), are not evaluated


def test_pruned_upper_equals_unpruned():
    rng = np.random.default_rng(22)
    for _ in range(10):
        t = _random_pair(rng)
        for depth in (1, 3, 5):
            b = bounds(t, depth)
            oracle = min(_unpruned_upper_oracle(t, n) for n in range(1, depth + 1))
            assert b.upper == oracle
    # the screening caps stay sound for complex entries and far from scale 1
    for r, d in ((1, 5), (2, 3), (3, 2), (3, 4)):
        for kind in ("real", "complex", "rank-one"):
            for c in (1.0, 2.0 ** -200, 2.0 ** 200):
                t = _random_tuple(rng, r, d, kind, c)
                for depth in (1, 3, 4):
                    oracle = min(_unpruned_upper_oracle(t, n) for n in range(1, depth + 1))
                    assert bounds(t, depth).upper == oracle, (r, d, kind, c, depth)
    # tuples where submultiplicativity is tight, L_(a+b) = L_a * L_b, so a
    # subtree bound cap * L_(n-k) can meet the running maximum exactly
    v = rng.standard_normal(4)
    signed_swap = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    tight = [
        MatrixTuple("real", tuple(c * np.outer(v, v) for c in (1.0, -0.5, 2.0))),
        MatrixTuple("real", (np.diag([2.0, 0.5, -1.0]), np.diag([-1.0, 2.0, 0.25]))),
        MatrixTuple("real", (signed_swap, signed_swap[[2, 0, 1]], -np.eye(3))),
    ]
    for t in tight:
        for c in (1.0, 2.0 ** -200, 2.0 ** 200):
            scaled = tuples.scale(t, c)
            for depth in (1, 3, 4):
                oracle = min(_unpruned_upper_oracle(scaled, n) for n in range(1, depth + 1))
                assert bounds(scaled, depth).upper == oracle, (t, c, depth)


def test_upper_sweep_runs_svd_only_on_screened_leaves(monkeypatch):
    rng = np.random.default_rng(20)
    t = MatrixTuple("real", tuple(rng.normal(0.0, 1.0 / np.sqrt(6), (6, 6)) for _ in range(3)))
    svd, rows = np.linalg.svd, []

    def spy(a, *args, **kwargs):
        rows.append(len(a) if a.ndim == 3 else 1)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    bounds(t, 7)
    words_per_sweep = sum(3 ** n for n in range(1, 8))  # 3279
    assert sum(rows) <= words_per_sweep // 10


def _asked_rows(monkeypatch, prefixes_only=False):
    """The rows that bounds' walks ask their prune about, one count per call, prefixes only if asked."""
    walk, rows = tuples._PrefixStore.walk, []

    def spy(store, n, *, prune):
        def counted(digits, periods, caps, k):
            if k < n or not prefixes_only:
                rows.append(len(caps))
            return prune(digits, periods, caps, k)

        return walk(store, n, prune=counted)

    monkeypatch.setattr(tuples._PrefixStore, "walk", spy)
    return rows


def test_upper_sweep_prunes_subtrees_by_level_maxima(monkeypatch):
    # a prefix of length k is bounded by the level maximum L_(n-k), not by
    # the largest slot norm to the power n - k, which prunes far less here:
    # of the 4072 prefixes of the 11 levels, the walks ask about 440, where
    # a necklace walk and an all-words sweep per level asked about 392 + 268
    rng = np.random.default_rng(7)
    t = MatrixTuple("real", tuple(rng.normal(0.0, 1.0 / np.sqrt(8), (8, 8)) for _ in range(2)))
    rows = _asked_rows(monkeypatch, prefixes_only=True)
    bounds(t, 11)
    assert sum(rows) == 440


def test_levels_run_one_walk_each(monkeypatch):
    # one walk of the pass's prefix store per level serves both bounds, level
    # n before level n + 1, and the candidate search runs the same pass
    walk, walks = tuples._PrefixStore.walk, []

    def spy(store, n, *, prune):
        walks.append(n)
        return walk(store, n, prune=prune)

    monkeypatch.setattr(tuples._PrefixStore, "walk", spy)
    t = _diag_dominant_pair()
    bounds(t, 4)
    assert walks == [1, 2, 3, 4]
    walks.clear()
    spectral_maximal_candidates(t, 4)
    assert walks == [1, 2, 3, 4]


def _pass(t, depth, budget, store_blocks=None):
    """(_levels(t, depth, budget), the caps each prune call saw, products built, products kept).

    store_blocks, if given, replaces tuples._STORE_BLOCKS: at 0 the store
    keeps only the slots, and every level builds its products anew from the
    empty word, each in the scratch rows of its length."""
    engine, walk = importlib.import_module("jsrkit.bounds"), tuples._PrefixStore.walk
    products_below, asked, built, stores = tuples._products_below, [], [], []

    def counted_walk(store, n, *, prune):
        def counted(digits, periods, caps, k):
            asked.append((n, k, caps.tobytes()))
            return prune(digits, periods, caps, k)
        stores.append(store)
        return walk(store, n, prune=counted)

    def counted_products(*args):
        built.append(len(args[1]) * t.r)
        return products_below(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tuples._PrefixStore, "walk", counted_walk)
        mp.setattr(tuples, "_products_below", counted_products)
        if store_blocks is not None:
            mp.setattr(tuples, "_STORE_BLOCKS", store_blocks)
        levels = engine._levels(t, depth, budget)
    return levels, asked, sum(built), stores[0].size if stores else 0


def _assert_store_matches_the_slots_only_store(t, depth, budget=10 ** 5):
    levels, asked, built, kept = _pass(t, depth, budget)
    reference, reference_asked, reference_built, reference_kept = _pass(t, depth, budget, store_blocks=0)
    assert reference_kept == t.r
    (candidates, maxima, b), (ref_candidates, ref_maxima, ref_b) = levels, reference
    assert [(w, v.hex()) for w, v in candidates] == [(w, v.hex()) for w, v in ref_candidates]
    assert [m.hex() for m in maxima] == [m.hex() for m in ref_maxima]
    assert b.depth == ref_b.depth == len(maxima) - 1
    assert (b.lower.hex(), b.upper.hex()) == (ref_b.lower.hex(), ref_b.upper.hex()) and b == ref_b
    assert asked == reference_asked  # every prune call, in order, with bitwise the same caps
    assert built <= reference_built
    return b.depth, built, kept


def test_the_prefix_store_changes_no_result_and_no_row_asked():
    # each prefix product and its cap are built once per pass and kept; the
    # walks see the same caps in the same pieces, so candidates,
    # maxima, the level reached and the rows charged to the budget are those
    # of a pass that rebuilds every level from the empty word
    rng = np.random.default_rng(32)
    for depth in range(1, 14):
        for r, kind in ((2, "real"), (3, "real"), (2, "complex"), (2, "rank-one")):
            t = _random_tuple(rng, r, int(rng.integers(1, 6)), kind, scale=float(rng.uniform(0.5, 2.0)))
            _assert_store_matches_the_slots_only_store(t, depth)
    for t in (_shift_pair(), _diag_dominant_pair(), _projector_swap_triple()):
        _assert_store_matches_the_slots_only_store(t, 13)


def test_the_prefix_store_keeps_a_budget_stopped_pass():
    # the budget stops both passes at the same level, after the same rows
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))[0]
    reached, _, _ = _assert_store_matches_the_slots_only_store(MatrixTuple("real", (q, q.T)), 60, 10 ** 4)
    assert reached == 11


def test_the_prefix_store_builds_past_its_bound_as_the_walk_does(monkeypatch):
    # with room for one block of products (512 rows at d = 16), later
    # children are built per piece and not kept, and every result still holds
    rng = np.random.default_rng(5)
    t = MatrixTuple("real", tuple(rng.normal(0.0, 1.0 / 4.0, (16, 16)) for _ in range(2)))
    _, unbounded, unbounded_kept = _assert_store_matches_the_slots_only_store(t, 12)
    monkeypatch.setattr(tuples, "_STORE_BLOCKS", 1)
    _, built, kept = _assert_store_matches_the_slots_only_store(t, 12)
    assert kept <= 512 < unbounded_kept
    assert built > unbounded


def test_the_prefix_store_reads_parents_out_of_row_order_as_product_along_does(monkeypatch):
    # level 3 drops 12 and 22, so level 4 keeps the children of 11 and 21 at
    # rows 6 .. 9 before those of 12 and 22 at rows 10 .. 13: its length-3
    # piece holds rows [6, 7, 10, 11, 8, 9, 12, 13], which span 6 .. 13 out of
    # order, and their children must still be read row by row
    rng = np.random.default_rng(4)
    t = MatrixTuple("real", tuple(rng.normal(0.0, 0.5, (3, 3)) for _ in range(2)))
    store, seen, rows = tuples._PrefixStore(t, 5, 10 ** 6), [], tuples._rows
    monkeypatch.setattr(tuples, "_rows", lambda table, index: seen.append(index.tolist()) or rows(table, index))

    def expected(digits):
        stack = np.array([product_along(t, w) for w in words._words_at(digits)])
        return stack.tobytes(), linalg.op_norm_caps(stack).tobytes()

    for n in range(1, 6):
        def prune(digits, periods, caps, k):
            assert caps.tobytes() == expected(digits)[1]
            return (digits[:, -1] == 1) if (n, k) == (3, 2) else np.zeros(len(caps), dtype=bool)

        for digits, _, caps, stack in store.walk(n, prune=prune):
            assert (stack.tobytes(), caps.tobytes()) == expected(digits)
    assert [6, 7, 10, 11, 8, 9, 12, 13] in seen


def _dense_tuples():
    """Seeded Gaussian tuples with N(0, 1/d) entries: pair8 (2 slots, d = 8), pair12 and triple6."""
    rng = np.random.default_rng(20090914)
    return {name: MatrixTuple("real", tuple(rng.normal(0.0, 1.0 / np.sqrt(d), (d, d)) for _ in range(r)))
            for name, r, d in (("pair8", 2, 8), ("pair12", 2, 12), ("triple6", 3, 6))}


def test_dense_bounds_and_rank_one_verdicts_stay_bitwise():
    # the level pass's screens and store change no bit of these certificates:
    # (lower, upper) as float.hex, depth, witness, upper level and partial;
    # each lower is its Lyndon witness's own value
    def pin(b):
        return b.lower.hex(), b.upper.hex(), b.depth, b.lower_witness, b.upper_level, b.partial

    dense = _dense_tuples()
    cases = ((dense["pair12"], 13), (dense["triple6"], 9), (dense["pair8"], 11),
             (exterior_square_tuple(dense["pair8"]), 11))
    pair12, triple6, pair8, wedge = (
        ("0x1.2b8bbc0029455p+0", "0x1.32252b126fb0ep+0", 13, (1,), 13, False),
        ("0x1.2fd925a53bda8p+0", "0x1.47efecfccd11bp+0", 9, (1,), 9, False),
        ("0x1.5712724f19aa0p+0", "0x1.68e53865961f6p+0", 11, (1, 2), 11, False),
        ("0x1.97e1a0a231b19p+0", "0x1.a1e3e9dbf6d44p+0", 11, (2,), 11, False),
    )
    for (t, depth), want in zip(cases, (pair12, triple6, pair8, wedge)):
        b = bounds(t, depth)
        assert pin(b) == want
        w = b.lower_witness
        assert b.lower == linalg.spectral_radius(product_along(t, w)) ** (1.0 / len(w))
    verdict = rank_one_property(dense["pair8"], 11)
    assert verdict.status == "Certified"
    for key, want in (("bounds", pair8), ("wedge_bounds", wedge)):
        got = verdict.evidence[key]
        assert (float(got["lower"]).hex(), float(got["upper"]).hex(), got["depth"], words.parse_word(got["witness"]),
                got["upper_level"], got["partial"]) == want


def test_necklace_walk_prunes_prefixes_by_level_maxima(monkeypatch):
    # a necklace prefix p of length k is dropped once (cap(P_p) * L_(n-k)) ** (1/n)
    # falls below the tie window and the upper side needs it no more, so the
    # walks ask about few of the pre-necklaces: 1300 rows over the 16 levels,
    # where a necklace walk and an all-words sweep per level asked about 1842
    rng = np.random.default_rng(7)
    t = MatrixTuple("real", tuple(rng.normal(0.0, 1.0 / np.sqrt(8), (8, 8)) for _ in range(2)))
    rows = _asked_rows(monkeypatch)
    b = bounds(t, 16)
    assert (b.depth, b.partial) == (16, False)
    asked = []

    def count(digits, periods, k):
        asked.append(len(digits))
        return ~words._necklaces(periods, k, n)

    def grow(k, digits, periods):
        return words.necklace_children(digits, periods, 2)

    for n in range(1, 17):
        for _ in words.prefix_blocks(2, n, 8, grow=grow, prune=count):
            pass
    assert sum(asked) == 45580  # the r children of every pre-necklace of length k < n, over the 16 levels
    assert sum(rows) == 1300


def test_each_search_runs_one_level_pass(monkeypatch):
    # bounds, the candidate scan and a search that takes its default rho_hat
    # from the same pass each walk the levels once
    engine = importlib.import_module("jsrkit.bounds")
    levels, calls = engine._levels, []

    def spy(*args, **kwargs):
        calls.append(args[1])
        return levels(*args, **kwargs)

    monkeypatch.setattr(engine, "_levels", spy)
    t = _diag_dominant_pair()
    bounds(t, 4)
    assert calls == [4]
    calls.clear()
    spectral_maximal_candidates(t, 4)
    assert calls == [4]
    calls.clear()
    finiteness.characteristic_word_search(t, 4, WeightedMaxNorm((1.0, 0.5)))
    assert calls == [4]


def test_example_2_reaches_depth_80_at_the_default_budget():
    # the walk of level n asks about 2n rows here, 6480 through level 80
    t, _ = example_tuple(2, lam=0.5)
    b = bounds(t, 80)
    assert (b.lower, b.upper, b.depth, b.lower_witness, b.upper_level, b.partial) == (1.0, 1.0, 80, (1,), 1, False)


def test_example_2_asks_about_2n_rows_per_level():
    # below each length only the prefix 1 ... 1 serves a bound, and each of its
    # two children is asked about: 2n rows at level n, so exactly 6480 through level 80
    t, _ = example_tuple(2, lam=0.5)
    full = bounds(t, 80)
    assert bounds(t, 80, budget=6480) == full
    short = bounds(t, 80, budget=6479)
    assert (short.depth, short.partial) == (79, True)


def test_only_screened_necklace_rows_reach_eigenvalues(monkeypatch):
    # of each yielded block, exactly the Lyndon word rows (period n) that clear both screens
    # (op_norm_caps ** (1/n), then spectral_radius_caps ** (1/n), not below the
    # floor that the values so far set) reach linalg.spectral_radii, in walk order
    rng = np.random.default_rng(7)
    t = MatrixTuple("real", tuple(rng.normal(0.0, 1.0 / np.sqrt(8), (8, 8)) for _ in range(2)))
    store_walk, spectral_radii = tuples._PrefixStore.walk, linalg.spectral_radii
    screened, radii, top = [], [], [-np.inf, 1]  # the largest value so far, and the level

    def walk(store, n, *, prune):
        top[1] = n
        for digits, periods, caps, stack in store_walk(store, n, prune=prune):
            lyndon = periods == n
            kept, kept_caps = stack[lyndon], caps[lyndon]
            floor = (1.0 - 1e-9) * top[0] * (1.0 - 1e-9)
            if floor > 0:
                kept = kept[~(kept_caps ** (1.0 / n) < floor)]
                kept = kept[~(linalg.spectral_radius_caps(kept) ** (1.0 / n) < floor)]
            screened.append(kept.tobytes())
            yield digits, periods, caps, stack

    def spy(stack):
        radii.append(stack.tobytes())
        rhos = spectral_radii(stack)
        top[0] = max([top[0]] + [rho ** (1.0 / top[1]) for rho in rhos.tolist()])
        return rhos

    monkeypatch.setattr(tuples._PrefixStore, "walk", walk)
    monkeypatch.setattr(linalg, "spectral_radii", spy)
    bounds(t, 11)
    rows = len(b"".join(screened)) // t.matrices[0].nbytes
    assert b"".join(screened) == b"".join(radii)
    # the screen drops most Lyndon words here: fewer than half the necklaces reach eigenvalues
    assert 0 < rows < sum(len(list(words.enumerate_necklaces(2, n))) for n in range(1, 12)) // 2


def test_a_level_maximum_that_underflows_to_zero_is_named():
    # L_n >= jsr ** n > 0 whenever lower > 0, so a level maximum of exactly 0
    # under a positive lower bound is underflow: (1e-200) ** 2 is 0.0
    tiny = MatrixTuple("real", (np.array([[1e-200]]),))
    with pytest.raises(ConvergenceError, match="^products of length 2 underflow; the tuple's scale is out of range$"):
        bounds(tiny, 2)
    b = bounds(tiny, 1)
    assert (b.lower, b.upper, b.upper_level) == (1e-200, 1e-200, 1)
    # a nilpotent slot's zero maximum is exact, and its lower bound is 0 too
    b = bounds(MatrixTuple("real", (np.array([[0.0, 1.0], [0.0, 0.0]]),)), 2)
    assert (b.lower, b.upper, b.upper_level) == (0.0, 0.0, 2)


def test_a_subnormal_level_maximum_ends_the_candidate_scan_too():
    # 0.01 ** 154 is below 2**-1022: the candidate scan walks bounds' pass, and
    # level 154 ends it whatever depth past it was asked for
    t = MatrixTuple("real", (np.array([[0.01]]),))
    for depth in (154, 160):
        with pytest.raises(ConvergenceError, match="^products of length 154 underflow; the tuple's scale is out of range$"):
            spectral_maximal_candidates(t, depth)
    assert spectral_maximal_candidates(t, 153) == [((1,), 0.01)]


def test_a_seed_past_the_float_range_keeps_the_walks_error():
    # level 2's seed takes the norms of the products of (a, w) and (w, a), w
    # the word of largest norm at level 1; here their singular values
    # overflow, so the seed is 0.0, and the walk itself still reports the
    # overflow: no Lyndon word of length 2 has eigenvalues that overflow
    # ((1, 1) is a power, and P_(1,2) has entries of 8.66e153), but the
    # singular values of P_(1,1) do
    big = 8.66e153 * np.ones((2, 2))
    for slots in ((big,), (big, np.array([[0.0, 1.0], [1.0, 0.0]]))):
        with pytest.raises(ConvergenceError, match="^singular values overflow; the tuple's scale is out of range$"):
            bounds(MatrixTuple("real", slots), 2)


def test_ill_conditioned_similarities_keep_every_level_maximum_a_walk_value():
    # A_i = T M_i T^-1 with T = U diag(geomspace(1, cond, d)) V, U and V
    # orthogonal, cond up to 1e5: products taken in different orders differ
    # here by more than 1e-9 relative.  Each level's running maximum starts at
    # products of the walk's own words, built as the walk builds them, so every
    # level maximum is bitwise the largest norm of an exhaustive product_along
    # sweep; a seed built as P @ A_a ended 8 of these 40 passes with a false
    # "products of length n underflow"
    engine = importlib.import_module("jsrkit.bounds")
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = int(rng.integers(2, 5))
        cond = 10.0 ** rng.uniform(2, 5)
        u, v = (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(2))
        s = u @ np.diag(np.geomspace(1.0, cond, d)) @ v
        t = MatrixTuple("real", tuple(s @ m @ np.linalg.inv(s) for m in rng.standard_normal((2, d, d)) / np.sqrt(d)))
        _, maxima, _ = engine._levels(t, 8, 10 ** 6)
        sweep = [np.max(linalg.op_norms(np.array([product_along(t, w) for w in product((1, 2), repeat=n)])))
                 for n in range(1, 9)]
        assert [m.hex() for m in maxima[1:]] == [float(m).hex() for m in sweep]


def test_upper_prune_margin_keeps_a_leaf_that_ties_its_prefix_bound():
    # The running maximum starts at the product with the largest cap: a power
    # of A1 = (1 - 2e-10) I, of norm (1 - 2e-10)**n.  The best leaf is A2 = e1 e1^T
    # or its powers, of norm 1, rank one, so its Frobenius cap and the prefix
    # bound cap(A2) * L_1 equal 1 up to rounding.  They clear the running
    # maximum by 2e-10 relative, so a survival test shrunk by more than that
    # (a factor 1 - 1e-9, say) drops them and puts upper below lower.
    t = MatrixTuple("real", ((1.0 - 2e-10) * np.eye(2), np.diag([1.0, 0.0])))
    b = bounds(t, 2)
    assert (b.lower, b.upper, b.upper_level) == (1.0, 1.0, 1)


def test_screened_lower_equals_unscreened_lyndon_words():
    # lower, its witness (the first word reaching it) and the candidate lists
    # are bitwise those of a sweep that takes eigenvalues of every Lyndon word
    rng = np.random.default_rng(31)
    ties = MatrixTuple("real", (np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]),
                                np.array([[1.0, 0.0], [1.0, -1.0]])))
    cases = [(ties, 4), (_shift_pair(), 6), (_projector_swap_triple(), 4)]
    for r, d in ((1, 5), (2, 3), (3, 2), (2, 4)):
        for kind in ("real", "complex", "rank-one"):
            for c in (1.0, 2.0 ** -200, 2.0 ** 200):
                cases.append((_random_tuple(rng, r, d, kind, c), 5 if r < 3 else 4))
    nilpotent = np.triu(rng.standard_normal((3, 3)), 1)
    cases.append((MatrixTuple("real", (nilpotent, rng.standard_normal((3, 3)))), 5))
    # slots 5e-10 and 2e-9 below the maximum: inside and outside the 1e-9 tie window
    cases.append((MatrixTuple("real", tuple(np.array([[x]]) for x in (1.0, 1.0 - 5e-10, 1.0 - 2e-9))), 3))
    for t, depth in cases:
        values = _unscreened_lyndon_values(t, depth)
        best, witness = -np.inf, None
        for w, v in values:
            if v > best:
                best, witness = v, w
        b = bounds(t, depth)
        assert (b.lower, b.lower_witness) == (best, witness), (t, depth)
        floor = best * (1.0 - 1e-9)
        keep = sorted(((w, v) for w, v in values if v >= floor),
                      key=lambda i: (-i[1], len(i[0]), i[0]))
        assert spectral_maximal_candidates(t, depth) == keep, (t, depth)


def test_best_candidate_is_the_lower_bound_and_its_witness():
    # one scan of Lyndon words feeds both, so they agree bitwise, ties and degenerate tuples
    # included, and the witness is never a proper power
    rng = np.random.default_rng(43)
    ties = MatrixTuple("real", (np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]),
                                np.array([[1.0, 0.0], [1.0, -1.0]])))
    zeros = MatrixTuple("real", (np.zeros((2, 2)), np.zeros((2, 2))))
    cases = [(ties, 4), (_shift_pair(), 6), (_projector_swap_triple(), 4), (_diag_dominant_pair(), 6), (zeros, 6)]
    for r, d in ((1, 3), (2, 2), (2, 4), (3, 3)):
        for kind in ("real", "complex", "rank-one"):
            cases.append((_random_tuple(rng, r, d, kind), 5 if r < 3 else 4))
    for t, depth in cases:
        b = bounds(t, depth)
        assert words.is_primitive(b.lower_witness), (t, depth)
        assert spectral_maximal_candidates(t, depth)[0] == (b.lower_witness, b.lower), (t, depth)


def test_a_single_slot_reports_its_own_spectral_radius_at_every_depth():
    # (1,) is the one Lyndon word over one letter, so lower is rho(A) bitwise at
    # every depth; the powers (1,)^n, were they evaluated, round 0.3, 0.123 and 3.3
    # up by an ulp from depth 3 or 5, and 3 of the 50 triangular slots at depth 12
    for x in (0.3, 0.123, 3.3):
        for depth in range(1, 31):
            b = bounds(MatrixTuple("real", (np.array([[x]]),)), depth)
            assert (b.lower, b.lower_witness) == (x, (1,)), (x, depth)
    rng = np.random.default_rng(2026)
    for _ in range(50):
        a = np.triu(rng.standard_normal((3, 3)))
        for depth in range(1, 13):
            b = bounds(MatrixTuple("real", (a,)), depth)
            assert (b.lower, b.lower_witness) == (linalg.spectral_radius(a), (1,)), (a, depth)


def test_a_zero_maximum_ties_only_the_first_necklace():
    # the window (1 - 1e-9) * 0 admits every value, so every necklace used to be a candidate
    zeros = MatrixTuple("real", (np.zeros((2, 2)), np.zeros((2, 2))))
    nilpotent = MatrixTuple("real", (np.array([[0.0, 1.0], [0.0, 0.0]]),))
    for t, depth in ((zeros, 8), (nilpotent, 6)):
        assert spectral_maximal_candidates(t, depth) == [((1,), 0.0)]
        b = bounds(t, depth)
        assert (b.lower, b.lower_witness) == (0.0, (1,))


def test_lower_sweep_runs_eigvals_only_on_screened_necklaces(monkeypatch):
    rng = np.random.default_rng(20)
    t = MatrixTuple("real", tuple(rng.normal(0.0, 1.0 / np.sqrt(6), (6, 6)) for _ in range(3)))
    eigvals, rows = np.linalg.eigvals, []

    def spy(a, *args, **kwargs):
        rows.append(len(a) if a.ndim == 3 else 1)
        return eigvals(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    bounds(t, 7)
    necklaces = sum(len(list(words.enumerate_necklaces(3, n))) for n in range(1, 8))  # 540
    assert sum(rows) <= necklaces // 10


def test_lower_ignores_rotation_choice():
    rng = np.random.default_rng(23)
    for _ in range(5):
        t = _random_pair(rng)
        b = bounds(t, 5)
        brute = max(
            linalg.spectral_radius(product_along(t, w)) ** (1.0 / n)
            for n in range(1, 6)
            for w in product((1, 2), repeat=n)
        )
        assert b.lower == pytest.approx(brute, rel=1e-8)


def test_monotone_in_depth():
    rng = np.random.default_rng(24)
    for _ in range(5):
        t = _random_pair(rng)
        results = [bounds(t, n) for n in range(1, 7)]
        for prev, cur in zip(results, results[1:]):
            assert cur.lower >= prev.lower - 1e-12
            assert cur.upper <= prev.upper + 1e-12
            assert cur.lower <= cur.upper + 1e-12 * max(1.0, cur.upper)


def test_scaling_equivariance():
    rng = np.random.default_rng(25)
    for c, depths in ((0.5, (3,)), (3.0, (3,)), (2.0 ** -200, (3, 4)), (2.0 ** 200, (3, 4))):
        for _ in range(5):
            t = _random_pair(rng)
            for depth in depths:
                b = bounds(t, depth)
                bs = bounds(tuples.scale(t, c), depth)
                # compared at scale 1: pytest.approx's absolute floor of 1e-12
                # would accept any two values near 2**-200
                assert bs.lower / c == pytest.approx(b.lower, rel=1e-10)
                assert bs.upper / c == pytest.approx(b.upper, rel=1e-10)


def _seeded_small_tuples(seed):
    rng = np.random.default_rng(seed)
    for r, d in ((1, 4), (2, 2), (2, 4), (3, 3)):
        for field in ("real", "complex"):
            yield _random_tuple(rng, r, d, field, 1.0 / np.sqrt(d))


def test_slot_permutation_invariance():
    for t in _seeded_small_tuples(29):
        b = bounds(t, 5)
        for perm in permutations(range(t.r)):
            bp = bounds(MatrixTuple(t.field, tuple(t.matrices[i] for i in perm)), 5)
            assert bp.lower == pytest.approx(b.lower, rel=1e-10)
            assert bp.upper == pytest.approx(b.upper, rel=1e-10)


def test_transpose_invariance():
    # (A_w1 ... A_wn)^T is the product of the reversed word over the transposes,
    # so both sides see the same norms and radii, up to rounding
    for t in _seeded_small_tuples(30):
        b = bounds(t, 5)
        bt = bounds(MatrixTuple(t.field, tuple(a.T for a in t.matrices)), 5)
        assert bt.lower == pytest.approx(b.lower, rel=1e-10)
        assert bt.upper == pytest.approx(b.upper, rel=1e-10)


def test_similarity_invariance():
    # an orthogonal (unitary for complex tuples) similarity Q A Q^H keeps every
    # product's singular values and eigenvalues, up to rounding
    rng = np.random.default_rng(32)
    for t in _seeded_small_tuples(33):
        z = rng.standard_normal((t.d, t.d))
        if t.field == "complex":
            z = z + 1j * rng.standard_normal((t.d, t.d))
        q = np.linalg.qr(z)[0]
        b = bounds(t, 5)
        bq = bounds(MatrixTuple(t.field, tuple(q @ a @ q.conj().T for a in t.matrices)), 5)
        assert bq.lower == pytest.approx(b.lower, rel=1e-10)
        assert bq.upper == pytest.approx(b.upper, rel=1e-10)


def test_wedge_bounds_sit_below_square():
    rng = np.random.default_rng(26)
    for _ in range(10):
        t = _random_pair(rng)
        b = bounds(t, 4)
        bw = bounds(exterior_square_tuple(t), 4)
        assert bw.lower <= b.upper ** 2 + 1e-9


def test_budget_partial_and_error():
    t = _shift_pair()
    # levels 1 .. 4 ask about 2, 6, 10 and 14 rows here
    b = bounds(t, 5, budget=20)
    assert b.partial
    assert b.depth == 3
    with pytest.raises(BudgetError):
        bounds(t, 2, budget=1)
    with pytest.raises(BudgetError):
        spectral_maximal_candidates(t, 5, budget=20)


def test_candidate_budget_counts_the_rows_the_walks_keep(monkeypatch):
    # the walks of levels 1 .. 5 ask about 2, 6, 10, 14 and 18 rows here, so
    # the scan to depth 5 needs a budget of 50
    walk, rows = tuples._PrefixStore.walk, {}

    def spy(store, n, *, prune):
        def counted(digits, periods, caps, k):
            rows[n] = rows.get(n, 0) + len(caps)
            return prune(digits, periods, caps, k)

        return walk(store, n, prune=counted)

    monkeypatch.setattr(tuples._PrefixStore, "walk", spy)
    candidates = spectral_maximal_candidates(_shift_pair(), 5, budget=50)
    assert rows == {1: 2, 2: 6, 3: 10, 4: 14, 5: 18}
    assert candidates == spectral_maximal_candidates(_shift_pair(), 5)
    for budget in (49, 20):
        with pytest.raises(BudgetError, match=f"candidate scan to depth 5 exceeds enumeration budget {budget}$"):
            spectral_maximal_candidates(_shift_pair(), 5, budget=budget)


def test_budget_binds_a_one_slot_walk():
    # each walk keeps one row per length, so levels 1 .. 19 keep 1 + ... + 19 = 190
    # rows, and level 20, which would pass 200, is dropped
    b = bounds(MatrixTuple("real", (np.array([[0.0, 1.0], [1.0, 0.0]]),)), 100, budget=200)
    assert (b.lower, b.upper, b.depth, b.upper_level, b.partial) == (1.0, 1.0, 19, 1, True)


def test_a_budget_cut_leaves_nothing_of_its_level(monkeypatch):
    # on the characteristic tuple of 1^13 2 every product shorter than 14 is
    # nilpotent, so levels 1 .. 13 have lower 0; level 14 asks about 3052 rows
    # after their 7968, and at budget 10325 its walk stops after it has taken
    # the radius 1.0 of 1^13 2: neither that tie nor level 14's maximum is kept
    t = characteristic_tuple(2, 14, (1,) * 13 + (2,))
    engine, spectral_radii, radii = importlib.import_module("jsrkit.bounds"), linalg.spectral_radii, []
    whole = engine._levels(t, 13, 10 ** 7)

    def spy(stack):
        out = spectral_radii(stack)
        radii.extend(out.tolist())
        return out

    monkeypatch.setattr(linalg, "spectral_radii", spy)
    cut = engine._levels(t, 14, 10325)
    assert 1.0 in radii
    assert cut[0] == whole[0] == [((1,), 0.0)]
    assert [m.hex() for m in cut[1]] == [m.hex() for m in whole[1]]
    fields = [name for name in JsrBounds._fields if name != "partial"]
    assert [getattr(cut[2], name) for name in fields] == [getattr(whole[2], name) for name in fields]
    assert (cut[2].depth, cut[2].lower, cut[2].partial, whole[2].partial) == (13, 0.0, True, False)
    assert bounds(t, 14, budget=10325) == cut[2] and bounds(t, 13) == whole[2]
    assert bounds(t, 14).lower == 1.0  # the whole level 14 finds it


def test_pruned_walks_go_deeper_on_the_same_budget():
    rng = np.random.default_rng(11)
    t = MatrixTuple("real", tuple(rng.normal(0.0, 1.0 / np.sqrt(6), (6, 6)) for _ in range(2)))
    b = bounds(t, 60, budget=10 ** 4)
    assert (b.depth, b.partial) == (31, True)
    full = bounds(t, 31)
    assert (b.lower, b.upper, b.lower_witness, b.upper_level) == (
        full.lower, full.upper, full.lower_witness, full.upper_level)


def test_unprunable_walks_go_no_deeper_on_the_same_budget():
    # nothing prunes an orthogonal pair: its walk keeps every prefix, 2**(n + 1) - 2 rows at level n
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))[0]
    b = bounds(MatrixTuple("real", (q, q.T)), 60, budget=10 ** 4)
    assert (b.depth, b.partial) == (11, True)


def test_depth_below_one_is_input_error():
    with pytest.raises(InputError, match="max_depth must be >= 1, got 0"):
        bounds(_shift_pair(), 0)
    with pytest.raises(InputError, match="depth must be >= 1, got 0"):
        spectral_maximal_candidates(_shift_pair(), 0)


def test_bounds_record_rejects_inverted_interval():
    with pytest.raises(ConvergenceError):
        JsrBounds(2.0, 1.0, 1, (1,), 1, False)
    # far below 1 an absolute slack would let this through
    with pytest.raises(ConvergenceError):
        JsrBounds(1e-200, 0.0, 3, (1,), 2, False)


def test_json_certificate_keys():
    b = bounds(_shift_pair(), 2)
    payload = b.to_json_dict()
    assert set(payload) >= {"lower", "upper", "depth", "witness", "partial"}
    assert payload["witness"] == "1,2"
    assert payload["partial"] is False


def test_complex_tuple_bounds():
    # unitary rotation times 1/2 scaling: jsr is 1
    u = np.array([[0.0, 1.0j], [1.0j, 0.0]])
    t = MatrixTuple("complex", (u, 0.5 * np.eye(2)))
    b = bounds(t, 2)
    assert b.lower == pytest.approx(1.0, abs=1e-12)
    assert b.upper == pytest.approx(1.0, abs=1e-12)
