"""Offender scans and candidate ranking for spectrum-maximal classes."""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from jsrkit import finiteness, norms, tuples
from jsrkit.bounds import spectral_maximal_candidates
from jsrkit.constructions import characteristic_tuple, example_tuple
from jsrkit.errors import BudgetError, InputError
from jsrkit.finiteness import (
    SFH_CAVEAT,
    SfhReport,
    characteristic_word_search,
    sfh_evidence,
)
from jsrkit.norms import LpNorm, MeshNorm, WeightedMaxNorm, matrix_norm, sphere_samples, theta
from jsrkit.tuples import MatrixTuple, product_along
from jsrkit.words import _words_at, enumerate_words, power, rotation_class

MAXNORM = WeightedMaxNorm((1.0, 1.0))


def _shift_pair(l1=0.0, l2=0.0):
    return MatrixTuple(
        "real",
        (np.array([[0.0, 1.0], [l1, 0.0]]), np.array([[0.0, l2], [1.0, 0.0]])),
    )


def _diag_dominant_pair(lam=0.5):
    return MatrixTuple(
        "real", (np.diag([1.0, lam]), np.array([[0.0, lam], [lam, 0.0]]))
    )


def _diagonal_pair(lam=0.5):
    # every weighted max norm is a Barabanov norm at rho 1, and (1,) and (2,) both tie
    return MatrixTuple("real", (np.diag([1.0, lam]), np.diag([lam, 1.0])))


def _swap_half_pair():
    return MatrixTuple(
        "real", (np.array([[0.0, 1.0], [1.0, 0.0]]), 0.5 * np.eye(2))
    )


def test_shift_pair_no_offenders_full_margin():
    report = sfh_evidence(_shift_pair(), (1, 2), MAXNORM, 1.0)
    assert report.passed
    assert report.offenders == ()
    assert report.margin == 1.0  # both off-class products vanish
    assert report.depth == 2
    assert report.norm_count == 1


def test_shift_pair_general_parameters_margin():
    report = sfh_evidence(_shift_pair(0.3, 0.5), (1, 2), MAXNORM, 1.0)
    assert report.passed
    # losing classes: ||P_11|| = 0.3, ||P_22|| = 0.5
    assert report.margin == pytest.approx(0.5, abs=1e-12)


def test_offender_scan_is_rotation_invariant():
    a = sfh_evidence(_shift_pair(0.3, 0.5), (1, 2), MAXNORM, 1.0)
    b = sfh_evidence(_shift_pair(0.3, 0.5), (2, 1), MAXNORM, 1.0)
    assert a.offenders == b.offenders
    assert a.margin == b.margin


def test_diag_dominant_offenders_every_power():
    lam = 0.5
    t = _diag_dominant_pair(lam)
    norm = WeightedMaxNorm((1.0, lam))
    for n in range(1, 5):
        report = sfh_evidence(t, (1,) * n, norm, 1.0)
        assert not report.passed, n
        assert report.margin == pytest.approx(0.0, abs=1e-9)
        words = [w for w, _ in report.offenders]
        spoiler = (2,) + (1,) * (n - 1)
        assert spoiler in words
        values = dict(report.offenders)
        assert values[spoiler] == pytest.approx(1.0, abs=1e-9)


def test_swap_half_pair_margin_is_half():
    report = sfh_evidence(_swap_half_pair(), (1,), LpNorm(2.0), 1.0)
    assert report.passed
    assert report.margin == pytest.approx(0.5, abs=1e-12)


def test_single_slot_alphabet_trivial_margin():
    rot = MatrixTuple("real", (np.array([[0.0, -1.0], [1.0, 0.0]]),))
    report = sfh_evidence(rot, (1,), LpNorm(2.0), 1.0)
    assert report.passed
    assert report.margin == 1.0  # nothing outside the class to scan


def test_rejects_non_extremal_norm():
    with pytest.raises(InputError):
        sfh_evidence(_diag_dominant_pair(), (1,), LpNorm(2.0), 1.0)


def test_rejects_bad_inputs():
    t = _shift_pair()
    with pytest.raises(InputError):
        sfh_evidence(t, (1, 3), MAXNORM, 1.0)  # letter out of range
    with pytest.raises(InputError):
        sfh_evidence(t, (1, 2), MAXNORM, 0.0)
    with pytest.raises(InputError):
        sfh_evidence(t, (1, 2), [], 1.0)
    with pytest.raises(InputError):
        sfh_evidence(t, (1, 2), [MAXNORM, "euclid"], 1.0)


def test_candidate_power_stays_extremal():
    t = _shift_pair(0.3, 0.5)
    for m in range(1, 4):
        assert theta(t, power((1, 2), m), MAXNORM) == pytest.approx(1.0, abs=1e-12)
        p = product_along(t, power((1, 2), m))
        assert matrix_norm(MAXNORM, p) == pytest.approx(1.0, abs=1e-12)


def test_search_ranks_short_clean_candidate_first():
    reports = characteristic_word_search(_shift_pair(0.3, 0.5), 3, MAXNORM)
    assert reports
    best = reports[0]
    assert best.candidate == (1, 2)
    assert best.passed
    assert best.rho_hat == pytest.approx(1.0, abs=1e-12)  # midpoint of [1, 1]
    assert best.margin == pytest.approx(0.5, abs=1e-9)


def test_search_reports_offenders_for_every_candidate():
    lam = 0.5
    t = _diagonal_pair(lam)
    reports = characteristic_word_search(t, 3, WeightedMaxNorm((1.0, lam)), 1.0)
    assert [rep.candidate for rep in reports] == [(1,), (2,)]  # (1, 1), (2, 2), ... are powers
    assert all(not rep.passed for rep in reports)
    assert all(rep.margin == pytest.approx(0.0, abs=1e-9) for rep in reports)
    # the norms are read once, so a one-shot iterable serves every candidate
    once = characteristic_word_search(t, 3, iter([WeightedMaxNorm((1.0, lam))]), 1.0)
    assert once == reports


def test_search_checks_its_arguments_before_any_scan(monkeypatch):
    calls = []

    def spy(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return counted

    for name in ("_candidates_and_midpoint", "spectral_maximal_candidates"):
        monkeypatch.setattr(finiteness, name, spy(name, getattr(finiteness, name)))
    t = _diag_dominant_pair(0.5)
    norm = WeightedMaxNorm((1.0, 0.5))
    bad = [
        ((norm, None), {"offender_tol": float("nan")}, "offender_tol must be positive"),
        ((norm, None), {"offender_tol": 1.5}, r"offender_tol must be in \(0, 1\), got 1.5"),
        ((norm, None), {"norm_check_tol": float("inf")}, "norm_check_tol must be finite"),
        (([], 1.0), {}, "need at least one norm"),
        ((norm, 0.0), {}, "rho_hat must be positive and finite, got 0.0"),
        ((norm, float("nan")), {}, "rho_hat must be positive and finite, got nan"),
        ((norm, -1.0), {}, "rho_hat must be positive and finite, got -1.0"),
        ((norm, 1.0), {"samples": np.ones((4, 3))}, "samples have dimension 3, tuple has 2"),
    ]
    for (reps, rho_hat), kwargs, message in bad:
        with pytest.raises(InputError, match=message):
            characteristic_word_search(t, 14, reps, rho_hat, **kwargs)
        assert calls == [], message


def test_search_admits_each_norm_once(monkeypatch):
    # every candidate is scanned under the same norms, so a search with k
    # candidates and m norms verifies and builds each norm once, not k times
    t = _diagonal_pair(0.5)
    reps = [WeightedMaxNorm((1.0, 0.5)), WeightedMaxNorm((2.0, 1.0))]
    candidates = [w for w, _ in spectral_maximal_candidates(t, 3)]
    assert len(candidates) == 2
    calls = []

    def spy(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return counted

    for name in ("verify_barabanov", "_induced_norm"):
        monkeypatch.setattr(finiteness, name, spy(name, getattr(finiteness, name)))
    reports = characteristic_word_search(t, 3, reps, 1.0)
    assert sorted(calls) == ["_induced_norm"] * 2 + ["verify_barabanov"] * 2
    single = [sfh_evidence(t, w, reps, 1.0) for w in candidates]
    assert reports == sorted(single, key=lambda rep: (-rep.margin, rep.depth, rep.candidate))


def test_search_default_rho_hat_needs_bounds_at_the_full_depth():
    # bounds on this pair asks about 50 rows through level 5 and 72 through level 6,
    # so budget 71 stops it at depth 5, and a default rho_hat must not come
    # from that shallower interval
    t = _shift_pair(0.3, 0.5)
    with pytest.raises(BudgetError, match="budget 71 reaches depth 5 of 6, too shallow for the default rho_hat$"):
        characteristic_word_search(t, 6, MAXNORM, budget=71)
    full = characteristic_word_search(t, 6, MAXNORM, budget=72)  # exactly depth 6
    assert full == characteristic_word_search(t, 6, MAXNORM)
    # the candidate scan is the same pass, so a given rho_hat needs as much budget
    assert characteristic_word_search(t, 6, MAXNORM, 1.0, budget=72)
    with pytest.raises(BudgetError, match="candidate scan to depth 6 exceeds enumeration budget 71$"):
        characteristic_word_search(t, 6, MAXNORM, 1.0, budget=71)


def test_scan_of_a_long_characteristic_word_charges_the_rows_it_keeps():
    # 2**24 words would pass the default budget, but the off-class walk keeps at most 2 * 24 rows per length
    omega = (1,) * 23 + (2,)
    t = characteristic_tuple(2, 24, omega)
    report = sfh_evidence(t, omega, WeightedMaxNorm((1.0,) * 24), 1.0, samples=sphere_samples(24, 64, seed=0))
    assert (report.passed, report.margin) == (True, 1.0)


def test_offender_scan_under_a_weighted_max_norm_is_exact_past_dimension_10():
    # every rotation of 1^23 2 maps the characteristic tuple's basis onto itself,
    # so its product has unit max norm 1; 64 sampled directions in 24 dimensions
    # read some of them well below 1
    omega = (1,) * 23 + (2,)
    t = characteristic_tuple(2, 24, omega)
    samples = sphere_samples(24, 64)
    report = sfh_evidence(t, (1,) * 24, WeightedMaxNorm((1.0,) * 24), 1.0, samples=samples)
    assert report.offenders == tuple((z, 1.0) for z in sorted(rotation_class(omega)))
    assert len(report.offenders) == 24


def test_report_serialization():
    report = sfh_evidence(_diag_dominant_pair(), (1,), WeightedMaxNorm((1.0, 0.5)), 1.0)
    payload = report.to_json_dict()
    assert payload["candidate"] == "1"
    assert payload["caveat"] == SFH_CAVEAT
    assert payload["passed"] is False
    assert payload["offenders"] == [{"value": pytest.approx(1.0), "word": "2"}]
    assert payload["depth"] == 1
    clean = sfh_evidence(_shift_pair(), (1, 2), MAXNORM, 1.0).to_json_dict()
    assert clean["offenders"] == []
    assert clean["passed"] is True


def _unscreened_scan(t, omega, reps, rho_hat, offender_tol, samples):
    """(margin, offenders, level maxima) of the scan that evaluates every competitor,
    each product taken from product_along, independent of the walk."""
    n = len(omega)
    target = rho_hat ** n
    threshold = target * (1.0 - offender_tol)
    rotations = rotation_class(omega)
    real = t.field == "real"
    induced = [norms._induced_norm(rep, t.d, real=real, samples=samples)[0] for rep in reps]
    level_max = [0.0] * len(reps)
    found = {}
    zs = [z for z in enumerate_words(t.r, n) if z not in rotations]
    if zs:
        stack = np.array([product_along(t, z) for z in zs])
        for i, norm_of in enumerate(induced):
            values = norm_of(stack)
            level_max[i] = max(level_max[i], float(np.max(values)))
            for j in np.flatnonzero(values >= threshold).tolist():
                z = zs[j]
                found[z] = max(found.get(z, 0.0), float(values[j]))
    margin = min([1.0] + [(target - m) / target for m in level_max])
    return margin, sorted(found.items()), level_max


def _random_slots(rng, kind, r, d):
    if kind == "integer":  # small integers, so that many products tie exactly
        return [rng.integers(-2, 3, (d, d)).astype(float) for _ in range(r)]
    if kind == "rank-one":
        return [np.outer(rng.standard_normal(d), rng.standard_normal(d)) for _ in range(r)]
    slots = [rng.standard_normal((d, d)) for _ in range(r)]
    if kind == "complex":
        slots = [a + 1j * rng.standard_normal((d, d)) for a in slots]
    return slots


def _random_norms(rng, d, real):
    w = tuple(rng.uniform(0.3, 3.0, d))
    reps = [WeightedMaxNorm(w), LpNorm(float(rng.choice([1.0, 1.5, 3.0])), w), LpNorm(2.0)]
    if real and d == 2:
        m = int(rng.integers(2, 40))
        angles = np.sort(rng.uniform(0.0, np.pi, m))
        angles[0] = 0.0
        reps.append(MeshNorm(tuple(angles), tuple(rng.uniform(0.2, 2.0, m))))
    return reps


def test_mutants_are_bitwise_the_products_of_product_along():
    # the mutants share omega's prefix chain and build only their suffixes, so
    # each product is bitwise product_along's, past the float range too
    rng = np.random.default_rng(53)
    omega = (1, 1, 2, 1, 2, 2, 1, 2, 2, 2, 1, 2)
    cases = [(characteristic_tuple(2, 12, omega), omega),
             (MatrixTuple("real", (1e200 * np.ones((2, 2)), np.eye(2))), (1, 2, 1)),
             (MatrixTuple("real", (np.eye(2),)), (1, 1, 1))]
    for kind in ("real", "complex", "rank-one", "integer"):
        for r, d in ((2, 3), (3, 2)):
            t = MatrixTuple("complex" if kind == "complex" else "real", tuple(_random_slots(rng, kind, r, d)))
            cases += [(t, tuple(int(a) for a in rng.integers(1, r + 1, n))) for n in (1, 2, 7)]
    for t, omega in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            mutants, stack = finiteness._mutants(t, omega)
            expected = [omega[:j] + (a,) + omega[j + 1:] for j in range(len(omega)) for a in range(1, t.r + 1)
                        if a != omega[j]]
            assert mutants == expected and len(stack) == len(expected)
            for z, p in zip(mutants, stack):
                assert p.tobytes() == product_along(t, z).tobytes(), (omega, z)


def test_screened_scan_equals_unscreened_scan_bitwise():
    rng = np.random.default_rng(2009)
    compared = 0
    for case in range(120):
        kind = ("real", "complex", "integer", "rank-one")[case % 4]
        r, d = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        if kind != "complex" and case % 3 == 0:
            d = 2
        scale = (1.0, 2.0 ** 200, 2.0 ** -200)[case % 3]
        n = int(rng.integers(1, 4 if scale != 1.0 else 5))
        field = "complex" if kind == "complex" else "real"
        t = MatrixTuple(field, tuple(scale * a for a in _random_slots(rng, kind, r, d)))
        omega = tuple(int(x) for x in rng.integers(1, r + 1, n))
        samples = None if field == "real" and d == 2 else sphere_samples(d, 40, case, field)
        for rep in _random_norms(rng, d, field == "real"):
            with np.errstate(all="ignore"):  # lp powers overflow and underflow at 2**+-600
                *_, level_max = _unscreened_scan(t, omega, [rep], 1.0, 0.5, samples)
                top = level_max[0] if 0 < level_max[0] < np.inf else scale ** n
                # offenders at the top, below it, or none, where the level maximum sets the margin
                for factor, offender_tol in ((1.0, 1e-6), (0.99, 1e-2), (1.3, 0.5), (3.0, 1e-6)):
                    rho_hat = (factor * top) ** (1.0 / n)
                    try:
                        report = sfh_evidence(t, omega, rep, rho_hat, offender_tol=offender_tol,
                                              norm_check_tol=1e300, samples=samples)
                    except InputError:  # the sampled check cannot admit the norm
                        continue
                    margin, offenders, _ = _unscreened_scan(
                        t, omega, [rep], rho_hat, offender_tol, samples
                    )
                    assert report.margin.hex() == margin.hex(), (case, rep)
                    got = [(z, v.hex()) for z, v in report.offenders]
                    assert got == [(z, v.hex()) for z, v in offenders], (case, rep)
                    compared += 1
    assert compared >= 1400


def test_scan_under_norm_constants_past_2_64_evaluates_every_row():
    # weights past 2**64 leave the screen no safe bound, so every competitor is
    # evaluated; power-of-two weights scale each value exactly, so the reports
    # equal the screened ones under (1, 0.5) bit for bit
    t = _diag_dominant_pair(0.5)  # example 2
    big, small = WeightedMaxNorm((2.0 ** 70, 2.0 ** 69)), WeightedMaxNorm((1.0, 0.5))
    _, bound = norms._induced_norm(big, 2, real=True, samples=None)
    assert np.all(bound(np.array([0.0, 0.5, 1.0])) == np.inf)
    for omega in ((1,), (1, 2), (1, 1, 2)):
        assert sfh_evidence(t, omega, big, 1.0) == sfh_evidence(t, omega, small, 1.0), omega


def _counting_induced(monkeypatch):
    """Count the products whose induced norm the scan evaluates."""
    rows = []
    build = finiteness._induced_norm

    def counting(*args, **kwargs):
        induced, bound = build(*args, **kwargs)
        return (lambda stack: rows.append(len(stack)) or induced(stack)), bound

    monkeypatch.setattr(finiteness, "_induced_norm", counting)
    return rows


def test_scan_evaluates_only_rows_that_can_change_the_report(monkeypatch):
    rows = _counting_induced(monkeypatch)
    t = _shift_pair(0.3, 0.5)  # example 1 (0.3, 0.5)
    mesh = norms.approx_barabanov(t, 1.0, mesh_size=4096).norm
    report = sfh_evidence(t, (1, 2) * 5, mesh, 1.0)
    assert report.passed and report.margin == pytest.approx(0.5, abs=1e-6)
    assert sum(rows) <= 102  # of the 1022 words outside the class of (1,2)^5


def test_screen_margin_keeps_offenders_that_tie_the_bound(monkeypatch):
    # A1 is rank one and maps (1, 1), a point of the unit sup-norm sphere with the
    # largest |x|_2, onto (1, 0), so its induced sup norm 1 equals the bound
    # ||A1||_F * |1/w|_2 = 2**-0.5 * 2**0.5 up to rounding: only the screen's
    # margins keep these offenders
    t = MatrixTuple("real", (np.array([[0.5, 0.5], [0.0, 0.0]]), np.eye(2)))
    rows = _counting_induced(monkeypatch)
    report = sfh_evidence(t, (2, 2, 2), MAXNORM, 1.0, offender_tol=1e-12)
    assert report.offenders == (((1, 2, 2), 1.0), ((2, 1, 2), 1.0), ((2, 2, 1), 1.0))
    # the four words with two or three 1s (values 0.5 and 0.25) are skipped
    assert sum(rows) == 3


def _walked(monkeypatch):
    """The stores that the scans walk, and the words their walks yield."""
    stores, yielded, walk = [], [], tuples._PrefixStore.walk

    def spy(store, n, *, prune):
        stores.append(store)
        for block in walk(store, n, prune=prune):
            yielded.extend(_words_at(block[0]))
            yield block

    monkeypatch.setattr(tuples._PrefixStore, "walk", spy)
    return stores, yielded


def _assert_equals_unscreened(report, t, omega, reps, rho_hat, offender_tol=1e-6):
    margin, offenders, _ = _unscreened_scan(t, omega, reps, rho_hat, offender_tol, None)
    assert report.margin.hex() == margin.hex()
    assert [(z, v.hex()) for z, v in report.offenders] == [(z, v.hex()) for z, v in offenders]


def test_a_power_of_the_slot_norm_that_overflows_keeps_its_rows():
    # L = 1e100, so L ** 4 leaves the float range (where Python's float power
    # raises OverflowError); the slots alternate 1e100 and 1e-100 with no product
    # past 1e100, so the scan itself stays in range
    t = MatrixTuple("real", (np.array([[0.0, 1e100], [0.0, 0.0]]), np.array([[0.0, 0.0], [1e-100, 0.0]]),
                             0.5 * np.eye(2)))
    omega, rep = (1, 1, 3, 2, 3), WeightedMaxNorm((1.0, 1.0))
    for rho_hat in (1e20, 2e20, 0.9e20):
        report = sfh_evidence(t, omega, rep, rho_hat, offender_tol=1e-6, norm_check_tol=1e300)
        _assert_equals_unscreened(report, t, omega, [rep], rho_hat)


def test_a_power_of_the_slot_norm_that_underflows_to_zero_keeps_its_rows(monkeypatch):
    # L ** 2 rounds to 0 at L near 2**-600, so the walk keeps both slots at k = 1
    # and asks about their 4 children, all zero; under this norm, which reads
    # every product as 1, a power taken as 0 would have dropped both slots
    stores, _ = _walked(monkeypatch)
    rng = np.random.default_rng(3)
    t = MatrixTuple("real", tuple(2.0 ** -600 * rng.standard_normal((2, 2)) for _ in range(2)))
    ones = [(lambda stack: np.ones(len(stack)), lambda caps: caps)]
    report = finiteness._scan(t, (1, 2, 2), ones, 2.0, 0.5, 10 ** 6)
    assert (report.margin, report.offenders) == (1.0 - 1.0 / 8, ())
    assert stores[0].spent == 2 + 4


def test_one_slot_scan_has_no_seeds(monkeypatch):
    # one slot has no mutants and no word outside the class: nothing is evaluated
    rows = _counting_induced(monkeypatch)
    stores, yielded = _walked(monkeypatch)
    t = MatrixTuple("real", (np.array([[0.5, 1.0], [0.0, 0.25]]),))
    report = sfh_evidence(t, (1,) * 4, MAXNORM, 1.0, norm_check_tol=1e300)
    assert (report.margin, report.offenders, rows, yielded, stores[0].spent) == (1.0, (), [], [], 4)


def test_a_row_that_one_norm_keeps_is_evaluated_under_every_norm(monkeypatch):
    # the bound of weights (1, 1e-3) is 1000 times looser than that of unit
    # weights, so that norm keeps rows that the other drops; a kept row is
    # evaluated under both, and the report is that of the unscreened scan
    stores, yielded = _walked(monkeypatch)
    rng = np.random.default_rng(4)
    t = MatrixTuple("real", tuple(rng.standard_normal((2, 2)) for _ in range(2)))
    omega, loose, tight = (1, 2, 1, 1, 2, 2, 2, 1), WeightedMaxNorm((1.0, 1e-3)), WeightedMaxNorm((1.0, 1.0))
    top = _unscreened_scan(t, omega, [loose], 1.0, 0.5, None)[2][0]
    counts = {}
    for reps in ([tight], [loose], [tight, loose], [loose, tight]):
        for factor in (1.0, 1.5):
            yielded.clear()
            rho_hat = (factor * top) ** (1.0 / len(omega))
            report = sfh_evidence(t, omega, reps, rho_hat, offender_tol=1e-6, norm_check_tol=1e300)
            _assert_equals_unscreened(report, t, omega, reps, rho_hat)
            counts[len(reps), reps[0] is tight, factor] = len(yielded)
    for factor in (1.0, 1.5):
        assert counts[1, True, factor] < counts[2, True, factor] == counts[2, False, factor]
        assert counts[1, False, factor] <= counts[2, True, factor] < 2 ** 8 - 8


def test_an_offender_among_the_seeds_is_reported_once(monkeypatch):
    # the seed of example 2 at 1^10 is its one offender, 2 1^9; the walk does not
    # yield it again, so it is evaluated once
    rows = _counting_induced(monkeypatch)
    _, yielded = _walked(monkeypatch)
    t, rep, omega = _diag_dominant_pair(0.5), WeightedMaxNorm((1.0, 0.5)), (1,) * 10
    report = sfh_evidence(t, omega, rep, 1.0)
    assert report.offenders == (((2,) + (1,) * 9, 1.0),)
    assert (2,) + (1,) * 9 not in yielded and sum(rows) == 1 + len(yielded)
    _assert_equals_unscreened(report, t, omega, [rep], 1.0)


def _permuted_report(t, perm, omega, reps, rho_hat, **kwargs):
    """sfh_evidence with t's slots in the order perm and omega's letters mapped to match,
    as (margin.hex(), offenders) with the offenders' letters mapped back and their values as hex."""
    new_letter = {old + 1: new + 1 for new, old in enumerate(perm)}
    old_letter = {new: old for old, new in new_letter.items()}
    moved = MatrixTuple(t.field, tuple(t.matrices[i] for i in perm))
    report = sfh_evidence(moved, tuple(new_letter[a] for a in omega), reps, rho_hat, **kwargs)
    return report.margin.hex(), sorted((tuple(old_letter[a] for a in z), v.hex()) for z, v in report.offenders)


def test_offender_scan_is_slot_permutation_invariant(monkeypatch):
    # a permutation of the slots maps every word's product to the same matmuls,
    # so the report, its letters mapped back, is bitwise that of the tuple itself,
    # and the scan asks its prune about as many rows
    stores, _ = _walked(monkeypatch)
    ex1, ex2, ex4 = _shift_pair(0.3, 0.5), _diag_dominant_pair(0.5), example_tuple(4, lam=0.5)[0]
    mesh = norms.approx_barabanov(ex1, 1.0, mesh_size=1024).norm
    rng = np.random.default_rng(47)
    seeded = MatrixTuple("real", tuple(rng.standard_normal((3, 3)) / np.sqrt(3) for _ in range(3)))
    cases = [
        (ex4, (1, 3), [WeightedMaxNorm((1.0, 0.5))], 1.0, {}),
        (ex2, (1,) * 10, [WeightedMaxNorm((1.0, 0.5))], 1.0, {}),
        (ex1, (1, 2) * 4, [mesh, MAXNORM], 1.0, {}),
        (seeded, (1, 2, 3, 3), [LpNorm(3.0)], 1.3, {"samples": sphere_samples(3, 200), "norm_check_tol": 1e300}),
    ]
    asked = []
    for t, omega, reps, rho_hat, kwargs in cases:
        reports = [(*_permuted_report(t, perm, omega, reps, rho_hat, **kwargs), stores[-1].spent)
                   for perm in permutations(range(t.r))]
        assert all(report == reports[0] for report in reports), (omega, reports)
        asked.append(reports[0][-1])
    assert asked == [12, 54, 86, 99]
