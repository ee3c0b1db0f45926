"""Offender scans and candidate ranking for spectrum-maximal classes."""

from __future__ import annotations

import numpy as np
import pytest

from jsrkit import finiteness, norms
from jsrkit.errors import InputError
from jsrkit.finiteness import (
    SFH_CAVEAT,
    SfhReport,
    characteristic_word_search,
    sfh_evidence,
)
from jsrkit.norms import LpNorm, WeightedMaxNorm, matrix_norm, theta
from jsrkit.tuples import MatrixTuple, product_along
from jsrkit.words import power

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


def test_box_corners_built_once_per_norm(monkeypatch):
    calls = []
    build = norms._box_corners

    def counting(weights):
        calls.append(weights)
        return build(weights)

    monkeypatch.setattr(norms, "_box_corners", counting)
    lam = 0.5
    pair = [WeightedMaxNorm((1.0, lam)), WeightedMaxNorm((1.0, lam))]
    report = sfh_evidence(_diag_dominant_pair(lam), (1,) * 6, pair, 1.0)
    assert not report.passed  # the scan did evaluate products
    assert calls == [(1.0, lam)] * 2


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
    t = _diag_dominant_pair(lam)
    reports = characteristic_word_search(t, 3, WeightedMaxNorm((1.0, lam)), 1.0)
    assert [rep.candidate for rep in reports] == [(1,), (1, 1), (1, 1, 1)]
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

    for name in ("jsr_bounds", "spectral_maximal_candidates"):
        monkeypatch.setattr(finiteness, name, spy(name, getattr(finiteness, name)))
    t = _diag_dominant_pair(0.5)
    norm = WeightedMaxNorm((1.0, 0.5))
    bad = [
        ((norm, None), {"offender_tol": float("nan")}, "offender_tol must be positive"),
        ((norm, None), {"norm_check_tol": float("inf")}, "norm_check_tol must be finite"),
        (([], 1.0), {}, "need at least one norm"),
    ]
    for (reps, rho_hat), kwargs, message in bad:
        with pytest.raises(InputError, match=message):
            characteristic_word_search(t, 14, reps, rho_hat, **kwargs)
        assert calls == [], message


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
