"""End-to-end command-line behaviour: plumbing, exit codes, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

from jsrkit.cli import main
from jsrkit.norms import WeightedMaxNorm, norm_to_json_dict
from jsrkit.tuples import MatrixTuple, to_json


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _construct(capsys, tmp_path, name, argv):
    code, out, err = _run(capsys, ["construct", *argv])
    assert code == 0, err
    path = tmp_path / name
    path.write_text(out)
    return str(path)


def _norm_file(tmp_path, name, norm):
    path = tmp_path / name
    path.write_text(json.dumps(norm_to_json_dict(norm)))
    return str(path)


def test_construct_then_bounds_depth_2(capsys, tmp_path):
    path = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0", "--l2", "0"])
    code, out, _ = _run(capsys, ["bounds", "--input", path, "--depth", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "bounds"
    assert payload["result"]["lower"] == 1.0
    assert payload["result"]["upper"] == 1.0
    assert payload["result"]["closed"] is True
    assert payload["config"]["depth"] == 2


def test_construct_output_feeds_every_command(capsys, tmp_path):
    path = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0.3", "--l2", "0.5"])
    norm_path = _norm_file(tmp_path, "max.json", WeightedMaxNorm((1.0, 1.0)))
    runs = [
        ["bounds", "--input", path, "--depth", "2"],
        ["rank1", "--input", path, "--depth", "1"],
        ["irreducible", "--input", path],
        ["barabanov", "approx", "--input", path],
        ["barabanov", "verify", "--input", path, "--norm", norm_path, "--rho-hat", "1"],
        ["sfh", "--input", path, "--word", "1,2", "--norm", norm_path, "--rho-hat", "1"],
    ]
    for argv in runs:
        code, out, err = _run(capsys, argv)
        assert code == 0, (argv, err)
        assert json.loads(out)["result"], argv


def test_construct_characteristic_word(capsys, tmp_path):
    path = _construct(capsys, tmp_path, "char.json", ["--word", "1,2", "--alphabet", "3"])
    raw = json.loads(open(path).read())
    assert raw["r"] == 3
    assert raw["truth"]["characteristic_word"] == "1,2"
    code, out, _ = _run(capsys, ["bounds", "--input", path, "--depth", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["lower"] == 1.0
    assert payload["result"]["upper"] == 1.0


def test_malformed_json_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not valid json")
    code, out, err = _run(capsys, ["bounds", "--input", str(bad)])
    assert code == 2
    assert out == ""
    assert "malformed JSON" in err


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = _run(capsys, ["bounds", "--input", str(tmp_path / "none.json")])
    assert code == 2
    assert "cannot read" in err


def test_shape_mismatch_has_distinct_message(capsys, tmp_path):
    bad = tmp_path / "shape.json"
    bad.write_text(json.dumps({
        "field": "real", "r": 1, "d": 2,
        "matrices": [[[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]],
    }))
    code, _, err = _run(capsys, ["bounds", "--input", str(bad)])
    assert code == 2
    assert "malformed JSON" not in err
    assert "rows" in err


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("tuple", {"field": "real", "r": True, "d": 1, "matrices": [[[0.5]]]}),
        ("tuple", {"field": "real", "r": 1, "d": True, "matrices": [[[0.5]]]}),
        ("norm", {"variant": "weighted_max", "weights": "ab"}),
        ("norm", {"variant": "weighted_max", "weights": 3}),
        ("norm", {"variant": "ellp", "p": "x"}),
        ("norm", {"variant": "mesh", "angles": "ab", "values": [1.0, 1.0]}),
    ],
)
def test_malformed_payload_exits_2_with_one_line(capsys, tmp_path, kind, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    if kind == "tuple":
        argv = ["bounds", "--input", str(bad), "--depth", "1"]
    else:
        path = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0", "--l2", "0"])
        argv = ["barabanov", "verify", "--input", path, "--norm", str(bad), "--rho-hat", "1"]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_budget_exhaustion_is_input_error(capsys, tmp_path):
    code, _, err = _run(capsys, ["words", "--alphabet", "3", "--length", "10", "--budget", "100"])
    assert code == 2
    assert "budget" in err
    path = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0", "--l2", "0"])
    code, _, err = _run(capsys, ["bounds", "--input", path, "--budget", "3"])
    assert code == 2
    assert "budget" in err


def test_rank1_refuted_on_sign_swap_fixture(capsys, tmp_path):
    path = _construct(capsys, tmp_path, "ex3.json", ["--example", "3", "--lam", "0.5"])
    code, out, _ = _run(capsys, ["rank1", "--input", path, "--depth", "1", "--strict"])
    assert code == 0  # Refuted is a definite answer, not Unknown
    assert json.loads(out)["result"]["status"] == "Refuted"


def test_strict_flag_signals_unknown(capsys, tmp_path):
    single = tmp_path / "single.json"
    single.write_text(to_json(MatrixTuple("real", (np.array([[0.0, 2.0], [-1.0, 0.0]]),))))
    base = ["rank1", "--input", str(single), "--depth", "1"]
    code, out, _ = _run(capsys, base)
    assert code == 0
    assert json.loads(out)["result"]["status"] == "Unknown"
    code, _, _ = _run(capsys, [*base, "--strict"])
    assert code == 1


def test_repeated_invocations_are_byte_identical(capsys, tmp_path):
    path = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0.3", "--l2", "0.5"])
    argvs = [
        ["bounds", "--input", path, "--depth", "3"],
        ["irreducible", "--input", path, "--seed", "11"],
        ["sfh", "--input", path, "--word", "1,2"],  # approximated norm path
    ]
    for argv in argvs:
        _, first, _ = _run(capsys, argv)
        _, second, _ = _run(capsys, argv)
        assert first == second, argv


def test_barabanov_verify_pass_fail_and_strict(capsys, tmp_path):
    path = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0", "--l2", "0"])
    norm_path = _norm_file(tmp_path, "max.json", WeightedMaxNorm((1.0, 1.0)))
    code, out, _ = _run(capsys, ["barabanov", "verify", "--input", path, "--norm", norm_path])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["passed"] is True
    assert payload["result"]["residual"] == 0.0
    assert payload["config"]["rho_hat"] == 1.0  # midpoint of certified [1, 1]
    wrong = ["barabanov", "verify", "--input", path, "--norm", norm_path, "--rho-hat", "2"]
    code, out, _ = _run(capsys, wrong)
    assert code == 0
    assert json.loads(out)["result"]["passed"] is False
    code, _, _ = _run(capsys, [*wrong, "--strict"])
    assert code == 1


def test_barabanov_approx_reports_convergence(capsys, tmp_path):
    path = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0.3", "--l2", "0.5"])
    code, out, _ = _run(capsys, ["barabanov", "approx", "--input", path, "--strict"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["converged"] is True
    assert result["iterations"] <= 500
    assert result["norm"]["variant"] == "mesh"
    assert len(result["norm"]["angles"]) == 720


def test_sfh_auto_approximates_when_no_norm_given(capsys, tmp_path):
    path = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0.3", "--l2", "0.5"])
    code, out, _ = _run(capsys, ["sfh", "--input", path, "--word", "1,2", "--strict"])
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["norms"] == "approximated"
    (report,) = payload["result"]["reports"]
    assert report["passed"] is True
    assert report["offenders"] == []
    assert report["margin"] > 0.4


def test_sfh_search_lists_losing_candidates(capsys, tmp_path):
    path = _construct(capsys, tmp_path, "ex2.json", ["--example", "2", "--lam", "0.5"])
    norm_path = _norm_file(tmp_path, "w.json", WeightedMaxNorm((1.0, 0.5)))
    argv = ["sfh", "--input", path, "--depth", "3", "--norm", norm_path]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    reports = json.loads(out)["result"]["reports"]
    assert [rep["candidate"] for rep in reports] == ["1", "1,1", "1,1,1"]
    assert all(rep["passed"] is False for rep in reports)
    assert all(rep["caveat"] for rep in reports)
    code, _, _ = _run(capsys, [*argv, "--strict"])
    assert code == 1


def test_verify_complex_tuple_with_sampled_sphere(capsys, tmp_path):
    path = _construct(
        capsys, tmp_path, "ex2c.json",
        ["--example", "2", "--lam", "0.5", "--field", "complex"],
    )
    norm_path = _norm_file(tmp_path, "w.json", WeightedMaxNorm((1.0, 0.5)))
    base = ["barabanov", "verify", "--input", path, "--norm", norm_path, "--rho-hat", "1"]
    code, _, err = _run(capsys, base)
    assert code == 2  # no default directions off the real plane
    assert "sample" in err
    code, out, _ = _run(capsys, [*base, "--samples", "256"])
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True


def test_words_listing_text_and_json(capsys):
    code, out, _ = _run(capsys, ["words", "--alphabet", "2", "--length", "3", "--necklaces"])
    assert code == 0
    assert out.splitlines() == ["1,1,1", "1,1,2", "1,2,2", "2,2,2"]
    code, out, _ = _run(
        capsys,
        ["words", "--alphabet", "2", "--length", "3", "--necklaces", "--primitive-only"],
    )
    assert out.splitlines() == ["1,1,2", "1,2,2"]
    code, out, _ = _run(
        capsys,
        ["words", "--alphabet", "2", "--length", "2", "--format", "json"],
    )
    payload = json.loads(out)
    assert payload["result"]["count"] == 4
    assert payload["result"]["words"] == ["1,1", "1,2", "2,1", "2,2"]


def test_text_format_renders_flat_lines(capsys, tmp_path):
    path = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0", "--l2", "0"])
    code, out, _ = _run(capsys, ["bounds", "--input", path, "--depth", "2", "--format", "text"])
    assert code == 0
    lines = out.splitlines()
    assert "lower = 1.0" in lines
    assert "upper = 1.0" in lines


def test_construct_rejects_incomplete_parameters(capsys, tmp_path):
    code, _, err = _run(capsys, ["construct", "--example", "1", "--l1", "0.3"])
    assert code == 2
    assert "l2" in err
    code, _, err = _run(capsys, ["construct", "--example", "9"])
    assert code == 2
    code, _, err = _run(capsys, ["construct", "--word", "1,2,1,2"])
    assert code == 2  # proper power
    code, _, err = _run(capsys, ["construct", "--word", "1,0"])
    assert code == 2


def test_invalid_depth_and_tol_rejected(capsys, tmp_path):
    path = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0", "--l2", "0"])
    code, _, err = _run(capsys, ["bounds", "--input", path, "--depth", "0"])
    assert code == 2
    assert "depth" in err
    code, _, err = _run(capsys, ["rank1", "--input", path, "--tol", "-1"])
    assert code == 2
    assert "tol" in err
