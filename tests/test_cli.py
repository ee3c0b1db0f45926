"""End-to-end command-line behaviour: plumbing, exit codes, determinism."""

from __future__ import annotations

import gc
import importlib
import io
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import jsrkit
from jsrkit import cli, config, tuples, words
from jsrkit.cli import main
from jsrkit.finiteness import SFH_CAVEAT
from jsrkit.norms import WeightedMaxNorm, norm_to_json_dict
from jsrkit.tuples import MatrixTuple, from_json, scale, to_json


@pytest.fixture(autouse=True)
def _emitter_matches_json_dumps(monkeypatch):
    """Every JSON report and tuple file these tests produce, and each value
    nested in it, must come out of tuples._dumps exactly as json.dumps renders
    it.  cli holds its own name for the emitter, so both are patched."""
    dumps = tuples._dumps

    def checked(value, indent=""):
        text = dumps(value, indent)
        assert text == json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)
        return text

    monkeypatch.setattr(tuples, "_dumps", checked)
    monkeypatch.setattr(cli, "_dumps", checked)


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
    # json.loads raises RecursionError past its nesting limit, and ValueError
    # for an integer literal past the interpreter's 4300-digit limit; a file
    # that is not UTF-8 cannot be read as text
    ex2 = _construct(capsys, tmp_path, "ex2.json", ["--example", "2", "--lam", "0.5"])
    (tmp_path / "latin1.json").write_bytes(b"\xff{")
    for argv in (["bounds", "--input"], ["sfh", "--input", ex2, "--word", "1", "--norm"]):
        code, out, err = _run(capsys, [*argv, str(tmp_path / "latin1.json")])
        assert (code, out) == (2, "") and err.startswith("error: cannot read ") and err.count("\n") == 1
    cases = [
        ("deep.json", "[" * 100000, ["bounds", "--input"], "malformed JSON: maximum recursion"),
        ("digits.json", '{"field": "real", "r": 1, "d": 1, "matrices": [[[' + "1" * 5000 + "]]]}",
         ["bounds", "--input"], "malformed JSON: Exceeds the limit (4300 digits)"),
        ("norm.json", "[" * 5000 + "]" * 5000, ["sfh", "--input", ex2, "--word", "1", "--norm"],
         "malformed norm JSON in "),
    ]
    for name, text, argv, reason in cases:
        (tmp_path / name).write_text(text)
        code, out, err = _run(capsys, [*argv, str(tmp_path / name)])
        assert (code, out) == (2, ""), name
        assert err.startswith("error: " + reason) and err.count("\n") == 1, name


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
        ("tuple", {"field": "real", "r": 1, "d": 1, "matrices": [[[10 ** 400]]]}),
        ("tuple", {"field": "complex", "r": 1, "d": 1, "matrices": [[[[0.5, 10 ** 400]]]]}),
        ("norm", {"variant": "weighted_max", "weights": [1.0, 10 ** 400]}),
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


def test_underflowing_level_maxima_are_named_by_every_command_that_bounds(capsys, tmp_path):
    # the products of length 2 of [[1e-200]], and of example 1 (0.3, 0.5) times
    # 1e-200, underflow to zero: bounds, rank1 and a default rho_hat refuse with
    # that reason, and no bounds out of order
    tiny = tmp_path / "tiny.json"
    tiny.write_text(to_json(MatrixTuple("real", (np.array([[1e-200]]),))))
    ex1 = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0.3", "--l2", "0.5"])
    small = tmp_path / "small.json"
    small.write_text(to_json(scale(from_json(Path(ex1).read_text()), 1e-200)))
    reason = "numerical failure: products of length 2 underflow; the tuple's scale is out of range\n"
    for argv in (["bounds", "--input", str(tiny), "--depth", "2"],
                 ["bounds", "--input", str(small), "--depth", "4"],
                 ["rank1", "--input", str(small), "--depth", "3"],
                 ["barabanov", "approx", "--input", str(small), "--depth", "4"]):
        assert _run(capsys, argv) == (2, "", reason), argv


def test_failures_past_the_input_checks_exit_2_in_process(capsys, tmp_path):
    ex1 = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0.3", "--l2", "0.5"])
    huge = tmp_path / "huge.json"
    huge.write_text(to_json(scale(from_json(Path(ex1).read_text()), 1e200)))
    # the one slot maps no direction to zero, but its mesh iteration runs out of sweeps
    spiral = tmp_path / "spiral.json"
    spiral.write_text(to_json(MatrixTuple("real", (np.array([[1.0, -2.0], [0.5, 1.0]]),))))
    brace = tmp_path / "brace.json"
    brace.write_text("{")
    cases = [
        (["bounds", "--input", str(huge)],
         "numerical failure: products of length 2 overflow; the tuple's scale is out of range\n"),
        (["sfh", "--input", str(spiral), "--word", "1"],
         "error: no norm supplied and the built-in approximation did not converge; pass --norm\n"),
        (["barabanov", "verify", "--input", ex1, "--norm", str(brace), "--rho-hat", "1"],
         f"error: malformed norm JSON in {brace}: "),
    ]
    for argv, reason in cases:
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(reason) and err.count("\n") == 1, err


def test_budget_exhaustion_is_input_error(capsys, tmp_path):
    code, _, err = _run(capsys, ["words", "--alphabet", "3", "--length", "10", "--budget", "100"])
    assert code == 2
    assert "budget" in err
    path = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0", "--l2", "0"])
    # level 1 asks about the r = 2 slots
    code, _, err = _run(capsys, ["bounds", "--input", path, "--budget", "1"])
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


def test_default_rho_hat_needs_bounds_at_the_full_depth(capsys, tmp_path):
    # the budget stops bounds short of --depth, and a default rho_hat must
    # not come from that shallower interval while config.depth reads 6
    path = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0.3", "--l2", "0.5"])
    norm_path = _norm_file(tmp_path, "max.json", WeightedMaxNorm((1.0, 1.0)))
    # bounds asks about 32, 50 and 72 rows through levels 4, 5 and 6 here
    scan = "error: candidate scan to depth 6 exceeds enumeration budget 71\n"
    runs = [
        (49, 4, ["barabanov", "approx", "--input", path], ""),
        (49, 4, ["barabanov", "verify", "--input", path, "--norm", norm_path], ""),
        # the candidate search walks bounds' pass, so a given rho_hat needs its budget too
        (71, 5, ["sfh", "--input", path, "--norm", norm_path], scan),
        (71, 5, ["sfh", "--input", path, "--norm", norm_path, "--word", "1,2"], ""),
    ]
    for budget, reached, argv, given in runs:
        argv = [*argv, "--depth", "6", "--budget", str(budget)]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err == (f"error: enumeration budget {budget} reaches depth {reached} of 6, "
                       "too shallow for the default rho_hat\n")
        code, out, err = _run(capsys, [*argv, "--rho-hat", "1"])  # a given rho_hat needs no bounds
        assert (code, err) == ((2, given) if given else (0, "")), argv
        assert given or json.loads(out)["config"]["rho_hat"] == 1.0


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
    assert [rep["candidate"] for rep in reports] == ["1"]  # "1,1" and "1,1,1" are powers of "1"
    assert all(rep["passed"] is False for rep in reports)
    assert all(rep["caveat"] for rep in reports)
    code, _, _ = _run(capsys, [*argv, "--strict"])
    assert code == 1


def test_sfh_search_takes_candidates_and_rho_hat_from_one_level_pass(capsys, tmp_path, monkeypatch):
    # without --rho-hat the search's default rho_hat and its candidates come
    # from one bounds pass, under an approximated norm or a given one
    engine = importlib.import_module("jsrkit.bounds")
    levels, calls = engine._levels, []
    monkeypatch.setattr(engine, "_levels", lambda *args: calls.append(args[1]) or levels(*args))
    path = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0.3", "--l2", "0.5"])
    norm_path = _norm_file(tmp_path, "max.json", WeightedMaxNorm((1.0, 1.0)))
    for extra in ([], ["--norm", norm_path]):
        calls.clear()
        code, out, err = _run(capsys, ["sfh", "--input", path, "--depth", "4", *extra])
        assert (code, err) == (0, ""), extra
        assert json.loads(out)["result"]["reports"], extra
        assert calls == [4], extra


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


def test_zero_samples_is_rejected_not_ignored(capsys, tmp_path):
    # a real 2x2 tuple has a default mesh, which --samples 0 must not fall back to
    path = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0.3", "--l2", "0.5"])
    norm_path = _norm_file(tmp_path, "max.json", WeightedMaxNorm((1.0, 1.0)))
    for argv in (["barabanov", "verify", "--input", path, "--norm", norm_path, "--rho-hat", "1"],
                 ["sfh", "--input", path, "--word", "1,2", "--norm", norm_path, "--rho-hat", "1"]):
        code, out, err = _run(capsys, [*argv, "--samples", "0"])
        assert code == 2 and out == ""
        assert err == "error: need d >= 1 and count >= 1\n"


def test_huge_mesh_or_samples_is_out_of_memory_not_a_traceback(capsys, tmp_path):
    # 10**17 points need hundreds of PiB, past any user address space of x86-64
    # Linux, so numpy's allocation fails at once and pages nothing in
    path = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0.3", "--l2", "0.5"])
    norm_path = _norm_file(tmp_path, "max.json", WeightedMaxNorm((1.0, 1.0)))
    huge = str(10**17)
    verify = ["barabanov", "verify", "--input", path, "--norm", norm_path, "--rho-hat", "1"]
    for argv in (["barabanov", "approx", "--input", path, "--rho-hat", "1", "--mesh", huge],
                 verify + ["--mesh", huge],
                 verify + ["--samples", huge],
                 ["sfh", "--input", path, "--word", "1,2", "--norm", norm_path, "--rho-hat", "1",
                  "--samples", huge]):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("out of memory: Unable to allocate") and err.count("\n") == 1, err


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def test_sfh_under_an_lp_norm_is_finite_at_scale_2_200(capsys, tmp_path):
    # the offender values of a tuple scaled by 2**200 used to overflow under
    # an l3 norm, so stdout carried Infinity; the margin is scale invariant
    norm_path = tmp_path / "l3.json"
    norm_path.write_text(json.dumps({"variant": "ellp", "p": 3}))
    margins = []
    for c, rho_hat in ((1.0, "1"), (2.0 ** 200, "1.6069380442589903e+60")):
        t = MatrixTuple("real", (c * np.array([[0.0, 1.0], [0.5, 0.0]]),
                                 c * np.array([[0.0, 0.5], [1.0, 0.0]])))
        path = tmp_path / "t.json"
        path.write_text(to_json(t))
        code, out, err = _run(capsys, ["sfh", "--input", str(path), "--word", "1,2", "--norm",
                                       str(norm_path), "--rho-hat", rho_hat,
                                       "--norm-check-tol", "1e300"])
        assert (code, err) == (0, "")
        margins.append(_strict_json(out)["result"]["reports"][0]["margin"])
    assert margins[1] == pytest.approx(margins[0], rel=1e-12)
    assert margins[0] == pytest.approx(0.5, rel=1e-12)


def test_sfh_word_of_1500_letters_on_one_slot_is_not_a_traceback(capsys, tmp_path):
    # the product walker used to recurse once per letter, so a word this long
    # ended in RecursionError with exit 1
    path = tmp_path / "swap.json"
    path.write_text(to_json(MatrixTuple("real", (np.array([[0.0, 1.0], [1.0, 0.0]]),))))
    norm_path = _norm_file(tmp_path, "max.json", WeightedMaxNorm((1.0, 1.0)))
    word = ",".join(["1"] * 1500)
    code, out, err = _run(capsys, ["sfh", "--input", str(path), "--word", word,
                                   "--norm", norm_path, "--rho-hat", "1"])
    assert (code, err) == (0, "")
    (report,) = json.loads(out)["result"]["reports"]
    assert report["candidate"] == word
    assert (report["passed"], report["margin"]) == (True, 1.0)


@pytest.mark.parametrize(
    "scale_exp, word, rho_hat",
    [(-600, "1,2", "2.409919865102884e-181"), (500, "1,2,1,2", "3.273390607896142e+150")],
)
def test_sfh_target_outside_the_float_range_is_input_error(capsys, tmp_path, scale_exp, word, rho_hat):
    # rho_hat ** |word| used to underflow to 0 (ZeroDivisionError) or overflow
    # (OverflowError), each a traceback with exit 1
    c = 2.0 ** scale_exp
    t = MatrixTuple("real", (c * np.array([[0.0, 1.0], [0.5, 0.0]]),
                             c * np.array([[0.0, 0.3], [1.0, 0.0]])))
    path = tmp_path / "t.json"
    path.write_text(to_json(t))
    norm_path = _norm_file(tmp_path, "max.json", WeightedMaxNorm((1.0, 1.0)))
    code, out, err = _run(capsys, ["sfh", "--input", str(path), "--word", word,
                                   "--norm", norm_path, "--rho-hat", rho_hat])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: rho_hat ** {len(word.split(','))} = ") and err.count("\n") == 1, err


JSON_CORPUS = [
    {},
    [],
    {"empty": {}, "list": [], "nested": [[], [{}], [[1.0, 2.0], [3.0]]]},
    [1, 2.0, "three", None, True, [4], {"five": 5}],
    [True, False, None],
    [2 ** 53 + 1, -(2 ** 64), 0],
    [-0.0, 5e-324, 1e16, 1.5],
    [1e16, float("nan")],
    [float("inf"), -float("inf")],
    ["caf\u00e9", "tab\tquote\"back\\slash", "\x00\x1f", "\ud83d\ude00", ""],
    {"z": "\u2013", "a": [["x"]], "m": {"k": (1.0, 2.0)}},
    {2: "int key", 1.5: {"float key": [1.0]}},
    "scalar",
    -0.0,
    None,
]


@pytest.mark.parametrize("value", JSON_CORPUS, ids=range(len(JSON_CORPUS)))
def test_emitter_matches_json_dumps(value):
    assert tuples._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


class _Writes(io.StringIO):
    """A stdout that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def _words_argv(r, n, necklaces, primitive_only, fmt):
    flags = ["--necklaces"] * necklaces + ["--primitive-only"] * primitive_only
    return ["words", "--alphabet", str(r), "--length", str(n), *flags, "--format", fmt]


@pytest.mark.parametrize("r", [1, 2, 3, 10, 11])
def test_words_listing_matches_tuple_rendering_block_by_block(monkeypatch, r):
    # 1 KiB blocks: a handful of words each, so most listings take several
    # blocks and several writes; r >= 10 stops at n = 4 to keep this quick
    monkeypatch.setattr(config, "BLOCK_BYTES", 1024)
    for n, necklaces, primitive_only in product(range(1, 7), (False, True), (False, True)):
        if r ** n > 20000:
            continue
        source = words.enumerate_necklaces if necklaces else words.enumerate_words
        want = [words.format_word(w) for w in source(r, n)
                if not primitive_only or words.is_primitive(w)]
        blocks = list(words.word_blocks(r, n, necklaces=necklaces, primitive_only=primitive_only))
        out = _Writes()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(_words_argv(r, n, necklaces, primitive_only, "text")) == 0
        assert out.getvalue() == "".join(w + "\n" for w in want)
        assert len(out.sizes) == len(blocks)  # one write per block
        assert max(out.sizes, default=0) <= config.BLOCK_BYTES // 2
        out = _Writes()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(_words_argv(r, n, necklaces, primitive_only, "json")) == 0
        payload = {
            "command": "words",
            "config": {"alphabet": r, "budget": 10000000, "length": n,
                       "necklaces": necklaces, "primitive_only": primitive_only},
            "result": {"count": len(want), "words": want},
        }
        assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_rank1_tol_one_is_rejected_not_refuted(capsys, tmp_path):
    # example 1 has the rank-one property; at tol 1 every tuple used to come out Refuted
    path = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0.3", "--l2", "0.5"])
    assert json.loads(Path(path).read_text())["truth"]["flags"]["rank_one"] is True
    code, out, err = _run(capsys, ["rank1", "--input", path, "--depth", "6", "--tol", "1"])
    assert (code, out, err) == (2, "", "error: tol must be in (0, 1), got 1.0\n")


def test_irreducible_tol_one_or_more_is_rejected_not_a_traceback(capsys, tmp_path):
    # at drop tolerance 1 even the identity left the algebra span, whose empty
    # basis then failed to stack
    path = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0.3", "--l2", "0.5"])
    for tol in ("1", "2"):
        code, out, err = _run(capsys, ["irreducible", "--input", path, "--tol", tol])
        assert (code, out, err) == (2, "", f"error: tol must be in (0, 1), got {float(tol)}\n")


def test_out_of_range_options_exit_2_and_stdout_stays_strict_json(capsys, tmp_path):
    path = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0.3", "--l2", "0.5"])
    norm_path = _norm_file(tmp_path, "max.json", WeightedMaxNorm((1.0, 1.0)))
    approx = ["barabanov", "approx", "--input", path, "--rho-hat", "1"]
    sfh = ["sfh", "--input", path, "--word", "1,2", "--norm", norm_path, "--rho-hat", "1"]
    rejected = [
        (approx + ["--max-iter", "0"], "max_iter must be >= 1, got 0"),
        (approx + ["--max-iter", "-1"], "max_iter must be >= 1, got -1"),
        (approx + ["--tol", "inf"], "tol must be finite, got inf"),
        (["bounds", "--input", path, "--close-tol", "nan"], "close-tol must be >= 0, got nan"),
        (["bounds", "--input", path, "--close-tol", "-1"], "close-tol must be >= 0, got -1.0"),
        (["bounds", "--input", path, "--close-tol", "inf"], "close-tol must be finite, got inf"),
        (["rank1", "--input", path, "--tol", "inf"], "tol must be finite, got inf"),
        (["irreducible", "--input", path, "--rounds", "-1"], "rounds must be >= 0, got -1"),
        (["irreducible", "--input", path, "--tol", "inf"], "tol must be finite, got inf"),
        (["barabanov", "verify", "--input", path, "--norm", norm_path, "--rho-hat", "1",
          "--tol", "inf"], "tol must be finite, got inf"),
        (sfh + ["--tol", "inf"], "tol must be finite, got inf"),
        (sfh + ["--tol", "1"], "tol must be in (0, 1), got 1.0"),
        (sfh + ["--tol", "1.5"], "tol must be in (0, 1), got 1.5"),
        (sfh + ["--norm-check-tol", "nan"], "norm-check-tol must be >= 0, got nan"),
    ]
    for argv, reason in rejected:
        assert _run(capsys, argv) == (2, "", f"error: {reason}\n"), argv
    # the smallest accepted values give standard JSON
    accepted = [
        approx + ["--max-iter", "1"],
        ["bounds", "--input", path, "--close-tol", "0"],
        ["irreducible", "--input", path, "--rounds", "0"],
        sfh + ["--norm-check-tol", "0"],
        ["barabanov", "verify", "--input", path, "--norm", norm_path, "--rho-hat", "1", "--tol", "0"],
    ]
    for argv in accepted:
        code, out, _ = _run(capsys, argv)
        assert code == 0, argv
        _strict_json(out)


def test_words_listing_over_a_wide_alphabet_ends_with_its_last_letter(capsys):
    code, out, _ = _run(capsys, ["words", "--alphabet", "300", "--length", "2", "--format", "text"])
    lines = out.splitlines()
    assert code == 0 and len(lines) == 300 ** 2
    assert lines[0] == "1,1" and lines[-1] == "300,300"


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


def test_text_format_numbers_the_items_of_a_list_of_reports(capsys, tmp_path):
    path = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0", "--l2", "0"])
    norm_path = _norm_file(tmp_path, "max.json", WeightedMaxNorm((1.0, 1.0)))
    argv = ["sfh", "--input", path, "--word", "1,2", "--norm", norm_path, "--rho-hat", "1"]
    code, out, _ = _run(capsys, argv + ["--format", "text"])
    assert code == 0
    assert out.splitlines() == [
        'reports.0.candidate = "1,2"',
        f"reports.0.caveat = {json.dumps(SFH_CAVEAT)}",
        "reports.0.depth = 2",
        "reports.0.margin = 1.0",
        "reports.0.norm_count = 1",
        "reports.0.offenders = []",
        "reports.0.passed = true",
        "reports.0.rho_hat = 1.0",
    ]


def test_sfh_rejects_an_empty_word_before_loading_the_tuple(capsys, tmp_path):
    path = _construct(capsys, tmp_path, "ex1.json", ["--example", "1", "--l1", "0", "--l2", "0"])
    norm_path = _norm_file(tmp_path, "max.json", WeightedMaxNorm((1.0, 1.0)))
    for tuple_path in (path, str(tmp_path / "missing.json")):
        argv = ["sfh", "--input", tuple_path, "--word", "", "--norm", norm_path,
                "--rho-hat", "1", "--depth", "2"]
        assert _run(capsys, argv) == (2, "", "error: empty word\n")


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


def _child_env():
    src = str(Path(jsrkit.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _cli_subprocess(flags, *args, text=True, input=None):
    # a child process, so that anything printed to stderr, warnings included, is seen
    argv = [sys.executable, *flags, "-m", "jsrkit.cli", *args]
    return subprocess.run(argv, capture_output=True, text=text, env=_child_env(), input=input)


def test_irreducible_near_the_float_maximum_prints_no_warning(tmp_path):
    # a @ q overflows in the algebra closure; its NaN residuals drop those
    # candidates, so numpy has nothing to report
    big = tmp_path / "big.json"
    big.write_text(to_json(MatrixTuple("real", (np.full((2, 2), 1.7e308), np.array([[1.0, 0.0], [1.0, 0.0]])))))
    proc = _cli_subprocess([], "irreducible", "--input", str(big))
    assert (proc.returncode, proc.stderr) == (0, "")
    result = json.loads(proc.stdout)["result"]
    assert result["status"] == "Refuted" and result["evidence"]["subspace_dimension"] == 1
    (line,) = result["evidence"]["basis"]
    assert np.allclose(np.abs(line), [2 ** -0.5, 2 ** -0.5], rtol=0, atol=1e-15) and line[0] * line[1] > 0


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_underflowing_tuple_is_numerical_failure(tmp_path, flags):
    # every product of length >= 2 underflows to zero: the level maximum L_2 = 0
    # under lower 2e-200 is named as underflow, not as upper 0 < lower
    tiny = tmp_path / "tiny.json"
    tiny.write_text(to_json(MatrixTuple("real", (np.full((2, 2), 1e-200),))))
    proc = _cli_subprocess(flags, "bounds", "--input", str(tiny), "--depth", "3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "numerical failure: products of length 2 underflow; the tuple's scale is out of range\n"
    )


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_overflowing_tuple_is_numerical_failure(tmp_path, flags):
    # every product of length 2 overflows to inf: one line, no numpy warning before it
    big = tmp_path / "big.json"
    big.write_text(to_json(MatrixTuple("real", (np.full((2, 2), 1e200),))))
    proc = _cli_subprocess(flags, "bounds", "--input", str(big), "--depth", "3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "numerical failure: products of length 2 overflow; the tuple's scale is out of range\n"
    )


@pytest.mark.parametrize("command, entry", [("bounds", 1e308), ("rank1", 1e160)])
def test_results_past_the_float_range_are_numerical_failures(tmp_path, command, entry):
    # every entry is finite, but the bounds' norms (1e308) or the exterior square's minors (1e160) are not
    big = tmp_path / "big.json"
    big.write_text(to_json(MatrixTuple("real", (np.full((2, 2), entry),))))
    proc = _cli_subprocess(["-W", "error::RuntimeWarning"], command, "--input", str(big), "--depth", "1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("numerical failure: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("n", [64, 100])
def test_words_past_62_letters_pass_their_class_scan(tmp_path, n):
    # 2**n words of length n: the construction runs its off-class check and the
    # scan keeps a few rows per length, with no ceiling on the word length
    word = ",".join(["1"] * (n - 1) + ["2"])
    proc = _cli_subprocess([], "construct", "--word", word, "--alphabet", "2")
    assert (proc.returncode, proc.stderr) == (0, "")
    (tmp_path / "c.json").write_text(proc.stdout)
    (tmp_path / "w.json").write_text(json.dumps(norm_to_json_dict(WeightedMaxNorm((1.0,) * n))))
    proc = _cli_subprocess([], "sfh", "--input", str(tmp_path / "c.json"), "--word", word,
                           "--norm", str(tmp_path / "w.json"), "--rho-hat", "1", "--samples", "64")
    assert (proc.returncode, proc.stderr) == (0, "")
    (report,) = json.loads(proc.stdout)["result"]["reports"]
    assert (report["passed"], report["margin"]) == (True, 1.0)


def test_overflowing_pruning_bound_keeps_every_prefix(capsys, tmp_path):
    # the products of a large nilpotent slot stay finite, but its norm squared does not
    path = tmp_path / "nil.json"
    path.write_text(to_json(MatrixTuple("real", (np.array([[0.0, 1e200], [0.0, 0.0]]),))))
    code, out, err = _run(capsys, ["bounds", "--input", str(path), "--depth", "3"])
    assert code == 0 and err == ""
    result = json.loads(out)["result"]
    assert (result["lower"], result["upper"], result["upper_level"]) == (0.0, 0.0, 2)


# One fixed invocation per reporting command and the config block it prints.
# "P" and "N" are the tuple and norm files, in the working directory.
CONFIG_CASES = {
    "bounds": (
        ["bounds", "--input", "P", "--depth", "2"],
        {"budget": 10000000, "close_tol": 1e-09, "depth": 2, "input": "P"},
    ),
    "rank1": (
        ["rank1", "--input", "P", "--depth", "1"],
        {"budget": 10000000, "depth": 1, "input": "P", "tol": 1e-09},
    ),
    "irreducible": (
        ["irreducible", "--input", "P", "--seed", "11"],
        {"input": "P", "rounds": 200, "seed": 11, "tol": 1e-09},
    ),
    "barabanov-approx": (
        ["barabanov", "approx", "--input", "P", "--depth", "2", "--tol", "1e-9"],
        {"budget": 10000000, "depth": 2, "input": "P", "max_iter": 500, "mesh": 720,
         "rho_hat": 1.0, "step_tol": 1e-09},
    ),
    "barabanov-verify": (
        ["barabanov", "verify", "--input", "P", "--norm", "N", "--samples", "64", "--seed", "5"],
        {"budget": 10000000, "depth": 4, "input": "P", "mesh": 720, "norm": "N",
         "rho_hat": 1.0, "samples": 64, "seed": 5, "tol": 1e-09},
    ),
    "sfh-word": (
        ["sfh", "--input", "P", "--word", "1,2", "--norm", "N", "--norm", "N", "--tol", "0.01"],
        {"budget": 10000000, "depth": 4, "input": "P", "mesh": 720, "norm_check_tol": 0.001,
         "norms": ["N", "N"], "offender_tol": 0.01, "rho_hat": 1.0, "samples": None,
         "seed": 0, "word": "1,2"},
    ),
    "sfh-search": (
        ["sfh", "--input", "P", "--depth", "2"],
        {"budget": 10000000, "depth": 2, "input": "P", "mesh": 720, "norm_check_tol": 0.001,
         "norms": "approximated", "offender_tol": 1e-06, "rho_hat": 1.0, "samples": None,
         "seed": 0, "word": None},
    ),
    "words": (
        ["words", "--alphabet", "2", "--length", "3", "--necklaces", "--format", "json"],
        {"alphabet": 2, "budget": 10000000, "length": 3, "necklaces": True,
         "primitive_only": False},
    ),
}


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_config_block_echoes_every_option(capsys, tmp_path, monkeypatch, case):
    _construct(capsys, tmp_path, "P", ["--example", "1", "--l1", "0", "--l2", "0"])
    _norm_file(tmp_path, "N", WeightedMaxNorm((1.0, 1.0)))
    monkeypatch.chdir(tmp_path)
    argv, config = CONFIG_CASES[case]
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    assert json.loads(out)["config"] == config


HELP = {
    "bounds": """\
usage: jsrkit bounds [-h] --input INPUT [--format {json,text}] [--strict]
                     [--depth DEPTH] [--budget BUDGET] [--close-tol CLOSE_TOL]

options:
  -h, --help            show this help message and exit
  --input INPUT         path to tuple JSON
  --format {json,text}
  --strict              exit 1 on Unknown / failed / non-converged results
  --depth DEPTH
  --budget BUDGET
  --close-tol CLOSE_TOL
""",
    "rank1": """\
usage: jsrkit rank1 [-h] --input INPUT [--format {json,text}] [--strict]
                    [--depth DEPTH] [--budget BUDGET] [--tol TOL]

options:
  -h, --help            show this help message and exit
  --input INPUT         path to tuple JSON
  --format {json,text}
  --strict              exit 1 on Unknown / failed / non-converged results
  --depth DEPTH
  --budget BUDGET
  --tol TOL
""",
    "irreducible": """\
usage: jsrkit irreducible [-h] --input INPUT [--format {json,text}] [--strict]
                          [--tol TOL] [--seed SEED] [--rounds ROUNDS]

options:
  -h, --help            show this help message and exit
  --input INPUT         path to tuple JSON
  --format {json,text}
  --strict              exit 1 on Unknown / failed / non-converged results
  --tol TOL
  --seed SEED
  --rounds ROUNDS
""",
    "barabanov": """\
usage: jsrkit barabanov [-h] {approx,verify} ...

positional arguments:
  {approx,verify}
    approx         planar mesh fixed-point iteration
    verify         sampled functional-equation residual

options:
  -h, --help       show this help message and exit
""",
    "barabanov approx": """\
usage: jsrkit barabanov approx [-h] --input INPUT [--format {json,text}]
                               [--strict] [--rho-hat RHO_HAT] [--depth DEPTH]
                               [--budget BUDGET] [--mesh MESH]
                               [--max-iter MAX_ITER] [--tol TOL]

options:
  -h, --help            show this help message and exit
  --input INPUT         path to tuple JSON
  --format {json,text}
  --strict              exit 1 on Unknown / failed / non-converged results
  --rho-hat RHO_HAT     defaults to the midpoint of certified bounds
  --depth DEPTH
  --budget BUDGET
  --mesh MESH
  --max-iter MAX_ITER
  --tol TOL
""",
    "barabanov verify": """\
usage: jsrkit barabanov verify [-h] --input INPUT [--format {json,text}]
                               [--strict] --norm NORM [--rho-hat RHO_HAT]
                               [--depth DEPTH] [--budget BUDGET] [--mesh MESH]
                               [--samples SAMPLES] [--seed SEED] [--tol TOL]

options:
  -h, --help            show this help message and exit
  --input INPUT         path to tuple JSON
  --format {json,text}
  --strict              exit 1 on Unknown / failed / non-converged results
  --norm NORM           path to norm JSON
  --rho-hat RHO_HAT
  --depth DEPTH
  --budget BUDGET
  --mesh MESH
  --samples SAMPLES     random sphere directions (needed when d > 2 or
                        complex)
  --seed SEED
  --tol TOL
""",
    "sfh": """\
usage: jsrkit sfh [-h] --input INPUT [--format {json,text}] [--strict]
                  [--word WORD] [--norm NORM] [--rho-hat RHO_HAT]
                  [--depth DEPTH] [--budget BUDGET] [--mesh MESH]
                  [--samples SAMPLES] [--seed SEED]
                  [--norm-check-tol NORM_CHECK_TOL] [--tol TOL]

options:
  -h, --help            show this help message and exit
  --input INPUT         path to tuple JSON
  --format {json,text}
  --strict              exit 1 on Unknown / failed / non-converged results
  --word WORD           candidate word; omit to search
  --norm NORM           path to norm JSON; repeatable; omit to approximate one
  --rho-hat RHO_HAT
  --depth DEPTH
  --budget BUDGET
  --mesh MESH
  --samples SAMPLES
  --seed SEED
  --norm-check-tol NORM_CHECK_TOL
  --tol TOL             offender admission tolerance
""",
    "construct": """\
usage: jsrkit construct [-h] (--example EXAMPLE | --word WORD)
                        [--alphabet ALPHABET] [--field {real,complex}]
                        [--l1 L1] [--l2 L2] [--lam LAM]

options:
  -h, --help            show this help message and exit
  --example EXAMPLE     catalogue id 1..5
  --word WORD           characteristic word, e.g. 1,2,2
  --alphabet ALPHABET   alphabet size for --word (default: largest letter)
  --field {real,complex}
  --l1 L1
  --l2 L2
  --lam LAM
""",
    "words": """\
usage: jsrkit words [-h] --alphabet ALPHABET --length LENGTH [--necklaces]
                    [--primitive-only] [--budget BUDGET]
                    [--format {json,text}]

options:
  -h, --help            show this help message and exit
  --alphabet ALPHABET
  --length LENGTH
  --necklaces           one representative per rotation class
  --primitive-only
  --budget BUDGET
  --format {json,text}
""",
}


@pytest.mark.parametrize("subcommand", sorted(HELP))
def test_subcommand_help_is_unchanged(capsys, monkeypatch, subcommand):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    with pytest.raises(SystemExit) as exit_info:
        main([*subcommand.split(), "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == HELP[subcommand]


# main builds one subparser for a named command and the full parser otherwise;
# what either can print is pinned here
COMMANDS = ("bounds", "rank1", "irreducible", "barabanov", "sfh", "construct", "words")

TOP_USAGE = """\
usage: jsrkit [-h]
              {bounds,rank1,irreducible,barabanov,sfh,construct,words} ...
"""

TOP_HELP = TOP_USAGE + """
Joint-spectral-radius analysis of finite matrix tuples.

positional arguments:
  {bounds,rank1,irreducible,barabanov,sfh,construct,words}
    bounds              certified lower/upper bounds
    rank1               exterior-square rank-one test
    irreducible         common-invariant-subspace test
    barabanov           extremal norm approximation/verification
    sfh                 offender scan for a candidate word
    construct           emit a reference tuple as JSON
    words               list words or necklace representatives

options:
  -h, --help            show this help message and exit
"""


def _exit_and_streams(capsys, call):
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_top_level_help_is_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit_and_streams(capsys, lambda: main(["--help"])) == (0, TOP_HELP, "")


def test_parser_errors_are_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _exit_and_streams(capsys, lambda: main(["nope"]))
    unknown = TOP_USAGE + "jsrkit: error: argument command: invalid choice: 'nope' (choose from %s)\n"
    # newer argparse releases list the choices without quotes
    assert (code, out) == (2, "")
    assert err in (unknown % ", ".join(map(repr, COMMANDS)), unknown % ", ".join(COMMANDS))

    assert _exit_and_streams(capsys, lambda: main(["bounds"])) == (2, "", """\
usage: jsrkit bounds [-h] --input INPUT [--format {json,text}] [--strict]
                     [--depth DEPTH] [--budget BUDGET] [--close-tol CLOSE_TOL]
jsrkit bounds: error: the following arguments are required: --input
""")
    # the top-level parser reports leftovers, with its usage line naming every command
    leftover = ["words", "--alphabet", "2", "--length", "3", "extra"]
    assert _exit_and_streams(capsys, lambda: main(leftover)) == (
        2, "", TOP_USAGE + "jsrkit: error: unrecognized arguments: extra\n"
    )


@pytest.mark.parametrize("argv", [["words", "--alphabet", "2", "--length", "3", "--necklaces"],
                                  ["nope"], ["--help"]])
def test_main_reads_sys_argv_like_an_argument_list(capsys, monkeypatch, argv):
    # the console script's run() calls main() with no arguments
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", ["jsrkit", *argv])
    assert _exit_and_streams(capsys, main) == _exit_and_streams(capsys, lambda: main(list(argv)))


# one invocation per exit code: a listing, an sfh scan whose offender (1,1)
# fails --strict, and a malformed input file
EXIT_PATHS = {
    0: ["words", "--alphabet", "3", "--length", "8", "--necklaces"],
    1: ["sfh", "--input", "ex2.json", "--word", "1,2", "--norm", "w.json", "--strict"],
    2: ["bounds", "--input", "bad.json", "--depth", "2"],
}


def _exit_path_argv(capsys, tmp_path, code):
    _construct(capsys, tmp_path, "ex2.json", ["--example", "2", "--lam", "0.5"])
    _norm_file(tmp_path, "w.json", WeightedMaxNorm((1.0, 0.5)))
    (tmp_path / "bad.json").write_text("{")
    return [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in EXIT_PATHS[code]]


class _Exited(Exception):
    """Raised by the os._exit that these tests put in place, so that run() stops there as it would."""


class _RecordedStream(io.StringIO):
    """A text stream that records each flush in events under its name."""

    def __init__(self, name, events):
        super().__init__()
        self.name, self.events = name, events

    def flush(self):
        self.events.append(f"flush {self.name}")
        super().flush()


def _recorded_exit(monkeypatch, events):
    def _exit(code):
        events.append(f"exit {code}")
        raise _Exited

    monkeypatch.setattr(os, "_exit", _exit)


@pytest.mark.parametrize("code", sorted(EXIT_PATHS))
def test_process_entry_prints_what_main_prints_then_exits_at_once(capsys, tmp_path, monkeypatch, code):
    argv = _exit_path_argv(capsys, tmp_path, code)
    proc = _cli_subprocess([], *argv, text=False)
    in_process, out, err = _run(capsys, argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (in_process, out.encode(), err.encode())
    assert in_process == code
    # run() hands main's code to os._exit only once main has returned and both
    # streams are flushed, and only when nothing else has work left at exit
    events = []

    def recorded_main():
        returned = main()
        events.append("main returned")
        return returned

    monkeypatch.setattr(cli, "main", recorded_main)
    monkeypatch.setattr(cli, "_exit_has_work", lambda: events.append("exit checked") or False)
    monkeypatch.setattr(sys, "argv", ["jsrkit", *argv])
    streams = {name: _RecordedStream(name, events) for name in ("stdout", "stderr")}
    for name, stream in streams.items():
        monkeypatch.setattr(sys, name, stream)
    _recorded_exit(monkeypatch, events)
    with pytest.raises(_Exited):
        cli.run()
    assert events[events.index("main returned"):] == [
        "main returned", "flush stdout", "flush stderr", "exit checked", f"exit {code}"]
    assert (streams["stdout"].getvalue(), streams["stderr"].getvalue()) == (out, err)


def test_process_entry_ends_the_process_without_finalisation():
    # an atexit handler registered before run() never runs, and the listing is all written
    script = ("import atexit, sys\nfrom jsrkit import cli\natexit.register(print, 'finalised')\n"
              "sys.argv = ['jsrkit', 'words', '--alphabet', '2', '--length', '2']\nsys.exit(cli.run())\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1,1\n1,2\n2,1\n2,2\n", "")


@pytest.mark.parametrize("hook", ["setprofile", "settrace"])
def test_process_entry_returns_the_code_to_a_profile_or_trace_hook(capsys, tmp_path, monkeypatch, hook):
    # cProfile, coverage and debuggers do their work at exit, so run() leaves it to the interpreter
    argv = _exit_path_argv(capsys, tmp_path, 0)
    _, out, err = _run(capsys, argv)
    monkeypatch.setattr(sys, "argv", ["jsrkit", *argv])
    _recorded_exit(monkeypatch, [])
    set_hook, get_hook = getattr(sys, hook), getattr(sys, hook.replace("set", "get"))
    previous = get_hook()
    set_hook(lambda *args: None)
    try:
        code = cli.run()
    finally:
        set_hook(previous)
    assert code == 0 and capsys.readouterr() == (out, err)


@pytest.mark.parametrize(("closed", "code"), [("stdout", 2), ("stderr", 0)])
def test_process_entry_returns_the_code_when_a_flush_fails(capsys, tmp_path, monkeypatch, closed, code):
    # a closed file raises ValueError on flush; main writes only to the other stream
    argv = _exit_path_argv(capsys, tmp_path, code)
    monkeypatch.setattr(sys, "argv", ["jsrkit", *argv])
    _recorded_exit(monkeypatch, [])
    stream = io.TextIOWrapper(io.BytesIO())
    stream.close()
    monkeypatch.setattr(sys, closed, stream)
    assert cli.run() == code


def test_process_entry_leaves_exit_work_to_the_interpreter():
    # python -i reads its session after the module, and cProfile prints its report
    words_argv = ["words", "--alphabet", "2", "--length", "3"]
    session = _cli_subprocess(["-i"], *words_argv, input="print(6 * 7)\n")
    assert session.returncode == 0 and session.stdout.endswith("2,2,2\n42\n"), session
    profiled = _cli_subprocess(["-m", "cProfile"], *words_argv)
    assert profiled.returncode == 0 and profiled.stdout.startswith("1,1,1\n"), profiled
    assert " function calls " in profiled.stdout


def test_a_reader_that_closes_the_pipe_early_gets_exit_1_and_no_traceback():
    # jsrkit words ... | head -1: the listing is far larger than a pipe's buffer
    argv = [sys.executable, "-m", "jsrkit.cli", "words", "--alphabet", "3", "--length", "12", "--necklaces"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env()) as proc:
        assert proc.stdout.readline() == b"1,1,1,1,1,1,1,1,1,1,1,1\n"
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stderr) == (1, b"")


def test_a_refusal_whose_stderr_reader_has_gone_still_exits_2(tmp_path):
    # the one-line reason is lost, its exit code is not, and nothing reaches stdout
    read, write = os.pipe()
    os.close(read)
    argv = [sys.executable, "-m", "jsrkit.cli", "bounds", "--input", str(tmp_path / "missing.json")]
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=write, env=_child_env(), timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stdout) == (2, b"")


def test_main_leaves_the_callers_collector_as_it_is(capsys, tmp_path):
    # tests, perfbench's traced pass and library users call main in process and keep normal GC
    frozen = gc.get_freeze_count()
    for code in (0, 2):
        assert _run(capsys, _exit_path_argv(capsys, tmp_path, code))[0] == code
        assert gc.get_freeze_count() == frozen and gc.isenabled()
