"""End-to-end command-line behaviour: plumbing, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jsrkit
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


def _bounds_subprocess(flags, path):
    # a child process, so that anything printed to stderr, warnings included, is seen
    src = str(Path(jsrkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, *flags, "-m", "jsrkit.cli", "bounds", "--input", str(path), "--depth", "3"]
    return subprocess.run(argv, capture_output=True, text=True, env=env)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_underflowing_tuple_is_numerical_failure(tmp_path, flags):
    # every product of length >= 2 underflows to zero, so upper 0 < lower 1e-200
    tiny = tmp_path / "tiny.json"
    tiny.write_text(to_json(MatrixTuple("real", (np.full((2, 2), 1e-200),))))
    proc = _bounds_subprocess(flags, tiny)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("numerical failure: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_overflowing_tuple_is_numerical_failure(tmp_path, flags):
    # every product of length 2 overflows to inf: one line, no numpy warning before it
    big = tmp_path / "big.json"
    big.write_text(to_json(MatrixTuple("real", (np.full((2, 2), 1e200),))))
    proc = _bounds_subprocess(flags, big)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "numerical failure: products of length 2 overflow; the tuple's scale is out of range\n"
    )


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
