"""A seeded boundary fuzz of the command line: malformed tuple files, norm files and argv.

Every case runs cli.main in process.  Whatever the input, nothing but
argparse's own usage exit escapes main, the exit code is 0, 1 or 2, exit 2
writes one line to stderr and nothing to stdout, and exits 0 and 1 write one
strict JSON document (no NaN or Infinity) to stdout.
"""

from __future__ import annotations

import json
import random

from jsrkit import cli

SEED = 20091031
CASES = 400

TUPLES = {
    "pair.json": {"field": "real", "r": 2, "d": 2, "matrices": [[[0.0, 1.0], [0.3, 0.0]], [[0.0, 0.5], [1.0, 0.0]]]},
    "triple.json": {"field": "real", "r": 3, "d": 3,
                    "matrices": [[[0.5, 0.1, 0.0], [0.0, 0.4, 0.2], [0.3, 0.0, 0.6]],
                                 [[0.2, 0.0, 0.7], [0.1, 0.5, 0.0], [0.0, 0.3, 0.1]],
                                 [[0.0, 0.6, 0.1], [0.4, 0.0, 0.0], [0.2, 0.2, 0.3]]]},
    "complex.json": {"field": "complex", "r": 2, "d": 2,
                     "matrices": [[[[0.5, 0.1], [0.0, 0.0]], [[0.2, 0.0], [0.0, 0.4]]],
                                  [[[0.0, 0.3], [0.6, 0.0]], [[0.0, 0.0], [0.1, -0.2]]]]},
}
NORMS = {
    "wmax.json": {"variant": "weighted_max", "weights": [1.0, 0.5]},
    "ell3.json": {"variant": "ellp", "p": 3.0},
    "mesh.json": {"variant": "mesh", "angles": [0.0, 1.0, 2.0], "values": [1.0, 1.2, 0.9]},
}

# values a mutation puts in place of a JSON value: other types, huge and non-finite numbers
ODD_VALUES = [None, True, "x", "", [], {}, 0, -1, 2 ** 70, 1e308, -1e308, 1e-320, 0.5,
              float("nan"), float("inf"), [[1.0]], [1.0, 2.0], {"re": 1.0}]


def _paths(value, path=()):
    """Every path into a JSON value, itself included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _replace(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replace(value[path[0]], path[1:], new)
    return copy


def _drop(value, path):
    """value without the item at path (a dict key or a list entry)."""
    if len(path) == 1:
        copy = dict(value) if isinstance(value, dict) else list(value)
        del copy[path[0]]
        return copy
    return _replace(value, path[:1], _drop(value[path[0]], path[1:]))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _mutated(rng: random.Random, payload) -> bytes:
    """One malformed (or still valid) file made from payload by a random operator."""
    kind = rng.choice(["retype", "drop", "nest", "shape", "text", "bytes", "truncate", "deep", "digits"])
    paths = list(_paths(payload))
    path = rng.choice(paths)
    if kind == "retype":
        value = _replace(payload, path, rng.choice(ODD_VALUES))
    elif kind == "drop" and path:
        value = _drop(payload, path)
    elif kind == "nest":
        value = _replace(payload, path, [_at(payload, path)])
    elif kind == "shape" and isinstance(_at(payload, path), list) and _at(payload, path):
        items = _at(payload, path)
        value = _replace(payload, path, items + items[:1] if rng.random() < 0.5 else items[:-1])
    else:
        value = payload
    text = json.dumps(value)  # NaN and inf come out as the NaN and Infinity literals
    if kind == "text":
        text = text.replace(rng.choice(["1.0", "0.5", "2", ","]), rng.choice(["1e999", "-1e999", "NaN", "", "]"]), 1)
    elif kind == "bytes":
        return text.encode()[:rng.randrange(len(text) + 1)] + bytes([0xff, 0xfe, rng.randrange(256)])
    elif kind == "truncate":
        text = text[:rng.randrange(len(text))]
    elif kind == "deep":
        depth = rng.choice([100, 5000, 100000])
        text = "[" * depth + ("]" * depth if rng.random() < 0.5 else "")
    elif kind == "digits":
        text = text.replace("0.5", "1" * rng.choice([30, 400, 5000]), 1)
    return text.encode()


# per option, (values in range, boundary and malformed values)
OPTIONS = {
    "--depth": (["1", "2", "3", "4"], ["-1", "0", "x", "1.5"]),
    "--budget": (["40", "1000", "100000"], ["-1", "0", "1", "5", "abc"]),
    "--tol": (["1e-9", "1e-3", "0.5"], ["0", "-1", "nan", "inf", "1e-300", "1", "2"]),
    "--seed": (["0", "7"], ["-1", "2.5"]),
    "--samples": (["16", "40"], ["-3", "0", "1", "x"]),
    "--mesh": (["32", "64"], ["-2", "0", "3"]),
    "--rho-hat": (["0.5", "1", "2"], ["-1", "0", "nan", "inf", "1e308"]),
    "--rounds": (["3", "10"], ["-1", "0"]),
    "--max-iter": (["5", "20"], ["0", "1"]),
    "--norm-check-tol": (["1e-3", "0.5"], ["-1", "0", "nan"]),
    "--word": (["1,2", "1,2,1", "2,1,1,2", "1,1,2"], ["", "0", "1,,2", "a", "3", "-1"]),
    "--lam": (["0.5", "0.9"], ["-1", "0", "1", "2", "nan"]),
    "--l1": (["0.3", "0.6"], ["0", "1", "-2"]),
    "--l2": (["0.5", "0.8"], ["0", "1", "inf"]),
    "--example": (["1", "2", "3", "4", "5"], ["0", "6"]),
    "--alphabet": (["2", "3"], ["-1", "0", "1", "300"]),
    "--length": (["1", "3", "6"], ["-1", "0", "40"]),
}


def _option(rng: random.Random, name: str) -> list[str]:
    """--name with a value in range, a boundary or malformed value, or nothing."""
    good, bad = OPTIONS[name]
    roll = rng.random()
    if roll < 0.15:
        return []
    return [name, rng.choice(good if roll < 0.85 else bad)]


def _argv(rng: random.Random, tuple_file: str, norm_file: str) -> list[str]:
    command = rng.choice(["bounds", "rank1", "irreducible", "approx", "verify", "sfh", "construct", "words"])
    inputs = ["--input", tuple_file] if rng.random() < 0.95 else []
    if command in ("bounds", "rank1"):
        argv = [command, *inputs, *_option(rng, "--depth"), *_option(rng, "--budget")]
        argv += _option(rng, "--tol") if command == "rank1" else []
    elif command == "irreducible":
        argv = [command, *inputs, *_option(rng, "--tol"), *_option(rng, "--seed"), *_option(rng, "--rounds")]
    elif command == "approx":
        argv = ["barabanov", "approx", *inputs, *_option(rng, "--rho-hat"), *_option(rng, "--depth"),
                *_option(rng, "--mesh"), *_option(rng, "--max-iter"), *_option(rng, "--tol")]
    elif command == "verify":
        argv = ["barabanov", "verify", *inputs, "--norm", norm_file, *_option(rng, "--rho-hat"),
                *_option(rng, "--depth"), *_option(rng, "--mesh"), *_option(rng, "--samples"),
                *_option(rng, "--seed"), *_option(rng, "--tol")]
    elif command == "sfh":
        norms = ["--norm", norm_file] if rng.random() < 0.7 else []
        argv = ["sfh", *inputs, *_option(rng, "--word"), *norms, *_option(rng, "--rho-hat"),
                *_option(rng, "--depth"), *_option(rng, "--mesh"), *_option(rng, "--samples"),
                *_option(rng, "--norm-check-tol"), *_option(rng, "--tol")]
    elif command == "construct":
        what = rng.choice([_option(rng, "--example"), _option(rng, "--word")])
        argv = ["construct", *what, *_option(rng, "--lam"), *_option(rng, "--l1"), *_option(rng, "--l2")]
        argv += ["--alphabet", rng.choice(["2", "3", "0"])] if rng.random() < 0.3 else []
    else:
        argv = ["words", *_option(rng, "--alphabet"), *_option(rng, "--length"), "--format", "json",
                *(["--necklaces"] if rng.random() < 0.5 else []), *_option(rng, "--budget")]
    return argv + (["--strict"] if command not in ("construct", "words") and rng.random() < 0.3 else [])


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_malformed_files_and_arguments_end_in_a_one_line_error_or_strict_json(tmp_path, capsys):
    rng = random.Random(SEED)
    for name, payload in {**TUPLES, **NORMS}.items():
        (tmp_path / name).write_text(json.dumps(payload))
    codes = []
    for case in range(CASES):
        tuple_file = str(tmp_path / rng.choice(list(TUPLES)))
        norm_file = str(tmp_path / rng.choice(list(NORMS)))
        roll = rng.random()
        if roll < 0.4:  # a mutated tuple file, a mutated norm file, or both valid
            tuple_file = str(tmp_path / f"case{case}.json")
            (tmp_path / f"case{case}.json").write_bytes(_mutated(rng, rng.choice(list(TUPLES.values()))))
        elif roll < 0.6:
            norm_file = str(tmp_path / f"case{case}.json")
            (tmp_path / f"case{case}.json").write_bytes(_mutated(rng, rng.choice(list(NORMS.values()))))
        argv = _argv(rng, tuple_file, norm_file)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error: a usage line and an error line
            err = capsys.readouterr().err
            assert exc.code == 2 and err.splitlines()[-1].startswith("jsrkit"), (argv, err)
            assert ": error: " in err.splitlines()[-1], (argv, err)
            codes.append("usage")
            continue
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            assert out == "" and err.endswith("\n") and err.count("\n") == 1, (argv, err)
        else:
            assert err == "", (argv, err)
            json.loads(out, parse_constant=_refuse_constant)
        codes.append(code)
    # the cases reach every outcome, so none of the checks above is vacuous
    assert {0, 1, 2, "usage"} <= set(codes)


def test_a_mesh_sweep_past_the_float_range_ends_in_one_line(tmp_path, capsys):
    # found by the fuzz: an entry of 1e308 overflows the first sweep's division
    # by rho_hat, whose RuntimeWarning came before the one-line refusal; the
    # reason names the overflow, not a direction mapped to zero
    pair = {"field": "real", "r": 2, "d": 2, "matrices": [[[0.0, 1e308], [0.3, 0.0]], [[0.0, 0.5], [1.0, 0.0]]]}
    (tmp_path / "big.json").write_text(json.dumps(pair))
    argv = ["barabanov", "approx", "--input", str(tmp_path / "big.json"), "--rho-hat", "0.5", "--mesh", "64"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "numerical failure: mesh values overflow; the tuple's scale is out of range\n"
