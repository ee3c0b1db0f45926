"""The benchmark's workloads: seeded input files and the op list run over them.

An op is one `jsrkit` CLI invocation plus the check its stdout must pass.
Each workload is built from the seed alone; the program only ever sees the
files that set-up writes.

Why these three (each stresses a different layer, see README.md):

* necklace-sweep: deep enumeration on 2x2 and 2x2x2 catalogue fixtures, so
  the word layer (necklace filtering) and the product sweep dominate while
  each linear-algebra call is tiny.
* dense-products: seeded random 6..28-dimensional products, so the dense
  kernels (SVD, eigenvalues) and the algebra closure dominate and pruning
  is effective.
* planar-norm: Barabanov mesh norms on real 2x2 examples, so norm
  evaluation dominates and words barely run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

Check = Callable[[str, dict], None]


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Write:
    """Set-up step: a JSON file the benchmark writes itself."""

    name: str
    payload: dict


@dataclass(frozen=True)
class Generate:
    """Set-up step: a JSON file produced by a jsrkit invocation.

    `extract` picks the file's payload out of the invocation's JSON stdout;
    without it stdout is the file.
    """

    name: str
    argv: tuple[str, ...]
    extract: Callable[[dict], dict] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    steps: tuple
    ops: tuple[Op, ...]


# Untimed first invocation after set-up: pays the cold start (page cache,
# bytecode) once, so that the first timed op is not special.
WARMUP = ("words", "--alphabet", "2", "--length", "1")


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _num(x: float) -> str:
    return repr(float(x))


def _tuple_payload(mats) -> dict:
    return {
        "field": "real",
        "r": len(mats),
        "d": mats[0].shape[0],
        "matrices": [m.tolist() for m in mats],
    }


def _primitive_word(rng: np.random.Generator, n: int) -> str:
    while True:
        w = tuple(int(x) for x in rng.integers(1, 3, size=n))
        if set(w) == {1, 2} and len(checks.rotations(w)) == n:
            return checks.format_word(w)


def necklace_sweep(seed: int) -> Workload:
    rng = _rng(seed, "necklace-sweep")
    lam = round(float(rng.uniform(0.3, 0.7)), 6)
    omega = _primitive_word(rng, 14)
    steps = (
        Generate("ex2.json", ("construct", "--example", "2", "--lam", _num(lam))),
        Generate("ex4.json", ("construct", "--example", "4", "--lam", _num(lam))),
        Write("wmax.json", {"variant": "weighted_max", "weights": [1.0, lam]}),
    )
    ones = ",".join(["1"] * 14)
    ops = (
        Op("bounds-ex2-d16", ("bounds", "--input", "ex2.json", "--depth", "16"),
           checks.bounds_check("ex2.json", 16)),
        Op("rank1-ex2-d14", ("rank1", "--input", "ex2.json", "--depth", "14"),
           checks.rank1_check("ex2.json", 14)),
        Op("sfh-ex2-1x14", ("sfh", "--input", "ex2.json", "--word", ones,
                            "--norm", "wmax.json", "--rho-hat", "1"),
           checks.sfh_word_check("ex2.json", "wmax.json", ones, expect_pass=False)),
        Op("bounds-ex4-d10", ("bounds", "--input", "ex4.json", "--depth", "10"),
           checks.bounds_check("ex4.json", 10)),
        Op("words-r3-n11", ("words", "--alphabet", "3", "--length", "11", "--necklaces"),
           checks.words_check(3, 11, "text")),
        Op("words-r2-n16-json", ("words", "--alphabet", "2", "--length", "16",
                                 "--necklaces", "--format", "json"),
           checks.words_check(2, 16, "json")),
        Op("construct-n14", ("construct", "--word", omega, "--alphabet", "2"),
           checks.construct_check(omega, 2)),
    )
    return Workload("necklace-sweep", {"lam": lam, "omega": omega}, steps, ops)


def _orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


# Base draws for the random tuples.  The run seed only applies a random
# orthogonal similarity Q A Q^T to them: the entries change with the seed
# and stay N(0, 1/d) in law, while every product norm and spectral radius,
# and so the pruning and the amount of work, stays the same.  With a fresh
# draw per seed, pruning luck alone moved `rank1 --depth 11` on the d=8 pair
# between 0.24 s and 0.70 s.
_DENSE_BASE_SEED = 20090914


def _gaussian(rng: np.random.Generator, r: int, d: int) -> list[np.ndarray]:
    return [rng.normal(0.0, 1.0 / np.sqrt(d), (d, d)) for _ in range(r)]


def dense_products(seed: int) -> Workload:
    base = np.random.default_rng(_DENSE_BASE_SEED)
    rng = _rng(seed, "dense-products")
    tuples = {"pair8.json": (2, 8), "pair12.json": (2, 12), "triple6.json": (3, 6)}
    steps = []
    for name, (r, d) in tuples.items():
        q = _orthogonal(rng, d)
        mats = [q @ a @ q.T for a in _gaussian(base, r, d)]
        steps.append(Write(name, _tuple_payload(mats)))
    blocks = []
    for _ in range(2):
        a = np.zeros((8, 8))
        a[:3, :3] = rng.normal(0.0, 1.0 / np.sqrt(8), (3, 3))
        a[3:, 3:] = rng.normal(0.0, 1.0 / np.sqrt(8), (5, 5))
        blocks.append(a)
    steps.append(Write("block35.json", _tuple_payload(blocks)))
    steps.append(Write("ell3.json", {"variant": "ellp", "p": 3.0}))
    ops = (
        Op("bounds-pair8-d13", ("bounds", "--input", "pair8.json", "--depth", "13"),
           checks.bounds_check("pair8.json", 13)),
        Op("bounds-pair12-d13", ("bounds", "--input", "pair12.json", "--depth", "13"),
           checks.bounds_check("pair12.json", 13)),
        Op("bounds-triple6-d9", ("bounds", "--input", "triple6.json", "--depth", "9"),
           checks.bounds_check("triple6.json", 9)),
        Op("rank1-pair8-d11", ("rank1", "--input", "pair8.json", "--depth", "11"),
           checks.rank1_check("pair8.json", 11)),
        Op("irreducible-pair12", ("irreducible", "--input", "pair12.json"),
           checks.irreducible_check("pair12.json", "Certified", 144)),
        Op("irreducible-block35", ("irreducible", "--input", "block35.json"),
           checks.irreducible_check("block35.json", "Refuted")),
        Op("verify-pair12-ell3", ("barabanov", "verify", "--input", "pair12.json",
                                  "--norm", "ell3.json", "--samples", "50000"),
           checks.verify_check("pair12.json", "ell3.json", expect_pass=None)),
    )
    return Workload("dense-products", {"dense_base_seed": _DENSE_BASE_SEED}, tuple(steps), ops)


def _approx_argv(tuple_name: str) -> tuple[str, ...]:
    return ("barabanov", "approx", "--input", tuple_name, "--mesh", "4096", "--rho-hat", "1")


def _result_norm(report: dict) -> dict:
    return report["result"]["norm"]


def planar_norm(seed: int) -> Workload:
    rng = _rng(seed, "planar-norm")
    l1, l2 = (round(float(x), 6) for x in rng.uniform(0.0, 0.6, size=2))
    lam = round(float(rng.uniform(0.3, 0.7)), 6)
    steps = (
        Generate("ex1.json", ("construct", "--example", "1", "--l1", _num(l1), "--l2", _num(l2))),
        Generate("ex2.json", ("construct", "--example", "2", "--lam", _num(lam))),
        Generate("ex5.json", ("construct", "--example", "5")),
        Generate("mesh1.json", _approx_argv("ex1.json"), _result_norm),
        Generate("mesh5.json", _approx_argv("ex5.json"), _result_norm),
        Write("wmax.json", {"variant": "weighted_max", "weights": [1.0, lam]}),
    )
    word = ",".join(["1,2"] * 5)
    verify = ("barabanov", "verify", "--mesh", "20000", "--rho-hat", "1")
    ops = (
        Op("approx-ex1", _approx_argv("ex1.json"), checks.approx_check("ex1.json", "mesh1.json")),
        Op("verify-ex1-mesh", verify + ("--input", "ex1.json", "--norm", "mesh1.json", "--tol", "1e-3"),
           checks.verify_check("ex1.json", "mesh1.json", expect_pass=True)),
        Op("sfh-ex1-12x5", ("sfh", "--input", "ex1.json", "--word", word,
                            "--norm", "mesh1.json", "--rho-hat", "1"),
           checks.sfh_word_check("ex1.json", "mesh1.json", word, expect_pass=True)),
        Op("sfh-ex1-search-d8", ("sfh", "--input", "ex1.json", "--depth", "8"),
           checks.sfh_search_check("ex1.json")),
        Op("verify-ex2-wmax", verify + ("--input", "ex2.json", "--norm", "wmax.json"),
           checks.verify_check("ex2.json", "wmax.json", expect_pass=True)),
        Op("approx-ex5", _approx_argv("ex5.json"), checks.approx_check("ex5.json", "mesh5.json")),
        Op("verify-ex5-mesh", verify + ("--input", "ex5.json", "--norm", "mesh5.json", "--tol", "1e-3"),
           checks.verify_check("ex5.json", "mesh5.json", expect_pass=True)),
    )
    return Workload("planar-norm", {"l1": l1, "l2": l2, "lam": lam}, steps, ops)


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "necklace-sweep": necklace_sweep,
    "dense-products": dense_products,
    "planar-norm": planar_norm,
}


def set_up(workload: Workload, workdir: Path, jsrkit) -> dict:
    """Write every input file into workdir and return them parsed, by name.

    `jsrkit(argv, cwd)` runs one CLI invocation and returns (code, stdout).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = {}
    for step in workload.steps:
        if isinstance(step, Write):
            payload = step.payload
        else:
            code, out = jsrkit(step.argv, workdir)
            if code != 0:
                raise RuntimeError(f"set-up step {' '.join(step.argv)} exited {code}")
            payload = json.loads(out)
            if step.extract is not None:
                payload = step.extract(payload)
        (workdir / step.name).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        inputs[step.name] = payload
    return inputs

