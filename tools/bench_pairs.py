"""Write a BENCH file: perfbench runs of two revisions in alternating pairs.

Run from anywhere inside a jsrkit git checkout (Python 3.10+, git and tar):

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --workload dense-products \\
        --pairs 10 --seconds 30 --seed 11 --out BENCH_<n>.json

Each revision is extracted with `git archive` into its own fresh temporary
directory, so no __pycache__ and no uncommitted edit reaches either side.
Pair i runs `perfbench/run.py --workload W --seed K+i --seconds S --trace 0`
once in each checkout, the parent first in even pairs and the change first
in odd ones, and reads each run's result from its last line of stdout.

For every end-to-end metric of the change's BENCHMARK.json the file holds
both sides' values, medians and inclusive quartiles, and the pairs each side
wins, judged by the metric's "better" (a tie counts for neither).
"gain_holds" says whether a gain could be claimed: the change wins at least
nine tenths of the pairs, and its median is better than the parent's by more
than the distance between the parent's quartiles.  The file also records
every run's "correct" flag and the Python, numpy and CPU count the runs saw.
The environment passes through to the runs unchanged; with
PYTHONDONTWRITEBYTECODE=1 every op compiles its sources again.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def checkout(rev: str, dest: Path) -> str:
    """Extract rev's committed files into dest, a new directory; return the commit hash."""
    commit = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", commit],
                             check=True, capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def read_run(stdout: str) -> tuple[dict, dict]:
    """A perfbench run's result (its last line) and the environment of its record line."""
    lines = stdout.splitlines()
    result = json.loads(lines[-1])
    records = (json.loads(line) for line in reversed(lines[:-1]) if line.startswith("{"))
    env = next((record["env"] for record in records if "env" in record), {})
    return result, env


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(argv[1:])} in {root.name} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    return read_run(proc.stdout)


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(end_to_end: list[dict], pairs: list[tuple[dict, dict]]) -> dict:
    """Per end-to-end metric: each side's values, medians, quartiles and wins over the
    (parent result, change result) pairs, and whether the change's gain can be claimed."""
    summary = {}
    for spec in end_to_end:
        name, better = spec["name"], spec["better"]
        if better not in ("lower", "higher"):
            raise ValueError(f"metric {name}: better must be 'lower' or 'higher', got {better!r}")
        sign = 1.0 if better == "higher" else -1.0
        try:
            parent = [p["metrics"][name]["value"] for p, _ in pairs]
            change = [c["metrics"][name]["value"] for _, c in pairs]
        except KeyError:
            raise ValueError(f"a run reports no end-to-end metric {name!r}") from None
        gains = [sign * (c - p) for p, c in zip(parent, change)]
        wins = sum(gain > 0 for gain in gains)
        p1, p3 = quartiles(parent)
        median_gain = sign * (statistics.median(change) - statistics.median(parent))
        summary[name] = {
            "unit": spec["unit"],
            "better": better,
            "parent": parent,
            "change": change,
            "parent_median": statistics.median(parent),
            "parent_quartiles": [p1, p3],
            "change_median": statistics.median(change),
            "change_quartiles": quartiles(change),
            "change_wins": wins,
            "parent_wins": sum(gain < 0 for gain in gains),
            "gain_holds": 10 * wins >= 9 * len(pairs) and median_gain > p3 - p1,
        }
    return summary


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="revision measured as the parent")
    p.add_argument("--change", required=True, help="revision measured as the change")
    p.add_argument("--workload", required=True, help="a workload name of BENCHMARK.json")
    p.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10)")
    p.add_argument("--seconds", type=float, default=30.0, help="--seconds of each run (default 30)")
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i takes seed + i")
    p.add_argument("--out", required=True, type=Path, help="the BENCH JSON file to write")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error(f"--pairs must be >= 1, got {args.pairs}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: checkout(getattr(args, side), root) for side, root in roots.items()}
        benchmark = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.workload not in [w["name"] for w in benchmark["workloads"]]:
            raise SystemExit(f"bench_pairs: BENCHMARK.json has no workload {args.workload!r}")
        pairs, runs, env = [], [], {}
        for i in range(args.pairs):
            seed, order = args.seed + i, ("parent", "change") if i % 2 == 0 else ("change", "parent")
            results = {}
            for side in order:
                results[side], env = run_once(roots[side], args.workload, seed, args.seconds)
                runs.append({"pair": i, "side": side, "seed": seed, "correct": results[side]["correct"],
                             "attempted": results[side]["attempted"], "failed": results[side]["failed"]})
                print(f"bench_pairs: pair {i + 1}/{args.pairs} {side} seed {seed}: "
                      f"correct {results[side]['correct']}", file=sys.stderr)
            pairs.append((results["parent"], results["change"]))
    bench = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "method": f"Each revision extracted with git archive into a fresh directory; pair i ran "
                  f"seed {args.seed} + i once on each side, the parent first in even pairs. "
                  f"Quartiles are inclusive; a tie wins for neither side.",
        "parent": {"rev": args.parent, "commit": commits["parent"]},
        "change": {"rev": args.change, "commit": commits["change"]},
        "workload": args.workload,
        "pairs": args.pairs,
        "host": {key: env.get(key) for key in ("python", "numpy", "blas", "nproc", "cpu_count", "machine")},
        "all_correct": all(run["correct"] is True for run in runs),
        "summary": summarize(benchmark["end_to_end"], pairs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
