"""jsrkit benchmark: seeded CLI workloads with output checks and a traced pass.

Run from the root of a jsrkit checkout:

    python3 perfbench/run.py --workload necklace-sweep --seed 1 --seconds 30 --trace 0

The program under test is the checkout's own `src/jsrkit`, run as
`python -m jsrkit.cli` subprocesses (closed loop, one client, ops back to
back), so every op pays interpreter and import start-up as users do.

--trace 0 measures the end-to-end metrics with tracing off.  Their times are
scaled to a reference machine speed by a fixed calibration job run between
ops (calibrate.py), so that the host's drift in speed cancels out.
--trace 1 runs one untraced reference pass, then traced in-process passes
that call `jsrkit.cli.main(argv)` with every layer's public functions
wrapped, and reports the per-layer metrics.  Both modes check every op's
output.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The lines before it record the environment, the inputs and the per-op detail.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import tracer as tracing
from checks import CheckError
from workloads import WARMUP, WORKLOADS, Workload, set_up

SETUP_REPEATS = 3
# One pass over each op list on the baseline (Python 3.11, numpy 2.4, 2
# cores), the calibration samples between ops included.  A run makes
# ceil(--seconds / this) passes, so the amount of work per run is fixed by
# --seconds alone: runs of the same settings compare the same op mix and the
# same tail percentile on every commit, and a faster commit finishes its run
# sooner instead of measuring more ops.
NOMINAL_PASS_S = {"necklace-sweep": 12.5, "dense-products": 5.0, "planar-norm": 4.0}
HARD_STOP_S = 140.0  # start no new pass after this, to end well inside 180 s
TAIL_BEYOND = 10  # op_tail_s: highest percentile with at least this many ops beyond it
STARTUP_SAMPLES = 5
CALIBRATE = Path(__file__).with_name("calibrate.py")
# Reported times are in reference seconds: seconds on a machine that runs
# calibrate.py in exactly this long.  The value is the job's typical time on
# the baseline, so reference seconds read close to wall seconds there.
REF_CALIBRATION_S = 0.2


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Runs one jsrkit CLI invocation as a subprocess and measures it."""

    def __init__(self, src: Path) -> None:
        self.env = child_env(src)

    def run(self, argv, cwd: Path):
        """Returns (exit code, stdout, stderr, seconds, max RSS in MiB)."""
        cmd = [sys.executable, "-m", "jsrkit.cli", *argv]
        with open(cwd / ".stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=subprocess.PIPE, stderr=err)
            try:
                with proc.stdout:
                    out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        return proc.returncode, out.decode(), stderr, seconds, usage.ru_maxrss / 1024.0

    def output(self, argv, cwd: Path):
        code, out, _, _, _ = self.run(argv, cwd)
        return code, out


class Calibration:
    """Scales measured times by a fixed job's time around them.

    On a shared host the speed of the whole machine drifts by a quarter or
    more over minutes, and jsrkit ops and calibrate.py slow down together.
    Each measured time is divided by the mean of the calibration samples just
    before and just after it, and multiplied by REF_CALIBRATION_S.
    """

    def __init__(self, runner: Runner, cwd: Path) -> None:
        self.cmd = [sys.executable, str(CALIBRATE)]
        self.env, self.cwd = runner.env, cwd
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> float:
        start = time.perf_counter()
        subprocess.run(self.cmd, cwd=self.cwd, env=self.env, check=True)
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    def scale(self, seconds: float) -> float:
        """`seconds`, just measured, in reference seconds."""
        before = self.samples[-1]
        after = self.sample()
        return seconds * REF_CALIBRATION_S / ((before + after) / 2)


class Checker:
    """Checks op outputs; an identical output of the same op is checked once."""

    def __init__(self, inputs: dict) -> None:
        self.inputs = inputs
        self._seen: dict = {}
        self.failures: list[str] = []

    def ok(self, op, code: int, stdout: str, stderr: str = "") -> bool:
        key = (op.label, code, stdout)
        if key not in self._seen:
            problem = None
            if code != 0:
                problem = f"exit {code}: {stderr.strip()[-300:]}"
            else:
                try:
                    op.check(stdout, self.inputs)
                except CheckError as exc:
                    problem = str(exc)
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    problem = f"malformed output: {type(exc).__name__}: {exc}"
            self._seen[key] = problem
        problem = self._seen[key]
        if problem is not None:
            self.failures.append(f"{op.label}: {problem}")
        return problem is None


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_pass(workload: Workload, runner: Runner, workdir: Path):
    """One pass over the op list; returns (wall seconds, per-op results)."""
    results = []
    start = time.perf_counter()
    for op in workload.ops:
        results.append(runner.run(op.argv, workdir))
    return time.perf_counter() - start, results


def untraced(workload, runner, calibration, workdir, checker, passes, deadline):
    """Passes over the op list, each op timed between two calibration samples."""
    walls, raw_walls, latencies, raw_latencies, rss = [], [], [], [], []
    per_op = {op.label: [] for op in workload.ops}
    attempted = failed = 0
    for _ in range(passes):
        if walls and time.perf_counter() > deadline:
            break
        wall = raw_wall = 0.0
        for op in workload.ops:
            code, out, err, seconds, maxrss = runner.run(op.argv, workdir)
            scaled = calibration.scale(seconds)
            attempted += 1
            failed += not checker.ok(op, code, out, err)
            wall += scaled
            raw_wall += seconds
            latencies.append(scaled)
            raw_latencies.append(seconds)
            per_op[op.label].append(scaled)
            rss.append(maxrss)
        walls.append(wall)
        raw_walls.append(raw_wall)
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "op_p50_s": metric(statistics.median(latencies), "s"),
        "op_tail_s": metric(tail_value, "s"),
        "peak_rss_mb": metric(max(rss), "MiB"),
        "ok_ratio": metric((attempted - failed) / attempted, "1"),
    }
    detail = {
        "passes": len(walls),
        "pass_wall_s": walls,
        "ops": len(latencies),
        "op_tail_percentile": tail_pct,
        "failed_ratio": failed / attempted,
        "op_latency_s": per_op,
        "raw_pass_wall_s": raw_walls,
        "raw_op_p50_s": statistics.median(raw_latencies),
        "calibration_s": calibration.samples,
    }
    return attempted, failed, metrics, detail


def startup_seconds(runner: Runner, workdir: Path) -> float:
    cmd = [sys.executable, "-c", "import jsrkit.cli"]
    samples = []
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=workdir, env=runner.env, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def call_main(main, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects an op
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def traced(workload, runner, workdir, checker, passes, deadline, spans_path):
    """Reference pass in subprocesses, then traced in-process passes."""
    n_ops = len(workload.ops)
    startup = startup_seconds(runner, workdir)
    ref_wall, ref = run_pass(workload, runner, workdir)
    attempted = failed = 0
    for op, (code, out, err, _, _) in zip(workload.ops, ref):
        attempted += 1
        failed += not checker.ok(op, code, out, err)

    from jsrkit import cli

    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    walls = []
    cwd = os.getcwd()
    os.chdir(workdir)  # ops name their input files relative to the work directory
    try:
        for _ in range(max(1, passes // 2)):  # traced passes run slower; keep the run short
            if walls and time.perf_counter() > deadline:
                break
            outputs = []
            start = time.perf_counter()
            for i, op in enumerate(workload.ops):
                tr.op = i
                outputs.append(call_main(cli.main, op.argv))
            walls.append(time.perf_counter() - start)
            for op, (code, out), (ref_code, ref_out, *_) in zip(workload.ops, outputs, ref):
                attempted += 1
                same = code == ref_code and out == ref_out
                if not same:
                    checker.failures.append(f"{op.label}: traced output differs from the subprocess")
                failed += not (checker.ok(op, code, out) and same)
    finally:
        os.chdir(cwd)
        uninstall()
    tr.save(spans_path)

    k = len(walls)
    wall = sum(walls) / k
    calls = dict.fromkeys(tracing.LAYERS, 0)  # totals over the traced passes
    for (layer, _), count in tr.calls.items():
        calls[layer] += count
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = metric(calls[layer] / k, "count")
        metrics[f"{layer}.self_s"] = metric(tr.self_s[layer] / k, "s")
        metrics[f"{layer}.failed"] = metric(tr.failed[layer], "count")

    def ratio(num, den):
        return num / den if den else 0.0

    necklaces = sum(v for (fn, _), v in tr.yields.items() if fn == "enumerate_necklaces")
    op_norm_in_bounds = tr.boundary[("linalg", "op_norm", "bounds")]
    matrix_norm_calls = sum(v for (layer, fn, _), v in tr.boundary.items()
                            if (layer, fn) == ("norms", "matrix_norm"))
    scanned_in_finiteness = sum(v for (_, caller), v in tr.yields.items() if caller == "finiteness")
    untraced_net = ref_wall - n_ops * startup
    attributed = sum(tr.self_s.values()) / k
    metrics.update({
        "words.necklace_yield": metric(ratio(necklaces, tr.necklace_words_scanned), "1"),
        "linalg.us_per_call": metric(1e6 * ratio(tr.self_s["linalg"], calls["linalg"]), "us"),
        "bounds.norm_evals_per_word": metric(ratio(op_norm_in_bounds, tr.bounds_level_words), "1"),
        "norms.us_per_matrix_norm": metric(
            1e6 * ratio(tr.inclusive_s[("norms", "matrix_norm")], matrix_norm_calls), "us"),
        "norms.approx_iterations": metric(tr.approx_iterations / k, "count"),
        "finiteness.words_scanned": metric(scanned_in_finiteness / k, "count"),
        "cli.startup_s": metric(startup, "s"),
        "trace.wall_s": metric(wall, "s"),
        "trace.unattributed_s": metric(wall - attributed, "s"),
        "trace.overhead_ratio": metric(ratio(wall - untraced_net, untraced_net), "1"),
        "trace.spans": metric(tr.span_count / k, "count"),
    })
    detail = {
        "reference_pass_s": ref_wall,
        "traced_passes": k,
        "self_share": {layer: tr.self_s[layer] / k / wall for layer in tracing.LAYERS},
        "spans_file": str(spans_path),
    }
    return attempted, failed, metrics, detail


def environment(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k, "unset (library default)")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(root),
        "machine": platform.machine(),
    }


def git_commit(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "jsrkit" / "cli.py").is_file():
        print(f"perfbench: no jsrkit sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import jsrkit

    if Path(jsrkit.__file__).resolve().parent != (src / "jsrkit").resolve():
        print(f"perfbench: imported jsrkit from {jsrkit.__file__}, not {src}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    deadline = started + HARD_STOP_S
    workload = WORKLOADS[args.workload](args.seed)
    passes = max(1, math.ceil(args.seconds / NOMINAL_PASS_S[workload.name]))
    runner = Runner(src)
    base = root / ".perfbench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        calibration = Calibration(runner, root)
        setup_times, raw_setup_times = [], []
        for i in range(SETUP_REPEATS):
            workdir = base / f"setup{i}"
            start = time.perf_counter()
            inputs = set_up(workload, workdir, runner.output)
            code, _ = runner.output(WARMUP, workdir)
            raw_setup_times.append(time.perf_counter() - start)
            setup_times.append(calibration.scale(raw_setup_times[-1]))
            if code != 0:
                raise RuntimeError(f"warm-up invocation exited {code}")
        checker = Checker(inputs)
        if args.trace:
            spans = root / ".perfbench" / f"spans-{workload.name}-{args.seed}.npz"
            attempted, failed, metrics, detail = traced(
                workload, runner, workdir, checker, passes, deadline, spans)
        else:
            attempted, failed, metrics, detail = untraced(
                workload, runner, calibration, workdir, checker, passes, deadline)
            metrics["setup_s"] = metric(statistics.median(setup_times), "s")
    finally:
        shutil.rmtree(base, ignore_errors=True)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "params": workload.params,
        "trace": args.trace,
        "ops_per_pass": len(workload.ops),
        "passes_planned": passes,
        "setup_s": setup_times,
        "raw_setup_s": raw_setup_times,
        "run_s": time.perf_counter() - started,
        "env": environment(root),
        **detail,
    }
    print(json.dumps(record, sort_keys=True))
    for failure in checker.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
