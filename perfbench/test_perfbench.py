"""Self-tests of the benchmark: its checks reject wrong answers, and the
traced in-process pass prints exactly what the CLI subprocess prints.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, set_up  # noqa: E402

# the cheapest op of each workload
BYTE_IDENTICAL_OPS = {
    "necklace-sweep": "words-r2-n16-json",
    "dense-products": "irreducible-block35",
    "planar-norm": "verify-ex2-wmax",
}


@pytest.fixture(scope="module")
def runner():
    return run.Runner(SRC)


def _op(workload, label):
    (op,) = [op for op in workload.ops if op.label == label]
    return op


def _prepared(name, runner, tmp_path):
    workload = WORKLOADS[name](7)
    inputs = set_up(workload, tmp_path, runner.output)
    return workload, inputs


def test_checker_counts_corrupted_outputs_as_failed(runner, tmp_path):
    workload, inputs = _prepared("necklace-sweep", runner, tmp_path)
    op = _op(workload, "bounds-ex4-d10")
    code, out, err, _, _ = runner.run(op.argv, tmp_path)
    checker = run.Checker(inputs)
    assert checker.ok(op, code, out, err)

    report = json.loads(out)
    report["result"]["lower"] = report["result"]["upper"] = 1.5  # excludes jsr = 1
    assert not checker.ok(op, code, json.dumps(report))
    assert not checker.ok(op, 2, out, "error: boom")  # unexpected exit code
    assert len(checker.failures) == 2


def test_checker_rejects_flipped_verdict(runner, tmp_path):
    workload, inputs = _prepared("dense-products", runner, tmp_path)
    op = _op(workload, "irreducible-block35")
    code, out, err, _, _ = runner.run(op.argv, tmp_path)
    checker = run.Checker(inputs)
    assert checker.ok(op, code, out, err)
    report = json.loads(out)
    report["result"]["status"] = "Certified"
    assert not checker.ok(op, code, json.dumps(report))


def test_checker_ignores_unknown_keys(runner, tmp_path):
    workload, inputs = _prepared("dense-products", runner, tmp_path)
    op = _op(workload, "irreducible-block35")
    code, out, err, _, _ = runner.run(op.argv, tmp_path)
    report = json.loads(out)
    report["result"]["stats"] = {"products": 12}
    assert run.Checker(inputs).ok(op, code, json.dumps(report))


@pytest.mark.parametrize("name", sorted(BYTE_IDENTICAL_OPS))
def test_traced_pass_prints_what_the_subprocess_prints(name, runner, tmp_path, monkeypatch):
    workload, _ = _prepared(name, runner, tmp_path)
    op = _op(workload, BYTE_IDENTICAL_OPS[name])
    code, out, _, _, _ = runner.run(op.argv, tmp_path)

    from jsrkit import cli

    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    monkeypatch.chdir(tmp_path)
    try:
        traced_code, traced_out = run.call_main(cli.main, op.argv)
    finally:
        uninstall()
    assert (traced_code, traced_out) == (code, out)
    assert tr.span_count > 0 and tr.calls[("cli", "main")] == 1
    assert sum(tr.self_s.values()) > 0


def test_tracer_uninstall_restores_every_binding():
    import importlib

    import jsrkit
    from jsrkit import cli, words

    bounds_module = importlib.import_module("jsrkit.bounds")

    def bindings():
        return (cli.jsr_bounds, bounds_module.bounds, jsrkit.bounds, words.canonical_rotation)

    before = bindings()
    uninstall = tracing.install(tracing.Tracer())
    wrapped = bindings()
    uninstall()
    assert all(a is not b for a, b in zip(before, wrapped))
    assert wrapped[0] is wrapped[1] is wrapped[2]  # one wrapper, every alias
    assert bindings() == before


def test_lazy_iterators_are_timed_per_item():
    from jsrkit import words

    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        it = words.enumerate_necklaces(2, 4)
        spans_after_call = tr.span_count
        listed = list(it)
    finally:
        uninstall()
    assert len(listed) == checks.necklace_count(2, 4) == 6
    # one span per next(), including the one that ends the iteration
    assert tr.span_count - spans_after_call == len(listed) + 1
    assert tr.yields[("enumerate_necklaces", None)] == 6
    assert tr.necklace_words_scanned == 16


def test_tail_is_highest_percentile_with_ten_ops_beyond():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0


def test_calibration_job_does_not_import_jsrkit():
    probe = (
        "import runpy, sys; runpy.run_path(sys.argv[1], run_name='__main__'); "
        "sys.exit('jsrkit' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", probe, str(run.CALIBRATE)],
                          env=run.child_env(SRC), timeout=60)
    assert proc.returncode == 0


def test_calibration_scales_by_the_samples_around_a_time(runner, monkeypatch):
    calibration = run.Calibration(runner, HERE)
    assert len(calibration.samples) == 1 and calibration.samples[0] > 0
    calibration.samples = [0.1]
    upcoming = iter([0.3, 0.5])

    def sample():
        calibration.samples.append(next(upcoming))
        return calibration.samples[-1]

    monkeypatch.setattr(calibration, "sample", sample)
    assert calibration.scale(1.5) == pytest.approx(1.5 * run.REF_CALIBRATION_S / 0.2)
    assert calibration.scale(1.5) == pytest.approx(1.5 * run.REF_CALIBRATION_S / 0.4)


def _fingerprint(workload):
    return json.dumps([
        workload.params,
        [op.argv for op in workload.ops],
        [getattr(step, "argv", None) for step in workload.steps],
        [getattr(step, "payload", None) for step in workload.steps],
    ], sort_keys=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_depend_only_on_the_seed(name):
    make = WORKLOADS[name]
    assert _fingerprint(make(3)) == _fingerprint(make(3))
    assert _fingerprint(make(3)) != _fingerprint(make(4))


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "planar-norm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
