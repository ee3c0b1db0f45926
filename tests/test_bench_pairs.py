"""The BENCH writer's summary, on synthetic perfbench result lines."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ok_ratio", "unit": "1", "better": "higher", "bound": 0.01},
]


def _result(wall_s, ok_ratio=1.0):
    """A perfbench result line, as its last line of stdout reads."""
    return {"correct": True, "attempted": 21, "failed": 0,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"}, "ok_ratio": {"value": ok_ratio, "unit": "1"}}}


def _pairs(parent, change):
    return [(_result(p), _result(c)) for p, c in zip(parent, change)]


def test_a_gain_holds_on_nine_wins_and_a_gap_past_the_parents_spread():
    parent = [1.00, 1.02, 1.01, 0.99, 1.00, 1.03, 1.01, 1.00, 0.98, 1.02]
    change = [0.90, 0.91, 0.92, 0.89, 1.00, 0.93, 0.90, 0.91, 0.88, 0.92]  # pair 5 ties
    summary = bench_pairs.summarize(END_TO_END, _pairs(parent, change))
    wall = summary["wall_s"]
    assert wall["parent"] == parent and wall["change"] == change
    assert (wall["change_wins"], wall["parent_wins"]) == (9, 0)
    assert (wall["parent_median"], wall["change_median"]) == pytest.approx((1.005, 0.91))
    assert wall["parent_quartiles"] == pytest.approx([1.0, 1.0175])
    assert wall["gain_holds"] and (wall["unit"], wall["better"]) == ("s", "lower")
    # a metric that is equal in every pair is won by neither side
    ok = summary["ok_ratio"]
    assert (ok["change_wins"], ok["parent_wins"], ok["gain_holds"]) == (0, 0, False)


def test_a_gain_fails_on_eight_wins_or_a_gap_inside_the_spread():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4]
    summary = bench_pairs.summarize(END_TO_END, _pairs(parent, [p - 0.01 for p in parent]))
    assert summary["wall_s"]["change_wins"] == 5 and not summary["wall_s"]["gain_holds"]
    eight = [0.5] * 8 + [2.0, 2.0]
    summary = bench_pairs.summarize(END_TO_END, _pairs([1.0] * 10, eight))
    assert (summary["wall_s"]["change_wins"], summary["wall_s"]["parent_wins"]) == (8, 2)
    assert not summary["wall_s"]["gain_holds"]
    # higher is better for ok_ratio: a change that fails ops loses every pair
    pairs = [(_result(1.0, 1.0), _result(1.0, 0.9)), (_result(1.0, 1.0), _result(1.0, 0.95))]
    ok = bench_pairs.summarize(END_TO_END, pairs)["ok_ratio"]
    assert (ok["change_wins"], ok["parent_wins"], ok["gain_holds"]) == (0, 2, False)


def test_one_pair_has_flat_quartiles():
    wall = bench_pairs.summarize(END_TO_END, _pairs([1.0], [0.9]))["wall_s"]
    assert wall["parent_quartiles"] == [1.0, 1.0] and wall["change_quartiles"] == [0.9, 0.9]
    assert wall["change_wins"] == 1 and wall["gain_holds"]


def test_a_missing_metric_or_an_unknown_direction_is_an_error():
    pairs = [(_result(1.0), {"metrics": {"wall_s": {"value": 1.0}}})]
    with pytest.raises(ValueError, match="no end-to-end metric 'ok_ratio'"):
        bench_pairs.summarize(END_TO_END, pairs)
    with pytest.raises(ValueError, match="better must be"):
        bench_pairs.summarize([{"name": "wall_s", "unit": "s", "better": "less"}], _pairs([1.0], [1.0]))


def test_a_run_is_read_from_its_last_line_and_its_record_line():
    record = {"workload": "planar-norm", "env": {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2}}
    result = dict(_result(1.5), correct=False, failed=1)
    stdout = "\n".join(["perfbench: set-up", json.dumps(record), "FAILED op: exit 2", json.dumps(result)])
    assert bench_pairs.read_run(stdout + "\n") == (result, record["env"])
