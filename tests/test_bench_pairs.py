"""The summary code of scripts/bench_pairs.py on fixed numbers; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == [2.0, 3.0, 4.0]
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == [1.75, 2.5, 3.25]
    assert bench_pairs.quartiles([7.0]) == [7.0, 7.0, 7.0]


def test_wins_follow_direction_and_ties_count_for_neither():
    parent, change = [1.0, 2.0, 3.0], [2.0, 2.0, 1.0]
    assert bench_pairs.change_wins(parent, change, "higher") == 1
    assert bench_pairs.change_wins(parent, change, "lower") == 1


def test_summarize_metric_gain_rule():
    parent = [4.0, 4.2, 3.8, 4.1, 3.9, 4.0, 4.3, 3.7, 4.0, 4.1]
    change = [x * 2 for x in parent]
    out = bench_pairs.summarize_metric(parent, change, "higher")
    assert out["parent_q1_median_q3"] == [3.925, 4.0, 4.1]
    assert out["change_q1_median_q3"] == [7.85, 8.0, 8.2]
    assert out["change_wins"] == 10
    assert out["median_ratio_change_over_parent"] == 2.0
    assert out["parent_iqr"] == pytest.approx(0.175)
    assert out["gain"] is True
    # the same numbers read as a time: the change lost every pair
    slower = bench_pairs.summarize_metric(parent, change, "lower")
    assert slower["change_wins"] == 0 and slower["gain"] is False
    # 9 wins of 10 is enough, but not a median gap inside the parent's spread
    close = [x + 0.01 for x in parent[:9]] + [parent[9] - 1]
    out = bench_pairs.summarize_metric(parent, close, "higher")
    assert out["change_wins"] == 9 and out["gain"] is False


def test_summarize_runs_layout():
    def result(ops, attempted, failed):
        return {"attempted": attempted, "failed": failed,
                "metrics": {"ops_per_s": {"value": ops}, "setup_s": {"value": 0.5}}}

    runs = {"parent": [result(1.0, 30, 0), result(2.0, 31, 0)],
            "change": [result(3.0, 64, 1), result(4.0, 64, 0)]}
    out = bench_pairs.summarize_runs(runs, {"ops_per_s": "higher", "setup_s": "lower"})
    assert out["pairs"] == 2
    assert out["failed_ops"] == {"parent": 0, "change": 1}
    assert out["attempted_ops_per_run"] == {"parent": [30.25, 30.5, 30.75], "change": [64.0, 64.0, 64.0]}
    assert out["metrics"]["ops_per_s"]["change_wins"] == 2
    assert out["metrics"]["setup_s"]["change_wins"] == 0
    assert out["runs"]["change"] == [{"ops_per_s": 3.0, "setup_s": 0.5}, {"ops_per_s": 4.0, "setup_s": 0.5}]
