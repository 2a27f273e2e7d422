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
    bounds = {"ops_per_s": 0.25, "setup_s": 0.25}
    out = bench_pairs.summarize_runs(runs, {"ops_per_s": "higher", "setup_s": "lower"}, bounds)
    assert out["pairs"] == 2
    assert out["failed_ops"] == {"parent": 0, "change": 1}
    assert out["attempted_ops_per_run"] == {"parent": [30.25, 30.5, 30.75], "change": [64.0, 64.0, 64.0]}
    assert out["metrics"]["ops_per_s"]["change_wins"] == 2
    assert out["metrics"]["setup_s"]["change_wins"] == 0
    assert out["runs"]["change"] == [{"ops_per_s": 3.0, "setup_s": 0.5}, {"ops_per_s": 4.0, "setup_s": 0.5}]
    assert out["metrics"]["ops_per_s"]["no_regression"] == "no_worse"
    assert out["metrics"]["setup_s"]["no_regression"] == "no_worse"


def test_no_regression_verdicts():
    verdict = bench_pairs.no_regression
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]  # median 1.0, IQR 0.02
    # a time 30 % above the parent's median is worse at a 0.25 bound, 20 % is not
    assert verdict(parent, [x * 1.3 for x in parent], "lower", 0.25) == "worse"
    assert verdict(parent, [x * 1.2 for x in parent], "lower", 0.25) == "no_worse"
    # a rate reads the other way round
    assert verdict(parent, [x * 0.7 for x in parent], "higher", 0.25) == "worse"
    assert verdict(parent, [x * 1.3 for x in parent], "higher", 0.25) == "no_worse"
    assert verdict(parent, [x * 1.3 for x in parent], "lower", 0.35) == "no_worse"
    # a parent spread wider than the margin leaves a close median unresolved
    noisy = [0.13, 0.15, 0.43, 0.14, 0.30, 0.16, 0.40, 0.15, 0.29, 0.14]  # median 0.155, IQR 0.155
    assert verdict(noisy, [0.18] * 10, "lower", 0.25) == "unresolved"
    assert verdict(noisy, [0.16] * 10, "lower", 0.25) == "unresolved"
    # ... unless every change run beats every parent run
    assert verdict(noisy, [0.12] * 10, "lower", 0.25) == "no_worse"
    assert verdict(noisy, [0.12] * 9 + [0.135], "lower", 0.25) == "unresolved"
    # ... and worse still wins over unresolved
    assert verdict(noisy, [0.25] * 10, "lower", 0.25) == "worse"
    # a steady set-up time read 0.084 -> 0.109 s (+29 %) at a 0.25 bound
    steady = [0.080, 0.082, 0.083, 0.084, 0.084, 0.084, 0.085, 0.086, 0.087, 0.088]
    assert verdict(steady, [0.109] * 10, "lower", 0.25) == "worse"


def test_run_specs_and_keys():
    assert bench_pairs.parse_spec("search6:2") == ("search6", 2)
    assert bench_pairs.parse_spec("search6") == ("search6", 1)
    assert bench_pairs.run_key("search6", 1) == "search6_seed1"
    assert bench_pairs.run_key("search6", 2) == "search6_seed2_held_out"
