#!/usr/bin/env python3
"""Alternating benchmark pairs between two checkouts, summarized as a BENCH file.

Usage:

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --label NAME \\
        --run search6:1 --run gaussian_ug8:2 --traced search6:1

Each ``--run WORKLOAD:SEED`` runs ten pairs of ``python3 perfbench/run.py
--workload WORKLOAD --seed SEED --seconds S --trace 0``, one run at a time,
each side in its own tree; even pairs run the parent first, odd pairs the
change.  The run length S, the end-to-end metrics and their directions come
from the parent's ``BENCHMARK.json``.  ``BENCH_NAME.json`` is written to the
current directory with, per run and metric, each side's inclusive-method
quartiles, the pairs the change won (ties count for neither), the ratio of
the medians and the parent's interquartile range, the no-regression
verdict against the metric's bound in ``BENCHMARK.json``, and every run's
raw values.  Each ``--traced WORKLOAD:SEED`` adds one ``--trace 1`` run per side,
and the BENCH file keeps its per-layer metrics, per traced op.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# perfbench/run.py holds this seed out for verifying claims.
HELD_OUT_SEED = 2
# A gain is claimed on at least ten alternating pairs.
PAIRS = 10
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3] by the inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def change_wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads better; a tie counts for neither side."""
    if better == "higher":
        return sum(c > p for p, c in zip(parent, change))
    return sum(c < p for p, c in zip(parent, change))


def summarize_metric(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over the pairs, in the layout of the BENCH files.

    `gain` holds when the change won at least nine tenths of the pairs and
    the medians differ, in its favour, by more than the parent's
    interquartile range."""
    p, c = quartiles(parent), quartiles(change)
    wins = change_wins(parent, change, better)
    iqr = p[2] - p[0]
    ahead = c[1] - p[1] if better == "higher" else p[1] - c[1]
    return {
        "better": better,
        "parent_q1_median_q3": [round(x, 6) for x in p],
        "change_q1_median_q3": [round(x, 6) for x in c],
        "change_wins": wins,
        "median_ratio_change_over_parent": round(c[1] / p[1], 4) if p[1] else None,
        "parent_iqr": round(iqr, 6),
        "gain": 10 * wins >= 9 * len(parent) and ahead > iqr,
    }


def no_regression(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict on a metric that may not get worse by more than `bound`.

    `worse` when the change's median is worse than the parent's by more than
    bound times the parent's median; otherwise `unresolved` when the parent's
    interquartile range exceeds that margin, unless every change run beats
    every parent run; otherwise `no_worse`."""
    p, c = quartiles(parent), statistics.median(change)
    margin = bound * abs(p[1])
    behind = p[1] - c if better == "higher" else c - p[1]
    if behind > margin:
        return "worse"
    beats_all = min(change) > max(parent) if better == "higher" else max(change) < min(parent)
    if p[2] - p[0] > margin and not beats_all:
        return "unresolved"
    return "no_worse"


def summarize_runs(runs: dict[str, list[dict]], directions: dict[str, str], bounds: dict[str, float]) -> dict:
    """One workload and seed: `runs[side]` holds, pair by pair, each run's
    last-line result of perfbench/run.py.  Each metric gets its `gain` and,
    against its bound from BENCHMARK.json, its `no_regression` verdict."""
    metrics = {}
    for name, better in directions.items():
        parent, change = ([r["metrics"][name]["value"] for r in runs[side]] for side in SIDES)
        metrics[name] = summarize_metric(parent, change, better)
        metrics[name]["no_regression"] = no_regression(parent, change, better, bounds[name])
    return {
        "pairs": len(runs["parent"]),
        "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted_ops_per_run": {side: quartiles([r["attempted"] for r in runs[side]]) for side in SIDES},
        "metrics": metrics,
        "runs": {
            side: [{name: r["metrics"][name]["value"] for name in directions} for r in runs[side]]
            for side in SIDES
        },
    }


def parse_spec(spec: str) -> tuple[str, int]:
    """WORKLOAD:SEED, the seed 1 when left out."""
    workload, _, seed = spec.partition(":")
    return workload, int(seed or 1)


def run_key(workload: str, seed: int) -> str:
    return f"{workload}_seed{seed}" + ("_held_out" if seed == HELD_OUT_SEED else "")


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=900)
    if proc.returncode not in (0, 1):  # 1: some op failed its check, still a result
        raise RuntimeError(f"{tree}: {' '.join(argv)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--run", action="append", required=True, metavar="WORKLOAD:SEED")
    parser.add_argument("--traced", action="append", default=[], metavar="WORKLOAD:SEED")
    args = parser.parse_args()
    trees = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    benchmark = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    end_to_end = {}
    for spec in args.run:
        workload, seed = parse_spec(spec)
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for i in range(PAIRS):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                result = run_once(trees[side], workload, seed, seconds)
                runs[side].append(result)
                value = result["metrics"]["ops_per_s"]["value"]
                print(f"{workload} seed {seed} pair {i + 1}/{PAIRS} {side}: ops_per_s {value:.3f}", flush=True)
        end_to_end[run_key(workload, seed)] = summarize_runs(runs, directions, bounds)
    per_layer = {}
    for spec in args.traced:
        workload, seed = parse_spec(spec)
        traced = {side: run_once(trees[side], workload, seed, seconds, trace=1) for side in SIDES}
        per_layer[run_key(workload, seed)] = {
            side: {"attempted": r["attempted"], "failed": r["failed"]}
            | {name: m["value"] for name, m in r["metrics"].items()}
            for side, r in traced.items()
        }
        print(f"{workload} seed {seed} traced", flush=True)
    bench = {
        "label": args.label,
        "hardware": f"{os.cpu_count()} CPUs ({platform.machine()}), Python {platform.python_version()}",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "method": (
            "parent and change each run from their own tree, one run at a time; pairs alternate which side "
            "runs first; quartiles are inclusive-method quartiles over the pairs; change_wins counts pairs "
            "where the change is better; gain: at least 9/10 wins and medians apart by more than the "
            "parent's interquartile range; no_regression: worse when the change's median is behind the "
            "parent's by more than the metric's bound times the parent's median, else unresolved when the "
            "parent's interquartile range exceeds that margin and not every change run beats every parent "
            f"run, else no_worse; seed {HELD_OUT_SEED} is the held-out seed"
        ),
        "end_to_end": end_to_end,
    }
    if per_layer:
        bench["per_layer_trace1"] = per_layer
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
