#!/usr/bin/env python3
"""graphfaith benchmark: seeded workloads over the CLI verbs, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload search6 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 2     # every workload, one table

``--trace 0`` times ops for ``--seconds`` with tracing off and reports the
end-to-end metrics.  ``--trace 1`` runs every op twice, untraced and with
every layer boundary wrapped, and reports the per-layer metrics and the
tracing overhead.  Outputs are checked after the timed phase.  The last
line of stdout is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  Per-op details and the spans go to ``.perfbench_out/`` in
the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

DEFAULT_SEED = 1
# A claim is verified on this seed, which is not used while the change is written.
HELD_OUT_SEED = 2
# Set-up runs at least this many times and for at least this long; the
# median is reported.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
OUT_DIR = wl.ROOT / ".perfbench_out"

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def set_up(workload: wl.Workload, seed: int, workdir: Path):
    """Import the program, generate this run's inputs and write their files.

    Returns (program modules, rounds of inputs)."""
    gf = wl.import_program()
    rounds = wl.plan(workload, wl.load_pool()[workload.name], seed)
    inputs = [[wl.make_input(gf, workload, entry, workdir) for entry in row] for row in rounds]
    return gf, inputs


def run_op(gf, workload, inp):
    """One op: (outputs or None, seconds, error)."""
    wl.activate(gf)
    t0 = time.perf_counter()
    try:
        outputs, error = workload.op(gf, inp), ""
    except Exception as exc:  # a crashing op is a failed op
        outputs, error = None, f"{type(exc).__name__}: {exc}"
    return outputs, time.perf_counter() - t0, error


def timed_pass(gf, workload, rounds, seconds: float):
    """Run whole rounds until ``seconds`` have passed or the rounds run out.

    Returns [(input, outputs or None, op seconds, error)], wall seconds."""
    results = []
    start = time.perf_counter()
    for row in rounds:
        results += [(inp, *run_op(gf, workload, inp)) for inp in row]
        if time.perf_counter() - start >= seconds:
            break
    return results, time.perf_counter() - start


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are ten samples or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def summarize_shape(inputs) -> str:
    keys = sorted({k for inp in inputs for k in inp.shape})
    parts = []
    for k in keys:
        vals = sorted(inp.shape[k] for inp in inputs if k in inp.shape)
        parts.append(f"{k}={vals[0]}..{vals[-1]} (median {statistics.median(vals):g})")
    return ", ".join(parts)


def evaluate(gf, workload, results) -> list[tuple[wl.Input, list[str]]]:
    """Problems per op; an op failed when its list is non-empty."""
    out = []
    for inp, outputs, _, error in results:
        problems = wl.check(gf, workload, inp, outputs)
        if error:
            problems.insert(0, error)
        out.append((inp, problems))
    return out


def paired_pass(gf, workload, rounds, seconds: float):
    """Run every op twice, on two separate copies of the program: untraced
    on ``gf`` and traced on a fresh copy, alternating which goes first, so
    that drifts in machine speed cancel out of the overhead.  Each copy keeps
    its own caches across ops, so input sharing between ops shows in both.
    Whole rounds run until ``seconds`` have passed.

    Returns (untraced results, traced results, tracer)."""
    traced_gf = wl.import_program()
    for copy in (gf, traced_gf):
        run_op(copy, workload, rounds[0][0])  # warm-up, untimed
        wl.clear_caches(copy)
    tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    for row in rounds:
        for inp in row:
            for with_trace in (False, True) if len(plain) % 2 == 0 else (True, False):
                if not with_trace:
                    plain.append((inp, *run_op(gf, workload, inp)))
                    continue
                wl.activate(traced_gf)
                tracer.op = len(traced)
                with tracer:
                    traced.append((inp, *run_op(traced_gf, workload, inp)))
        if time.perf_counter() - start >= seconds:
            break
    return plain, traced, tracer


def layer_metrics(results, traced, tracer, lines: list[str]) -> dict[str, float]:
    """Per-layer metrics of the traced ops, with the tracing overhead."""
    wall = sum(dt for _, _, dt, _ in results)
    traced_wall = sum(dt for _, _, dt, _ in traced)
    metrics = tracer.metrics(len(traced), lambda m: len(wl.skeleton_of(m)))
    metrics["trace.overhead_frac"] = traced_wall / wall - 1
    metrics["trace.absent_boundaries"] = len(tracer.absent)
    lines.append(f"traced {len(traced)} ops in {traced_wall:.2f} s; absent boundaries: {tracer.absent or 'none'}")
    self_s = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    total = sum(self_s.values())
    for key, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {key:40s} {value:10.4f} s/op  {100 * value / total:5.1f} %")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[list[str], dict]:
    """One benchmark run; returns (report lines, JSON result)."""
    workload = wl.WORKLOADS[name]
    workdir = OUT_DIR / f"work-{name}-{os.getpid()}"
    try:
        setups = []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            # The copy of the program from the previous set-up is cyclic garbage.
            gc.collect()
            t0 = time.perf_counter()
            gf, rounds = set_up(workload, seed, workdir)
            setups.append(time.perf_counter() - t0)
        wl.clear_caches(gf)
        if trace:
            results, traced, tracer = paired_pass(gf, workload, rounds, seconds)
            wall = sum(dt for _, _, dt, _ in results)
        else:
            results, wall = timed_pass(gf, workload, rounds, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdicts = evaluate(gf, workload, results)
        failed = sum(1 for _, problems in verdicts if problems)
        attempted = len(results)
        times = [dt for _, _, dt, _ in results]
        tail_s, tail_pct = tail(times)
        lines = [
            f"workload {name}: seed {seed}, {attempted} ops in {wall:.2f} s "
            f"({attempted // len(workload.round_slots)} rounds of {len(workload.round_slots)})",
            f"input shape: {summarize_shape([inp for inp, *_ in results])}",
            f"op_tail_s is p{tail_pct:.1f} of {attempted} ops; failed_frac {failed / attempted:.4f}",
        ]
        lines += [f"FAILED gen_seed {inp.gen_seed}: {'; '.join(p)}" for inp, p in verdicts if p]
        detail = {
            "workload": name,
            "seed": seed,
            "setup_runs_s": setups,
            "tail_percentile": tail_pct,
            "failed_frac": failed / attempted,
            "ops": [
                {"gen_seed": inp.gen_seed, "stratum": inp.stratum, "op_s": dt, "shape": inp.shape, "problems": p}
                for (inp, _, dt, _), (_, p) in zip(results, verdicts)
            ],
        }
        if trace:
            metrics = layer_metrics(results, traced, tracer, lines)
            for (inp, expected, _, _), (_, outputs, _, error) in zip(results, traced):
                if outputs is None or expected is None or wl.digest(outputs) != wl.digest(expected):
                    failed += 1
                    lines.append(f"FAILED gen_seed {inp.gen_seed}: traced output differs {error}")
            attempted += len(traced)
            units = {m: u for m, u, _ in tracing.PER_LAYER}
            tracer.write(OUT_DIR / f"{name}-seed{seed}-spans.json.gz")
            detail["absent_boundaries"] = tracer.absent
        else:
            metrics = {
                "ops_per_s": attempted / wall,
                "op_p50_s": statistics.median(times),
                "op_tail_s": tail_s,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb,
            }
            units = dict(END_TO_END)
        detail["metrics"] = metrics
        (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1))
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        return lines, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if proc.returncode not in (0, 1):
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *human, last = proc.stdout.strip().splitlines()
        print("\n".join(human))
        result = json.loads(last)
        for key, metric in result["metrics"].items():
            print(f"  {name:13s} {key:40s} {metric['value']:14.6g} {metric['unit']}")
            combined["metrics"][f"{name}.{key}"] = metric
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"{HELD_OUT_SEED} is held out for verifying claims"
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        wl.import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {wl.SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    lines, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
