#!/usr/bin/env python3
"""Record the benchmark's input pool and reference output digests.

Usage, from the root of a checkout:  python3 perfbench/record.py [WORKLOAD ...]

For each workload, generator seeds 0, 1, 2, ... are tried in order.  A seed
joins a stratum's pool when its op passes every output check and its op time
lies within BAND of the stratum's centre, the median time of the first
CENTRE_SAMPLE qualifying seeds.  In the search6 stratum with 8 skeleton
edges, whose candidate list sets the run's peak RSS, the number of anterial
directings must also lie within BAND of its centre.  Matching cost inside a stratum keeps runs
with different ``--seed`` values comparable.  Pool inputs are distinct graphs.
search6 also requires distinct model skeletons and at most
SEARCH_MAX_WITNESSES witnesses, so that its op time follows the 4^k directing
enumeration and the stability screen rather than verification of a large
equivalence class.  The digest of every pool
input's output is recorded; runs compare against it, which pins the verdicts,
witness lists and their order at the recording commit.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

BAND = 0.15
CENTRE_SAMPLE = 15
SEARCH_MAX_WITNESSES = 16
# Strata whose pool is also banded on the traced count of anterial directings.
YIELD_BANDED = {("search6", "k8")}
POOL_SIZES = {
    "search6": {"k5": 12, "k6": 12, "k7": 48, "k8": 12},
    "materialize9": {"all": 56},
    "gaussian_ug8": {"all": 64},
}


def timed_op(gf, workload, inp):
    wl.clear_caches(gf)
    t0 = time.perf_counter()
    outputs = workload.op(gf, inp)
    return outputs, time.perf_counter() - t0


def directings_yielded(gf, workload, inp) -> int:
    wl.clear_caches(gf)
    tracer = tracing.Tracer()
    with tracer:
        workload.op(gf, inp)
    return tracer.counts["preorders.directings.yielded"]


def in_band(entry: dict, centre: dict) -> bool:
    return all(abs(entry[key] / value - 1) <= BAND for key, value in centre.items())


def record(name: str, workdir: Path) -> list[dict]:
    gf = wl.import_program()
    workload = wl.WORKLOADS[name]
    need = POOL_SIZES[name]
    pending: dict[str, list[dict]] = {s: [] for s in need}
    centre: dict[str, dict[str, float]] = {}
    chosen: dict[str, list[dict]] = {s: [] for s in need}
    seen = set()
    gen_seed = -1
    while any(len(chosen[s]) < n for s, n in need.items()):
        gen_seed += 1
        stratum, graph, extra = workload.generate(gf, gen_seed)
        if stratum not in need or len(chosen[stratum]) >= need[stratum]:
            continue
        key = extra.get("skeleton", graph)
        if key in seen:
            continue
        seen.add(key)
        entry = {"gen_seed": gen_seed, "stratum": stratum, "digest": ""}
        inp = wl.make_input(gf, workload, entry, workdir)
        outputs, first = timed_op(gf, workload, inp)
        problems = workload.check(gf, inp, outputs)
        if problems:
            raise SystemExit(f"{name} gen_seed {gen_seed}: {problems}")
        if inp.shape.get("witnesses", 0) > SEARCH_MAX_WITNESSES:
            continue
        entry["digest"] = wl.digest(outputs)
        entry["ref_s"] = round(min(first, timed_op(gf, workload, inp)[1]), 4)
        if (name, stratum) in YIELD_BANDED:
            entry["yielded"] = directings_yielded(gf, workload, inp)
        pending[stratum].append(entry)
        if stratum not in centre and len(pending[stratum]) >= CENTRE_SAMPLE:
            keys = [k for k in ("ref_s", "yielded") if k in entry]
            centre[stratum] = {k: statistics.median(e[k] for e in pending[stratum]) for k in keys}
        if stratum in centre:
            for e in pending[stratum]:
                if in_band(e, centre[stratum]) and len(chosen[stratum]) < need[stratum]:
                    chosen[stratum].append(e)
            pending[stratum] = []
        print(f"{name} seed {gen_seed} {stratum} {entry['ref_s']:.3f}s "
              f"chosen {sum(map(len, chosen.values()))}/{sum(need.values())}", flush=True)
    return [e for s in need for e in chosen[s]]


def main() -> int:
    names = sys.argv[1:] or list(wl.WORKLOADS)
    workdir = wl.ROOT / ".perfbench_out" / f"record-{os.getpid()}"
    try:
        entries = {name: record(name, workdir) for name in names}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    pool = wl.load_pool() if wl.POOL_FILE.exists() else {}
    pool.update(entries)
    pool["rules"] = __doc__.split("\n\n")[2].replace("\n", " ")
    tmp = wl.POOL_FILE.with_suffix(".tmp")
    tmp.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, wl.POOL_FILE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
