#!/usr/bin/env python3
"""Time the graphicality searches that the benchmark pool leaves out.

Each case prints one line: its name, the best of 3 wall times, the first
16 hex digits of the SHA-256 of the verdict's JSON, and what the verdict
holds (its witness count, or its failure payload).  The cases:

- seed9: `random_anterial_graph(Random(9), "abcdefg", 0.5)`'s model, a large
  class (3,786 witnesses);
- k4, k5: the model of the complete graph in lines, with no statement, so
  every anterial directing of the skeleton is a witness;
- k6: the same skeleton has 15 edges, above every directing cap, so the
  line times only the count of its anterial directings
  (`preorders._count_anterial_directings`) and prints it;
- s78, s87: `flip_one_elementary(Random(s), induced_model(
  random_anterial_graph(Random(s), "abcdefg", 0.5)))`, gate-passing
  failures whose payload counts every directing of an 11-edge skeleton;
- e47: the same flip with seed 47 on "abcdef", a gate-passing failure
  whose non-collider masks are all empty, so its witness pass runs
  unpruned and its screen passes are counted by a second enumeration;
- dag-pool: `restricted_graphical(model, "DAG")` over the models of the
  `search6` pool in `perfbench/pool.json`, timed as one sum; its digest
  covers every verdict in pool order;
- ang-pool: `decide_graphical` over the same models, built the same way.

Usage: python scripts/search_cases.py [CASE ...]   (default: every case)
"""

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path

from graphfaith.faithfulness import decide_graphical, restricted_graphical
from graphfaith.generate import flip_one_elementary, random_anterial_graph
from graphfaith.graphs import MixedGraph, induced_model, line
from graphfaith.preorders import _count_anterial_directings

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool.json"


def complete_model(n):
    labels = "abcdefg"[:n]
    edges = tuple(line(u, v) for x, u in enumerate(labels) for v in labels[x + 1 :])
    return induced_model(MixedGraph(frozenset(labels), edges))


def flip(seed):
    model = induced_model(random_anterial_graph(random.Random(seed), "abcdefg", 0.5))
    return flip_one_elementary(random.Random(seed), model)


def pool_models():
    seeds = [entry["gen_seed"] for entry in json.loads(POOL.read_text())["search6"]]
    return [induced_model(random_anterial_graph(random.Random(s), "abcdef", 0.5)) for s in seeds]


def digest(payloads):
    return hashlib.sha256(json.dumps(payloads).encode()).hexdigest()[:16]


def summary(verdict):
    if verdict.graphical:
        return f"graphical, {len(verdict.witnesses)} witnesses"
    failure = verdict.failure
    counts = " ".join(f"{key}={value}" for key, value in (failure.witness or {}).items())
    return f"not graphical, {failure.property_name} {counts}"


def decide(model):
    def run():
        verdict = decide_graphical(model)
        return digest(verdict.to_json_dict()), summary(verdict)

    return run


def count(model):
    def run():
        total = _count_anterial_directings(model)
        return digest(total), f"{total} anterial directings"

    return run


def pool(models, search):
    def run():
        verdicts = [search(model) for model in models]
        found = sum(v.graphical for v in verdicts)
        witnesses = sum(len(v.witnesses) for v in verdicts)
        return digest([v.to_json_dict() for v in verdicts]), f"{len(models)} models, {found} graphical, {witnesses} witnesses"

    return run


CASES = {
    "seed9": lambda: decide(induced_model(random_anterial_graph(random.Random(9), "abcdefg", 0.5))),
    "k4": lambda: decide(complete_model(4)),
    "k5": lambda: decide(complete_model(5)),
    "k6": lambda: count(complete_model(6)),
    "s78": lambda: decide(flip(78)),
    "s87": lambda: decide(flip(87)),
    "e47": lambda: decide(
        flip_one_elementary(random.Random(47), induced_model(random_anterial_graph(random.Random(47), "abcdef", 0.5)))
    ),
    "dag-pool": lambda: pool(pool_models(), lambda model: restricted_graphical(model, "DAG")),
    "ang-pool": lambda: pool(pool_models(), decide_graphical),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cases", nargs="*", metavar="CASE", help=", ".join(CASES))
    args = parser.parse_args(argv)
    unknown = sorted(set(args.cases) - set(CASES))
    if unknown:
        parser.error(f"unknown case {unknown[0]!r}; choose from {', '.join(CASES)}")
    for name in args.cases or CASES:
        run = CASES[name]()  # inputs are built outside the timed runs
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            result = run()
            best = min(best, time.perf_counter() - start)
        print(f"{name}: {best:.3f} s, sha256 {result[0]}, {result[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
