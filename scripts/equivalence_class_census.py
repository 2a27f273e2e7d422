#!/usr/bin/env python3
"""Census of anterial graphs on n labeled nodes by Markov equivalence class.

Enumerates every anterial graph (each pair carries nothing, a line, an arrow
either way, or an arc, with the pruned directing search skipping the rest),
groups them by their induced independence model, and reports class sizes plus
how the graphicality decision reconstructs each class from the model alone.

Usage: python scripts/equivalence_class_census.py [n]   (default n=3, cap 4)

Exits 1 when some class is not reconstructed up to its skeleton-matching
members, so a run gates the graphicality search.
"""

import sys
import time
from collections import Counter

from graphfaith.faithfulness import decide_graphical
from graphfaith.generate import all_anterial_graphs
from graphfaith.graphs import induced_model
from graphfaith.models import skeleton_pairs

LABELS = tuple("abcd")


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    if not 1 <= n <= 4:
        sys.exit("n must be between 1 and 4")
    t0 = time.time()
    by_model = {}
    for g in all_anterial_graphs(LABELS[:n]):
        key = induced_model(g).members
        by_model.setdefault(key, []).append(g)
    total = sum(len(v) for v in by_model.values())
    print(f"anterial graphs on {n} labeled nodes: {total}")
    print(f"Markov equivalence classes: {len(by_model)}")
    print(f"class size distribution: {dict(sorted(Counter(len(v) for v in by_model.values()).items()))}")
    exact = 0
    skeleton_exact = 0
    for key, members in by_model.items():
        model = induced_model(members[0])
        verdict = decide_graphical(model)
        found = {w.edges for w in verdict.witnesses}
        expected = {g.edges for g in members}
        # witnesses are the class members whose skeleton equals the model
        # skeleton; non-maximal members can sit on strictly smaller skeletons
        sk = skeleton_pairs(model)
        expected_on_skeleton = {g.edges for g in members if g.adjacent_pairs == sk}
        exact += found == expected
        skeleton_exact += found == expected_on_skeleton
    print(f"classes reconstructed exactly: {exact}/{len(by_model)}")
    print(f"classes reconstructed up to skeleton-matching members: {skeleton_exact}/{len(by_model)}")
    print(f"elapsed: {time.time() - t0:.1f}s")
    return 0 if skeleton_exact == len(by_model) else 1


if __name__ == "__main__":
    sys.exit(main())
