#!/usr/bin/env python3
"""Measure how often the stability screen needs the faithfulness filter.

For every model induced by an anterial graph on n labeled nodes, count the
skeleton directings that pass the compatible-preorder stability screen and
how many of those survive direct faithfulness verification.  The gap is the
family of anterial-but-not-ancestral directings whose connecting walks must
revisit nodes; the smallest examples live on the 4-cycle.

Usage: python scripts/stability_screen_gap.py [n]   (default 4, cap 4)
"""

import sys
import time

from graphfaith.faithfulness import is_faithful
from graphfaith.generate import all_anterial_graphs
from graphfaith.graphs import graph_to_text, induced_model
from graphfaith.models import _stabilities_hold
from graphfaith.preorders import _iter_anterial_directings

LABELS = tuple("abcd")


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    if not 2 <= n <= 4:
        sys.exit("n must be between 2 and 4")
    t0 = time.time()
    seen = set()
    screened_total = faithful_total = 0
    gap_examples = []
    for g in all_anterial_graphs(LABELS[:n]):
        model = induced_model(g)
        if model.members in seen:
            continue
        seen.add(model.members)
        for directing in _iter_anterial_directings(model):
            if not _stabilities_hold(model, directing.preorder):
                continue
            screened_total += 1
            h = directing.graph()
            if is_faithful(model, h):
                faithful_total += 1
            elif len(gap_examples) < 3:
                gap_examples.append((model, h))
    print(f"distinct graph-induced models on {n} nodes: {len(seen)}")
    print(f"directings passing the stability screen: {screened_total}")
    print(f"of those, actually faithful: {faithful_total}")
    print(f"screen-only false positives: {screened_total - faithful_total}")
    for model, h in gap_examples:
        print("\nexample false positive (passes screen, not faithful):")
        print(graph_to_text(h).rstrip())
    print(f"\nelapsed: {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
