#!/usr/bin/env python3
"""Measure how often the stability screen needs the faithfulness filter.

For every model induced by an anterial graph on n labeled nodes, count the
skeleton directings that pass the compatible-preorder stability screen and
how many of those survive direct faithfulness verification.  Every false
positive found so far is a non-maximal graph (`classify(h).is_maximal`),
ancestral or not: on 4 nodes, 12 of the 78 are ancestral, among them
`a <-> d, b <-> c, c -> a, c <-> d, d -> b` for the model whose only
statement is <a,b|c d>, where a <-> d <-> c <-> b is an inducing path.  So
it counts the ancestral and the maximal false positives and the maximal
faithful passes, and exits 1 when some screen pass is faithful but not
maximal or maximal but not faithful.  It also counts the passes that are
separated pairwise: every non-adjacent pair i, j is separated given
C(i,j) = ant(i) u ant(j) minus i and j (`pairwise_conditioning_set`), a
test that has been seen to agree with maximality on every anterial graph
tried; it exits 1 when the two differ on some pass.  It also counts the
screen passes that break a wanted non-collider, by the masks of
`faithfulness._collider_checks` that the graphicality search prunes by (a
pass keeps every wanted collider, which the screen's first test holds),
and the models with a row that rules out every directing.

Usage: python scripts/stability_screen_gap.py [n]   (default 4, cap 4)
"""

import sys
import time

from graphfaith.faithfulness import _collider_checks, is_faithful, pairwise_conditioning_set
from graphfaith.generate import all_anterial_graphs
from graphfaith.graphs import classify, graph_to_text, induced_model, separates
from graphfaith.models import _stabilities_hold
from graphfaith.preorders import _iter_anterial_directings

LABELS = tuple("abcd")


def separated_pairwise(h):
    """Every non-adjacent pair i, j of h is separated given C(i,j)."""
    nodes = sorted(h.nodes)
    return all(
        separates(h, {i}, {j}, pairwise_conditioning_set(h, i, j))
        for x, i in enumerate(nodes)
        for j in nodes[x + 1 :]
        if not h.is_adjacent(i, j)
    )


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    if not 2 <= n <= 4:
        sys.exit("n must be between 2 and 4")
    t0 = time.time()
    seen = set()
    screened_total = faithful_total = faithful_maximal = 0
    false_ancestral = false_maximal = 0
    breaking = breaking_false = ruled_out = 0
    pairwise_total = pairwise_differ = 0
    gap_examples = []
    for g in all_anterial_graphs(LABELS[:n]):
        model = induced_model(g)
        if model.members in seen:
            continue
        seen.add(model.members)
        checks = _collider_checks(model)
        ruled_out += checks is None
        # the directings that keep every non-collider demand; none if a row rules all out
        kept = {d.choices for d in _iter_anterial_directings(model, colliders=checks)} if checks is not None else set()
        for directing in _iter_anterial_directings(model):
            if not _stabilities_hold(model, directing.rows):
                continue
            screened_total += 1
            broken = directing.choices not in kept
            breaking += broken
            h = directing.graph()
            classes = classify(h)
            pairwise = separated_pairwise(h)
            pairwise_total += pairwise
            pairwise_differ += pairwise != bool(classes.is_maximal)
            if is_faithful(model, h):
                faithful_total += 1
                faithful_maximal += bool(classes.is_maximal)
                continue
            false_ancestral += classes.is_ag
            false_maximal += bool(classes.is_maximal)
            breaking_false += broken
            if len(gap_examples) < 3:
                gap_examples.append((model, h))
    print(f"distinct graph-induced models on {n} nodes: {len(seen)}")
    print(f"directings passing the stability screen: {screened_total}")
    print(f"of those, actually faithful: {faithful_total}")
    print(f"screen-only false positives: {screened_total - faithful_total}")
    print(
        f"screen passes breaking the collider rule: {breaking} ({breaking_false} of them false positives), "
        f"models with a row that rules out every directing: {ruled_out}"
    )
    for model, h in gap_examples:
        print("\nexample false positive (passes screen, not faithful):")
        print(graph_to_text(h).rstrip())
    print(
        f"\nscreen passes separated pairwise given C(i,j): {pairwise_total} of {screened_total}, "
        f"differing from maximality on {pairwise_differ}"
    )
    print(f"false positives that are ancestral: {false_ancestral}, maximal: {false_maximal}")
    print(f"faithful screen passes that are maximal: {faithful_maximal} of {faithful_total}")
    agree = faithful_maximal == faithful_total and false_maximal == 0
    print("every screen pass is faithful exactly when it is maximal" if agree else "faithfulness and maximality differ")
    print(f"\nelapsed: {time.time() - t0:.1f}s")
    return 0 if agree and not pairwise_differ else 1


if __name__ == "__main__":
    sys.exit(main())
