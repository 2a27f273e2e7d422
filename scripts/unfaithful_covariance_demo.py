#!/usr/bin/env python3
"""Walk through the classic 4-variable unfaithful Gaussian, exactly.

The covariance below is positive definite with a dense concentration matrix,
yet the partial covariance of variables 1 and 3 given 2 vanishes, so the
distribution satisfies one conditional independence that no undirected graph
on its skeleton can express: the model fails upward-stability and is not
faithful to the complete graph.  The full graphicality decision still finds
witnesses: graphs missing the {1,3} edge that encode exactly that single
independence.

All arithmetic is exact rational; nothing here depends on tolerances.
"""

from fractions import Fraction

from graphfaith.faithfulness import decide_graphical, is_faithful
from graphfaith.gaussian import (
    RationalMatrix,
    inverse,
    is_positive_definite,
    model_from_covariance,
    partial_covariance,
)
from graphfaith.graphs import MixedGraph, graph_to_text, line, model_skeleton
from graphfaith.models import check_upward_stability, model_to_text

SIGMA = RationalMatrix.from_rows(
    ("1", "2", "3", "4"),
    [[3, 2, 1, 2], [2, 4, 2, 1], [1, 2, 7, 1], [2, 1, 1, 6]],
)


def main():
    print("covariance:")
    for row in SIGMA.rows:
        print("   ", [str(x) for x in row])
    print("positive definite:", is_positive_definite(SIGMA))

    conc = inverse(SIGMA)
    dense = all(conc.rows[i][j] != 0 for i in range(4) for j in range(4))
    print("concentration matrix dense (no zero entries):", dense)

    pc = partial_covariance(SIGMA, 0, 2, [1])
    print("partial covariance of (1,3) given {2}:", pc, "=> 1 _||_ 3 | 2")

    model = model_from_covariance(SIGMA)
    print("model statements:")
    print("   ", model_to_text(model).strip())

    sk = model_skeleton(model)
    print("model skeleton edges:", sorted((e.u, e.v) for e in sk.edges))

    up = check_upward_stability(model)
    print("upward-stability:", "pass" if up.passed else f"fail at {up.violations[0]}")

    labels = ("1", "2", "3", "4")
    complete = MixedGraph(
        frozenset(labels),
        tuple(line(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]),
    )
    print("faithful to the complete graph:", is_faithful(model, complete))

    verdict = decide_graphical(model)
    print("graphical:", verdict.graphical, f"({len(verdict.witnesses)} witness graphs)")
    print("first witness:")
    print(graph_to_text(verdict.witnesses[0]).rstrip())


if __name__ == "__main__":
    main()
