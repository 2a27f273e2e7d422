"""`separates` as a walk over four frontier node masks, against two oracles.

The engine walks the states (node, entry mark, section touched C) level by
level, one node mask per (mark, touched) pair, over per-node edge masks
(`MixedGraph._masks`).  `reference_separates` is the tuple-state search it
replaced, and `connecting_walk_oracle` searches for an explicit walk and
re-checks it against the raw definition.
"""

import itertools
import random
import tracemalloc

import pytest

from graphfaith.errors import GraphError
from graphfaith.generate import random_anterial_graph, random_mixed_graph
from graphfaith.graphs import MixedGraph, arc, arrow, connecting_walk_oracle, line, separates

from conftest import reference_separates


def every_query(nodes):
    """(A, B, C) for every placement of the nodes in A, B, C or none of
    them, with A and B non-empty."""
    for roles in itertools.product(range(4), repeat=len(nodes)):
        a, b, c = ({v for v, r in zip(nodes, roles) if r == k} for k in range(3))
        if a and b:
            yield a, b, c


def every_subset(nodes):
    return [set(c) for k in range(len(nodes) + 1) for c in itertools.combinations(nodes, k)]


def random_query(rng, nodes):
    shuffled = rng.sample(nodes, len(nodes))
    i = rng.randint(1, len(nodes) - 1)
    j = rng.randint(i + 1, len(nodes))
    k = rng.randint(j, len(nodes))
    return set(shuffled[:i]), set(shuffled[i:j]), set(shuffled[j:k])


def three_node_multigraphs():
    # each pair carries up to two of a line, either arrow and an arc
    kinds = (line, arrow, lambda u, v: arrow(v, u), arc)
    choices = [()] + [(k,) for k in kinds] + list(itertools.combinations(kinds, 2))
    per_pair = [[tuple(kind(u, v) for kind in chosen) for chosen in choices] for u, v in ("ab", "ac", "bc")]
    for ab, ac, bc in itertools.product(*per_pair):
        yield MixedGraph(frozenset("abc"), ab + ac + bc)


def test_every_query_on_three_node_multigraphs():
    graphs = queries = separated = 0
    for g in three_node_multigraphs():
        graphs += 1
        for a, b, c in every_query("abc"):
            verdict = separates(g, a, b, c)
            assert verdict == reference_separates(g, a, b, c), (g, a, b, c)
            assert verdict == (connecting_walk_oracle(g, a, b, c) is None), (g, a, b, c)
            queries += 1
            separated += verdict
    assert (graphs, queries) == (11**3, 11**3 * 18)
    assert 0 < separated < queries


@pytest.mark.parametrize("p", [0.35, 0.6])
def test_seeded_nine_node_anterial_graphs(p):
    rng = random.Random(int(p * 100))
    nodes = list("abcdefghi")
    verdicts = []
    for k in range(20):
        g = random_anterial_graph(rng, nodes, p)
        if k < 4:  # the whole elementary table, as `induced_model` asks it
            queries = [
                ({i}, {j}, c)
                for i, j in itertools.combinations(nodes, 2)
                for c in every_subset([v for v in nodes if v not in (i, j)])
            ]
        else:
            queries = [random_query(rng, nodes) for _ in range(100)]
        for a, b, c in queries:
            verdicts.append(separates(g, a, b, c))
            assert verdicts[-1] == reference_separates(g, a, b, c), (g, a, b, c)
        a, b, c = random_query(rng, nodes)
        assert separates(g, a, b, c) == (connecting_walk_oracle(g, a, b, c) is None), (g, a, b, c)
    assert len(verdicts) == 4 * 36 * 2**7 + 16 * 100
    assert 0 < sum(verdicts) < len(verdicts)


def test_seeded_six_node_multigraphs_that_are_not_anterial():
    rng = random.Random(33)
    nodes = list("abcdef")
    cyclic = multi = 0
    for _ in range(200):
        g = random_mixed_graph(rng, nodes, edge_prob=0.6, multi_prob=0.4)
        # opposed arrows on a pair, and a semi-directed cycle through it
        u, v = rng.sample(nodes, 2)
        g = MixedGraph(g.nodes, g.edges + (arrow(u, v), arrow(v, u)))
        cyclic += g.semi_directed_cycle() is not None
        multi += len(g.edges) > len(g.adjacent_pairs)
        for _ in range(60):
            a, b, c = random_query(rng, nodes)
            assert separates(g, a, b, c) == reference_separates(g, a, b, c), (g, a, b, c)
        a, b, c = random_query(rng, nodes)
        assert separates(g, a, b, c) == (connecting_walk_oracle(g, a, b, c) is None), (g, a, b, c)
    assert cyclic == multi == 200


def _error(fn, g, a, b, c):
    with pytest.raises(GraphError) as info:
        fn(g, a(), b(), c())
    return str(info.value)


@pytest.mark.parametrize(
    "a, b, c, text",
    [
        ({"a", "z"}, {"b"}, set(), "unknown node label 'z'"),
        ({"a"}, set(), {"y", "x"}, "unknown node label 'x'"),
        ({1}, {"b"}, set(), "unknown node label 1"),
        ({"a", "b"}, {"b", "c"}, set(), "A and B overlap on node 'b'"),
        ({"a"}, {"d"}, {"a", "c"}, "A and C overlap on node 'a'"),
        ({"a"}, {"c", "d"}, {"b", "d"}, "B and C overlap on node 'd'"),
        ({"a"}, {"a"}, {"a"}, "A and B overlap on node 'a'"),
        (set(), {"b"}, set(), "A and B must be non-empty"),
        ({"a"}, set(), {"c"}, "A and B must be non-empty"),
        (set(), set(), set(), "A and B must be non-empty"),
    ],
)
@pytest.mark.parametrize("form", [set, sorted, lambda s: (x for x in sorted(s, key=str))])
def test_query_errors_keep_their_text(a, b, c, text, form):
    g = MixedGraph.build(lines=[("a", "b"), ("c", "d")], arrows=[("b", "c")])
    args = [lambda s=s: form(s) for s in (a, b, c)]
    assert _error(separates, g, *args) == _error(reference_separates, g, *args) == text


def test_a_long_path_walks_in_small_memory():
    # 300 nodes: a table indexed by a node mask would never fit, while the
    # per-node masks and the walk take well under 300 KB.
    nodes = [f"v{k:03d}" for k in range(300)]
    arrows = list(zip(nodes, nodes[1:])) + [(nodes[k], nodes[k + 5]) for k in range(0, 295, 7)]
    arcs = [(nodes[k], nodes[k + 3]) for k in range(1, 297, 11)]
    g = MixedGraph.build(nodes, arrows=arrows, arcs=arcs)
    queries = [
        ({"v000"}, {"v299"}, set()),
        ({"v000"}, {"v299"}, set(nodes[150:157])),  # no jump clears seven nodes
        ({"v010", "v020"}, {"v290"}, {"v100", "v200"}),
        ({"v000"}, {"v002"}, {"v001"}),
        ({"v000"}, {"v004"}, {"v001"}),  # the arc v001 <-> v004 makes v001 a collider
    ]
    tracemalloc.start()
    try:
        verdicts = [separates(g, a, b, c) for a, b, c in queries]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdicts == [False, True, False, True, False]
    assert verdicts == [reference_separates(g, a, b, c) for a, b, c in queries]
    assert peak < 300_000
