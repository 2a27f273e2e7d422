"""Graph construction, anteriors, classification, separation, induced models."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphfaith.errors import GraphError, ParseError
from graphfaith.preorders import minimal_preorder
from graphfaith.generate import all_anterial_graphs, random_anterial_graph, random_mixed_graph
from graphfaith.graphs import (
    ARC,
    MixedGraph,
    Walk,
    ancestors,
    anteriors,
    arc,
    arrow,
    classify,
    connecting_walk_oracle,
    graph_to_text,
    induced_model,
    line,
    markov_equivalent,
    parse_graph_text,
    separates,
    skeleton,
    walk_is_connecting,
)

from conftest import (
    EDGE_CHOICES,
    anterior_by_walks,
    bruteforce_connecting_exists,
    build_graph,
    disjoint_queries,
    mixed_graphs,
    own_walk_connects,
    reference_class_flags,
    reference_minimal_preorder_rows,
    reference_semi_directed_cycle,
    reference_sets,
    reference_violating_arc,
    ug_path_blocking_separates,
    undirected_graphs,
)


def g(text: str) -> MixedGraph:
    return parse_graph_text(text)


# -- construction ---------------------------------------------------------


def test_loops_rejected():
    with pytest.raises(GraphError, match="loop"):
        MixedGraph(frozenset({"a"}), (line("a", "a"),))


def test_undeclared_endpoint_rejected():
    with pytest.raises(GraphError, match="undeclared"):
        MixedGraph(frozenset({"a"}), (line("a", "b"),))


def test_edges_canonicalized_and_hashable():
    g1 = MixedGraph(frozenset("ab"), (arc("b", "a"),))
    g2 = MixedGraph(frozenset("ab"), (arc("a", "b"),))
    assert g1 == g2 and hash(g1) == hash(g2)


# -- anteriors / ancestors --------------------------------------------------


def test_anteriors_arrow_then_line():
    graph = g("a -> b\nb -- c")
    expected = anterior_by_walks(graph, "c")
    assert expected == {"a", "b"}
    assert anteriors(graph, "c") == frozenset({"a", "b"})


def test_anteriors_edgeless():
    graph = MixedGraph(frozenset("abc"), ())
    assert anteriors(graph, "b") == frozenset()


def test_anteriors_arc_only():
    graph = g("a <-> b")
    assert anteriors(graph, "b") == frozenset()


def test_anteriors_unknown_node():
    with pytest.raises(GraphError, match="'z'"):
        anteriors(g("a -- b"), "z")


def test_ancestors_directed_only():
    graph = g("a -> b\nb -- c")
    assert ancestors(graph, "b") == frozenset({"a"})
    assert ancestors(graph, "c") == frozenset()


@given(mixed_graphs(max_nodes=5, multi=True))
def test_anteriors_match_walk_oracle(graph):
    for j in sorted(graph.nodes):
        assert set(anteriors(graph, j)) == anterior_by_walks(graph, j)


@given(mixed_graphs(max_nodes=5))
def test_anteriors_transitive(graph):
    ant = {j: anteriors(graph, j) for j in graph.nodes}
    for k in graph.nodes:
        for j in ant[k]:
            for i in ant[j]:
                if i != k:
                    assert i in ant[k]


# -- classification ---------------------------------------------------------


def _assert_matches_label_closure(graph):
    assert graph.anterior_sets == reference_sets(graph, True)
    assert graph.ancestor_sets == reference_sets(graph, False)
    assert graph.semi_directed_cycle() == reference_semi_directed_cycle(graph)
    assert graph.violating_arc() == reference_violating_arc(graph)
    assert classify(graph).to_json_dict() == reference_class_flags(graph)
    try:
        rows = minimal_preorder(graph).leq_rows
    except GraphError as exc:
        rows = str(exc)
    assert rows == reference_minimal_preorder_rows(graph)


def test_anterior_rows_match_label_closure_on_anterial_graphs():
    # Every anterial graph on 4 labelled nodes.
    labels = "abcd"
    count = 0
    for choices in itertools.product(EDGE_CHOICES, repeat=6):
        graph = build_graph(labels, choices)
        if reference_semi_directed_cycle(graph) is None and reference_violating_arc(graph) is None:
            count += 1
            _assert_matches_label_closure(graph)
    assert count > 1000


@pytest.mark.parametrize("n", range(1, 5))
def test_all_anterial_graphs_in_product_order(n):
    labels = "abcd"[:n]
    expected = [
        graph
        for choices in itertools.product(EDGE_CHOICES, repeat=n * (n - 1) // 2)
        for graph in [build_graph(labels, choices)]
        if reference_semi_directed_cycle(graph) is None and reference_violating_arc(graph) is None
    ]
    assert list(all_anterial_graphs(labels)) == expected


def test_anterior_rows_match_label_closure_on_mixed_graphs():
    # Cycles, arcs between anteriors and parallel arcs included.
    rng = random.Random(17)
    flags = set()
    for _ in range(600):
        graph = random_mixed_graph(rng, "abcdef"[: rng.randint(2, 6)], rng.choice((0.3, 0.6, 0.9)), 0.3)
        _assert_matches_label_closure(graph)
        report = classify(graph)
        flags.add((report.is_cmg, report.is_ang, report.is_simple))
    assert {(False, False, True), (True, False, True), (True, True, True), (True, False, False)} <= flags


def test_directed_cycle_not_cmg():
    report = classify(g("a -> b\nb -> c\nc -> a"))
    assert not report.is_cmg and not report.is_ang
    assert report.is_maximal is None


def test_dag_is_anterial():
    report = classify(g("a -> b\nb -> c"))
    assert report.is_dag and report.is_ang and report.is_cmg and report.is_ag


def test_line_plus_arc_multi_edge():
    graph = MixedGraph(frozenset("ab"), (line("a", "b"), arc("a", "b")))
    report = classify(graph)
    assert report.is_cmg and not report.is_ang and not report.is_simple


def test_arrow_line_pair_is_semi_directed_cycle():
    graph = MixedGraph(frozenset("ab"), (line("a", "b"), arrow("a", "b")))
    assert not classify(graph).is_cmg
    assert graph.semi_directed_cycle() is not None


def test_class_flags_on_pure_graphs():
    ug = classify(g("a -- b\nb -- c"))
    assert ug.is_ug and ug.is_ucg and ug.is_ang and not ug.is_bg
    bg = classify(g("a <-> b\nb <-> c"))
    assert bg.is_bg and bg.is_bcg and bg.is_ang and not bg.is_ug
    rg = classify(g("a -- b\nc <-> d\na -> c"))
    assert rg.is_regression_graph  # heads only at the arc component
    rg2 = classify(g("a -- b\nc -> a"))
    assert not rg2.is_regression_graph  # arrowhead at the line-incident node a


def test_maximality_flags():
    assert classify(g("a -> c\nb -> c")).is_maximal is True
    # both non-adjacent pairs of this graph are inseparable: revisiting walks
    # through the arcs connect them under every conditioning set
    four_cycle = build_graph("abcd", ("none", "--", "<->", "<->", "--", "none"))
    assert sorted(e.kind for e in four_cycle.edges) == ["--", "--", "<->", "<->"]
    assert classify(four_cycle).is_maximal is False


@given(mixed_graphs(max_nodes=4, multi=True))
def test_class_implications(graph):
    report = classify(graph)
    if report.is_ug or report.is_bg or report.is_dag:
        assert report.is_ang
    if report.is_ang:
        assert report.is_cmg
    if report.is_ag:
        assert report.is_ang and report.is_simple
    if report.is_ucg or report.is_bcg or report.is_regression_graph:
        assert report.is_cmg


# -- separation --------------------------------------------------------------


def test_separation_chain():
    chain = g("a -> b\nb -> c")
    assert separates(chain, {"a"}, {"c"}, {"b"})
    assert not separates(chain, {"a"}, {"c"}, set())


def test_separation_collider():
    coll = g("a -> c\nb -> c")
    assert separates(coll, {"a"}, {"b"}, set())
    assert not separates(coll, {"a"}, {"b"}, {"c"})


def test_separation_chain_graph_collider_section():
    graph = g("a -> b\nb -- c\nd -> c")
    assert separates(graph, {"a"}, {"d"}, set())
    assert not separates(graph, {"a"}, {"d"}, {"b"})
    assert bruteforce_connecting_exists(graph, {"a"}, {"d"}, {"b"}, 8)
    assert not bruteforce_connecting_exists(graph, {"a"}, {"d"}, set(), 8)


def test_separation_overlap_error():
    with pytest.raises(GraphError, match="'b'"):
        separates(g("a -- b"), {"a", "b"}, {"b"}, set())


def test_separation_empty_side_error():
    with pytest.raises(GraphError, match="non-empty"):
        separates(g("a -- b"), set(), {"b"}, set())


# -- connecting walk oracle ---------------------------------------------------


def test_oracle_finds_collider_walk():
    coll = g("a -> c\nb -> c")
    walk = connecting_walk_oracle(coll, {"a"}, {"b"}, {"c"})
    assert walk is not None and walk.nodes == ("a", "c", "b")
    assert walk_is_connecting(walk, {"c"})
    assert str(walk) == "a -> c <- b"


def test_oracle_blocked_chain_any_length():
    chain = g("a -> b\nb -> c")
    for max_len in (1, 4, 12):
        assert connecting_walk_oracle(chain, {"a"}, {"c"}, {"b"}, max_len) is None


def test_oracle_needs_positive_length():
    with pytest.raises(GraphError, match="max_len"):
        connecting_walk_oracle(g("a -- b"), {"a"}, {"b"}, set(), 0)


def test_oracle_exhaustive_three_nodes_vs_bruteforce():
    # all simple mixed graphs on three labeled nodes, all queries, against
    # the unpruned literal walk enumeration
    labels = ("a", "b", "c")
    queries = [
        ({"a"}, {"b"}, set()),
        ({"a"}, {"b"}, {"c"}),
        ({"a"}, {"c"}, {"b"}),
        ({"b"}, {"c"}, {"a"}),
        ({"a"}, {"b", "c"}, set()),
    ]
    for choices in itertools.product(("none", "--", "->", "<-", "<->"), repeat=3):
        graph = build_graph(labels, choices)
        for a, b, c in queries:
            found = connecting_walk_oracle(graph, a, b, c, 12)
            raw = bruteforce_connecting_exists(graph, a, b, c, 8)
            assert (found is not None) == raw
            assert separates(graph, a, b, c) == (found is None)


@given(st.data(), mixed_graphs(max_nodes=4, multi=True))
def test_separates_agrees_with_oracle(data, graph):
    a, b, c = data.draw(disjoint_queries(graph=graph))
    walk = connecting_walk_oracle(graph, a, b, c)
    assert separates(graph, a, b, c) == (walk is None)
    if walk is not None:
        assert walk.nodes[0] in a and walk.nodes[-1] in b
        assert own_walk_connects(list(walk.nodes), list(walk.edges), c)
        assert walk.length <= 4 * len(graph.nodes)


@given(st.data(), undirected_graphs(max_nodes=5))
def test_ug_separation_is_path_blocking(data, graph):
    a, b, c = data.draw(disjoint_queries(graph=graph))
    assert separates(graph, a, b, c) == ug_path_blocking_separates(graph, a, b, c)


def test_walk_validation():
    e = arrow("a", "b")
    with pytest.raises(GraphError, match="alternate"):
        Walk(("a", "b"), ())
    with pytest.raises(GraphError, match="incident"):
        Walk(("a", "c"), (e,))
    w = Walk(("a", "b"), (e,))
    assert w.length == 1 and w.sections() == [(0, 0), (1, 1)]


# -- induced models ------------------------------------------------------------


def test_induced_complete_ug_trivial_only():
    complete = g("a -- b\nb -- c\na -- c")
    assert induced_model(complete).statement_count() == 0


def test_induced_edgeless_pair():
    graph = MixedGraph(frozenset("ab"), ())
    model = induced_model(graph)
    assert model.contains({"a"}, {"b"}, set())


def test_induced_ug_path_exact():
    path = g("1 -- 2\n2 -- 3")
    # derive the expectation by exhausting all 12 elementary queries with the
    # walk oracle, then pin the full model against it
    oracle_separated = set()
    for i, j in (("1", "2"), ("1", "3"), ("2", "3")):
        rest = {"1", "2", "3"} - {i, j}
        for c in (set(), rest):
            if connecting_walk_oracle(path, {i}, {j}, c, 12) is None:
                oracle_separated.add((i, j, frozenset(c)))
    assert oracle_separated == {("1", "3", frozenset({"2"}))}
    model = induced_model(path)
    assert list(model.elementary_statements()) == [("1", "3", frozenset({"2"}))]
    statements = {(tuple(sorted(a)), tuple(sorted(b)), tuple(sorted(c))) for a, b, c in model.statements()}
    assert statements == {(("3",), ("1",), ("2",))}


def test_induced_cap():
    labels = tuple(str(i) for i in range(5))
    graph = MixedGraph(frozenset(labels), ())
    with pytest.raises(GraphError, match="cap 4"):
        induced_model(graph, cap=4)


@given(mixed_graphs(max_nodes=4, multi=True))
def test_induced_elementary_route_matches_direct(graph):
    assert induced_model(graph, via_elementary=True) == induced_model(graph, via_elementary=False)


def test_induced_cross_check_flag():
    induced_model(g("a -> b\nb -- c\nd -> c"), cross_check=True)
    for seed in range(4):  # five nodes, one more than the property test above
        rng = random.Random(seed)
        induced_model(random_anterial_graph(rng, tuple("abcde"), edge_prob=0.5), cross_check=True)
        induced_model(random_mixed_graph(rng, tuple("abcde"), edge_prob=0.5), cross_check=True)


# -- skeleton and equivalence ----------------------------------------------------


def test_skeleton_variants():
    assert skeleton(g("a -> b")).edges == (line("a", "b"),)
    assert skeleton(g("a <-> b")).edges == (line("a", "b"),)
    assert skeleton(MixedGraph(frozenset("ab"), ())).edges == ()
    multi = MixedGraph(frozenset("ab"), (line("a", "b"), arc("a", "b")))
    assert skeleton(multi).edges == (line("a", "b"),)


def test_markov_equivalent_two_node():
    assert markov_equivalent(g("a -> b"), g("b -> a"))
    assert markov_equivalent(g("a -> b"), g("a -> b"))


def test_markov_equivalent_chain_vs_collider():
    chain = g("a -> b\nb -> c")
    assert not markov_equivalent(chain, g("a -> c\nb -> c"))
    collider_same_skeleton = g("a -> b\nc -> b")
    assert not markov_equivalent(chain, collider_same_skeleton)
    assert induced_model(chain).contains({"a"}, {"c"}, {"b"})
    assert collider_same_skeleton is not None
    assert induced_model(collider_same_skeleton).contains({"a"}, {"c"}, set())


def test_markov_equivalent_node_mismatch():
    with pytest.raises(GraphError, match="node sets"):
        markov_equivalent(g("a -- b"), g("a -- c"))


def test_equivalent_maximal_graphs_share_skeleton_exhaustive():
    # all maximal anterial graphs on three labeled nodes, grouped by model:
    # members of one group must share their skeleton
    labels = ("a", "b", "c")
    by_model = {}
    for choices in itertools.product(("none", "--", "->", "<-", "<->"), repeat=3):
        graph = build_graph(labels, choices)
        if graph.semi_directed_cycle() is not None or graph.violating_arc() is not None:
            continue
        if classify(graph).is_maximal is not True:
            continue
        by_model.setdefault(induced_model(graph).members, []).append(graph)
    assert len(by_model) > 1
    for members in by_model.values():
        skeletons = {skeleton(m) for m in members}
        assert len(skeletons) == 1


# -- text format -------------------------------------------------------------------


def test_graph_text_round_trip():
    graph = g("node z\na -> b\nb -- c\nc <-> d\nc <-> d")
    assert parse_graph_text(graph_to_text(graph)) == graph


def test_graph_text_round_trip_node_labelled_node():
    for graph in (
        MixedGraph.build(lines=[("node", "x")]),
        MixedGraph.build(nodes=["node"], arcs=[("x", "y")]),
        MixedGraph.build(arrows=[("x", "node")], arcs=[("node", "y")]),
    ):
        assert parse_graph_text(graph_to_text(graph)) == graph
    assert graph_to_text(MixedGraph.build(lines=[("node", "x")])) == "node -- x\n"
    with pytest.raises(ParseError, match="expected `node LABEL`"):
        parse_graph_text("node a b")


def test_graph_text_rejects_labels_the_model_text_cannot_carry():
    # `x,y -- z` once gave the model statement `w _||_ x,y`, which re-parses
    # over the ground (w, x, y, z).
    with pytest.raises(ParseError, match="label 'x,y': a label must be non-empty") as info:
        parse_graph_text("w -- z\nx,y -- z\n", path="g.graph")
    assert info.value.line == 2
    with pytest.raises(ParseError, match="label 'x\\|y'") as info:
        parse_graph_text("node x|y\n")
    assert info.value.line == 1


def test_graph_text_line_order_stability():
    text = "node z\na -> b\nb -- c\n"
    assert sorted(graph_to_text(parse_graph_text(text)).splitlines()) == sorted(text.splitlines())


def test_graph_text_comments_and_duplicates():
    graph = parse_graph_text("# heading\na <-> b  # trailing\na <-> b\n")
    assert len(graph.edges) == 2 and all(e.kind == ARC for e in graph.edges)


def test_graph_text_duplicate_node_declaration():
    with pytest.raises(ParseError, match="duplicate node"):
        parse_graph_text("node a\nnode a")


def test_graph_text_illegal_multi_edge():
    with pytest.raises(ParseError, match="chain mixed graph"):
        parse_graph_text("a -- b\na -> b")
    with pytest.raises(ParseError, match="chain mixed graph"):
        parse_graph_text("a -> b\nb -> a")
    # legal CMG multi-edges parse fine
    parse_graph_text("a -- b\na <-> b")
    parse_graph_text("a -> b\na <-> b")


def test_graph_text_bad_lines():
    with pytest.raises(ParseError, match="expected"):
        parse_graph_text("a - b")
    with pytest.raises(ParseError, match="loop"):
        parse_graph_text("a -- a")
