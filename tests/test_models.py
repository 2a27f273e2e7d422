"""Independence models: membership, axiom checkers, stabilities, alpha operator."""

import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphfaith.errors import CapExceededError, ModelError, ParseError
from graphfaith.faithfulness import restricted_graphical
from graphfaith.generate import flip_one_elementary, random_anterial_graph, random_dag
from graphfaith.graphs import MixedGraph, induced_model, parse_graph_text
from graphfaith.models import (
    IndependenceModel,
    check_composition,
    check_dag_ordered_stabilities,
    check_downward_stability,
    check_intersection,
    check_ordered_downward_stability,
    check_ordered_upward_stability,
    check_semi_graphoid,
    check_singleton_transitivity,
    check_upward_stability,
    marginalize_and_condition,
    model_to_text,
    parse_model_text,
    skeleton_pairs,
)
from graphfaith.preorders import Preorder, minimal_preorder

from conftest import LABELS, anterial_graphs, reference_triple_masks, semi_graphoid_closure, small_models


def g(text):
    return parse_graph_text(text)


def model(ground, *statements):
    return IndependenceModel.from_statements(ground, statements)


# -- membership ----------------------------------------------------------------


def test_contains_trivial_statements():
    j = model("abc")
    assert j.contains(set(), {"b"}, {"c"})
    assert j.contains({"b"}, set(), set())


def test_contains_path_queries():
    j = induced_model(g("1 -- 2\n2 -- 3"))
    assert j.contains({"1"}, {"3"}, {"2"})
    assert not j.contains({"1"}, {"3"}, set())


def test_contains_symmetrized():
    j = model("abc", ({"a"}, {"b"}, {"c"}))
    assert j.contains({"b"}, {"a"}, {"c"})


def test_contains_errors():
    j = model("abc")
    with pytest.raises(ModelError, match="overlap on node 'a'"):
        j.contains({"a"}, {"a", "b"}, set())
    with pytest.raises(ModelError, match="'z'"):
        j.contains({"z"}, {"b"}, set())


def test_no_closure_applied():
    j = model("abd", ({"a"}, {"b", "d"}, set()))
    assert j.contains({"a"}, {"b", "d"}, set())
    assert not j.contains({"a"}, {"b"}, set())  # decomposition is checked, not forced


def test_full_independence_model():
    j = IndependenceModel.full_independence("abc")
    assert j.contains({"a"}, {"b", "c"}, set())
    assert j.contains({"a"}, {"b"}, {"c"})


@pytest.mark.parametrize("n", range(8))
def test_full_independence_is_every_triple(n):
    # Built through model_from_elementary with every row full; the reference
    # sets the bit of every disjoint triple code below 4^n.
    ground = tuple("abcdefgh"[:n])
    probe = IndependenceModel(ground, 0)
    members = 0
    for am, bm, cm in reference_triple_masks(n):
        members |= 1 << probe._code(am, bm, cm)
    assert IndependenceModel.full_independence(ground) == IndependenceModel(ground, members)


def test_from_member_mask_validation():
    j = IndependenceModel.full_independence("abc")
    assert IndependenceModel.from_member_mask("abc", j.members) == j
    with pytest.raises(ModelError, match="outside"):
        IndependenceModel.from_member_mask("ab", 1 << 20)
    with pytest.raises(ModelError, match="disjoint triple"):
        IndependenceModel.from_member_mask("ab", 1 << 5)  # digits (1,1): empty second side
    with pytest.raises(ModelError, match="canonical"):
        # digits (1,2) put the smaller-weight side first; canonical is code 6
        IndependenceModel.from_member_mask("ab", 1 << 9)


# -- semi-graphoid -----------------------------------------------------------------


@given(anterial_graphs(max_nodes=4))
def test_graph_models_are_semi_graphoids(graph):
    assert check_semi_graphoid(induced_model(graph)).passed


def test_decomposition_violation_witnessed():
    j = model("abd", ({"a"}, {"b", "d"}, set()))
    report = check_semi_graphoid(j)
    assert not report.passed
    witness = report.violations[0]
    assert witness["axiom"] == "decomposition"
    assert witness["A"] == ["a"] and witness["C"] == []
    assert set(witness["B"]) | set(witness["D"]) == {"b", "d"}


def test_empty_model_passes_all():
    j = model("abcd")
    for checker in (check_semi_graphoid, check_intersection, check_composition,
                    check_singleton_transitivity, check_upward_stability,
                    check_downward_stability):
        assert checker(j).passed


def test_contraction_violation():
    # <a,b|c d> and <a,d|c> present, <a,{b,d}|c> absent
    j = model("abcd", ({"a"}, {"b"}, {"c", "d"}), ({"a"}, {"d"}, {"c"}))
    report = check_semi_graphoid(j)
    assert not report.passed
    assert any(v["axiom"] == "contraction" for v in report.violations)


def test_weak_union_violation():
    j = model("abcd", ({"a"}, {"b", "d"}, set()), ({"a"}, {"b"}, set()), ({"a"}, {"d"}, set()))
    report = check_semi_graphoid(j)
    assert not report.passed
    assert any(v["axiom"] == "weak-union" for v in report.violations)


# -- intersection / composition -------------------------------------------------------


@given(anterial_graphs(max_nodes=4))
def test_graph_models_intersection_composition(graph):
    j = induced_model(graph)
    assert check_intersection(j).passed
    assert check_composition(j).passed


def test_intersection_violation():
    j = model("abcd", ({"a"}, {"b"}, {"c", "d"}), ({"a"}, {"d"}, {"c", "b"}))
    report = check_intersection(j)
    assert not report.passed
    w = report.violations[0]
    assert w["A"] == ["a"] and w["C"] == ["c"]
    assert set(w["B"]) | set(w["D"]) == {"b", "d"}


def test_composition_violation():
    j = model("abd", ({"a"}, {"b"}, set()), ({"a"}, {"d"}, set()))
    report = check_composition(j)
    assert not report.passed
    assert report.count == 2  # (B,D) and (D,B) orderings


def test_full_model_passes_intersection_composition():
    j = IndependenceModel.full_independence("abcd")
    assert check_intersection(j).passed
    assert check_composition(j).passed


def test_set_axiom_cap():
    j = IndependenceModel(tuple(sorted("abcdefgh" + "ij")), 0)
    with pytest.raises(CapExceededError):
        check_semi_graphoid(j, cap=8)


# -- singleton-transitivity ---------------------------------------------------------


def test_singleton_transitivity_two_statement_violation():
    j = model("abc", ({"a"}, {"c"}, set()), ({"a"}, {"c"}, {"b"}))
    report = check_singleton_transitivity(j)
    assert not report.passed
    assert report.violations[0] == {"i": "a", "j": "c", "k": "b", "C": []}


@given(anterial_graphs(max_nodes=4))
def test_graph_models_singleton_transitive(graph):
    assert check_singleton_transitivity(induced_model(graph)).passed


def test_singleton_transitivity_vacuous():
    assert check_singleton_transitivity(model("abc")).passed


# -- ordered stabilities ---------------------------------------------------------------


@given(anterial_graphs(max_nodes=4))
def test_graph_models_ordered_stabilities(graph):
    j = induced_model(graph)
    p = minimal_preorder(graph)
    assert check_ordered_upward_stability(j, p).passed
    assert check_ordered_downward_stability(j, p).passed


def test_bg_downward_stability_matches_plain():
    bg = g("a <-> b\nb <-> c")
    j = induced_model(bg)
    p = Preorder.all_incomparable(j.ground)
    ordered = check_ordered_downward_stability(j, p)
    plain = check_downward_stability(j)
    assert ordered.passed and plain.passed
    assert ordered.count == plain.count == 0


def test_downward_stability_violation():
    j = model("abc", ({"a"}, {"c"}, {"b"}))
    report = check_downward_stability(j)
    assert not report.passed
    assert report.violations[0] == {"i": "a", "j": "c", "C": ["b"], "k": "b"}


def test_upward_stability_violation():
    j = model("abc", ({"a"}, {"c"}, set()))
    report = check_upward_stability(j)
    assert not report.passed
    assert report.violations[0] == {"i": "a", "j": "c", "C": [], "k": "b"}


def test_stability_vacuous_under_all_incomparable():
    # upward-stability never fires when nothing is comparable
    j = model("abc", ({"a"}, {"c"}, set()))
    p = Preorder.all_incomparable(j.ground)
    assert check_ordered_upward_stability(j, p).passed


@given(small_models(max_nodes=4))
def test_plain_stabilities_equal_trivial_preorders(j):
    up_ordered = check_ordered_upward_stability(j, Preorder.all_equivalent(j.ground))
    assert check_upward_stability(j) == replace(up_ordered, property_name="upward-stability")
    down_ordered = check_ordered_downward_stability(j, Preorder.all_incomparable(j.ground))
    assert check_downward_stability(j) == replace(down_ordered, property_name="downward-stability")


def test_plain_stabilities_build_no_preorder(monkeypatch):
    rng = random.Random(3)
    models = []
    for _ in range(12):
        graph = random_anterial_graph(rng, LABELS[: rng.randint(3, 5)], 0.5)
        models += [induced_model(graph), flip_one_elementary(rng, induced_model(graph))]
    models += [induced_model(g("a -- b\nb -- c\nc -- d")), induced_model(g("a <-> b\nb <-> c\nc <-> d"))]

    def answers():
        return [
            (check_upward_stability(m), check_downward_stability(m),
             restricted_graphical(m, "UG"), restricted_graphical(m, "BG"))
            for m in models
        ]

    expected = answers()
    assert any(not up.passed for up, _, _, _ in expected) and any(not down.passed for _, down, _, _ in expected)
    assert any(ug.graphical for _, _, ug, _ in expected) and any(bg.graphical for _, _, _, bg in expected)

    def no_preorder(cls, ground):
        raise AssertionError("a trivial preorder was built")

    monkeypatch.setattr(Preorder, "all_equivalent", classmethod(no_preorder))
    monkeypatch.setattr(Preorder, "all_incomparable", classmethod(no_preorder))
    assert answers() == expected


def test_stability_checks_cap_and_ground_before_the_table(monkeypatch):
    def no_table(self):
        raise AssertionError("the stability table was built")

    monkeypatch.setattr(IndependenceModel, "_stability_table", property(no_table))
    j = model("abcd", ({"a"}, {"c"}, set()))
    for check in (check_upward_stability, check_downward_stability):
        with pytest.raises(CapExceededError):
            check(j, cap=3)
    for check in (check_ordered_upward_stability, check_ordered_downward_stability):
        with pytest.raises(CapExceededError):
            check(j, Preorder.all_equivalent(j.ground), cap=3)
        with pytest.raises(CapExceededError):  # the cap is checked before the ground
            check(j, Preorder.all_equivalent("abz"), cap=3)
        with pytest.raises(ModelError, match="ground"):
            check(j, Preorder.all_equivalent("abz"))


def test_preorder_ground_mismatch():
    j = model("abc")
    with pytest.raises(ModelError, match="ground"):
        check_ordered_upward_stability(j, Preorder.all_equivalent("abz"))


# -- DAG ordered stabilities -------------------------------------------------------------


def test_dag_stabilities_on_chain():
    dag = g("a -> b\nb -> c")
    j = induced_model(dag)
    up, down = check_dag_ordered_stabilities(j, minimal_preorder(dag))
    assert up.passed and down.passed


def test_dag_stabilities_need_partial_order():
    j = model("ab")
    with pytest.raises(ModelError, match="partial order"):
        check_dag_ordered_stabilities(j, Preorder.all_equivalent("ab"))


def test_dag_stabilities_edgeless():
    dag = MixedGraph(frozenset("abc"), ())
    j = induced_model(dag)
    up, down = check_dag_ordered_stabilities(j, minimal_preorder(dag))
    assert up.passed and down.passed


def test_dag_stability_violation():
    dag = g("a -> b\nb -> c")
    order = minimal_preorder(dag)
    # c < b < a: <a,c|{}> may gain b (c < b), and both are present, so this passes
    j = model("abc", ({"a"}, {"c"}, set()), ({"a"}, {"c"}, {"b"}))
    up, down = check_dag_ordered_stabilities(j, order)
    assert up.passed and down.passed
    # c sits below both a and b, so it must be removable from <a,b|{c}>
    j2 = model("abc", ({"a"}, {"b"}, {"c"}))
    up2, down2 = check_dag_ordered_stabilities(j2, order)
    assert up2.passed
    assert not down2.passed
    assert down2.violations[0] == {"i": "a", "j": "b", "C": ["c"], "k": "c"}


# -- lemma: plain stabilities force composition / intersection ------------------------------


@given(small_models(max_nodes=4))
def test_upward_stable_semi_graphoids_are_compositional(j):
    closed = semi_graphoid_closure(j)
    assert check_semi_graphoid(closed).passed
    if check_upward_stability(closed).passed:
        assert check_composition(closed).passed


@given(small_models(max_nodes=4))
def test_downward_stable_semi_graphoids_have_intersection(j):
    closed = semi_graphoid_closure(j)
    if check_downward_stability(closed).passed:
        assert check_intersection(closed).passed


def test_graphoid_downward_stable_wrt_everything_else_graph():
    # graphoids satisfy ordered downward-stability w.r.t. the minimal preorder
    # of the pairwise-constructed undirected graph
    from graphfaith.faithfulness import _pairwise_graph

    rng = random.Random(7)
    for _ in range(25):
        graph = random_anterial_graph(rng, LABELS[: rng.randint(2, 4)], 0.5)
        j = induced_model(graph)
        gu = _pairwise_graph(j, "UG")
        p = minimal_preorder(gu)
        assert check_ordered_downward_stability(j, p).passed


# -- marginalize / condition ------------------------------------------------------------------


def test_alpha_identity():
    j = induced_model(g("a -> b\nb -> c"))
    assert marginalize_and_condition(j, set(), set()) == j


def test_alpha_marginalize_chain_middle():
    j = induced_model(g("a -> b\nb -> c"))
    out = marginalize_and_condition(j, {"b"}, set())
    assert out.ground == ("a", "c")
    assert out.statement_count() == 0


def test_alpha_condition_on_collider():
    j = induced_model(g("a -> c\nb -> c"))
    out = marginalize_and_condition(j, set(), {"c"})
    assert out.ground == ("a", "b")
    assert out.statement_count() == 0


def test_alpha_overlap_error():
    j = model("abc")
    with pytest.raises(ModelError, match="overlap"):
        marginalize_and_condition(j, {"a"}, {"a", "b"})


@given(small_models(max_nodes=4), st.integers(0, 3 ** 4 - 1))
def test_alpha_composes(j, split_code):
    nodes = list(j.ground)
    m1, c1, m2, c2 = set(), set(), set(), set()
    for idx, node in enumerate(nodes):
        role = (split_code // 3**idx) % 3
        if role == 1:
            (m1 if idx % 2 else m2).add(node)
        elif role == 2:
            (c1 if idx % 2 else c2).add(node)
    lhs = marginalize_and_condition(
        marginalize_and_condition(j, m1, c1), m2, c2
    )
    rhs = marginalize_and_condition(j, m1 | m2, c1 | c2)
    assert lhs == rhs


def test_alpha_preserves_gaussoid_axioms_for_dags():
    rng = random.Random(11)
    for _ in range(20):
        graph = random_dag(rng, LABELS[:4], 0.5)
        j = induced_model(graph)
        m = {n for n in graph.nodes if rng.random() < 0.3}
        c = {n for n in graph.nodes - m if rng.random() < 0.3}
        out = marginalize_and_condition(j, m, c)
        assert check_singleton_transitivity(out).passed
        assert check_intersection(out).passed
        assert check_composition(out).passed


# -- skeleton pairs -----------------------------------------------------------------------------


def test_skeleton_pairs_matches_separability():
    j = induced_model(g("a -> c\nb -> c"))
    assert skeleton_pairs(j) == frozenset({("a", "c"), ("b", "c")})
    full = IndependenceModel.full_independence("abc")
    assert skeleton_pairs(full) == frozenset()


# -- report serialization ----------------------------------------------------------------------


def test_check_report_json_schema():
    j = model("abc", ({"a"}, {"c"}, set()), ({"a"}, {"c"}, {"b"}))
    d = check_singleton_transitivity(j).to_json_dict()
    assert set(d) == {"property", "passed", "violations", "count"}
    assert d["property"] == "singleton-transitivity"
    assert d["passed"] is False and d["count"] == 1
    assert d["violations"][0]["witness"]["i"] == "a"


# -- text format --------------------------------------------------------------------------------


def test_model_text_round_trip():
    j = model(
        "abcd",
        ({"a"}, {"b"}, {"c", "d"}),
        ({"a", "b"}, {"c", "d"}, set()),
        ({"a"}, {"d"}, set()),
    )
    assert parse_model_text(model_to_text(j)) == j


def test_model_text_round_trip_node_labelled_node():
    for j in (
        model("node x y".split(), ({"node"}, {"x"}, {"y"})),
        model("node x y z".split(), ({"x"}, {"y"}, {"node"})),
        model("node x y".split(), ({"node", "x"}, {"y"}, ())),
        model("node x y".split()),
    ):
        assert parse_model_text(model_to_text(j)) == j
    with pytest.raises(ParseError, match="expected `node LABEL`"):
        parse_model_text("node a b\n")


def test_model_text_parses_spec_shapes():
    j = parse_model_text("a _||_ b | c d\na,b _||_ c,d | e\na _||_ b\n")
    assert j.contains({"a"}, {"b"}, {"c", "d"})
    assert j.contains({"a", "b"}, {"c", "d"}, {"e"})
    assert j.contains({"a"}, {"b"}, set())


def test_model_text_empty_file():
    j = parse_model_text("")
    assert j.ground == () and j.statement_count() == 0
    assert j.contains(set(), set(), set())


def test_model_text_node_lines():
    j = parse_model_text("node x\nnode y\n")
    assert j.ground == ("x", "y") and j.statement_count() == 0
    with pytest.raises(ParseError, match="duplicate node"):
        parse_model_text("node x\nnode x\n")


def test_model_text_errors():
    with pytest.raises(ParseError, match="_\\|\\|_"):
        parse_model_text("a b c")
    with pytest.raises(ParseError, match="overlap"):
        parse_model_text("a _||_ a | b")
    with pytest.raises(ParseError, match="non-empty"):
        parse_model_text("a _||_ | b")


def test_model_text_rejects_a_bar_inside_a_side():
    # `z|x _||_ b` printed as `b _||_ z|x`, which re-parses over {b, x, z}.
    with pytest.raises(ParseError, match="label 'z\\|x': a label must be non-empty") as info:
        parse_model_text("a _||_ b\nz|x _||_ b\n", path="m.ci")
    assert info.value.line == 2
    with pytest.raises(ParseError, match="label 'a,b'") as info:
        parse_model_text("node a,b\n")
    assert info.value.line == 1


def test_model_text_rejects_a_second_bar():
    # `a _||_ b | c | d` made `|` a node of the given set.
    with pytest.raises(ParseError, match="label '\\|'") as info:
        parse_model_text("a _||_ b | c | d\n", path="m.ci")
    assert info.value.line == 1


def test_model_text_isolated_nodes_survive():
    j = model("abz", ({"a"}, {"b"}, set()))
    assert parse_model_text(model_to_text(j)).ground == ("a", "b", "z")
