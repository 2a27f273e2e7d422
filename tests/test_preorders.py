"""Preorders: quotients, validity, minimal preorders, skeleton directing."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphfaith.errors import CapExceededError, GraphError, ParseError, PreorderError
from graphfaith.generate import random_preorder, random_skeleton
from graphfaith.graphs import ARROW, MixedGraph, arc, arrow, induced_model, line, parse_graph_text, skeleton
from graphfaith.models import IndependenceModel
from graphfaith.preorders import (
    Preorder,
    _iter_anterial_directings,
    direct_skeleton,
    enumerate_compatible_preorders,
    is_compatible,
    is_valid_for,
    minimal_preorder,
    parse_preorder_text,
    preorder_to_text,
    quotient,
)

from conftest import LABELS, anterial_graphs, product_filter_directings


def g(text):
    return parse_graph_text(text)


@st.composite
def preorders(draw, max_nodes=4):
    n = draw(st.integers(1, max_nodes))
    seed = draw(st.integers(0, 2**30))
    return random_preorder(random.Random(seed), LABELS[:n])


# -- construction and validation -----------------------------------------------


def test_from_pairs_adds_reflexivity():
    p = Preorder.from_pairs("ab", [])
    assert p.leq("a", "a") and p.incomparable("a", "b")


def test_from_pairs_transitivity_witness():
    with pytest.raises(PreorderError, match="not transitive"):
        Preorder.from_pairs("abc", [("a", "b"), ("b", "c")])


def test_from_pairs_unknown_label():
    with pytest.raises(PreorderError, match="'z'"):
        Preorder.from_pairs("ab", [("a", "z")])


def test_relation_predicates():
    p = Preorder.from_pairs("abc", [("a", "b"), ("b", "a"), ("c", "a"), ("c", "b")])
    assert p.sim("a", "b") and p.lt("c", "a") and p.incomparable("c", "c") is False
    assert not p.lt("a", "b")
    assert p.is_partial_order() is False


# -- quotient ---------------------------------------------------------------------


def test_quotient_all_equivalent():
    q = quotient(Preorder.all_equivalent("abc"))
    assert q.classes == (("a", "b", "c"),)
    assert q.below == frozenset({(0, 0)})


def test_quotient_all_incomparable():
    q = quotient(Preorder.all_incomparable("abc"))
    assert q.classes == (("a",), ("b",), ("c",))
    assert q.below == frozenset({(0, 0), (1, 1), (2, 2)})


def test_quotient_mixed():
    p = Preorder.from_pairs("abc", [("a", "b"), ("b", "a"), ("c", "a"), ("c", "b")])
    q = quotient(p)
    assert q.classes == (("a", "b"), ("c",))
    assert q.leq_classes(1, 0) and not q.leq_classes(0, 1)


@given(preorders())
def test_quotient_is_partial_order(p):
    quotient(p).validate()  # raises on any partial-order axiom failure


def test_quotient_rejects_broken_relation():
    broken = Preorder(("a", "b", "c"), (0b011, 0b110, 0b100))
    with pytest.raises(PreorderError, match="not transitive"):
        broken.quotient()
    irreflexive = Preorder(("a", "b"), (0b01, 0b00))
    with pytest.raises(PreorderError, match="not reflexive"):
        irreflexive.quotient()


# -- validity for a graph -----------------------------------------------------------


def test_validity_trivials():
    equiv = Preorder.all_equivalent("ab")
    assert is_valid_for(equiv, g("a -- b"))
    assert not is_valid_for(equiv, g("a -> b"))
    assert not is_valid_for(equiv, g("a <-> b"))


def test_validity_arrow_needs_head_below():
    p = Preorder.from_pairs("ab", [("b", "a")])
    assert is_valid_for(p, g("a -> b"))
    assert not is_valid_for(p, g("b -> a"))


def test_validity_ground_mismatch():
    with pytest.raises(PreorderError, match="does not match"):
        is_valid_for(Preorder.all_equivalent("ab"), g("a -- c"))


@given(anterial_graphs(max_nodes=4))
def test_minimal_preorder_is_valid(graph):
    assert is_valid_for(minimal_preorder(graph), graph)


# -- minimal preorder -----------------------------------------------------------------


def test_minimal_preorder_single_arrow():
    p = minimal_preorder(g("a -> b"))
    assert p.lt("b", "a") and not p.lt("a", "b")


def test_minimal_preorder_line_component():
    p = minimal_preorder(g("a -- b\nb -- c"))
    assert p.classes() == (("a", "b", "c"),)


def test_minimal_preorder_arrow_into_lines():
    p = minimal_preorder(g("a -> b\nb -- c"))
    assert p.classes() == (("a",), ("b", "c"))
    assert p.lt("b", "a") and p.lt("c", "a")


def test_minimal_preorder_rejects_cycle():
    graph = MixedGraph(frozenset("ab"), (line("a", "b"), arrow("a", "b")))
    with pytest.raises(GraphError, match="semi-directed cycle"):
        minimal_preorder(graph)


def test_minimal_preorder_rejects_anterior_arc():
    graph = MixedGraph(frozenset("ab"), (arrow("a", "b"), arc("a", "b")))
    with pytest.raises(GraphError, match="arc"):
        minimal_preorder(graph)


@given(anterial_graphs(max_nodes=5))
def test_minimal_preorder_matches_anteriority(graph):
    p = minimal_preorder(graph)
    ant = graph.anterior_sets
    for i in sorted(graph.nodes):
        for j in sorted(graph.nodes):
            expected = i == j or j in ant[i]
            assert p.leq(i, j) == expected


@given(anterial_graphs(max_nodes=5))
def test_minimal_preorder_global_interpretation(graph):
    # semi-directed reachability forces strict order; line components collapse
    p = minimal_preorder(graph)
    ant = graph.anterior_sets
    for j in sorted(graph.nodes):
        for i in sorted(ant[j]):
            if j in ant[i]:
                assert p.sim(i, j)
            else:
                assert p.lt(j, i)


# -- directing a skeleton ----------------------------------------------------------------


def test_direct_skeleton_by_relation():
    sk = g("a -- b")
    assert direct_skeleton(sk, Preorder.all_equivalent("ab")).edges == (line("a", "b"),)
    below = Preorder.from_pairs("ab", [("b", "a")])
    assert direct_skeleton(sk, below).edges == (arrow("a", "b"),)
    assert direct_skeleton(sk, Preorder.all_incomparable("ab")).edges == (arc("a", "b"),)


def test_direct_skeleton_rejects_nonlines():
    with pytest.raises(GraphError, match="lines only"):
        direct_skeleton(g("a -> b"), Preorder.all_equivalent("ab"))


@given(anterial_graphs(max_nodes=4), preorders(max_nodes=4))
def test_direct_skeleton_validity(graph, p):
    sk = skeleton(graph)
    if frozenset(p.ground) != sk.nodes:
        return
    directed = direct_skeleton(sk, p)
    assert is_valid_for(p, directed)
    # valid preorder exists, so the result admits a minimal preorder
    minimal_preorder(directed)


@given(anterial_graphs(max_nodes=4))
def test_minimal_preorder_fixed_point(graph):
    p = minimal_preorder(graph)
    rebuilt = direct_skeleton(skeleton(graph), p)
    assert minimal_preorder(rebuilt) == p


# -- compatibility -----------------------------------------------------------------------


def test_compatible_ug_path_all_equivalent():
    j = induced_model(g("1 -- 2\n2 -- 3"))
    assert is_compatible(Preorder.all_equivalent(j.ground), j)


def test_compatible_ug_path_all_incomparable():
    j = induced_model(g("1 -- 2\n2 -- 3"))
    assert is_compatible(Preorder.all_incomparable(j.ground), j)


def test_incompatible_disconnected_all_equivalent():
    graph = MixedGraph(frozenset("abc"), (line("a", "b"),))
    j = induced_model(graph)
    assert not is_compatible(Preorder.all_equivalent(j.ground), j)


def test_compatible_ground_mismatch():
    j = induced_model(g("a -- b"))
    with pytest.raises(PreorderError, match="does not match"):
        is_compatible(Preorder.all_equivalent("abc"), j)


# -- enumeration ---------------------------------------------------------------------------


def test_enumerate_single_edge():
    j = induced_model(g("a -- b"))
    found = list(enumerate_compatible_preorders(j))
    assert len(found) == 4
    kinds = {
        (p.sim("a", "b"), p.lt("a", "b"), p.lt("b", "a"), p.incomparable("a", "b"))
        for p in found
    }
    assert kinds == {
        (True, False, False, False),
        (False, True, False, False),
        (False, False, True, False),
        (False, False, False, True),
    }


def test_enumerate_single_node():
    j = IndependenceModel(("a",), 0)
    found = list(enumerate_compatible_preorders(j))
    assert len(found) == 1 and found[0].ground == ("a",)


def test_enumerate_collider_includes_sink_order():
    j = induced_model(g("a -> c\nb -> c"))
    assert any(p.lt("c", "a") and p.lt("c", "b") for p in enumerate_compatible_preorders(j))


def test_enumerate_deterministic():
    j = induced_model(g("a -> c\nb -> c"))
    first = [p.leq_rows for p in enumerate_compatible_preorders(j)]
    second = [p.leq_rows for p in enumerate_compatible_preorders(j)]
    assert first == second and len(set(first)) == len(first)


@given(anterial_graphs(max_nodes=3))
def test_enumerated_preorders_are_compatible(graph):
    j = induced_model(graph)
    for p in enumerate_compatible_preorders(j):
        assert is_compatible(p, j)


def test_enumerate_edge_cap():
    j = IndependenceModel(tuple("abcdef"), 0)  # complete skeleton: 15 edges
    with pytest.raises(CapExceededError, match="cap"):
        list(enumerate_compatible_preorders(j))


def assert_directings_match_reference(model, *, arrows_only=False):
    # With arrows only, the search yields the all-arrow graphs of the
    # unpruned reference, in its order.
    kwargs = {"options": (ARROW, "<-")} if arrows_only else {}
    found = [(d.graph(), d.preorder) for d in _iter_anterial_directings(model, **kwargs)]
    expected = [
        (h, minimal_preorder(h))
        for h in product_filter_directings(model)
        if not arrows_only or all(e.kind == ARROW for e in h.edges)
    ]
    assert found == expected


def every_4_node_skeleton_model():
    pairs = list(itertools.combinations("abcd", 2))
    for bits in range(1 << len(pairs)):
        lines = [line(u, v) for x, (u, v) in enumerate(pairs) if (bits >> x) & 1]
        yield induced_model(MixedGraph(frozenset("abcd"), tuple(lines)))


def seeded_skeleton_models():
    rng = random.Random(11)
    checked = 0
    while checked < 6:
        sk = random_skeleton(rng, LABELS[: rng.randint(5, 6)], 0.4)
        if not 4 <= len(sk.edges) <= 7:
            continue
        yield induced_model(sk)
        checked += 1


def test_pruned_directings_match_reference_on_every_4_node_skeleton():
    for model in every_4_node_skeleton_model():
        assert_directings_match_reference(model)


def test_pruned_directings_match_reference_on_random_skeletons():
    for model in seeded_skeleton_models():
        assert_directings_match_reference(model)


def test_dag_directings_match_reference_on_every_4_node_skeleton():
    for model in every_4_node_skeleton_model():
        assert_directings_match_reference(model, arrows_only=True)


def test_dag_directings_match_reference_on_random_skeletons():
    for model in seeded_skeleton_models():
        assert_directings_match_reference(model, arrows_only=True)


# -- text format ------------------------------------------------------------------------------


def test_preorder_text_round_trip():
    p = Preorder.from_pairs(
        "abcd", [("a", "b"), ("b", "a"), ("c", "a"), ("c", "b"), ("d", "d")]
    )
    assert parse_preorder_text(preorder_to_text(p)) == p


def test_preorder_text_class_and_order():
    p = parse_preorder_text("class a b\nclass c\norder c < a\n")
    assert p.sim("a", "b") and p.lt("c", "a") and p.lt("c", "b")


def test_preorder_text_order_by_index():
    p = parse_preorder_text("class a\nclass b\norder 1 < 2\n")
    assert p.lt("a", "b")


def test_preorder_text_errors():
    with pytest.raises(ParseError, match="already belongs"):
        parse_preorder_text("class a b\nclass a\n")
    with pytest.raises(ParseError, match="unknown class"):
        parse_preorder_text("class a\norder a < z\n")
    with pytest.raises(ParseError, match="expected"):
        parse_preorder_text("order a b\n")
    with pytest.raises(ParseError, match="not transitive"):
        parse_preorder_text("class a\nclass b\nclass c\norder a < b\norder b < c\n")


def test_preorder_text_rejects_opposite_order_lines():
    # Both lines together once parsed to the one class {a, b}.
    for text in ("class a\nclass b\norder a < b\norder b < a\n", "class a\nclass b\norder 1 < 2\norder b < 1\n"):
        with pytest.raises(ParseError, match="reverses an earlier order line") as info:
            parse_preorder_text(text, path="p.pre")
        assert info.value.line == 4 and str(info.value).startswith("p.pre:4: `order ")
