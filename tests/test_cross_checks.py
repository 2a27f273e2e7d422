"""Dual-route checks pinning one engine against an independent formulation."""

import itertools
import random
from fractions import Fraction

from graphfaith.faithfulness import is_faithful, restricted_graphical
from graphfaith.gaussian import (
    RationalMatrix,
    inverse,
    model_from_concentration,
    model_from_covariance,
)
from graphfaith.generate import random_anterial_graph
from graphfaith.graphs import induced_model
from graphfaith.models import IndependenceModel, _iter_triple_masks
from graphfaith.preorders import Preorder, _iter_anterial_directings, enumerate_compatible_preorders, is_compatible

from conftest import LABELS, build_graph


def _all_preorders(ground):
    """Every preorder on the ground set, by brute force over reflexive
    relations filtered for transitivity.  Exponential; keep ground tiny."""
    n = len(ground)
    off_diagonal = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(off_diagonal)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(off_diagonal):
            if (bits >> k) & 1:
                rows[i] |= 1 << j
        transitive = True
        for i in range(n):
            for j in range(n):
                if (rows[i] >> j) & 1 and rows[j] & ~rows[i]:
                    transitive = False
                    break
            if not transitive:
                break
        if transitive:
            yield Preorder(tuple(ground), tuple(rows))


def test_enumeration_matches_abstract_preorder_search():
    # the skeleton-directing enumeration must produce exactly the preorders
    # that pass the compatibility definition, over the whole abstract space,
    # one per anterial directing and none twice (brute holds no duplicates)
    labels = ("a", "b", "c")
    all_ps = list(_all_preorders(labels))
    assert len(all_ps) == 29  # preorders on a 3-element set
    for choices in itertools.product(("none", "--", "->", "<-", "<->"), repeat=3):
        graph = build_graph(labels, choices)
        if graph.semi_directed_cycle() is not None or graph.violating_arc() is not None:
            continue
        model = induced_model(graph)
        enumerated = [p.leq_rows for p in enumerate_compatible_preorders(model)]
        brute = [p.leq_rows for p in all_ps if is_compatible(p, model)]
        assert sorted(enumerated) == sorted(brute)
        assert len(enumerated) == sum(1 for _ in _iter_anterial_directings(model))


def test_concentration_zero_pattern_matches_saturated_statements():
    # for a regular Gaussian, independence of i and j given everything else
    # is exactly a zero concentration entry
    rng = random.Random(12345)
    for _ in range(15):
        n = rng.randint(2, 4)
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        rows = [
            [sum(a[i][k] * a[j][k] for k in range(n)) + Fraction(int(i == j)) for j in range(n)]
            for i in range(n)
        ]
        sigma = RationalMatrix.from_rows(tuple(LABELS[:n]), rows)
        conc = inverse(sigma)
        model = model_from_covariance(sigma)
        for i in range(n):
            for j in range(i + 1, n):
                rest = {LABELS[k] for k in range(n)} - {LABELS[i], LABELS[j]}
                saturated = model.contains({LABELS[i]}, {LABELS[j]}, rest)
                assert saturated == (conc.rows[i][j] == 0)
        assert model_from_concentration(conc) == model


def test_restricted_routes_never_misclassify_graph_models():
    # every graph-induced model on 3 nodes, through every restricted route:
    # a graphical verdict must come with a faithful witness of the right
    # class, and models of graphs in the class must be found
    labels = ("a", "b", "c")
    for choices in itertools.product(("none", "--", "->", "<-", "<->"), repeat=3):
        graph = build_graph(labels, choices)
        if graph.semi_directed_cycle() is not None or graph.violating_arc() is not None:
            continue
        model = induced_model(graph)
        kinds = {e.kind for e in graph.edges}
        for class_filter, kind_set in (("UG", {"--"}), ("BG", {"<->"}), ("DAG", {"->"})):
            verdict = restricted_graphical(model, class_filter)
            if kinds <= kind_set:
                assert verdict.graphical, (choices, class_filter)
            for w in verdict.witnesses:
                assert {e.kind for e in w.edges} <= kind_set
                assert is_faithful(model, w)


def test_restricted_routes_on_random_larger_models():
    rng = random.Random(777)
    for _ in range(40):
        n = rng.randint(2, 5)
        graph = random_anterial_graph(rng, LABELS[:n], 0.5)
        model = induced_model(graph)
        for class_filter in ("UG", "BG"):
            verdict = restricted_graphical(model, class_filter)
            for w in verdict.witnesses:
                assert is_faithful(model, w)


def test_every_three_node_model_through_restricted_routes():
    # all 512 independence models over three nodes: whenever the UG or BG
    # gate passes, the skeleton drawn in lines or arcs must verify faithful
    # (the one-option search raises InternalCheckError otherwise, so
    # surviving the sweep is the assertion); verdicts must also match the
    # unrestricted search intersected with the class
    from graphfaith.faithfulness import decide_graphical

    ground = ("a", "b", "c")
    probe = IndependenceModel(ground, 0)
    codes = [probe._code(am, bm, cm) for am, bm, cm in _iter_triple_masks(3)]
    for bits in range(1 << len(codes)):
        mask = 0
        for k, code in enumerate(codes):
            if (bits >> k) & 1:
                mask |= 1 << code
        model = IndependenceModel(ground, mask)
        full = decide_graphical(model)
        for class_filter, kind_set in (("UG", {"--"}), ("BG", {"<->"}), ("DAG", {"->"})):
            verdict = restricted_graphical(model, class_filter)
            in_class = [w for w in full.witnesses if {e.kind for e in w.edges} <= kind_set]
            if verdict.graphical:
                assert all(is_faithful(model, w) for w in verdict.witnesses)
                assert in_class, (bits, class_filter)
            else:
                assert not in_class, (bits, class_filter)


def test_three_node_census_regression():
    # frozen counts: 90 anterial graphs on three labeled nodes in 11 Markov
    # equivalence classes, every class reconstructed exactly by the search
    from graphfaith.faithfulness import decide_graphical

    labels = ("a", "b", "c")
    by_model = {}
    for choices in itertools.product(("none", "--", "->", "<-", "<->"), repeat=3):
        graph = build_graph(labels, choices)
        if graph.semi_directed_cycle() is not None or graph.violating_arc() is not None:
            continue
        by_model.setdefault(induced_model(graph).members, []).append(graph)
    assert sum(len(v) for v in by_model.values()) == 90
    assert len(by_model) == 11
    for members in by_model.values():
        verdict = decide_graphical(induced_model(members[0]))
        assert {w.edges for w in verdict.witnesses} == {g.edges for g in members}


def test_full_independence_everywhere():
    # degenerate grounds: the full model is graphical in every class
    for n in (0, 1, 2, 3):
        model = IndependenceModel.full_independence(LABELS[:n])
        for class_filter in ("UG", "BG", "DAG", "AnG"):
            verdict = restricted_graphical(model, class_filter)
            assert verdict.graphical
            assert any(w.edges == () for w in verdict.witnesses)
