"""Markov/faithfulness deciders, graphicality search, and its sharp edges."""

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphfaith.errors import CapExceededError, GraphError, InternalCheckError, ModelError
from graphfaith.gaussian import adjacency_weight_matrix, model_from_concentration, model_from_covariance
from graphfaith.generate import all_anterial_graphs, flip_one_elementary, random_anterial_graph, random_connected_ug
from graphfaith.graphs import (
    MixedGraph,
    classify,
    graph_to_text,
    induced_model,
    line,
    markov_equivalent,
    model_skeleton,
    parse_graph_text,
    separates,
)
from graphfaith import faithfulness, preorders
from graphfaith.faithfulness import (
    decide_graphical,
    is_faithful,
    is_markov,
    is_minimally_markov,
    is_pairwise_markov,
    pairwise_conditioning_set,
    restricted_graphical,
)
from graphfaith.models import (
    IndependenceModel,
    _iter_triple_masks,
    _stabilities_hold,
    check_semi_graphoid,
    check_singleton_transitivity,
    model_to_text,
    parse_model_text,
    skeleton_pairs,
)
from graphfaith.limits import Caps
from graphfaith.preorders import _iter_anterial_directings, minimal_preorder

from conftest import (
    LABELS,
    anterial_graphs,
    build_graph,
    census_models,
    reference_ordered_down_violations,
    reference_ordered_up_violations,
)


def g(text):
    return parse_graph_text(text)


def complete_graph(labels):
    edges = [line(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]]
    return MixedGraph(frozenset(labels), tuple(edges))


# -- model skeleton -------------------------------------------------------------


def test_model_skeleton_complete_ug():
    j = induced_model(complete_graph("abc"))
    assert model_skeleton(j) == complete_graph("abc")


def test_model_skeleton_full_independence():
    j = IndependenceModel.full_independence("abc")
    assert model_skeleton(j).edges == ()


# -- pairwise conditioning sets ----------------------------------------------------


def test_conditioning_set_bg():
    bg = g("a <-> b\nb <-> c")
    assert pairwise_conditioning_set(bg, "a", "c") == frozenset()


def test_conditioning_set_connected_ug():
    ug = g("1 -- 2\n2 -- 3")
    assert pairwise_conditioning_set(ug, "1", "3") == frozenset({"2"})


def test_conditioning_set_dag():
    dag = g("a -> b\nb -> c")
    assert pairwise_conditioning_set(dag, "a", "c") == frozenset({"b"})


def test_conditioning_set_adjacent_error():
    with pytest.raises(GraphError, match="adjacent"):
        pairwise_conditioning_set(g("a -- b"), "a", "b")


def test_conditioning_set_of_one_node_twice_is_refused():
    with pytest.raises(GraphError, match="two nodes"):
        pairwise_conditioning_set(g("a -- b\nb -> c"), "a", "a")


# -- markov deciders ------------------------------------------------------------------


def test_everything_markov_to_complete_graph():
    j = induced_model(g("a -> c\nb -> c"))
    comp = complete_graph(("a", "b", "c"))
    assert is_markov(j, comp)
    assert is_pairwise_markov(j, comp)
    assert not is_minimally_markov(j, comp)


def test_graph_model_markov_to_itself():
    graph = g("a -> c\nb -> c")
    j = induced_model(graph)
    assert is_markov(j, graph)
    assert is_pairwise_markov(j, graph)
    assert is_minimally_markov(j, graph)
    assert is_faithful(j, graph)


def test_markov_ground_mismatch():
    j = induced_model(g("a -- b"))
    with pytest.raises(ModelError, match="does not match"):
        is_markov(j, g("a -- c"))


@given(anterial_graphs(max_nodes=4))
def test_pairwise_iff_global_on_maximal(graph):
    if classify(graph).is_maximal is not True:
        return
    j = induced_model(graph)
    assert is_pairwise_markov(j, graph) == is_markov(j, graph) == True  # noqa: E712


def test_faithful_distinguishes_chain_from_collider():
    chain = g("a -> b\nb -> c")
    collider = g("a -> b\nc -> b")
    assert not is_faithful(induced_model(chain), collider)


# -- skeleton bounds and minimality hold for maximal graphs; pinned exception below --


@given(anterial_graphs(max_nodes=4), st.integers(0, 2**30))
def test_markov_supersets_bound_skeleton_when_maximal(graph, seed):
    if classify(graph).is_maximal is not True:
        return
    j = induced_model(graph)
    enlarged = j
    rng = random.Random(seed)
    for _ in range(2):
        candidate = flip_one_elementary(rng, enlarged)
        if candidate.members & ~enlarged.members:  # keep only additions: stays Markov
            enlarged = candidate
    assert is_markov(enlarged, graph)
    assert skeleton_pairs(enlarged) <= graph.adjacent_pairs


@given(anterial_graphs(max_nodes=4))
def test_faithful_implies_minimally_markov_when_maximal(graph):
    if classify(graph).is_maximal is not True:
        return
    j = induced_model(graph)
    assert is_faithful(j, graph)
    assert is_minimally_markov(j, graph)


def test_nonmaximal_graph_breaks_skeleton_bound():
    # both non-adjacent pairs of this anterial graph are inseparable: walks
    # that revisit a node through the arcs connect them given anything, so
    # the model skeleton is complete while the graph is not
    graph = build_graph("abcd", ("none", "--", "<->", "<->", "--", "none"))
    assert classify(graph).is_maximal is False
    j = induced_model(graph)
    assert is_markov(j, graph) and is_faithful(j, graph)
    assert skeleton_pairs(j) == frozenset(
        {("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")}
    )
    assert not is_minimally_markov(j, graph)


# -- decide_graphical -------------------------------------------------------------------


def test_full_independence_is_graphical_with_edgeless_witness():
    j = IndependenceModel.full_independence("abc")
    verdict = decide_graphical(j)
    assert verdict.graphical
    assert any(w.edges == () for w in verdict.witnesses)


def test_transitivity_counterexample_not_graphical():
    j = IndependenceModel.from_statements(
        "abc", [({"a"}, {"c"}, set()), ({"a"}, {"c"}, {"b"})]
    )
    verdict = decide_graphical(j)
    assert not verdict.graphical
    assert verdict.failure.property_name == "singleton-transitivity"
    assert verdict.failure.witness == {"i": "a", "j": "c", "k": "b", "C": []}


def test_collider_class_is_exactly_head_head():
    j = induced_model(g("a -> c\nb -> c"))
    verdict = decide_graphical(j)
    assert verdict.graphical and len(verdict.witnesses) == 4
    for w in verdict.witnesses:
        assert all(e.mark_at("c") == "head" for e in w.edges)
        assert markov_equivalent(w, g("a -> c\nb -> c"))


def test_failure_order_semi_graphoid_first():
    # decomposition violated and singleton-transitivity violated; the
    # semi-graphoid report must win
    j = IndependenceModel.from_statements(
        "abc",
        [({"a"}, {"b", "c"}, set()), ({"a"}, {"c"}, set()), ({"a"}, {"c"}, {"b"})],
    )
    verdict = decide_graphical(j)
    assert not verdict.graphical
    assert verdict.failure.property_name == "semi-graphoid"


def test_no_witness_failure_record():
    # singleton-transitive compositional graphoid whose skeleton has no
    # faithful directing: the 4-cycle-with-arcs model from the sharp-edge
    # family; built directly as a model
    graph = build_graph("abcd", ("none", "--", "<->", "<->", "->", "none"))
    j = IndependenceModel(
        induced_model(graph).ground,
        induced_model(graph).members,
    )
    j2 = IndependenceModel.from_statements(
        j.ground,
        [(a, b, c) for a, b, c in j.statements()] + [({"c"}, {"d"}, {"a", "b"})],
    )
    verdict = decide_graphical(j2)
    if not verdict.graphical:
        assert verdict.failure.property_name in (
            "compatible-preorder-search",
            "semi-graphoid",
            "intersection",
            "composition",
            "singleton-transitivity",
        )


@given(anterial_graphs(max_nodes=4))
def test_round_trip_graphical(graph):
    j = induced_model(graph)
    verdict = decide_graphical(j)
    assert verdict.graphical
    assert any(induced_model(w) == j for w in verdict.witnesses)


@given(anterial_graphs(max_nodes=3))
def test_witnesses_are_pairwise_equivalent_and_faithful(graph):
    j = induced_model(graph)
    verdict = decide_graphical(j)
    for w in verdict.witnesses:
        assert is_faithful(j, w)
    for w1, w2 in zip(verdict.witnesses, verdict.witnesses[1:]):
        assert markov_equivalent(w1, w2)


@given(anterial_graphs(max_nodes=4))
def test_witnesses_minimally_markov(graph):
    # stability-passing compatible preorders yield minimal Markovness
    j = induced_model(graph)
    verdict = decide_graphical(j)
    for w in verdict.witnesses:
        assert is_minimally_markov(j, w)
        assert is_pairwise_markov(j, w)


# -- the stability screen is not sufficient on its own (pinned counterexample) -------


def test_stability_screen_requires_verification():
    four_cycle = build_graph("abcd", ("none", "--", "--", "--", "--", "none"))
    j = induced_model(four_cycle)
    rogue = build_graph("abcd", ("none", "--", "<->", "<->", "--", "none"))
    p = minimal_preorder(rogue)
    # the rogue directing passes the stability screen for the 4-cycle model...
    assert _stabilities_hold(j, p.leq_rows)
    assert check_semi_graphoid(j).passed and check_singleton_transitivity(j).passed
    # ...and the screen does guarantee minimal Markovness...
    assert is_minimally_markov(j, rogue)
    # ...but is not faithful to it: its own model is strictly smaller
    assert not is_faithful(j, rogue)
    assert induced_model(rogue).statement_count() == 0
    # decide_graphical therefore filters it out while keeping the true class
    verdict = decide_graphical(j)
    assert verdict.graphical
    assert rogue not in verdict.witnesses
    assert four_cycle in verdict.witnesses


def test_screen_passes_are_faithful_exactly_when_maximal_on_four_nodes():
    # Evidence, not a rule the code may use: over every screen pass of every
    # graph-induced 4-node model, faithfulness and maximality agree.  The
    # false positives are all non-maximal, and 12 of the 78 are ancestral.
    passes, false_positives = 0, []
    for model in census_models():
        for directing in _iter_anterial_directings(model):
            if _stabilities_hold(model, directing.rows):
                passes += 1
                h = directing.graph()
                faithful, classes = is_faithful(model, h), classify(h)
                assert faithful == classes.is_maximal
                if not faithful:
                    false_positives.append(classes)
    assert passes == 5000 and len(false_positives) == 78
    assert sum(classes.is_ag for classes in false_positives) == 12
    ancestral = parse_graph_text("a <-> d\nb <-> c\nc -> a\nc <-> d\nd -> b\n")
    model = induced_model(parse_graph_text("a -- c\na -- d\nb -- c\nb -- d\nc -- d\n"))
    assert model_to_text(model) == "a _||_ b | c d\n"
    assert _stabilities_hold(model, minimal_preorder(ancestral).leq_rows)
    assert classify(ancestral).is_ag and not classify(ancestral).is_maximal
    assert not is_faithful(model, ancestral)


def assert_witness_on_the_model_skeleton(h):
    """h is faithful to its own model; the search must still find a witness
    on that model's skeleton that induces the same model."""
    model = induced_model(h)
    verdict = decide_graphical(model)
    assert verdict.graphical
    assert any(induced_model(w, via_elementary=False) == model for w in verdict.witnesses)


def test_non_maximal_four_node_graphs_have_a_witness_on_the_model_skeleton():
    # `graphical: false` means no faithful graph only if every model with a
    # faithful graph has one on its own skeleton.  The faithful graphs off
    # their model's skeleton are the non-maximal ones: 78 anterial graphs on
    # four nodes, inducing 13 of the 299 models.
    non_maximal = [h for h in all_anterial_graphs("abcd") if h.adjacent_pairs != skeleton_pairs(induced_model(h))]
    assert len(non_maximal) == 78
    assert len({induced_model(h).members for h in non_maximal}) == 13
    assert all(classify(h).is_maximal is False for h in non_maximal)
    for h in non_maximal:
        assert_witness_on_the_model_skeleton(h)


def test_seeded_non_maximal_five_node_graphs_have_a_witness_on_the_model_skeleton():
    rng, models = random.Random(5), {}
    while len(models) < 24:
        h = random_anterial_graph(rng, "abcde", 0.6)
        if h.adjacent_pairs != skeleton_pairs(induced_model(h)):
            models.setdefault(induced_model(h).members, h)
    for h in models.values():
        assert_witness_on_the_model_skeleton(h)


def test_screen_passes_agree_three_ways_on_seeded_five_node_models():
    # Evidence, not a rule the code may use: on every screen pass of the
    # models of random_anterial_graph(Random(s), "abcde", 0.5), s < 100, a
    # pass is faithful exactly when it is maximal, and exactly when every
    # non-adjacent pair i, j is separated given C(i,j).
    seen, passes, unfaithful = set(), 0, 0
    for s in range(100):
        model = induced_model(random_anterial_graph(random.Random(s), "abcde", 0.5))
        if model.members in seen:
            continue
        seen.add(model.members)
        for directing in _iter_anterial_directings(model):
            if not _stabilities_hold(model, directing.rows):
                continue
            passes += 1
            h = directing.graph()
            faithful = is_faithful(model, h)
            assert faithful == classify(h).is_maximal
            pairwise = all(
                separates(h, {i}, {j}, pairwise_conditioning_set(h, i, j))
                for i, j in itertools.combinations(sorted(h.nodes), 2)
                if not h.is_adjacent(i, j)
            )
            assert faithful == pairwise
            unfaithful += not faithful
    assert (len(seen), passes, unfaithful) == (99, 15721, 306)


def test_search_builds_no_preorder(monkeypatch):
    # The directing search hands the screen leq rows, never a Preorder.
    graph = random_anterial_graph(random.Random(7), LABELS[:6], 0.4)  # 9 skeleton edges, 24 witnesses
    model = induced_model(graph)

    def no_preorder(*args, **kwargs):
        raise AssertionError("the search built a Preorder")

    monkeypatch.setattr(preorders, "Preorder", no_preorder)
    verdict = decide_graphical(model)
    assert verdict.graphical and graph in verdict.witnesses


def test_stability_table_matches_violation_generators():
    # The table-driven screen against the membership-lookup references of
    # both ordered stabilities, on the minimal preorder of every anterial
    # directing of graph-induced models and of single-statement
    # perturbations of them.
    rng = random.Random(3)
    outcomes = []
    models = 0
    while models < 8:
        graph = random_anterial_graph(rng, LABELS[: rng.randint(5, 6)], 0.35)
        j = induced_model(graph)
        if not 5 <= len(skeleton_pairs(j)) <= 7:
            continue
        models += 1
        for model in (j, flip_one_elementary(rng, j)):
            for directing in _iter_anterial_directings(model):
                rows = directing.rows
                expected = (
                    next(reference_ordered_up_violations(model, rows), None) is None
                    and next(reference_ordered_down_violations(model, rows), None) is None
                )
                assert _stabilities_hold(model, rows) == expected
                outcomes.append(expected)
    assert True in outcomes and False in outcomes


def test_necessity_disjunction_counterexample_documented():
    # adding the statement of an inseparable non-adjacent pair keeps the
    # minimal-Markov + singleton-transitivity + stability probes green even
    # though the model is no longer faithful; this is the known sharp edge
    # of the necessity conditions, kept here as a regression record
    graph = build_graph("abcd", ("none", "--", "<->", "<->", "->", "none"))
    j = induced_model(graph)
    flipped = IndependenceModel.from_statements(
        j.ground, [(a, b, c) for a, b, c in j.statements()] + [({"c"}, {"d"}, {"a", "b"})]
    )
    assert not is_faithful(flipped, graph)
    assert check_singleton_transitivity(flipped).passed
    assert _stabilities_hold(flipped, minimal_preorder(graph).leq_rows)
    assert is_minimally_markov(flipped, graph)


# -- restricted searches ------------------------------------------------------------


def test_restricted_ug_round_trip():
    ug = g("1 -- 2\n2 -- 3")
    verdict = restricted_graphical(induced_model(ug), "UG")
    assert verdict.graphical and verdict.witnesses == (ug,)


def test_restricted_bg_round_trip():
    bg = g("a <-> b\nb <-> c")
    verdict = restricted_graphical(induced_model(bg), "BG")
    assert verdict.graphical and verdict.witnesses == (bg,)


def test_restricted_ug_rejects_collider():
    j = induced_model(g("a -> c\nb -> c"))
    verdict = restricted_graphical(j, "UG")
    assert not verdict.graphical
    assert verdict.failure.property_name == "upward-stability"
    assert verdict.failure.witness == {"i": "a", "j": "b", "C": [], "k": "c"}


def test_restricted_bg_rejects_chain():
    j = induced_model(g("a -> b\nb -> c"))
    verdict = restricted_graphical(j, "BG")
    assert not verdict.graphical
    assert verdict.failure.property_name == "downward-stability"


def test_restricted_dag_finds_chain_class():
    chain = g("a -> b\nb -> c")
    verdict = restricted_graphical(induced_model(chain), "DAG")
    assert verdict.graphical
    assert len(verdict.witnesses) == 3  # both chains and the fork; only the collider differs
    for w in verdict.witnesses:
        assert markov_equivalent(w, chain)


def test_restricted_dag_rejects_ug_square():
    square = build_graph("abcd", ("none", "--", "--", "--", "--", "none"))
    verdict = restricted_graphical(induced_model(square), "DAG")
    assert not verdict.graphical
    assert verdict.failure.property_name == "compatible-order-search"


def test_restricted_ang_same_as_unrestricted():
    j = induced_model(g("a -> c\nb -> c"))
    assert restricted_graphical(j, "AnG").to_json_dict() == decide_graphical(j).to_json_dict()


def test_restricted_unknown_filter():
    with pytest.raises(ModelError, match="class filter"):
        restricted_graphical(induced_model(g("a -- b")), "PDAG")


GATE_CHECKS = (
    "check_semi_graphoid",
    "check_intersection",
    "check_composition",
    "check_singleton_transitivity",
    "check_upward_stability",
    "check_downward_stability",
)


def test_gate_checks_resolve_through_module_names(monkeypatch):
    # Wrappers set on faithfulness.check_* (as an outside tracer sets them)
    # must see every gate call: each route runs its four checks once, in
    # order, with the caps it was given.
    calls = []
    for name in GATE_CHECKS:
        original = getattr(faithfulness, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append((_name, kwargs["cap"]))
            return _original(*args, **kwargs)

        monkeypatch.setattr(faithfulness, name, counting)
    caps = Caps(model_nodes=9, set_axiom_nodes=7, elementary_axiom_nodes=11, skeleton_edges=10)
    # passes every condition of every class: one edge and an isolated node
    model = induced_model(g("node c\na -- b"))
    expected = {
        "UG": [
            ("check_semi_graphoid", 7),
            ("check_intersection", 7),
            ("check_singleton_transitivity", 11),
            ("check_upward_stability", 11),
        ],
        "BG": [
            ("check_semi_graphoid", 7),
            ("check_composition", 7),
            ("check_singleton_transitivity", 11),
            ("check_downward_stability", 11),
        ],
        "DAG": [
            ("check_semi_graphoid", 7),
            ("check_intersection", 7),
            ("check_composition", 7),
            ("check_singleton_transitivity", 11),
        ],
    }
    for kind, checks in expected.items():
        calls.clear()
        assert restricted_graphical(model, kind, caps=caps).graphical
        assert calls == checks
    calls.clear()
    assert decide_graphical(model, caps=caps).graphical
    assert calls == expected["DAG"]


def test_search_failure_payloads_pinned():
    # Both search routes, gate passed, no witness: the full failure JSON,
    # key order included, since it is what `graphical --json` prints.
    model = parse_model_text("node a\nnode b\nnode c\nnode d\na _||_ d | b\nb _||_ d | c\n")
    verdict = decide_graphical(model)
    assert verdict.to_json_dict() == {
        "graphical": False,
        "witnesses": [],
        "failure": {
            "property": "compatible-preorder-search",
            "witness": {"directings_tried": 116, "stability_passing": 0},
        },
    }
    assert json.dumps(verdict.failure.to_json_dict()) == (
        '{"property": "compatible-preorder-search", '
        '"witness": {"directings_tried": 116, "stability_passing": 0}}'
    )
    assert restricted_graphical(model, "AnG").to_json_dict() == verdict.to_json_dict()
    dag = restricted_graphical(model, "DAG")
    assert dag.to_json_dict() == {
        "graphical": False,
        "witnesses": [],
        "failure": {
            "property": "compatible-order-search",
            "witness": {"dags_tried": 12, "stability_passing": 0},
        },
    }
    assert json.dumps(dag.failure.to_json_dict()) == (
        '{"property": "compatible-order-search", '
        '"witness": {"dags_tried": 12, "stability_passing": 0}}'
    )
    square = build_graph("abcd", ("none", "--", "--", "--", "--", "none"))
    assert restricted_graphical(induced_model(square), "DAG").failure.to_json_dict() == {
        "property": "compatible-order-search",
        "witness": {"dags_tried": 14, "stability_passing": 0},
    }


def test_dag_failure_payload_on_seven_nodes_pinned():
    # Seed-1 7-node graph-induced model with 12 skeleton edges: 702 acyclic
    # orientations, none passing the screen.  Enumerating only the two arrows
    # per pair reaches them without walking its 207,260 anterial directings.
    model = induced_model(random_anterial_graph(random.Random(1), "abcdefg", 0.5))
    assert len(skeleton_pairs(model)) == 12
    assert restricted_graphical(model, "DAG").to_json_dict() == {
        "graphical": False,
        "witnesses": [],
        "failure": {
            "property": "compatible-order-search",
            "witness": {"dags_tried": 702, "stability_passing": 0},
        },
    }


@given(anterial_graphs(max_nodes=4))
def test_restricted_ug_matches_skeleton_when_passing(graph):
    j = induced_model(graph)
    verdict = restricted_graphical(j, "UG")
    if verdict.graphical:
        w = verdict.witnesses[0]
        assert w.adjacent_pairs == skeleton_pairs(j)
        assert is_faithful(j, w)


def _ug_bg_pin_models():
    """Every 3-node model; 150 seeded graph-induced 2-6-node models, each
    followed by one flip; 40 seeded 8-node concentration models I - A/10,
    each followed by the covariance model of I + A/10; and K8 as a
    concentration and K6 as a covariance, both above the edge cap."""
    ground = ("a", "b", "c")
    probe = IndependenceModel(ground, 0)
    codes = [probe._code(am, bm, cm) for am, bm, cm in _iter_triple_masks(3)]
    for bits in range(1 << len(codes)):
        yield IndependenceModel(ground, sum(1 << code for k, code in enumerate(codes) if (bits >> k) & 1))
    rng = random.Random(13)
    for _ in range(150):
        model = induced_model(random_anterial_graph(rng, LABELS[: rng.randint(2, 6)], 0.5))
        yield model
        yield flip_one_elementary(rng, model)
    for seed in range(1, 41):
        ug = random_connected_ug(random.Random(seed), tuple("abcdefgh"), 0.1)
        yield model_from_concentration(adjacency_weight_matrix(ug, "-1/10"))
        yield model_from_covariance(adjacency_weight_matrix(ug, "1/10"))
    yield model_from_concentration(adjacency_weight_matrix(complete_graph("abcdefgh"), "-1/10"))
    yield model_from_covariance(adjacency_weight_matrix(complete_graph("abcdef"), "1/10"))


def test_ug_bg_verdicts_pinned():
    # SHA-256 of every UG and BG verdict's JSON over the models above, as the
    # pairwise-graph route that preceded the one-option search printed them.
    lines = []
    for model in _ug_bg_pin_models():
        for kind in ("UG", "BG"):
            lines.append(json.dumps(restricted_graphical(model, kind).to_json_dict(), sort_keys=True))
    assert len(lines) == 2 * (512 + 300 + 80 + 2)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "fc16a207f4005fa7d30faf697698d7be9e2b14ca838df148fb99062c4d8d8267"


def test_complete_skeletons_pass_ug_and_bg_above_the_edge_cap():
    k8 = model_from_concentration(adjacency_weight_matrix(complete_graph("abcdefgh"), "-1/10"))
    k6 = model_from_covariance(adjacency_weight_matrix(complete_graph("abcdef"), "1/10"))
    assert restricted_graphical(k8, "UG").to_json_dict() == {
        "graphical": True,
        "witnesses": [graph_to_text(complete_graph("abcdefgh"))],
        "failure": None,
    }
    bg = restricted_graphical(k6, "BG")
    assert bg.graphical and [e.kind for e in bg.witnesses[0].edges] == ["<->"] * 15


def test_one_option_search_without_a_witness_is_an_internal_error(monkeypatch):
    # After a UG or BG gate pass the one drawn skeleton is faithful by the
    # closed-form theorem, so a search that confirms nothing is a bug.
    monkeypatch.setattr(faithfulness, "is_faithful", lambda model, g, cap: False)
    for kind, text in (("UG", "a -- b\nb -- c"), ("BG", "a <-> b\nb <-> c")):
        with pytest.raises(InternalCheckError, match=f"the {kind} gate passed, but the skeleton drawn in"):
            restricted_graphical(induced_model(g(text)), kind)
    assert not restricted_graphical(induced_model(g("a -> b")), "DAG").graphical


def test_multi_option_searches_keep_the_edge_cap():
    # A UG with 13 of the 15 pairs on six nodes: the one-option UG search
    # draws it, while DAG and AnG would enumerate directings and refuse.
    complete = complete_graph("abcdef")
    model = induced_model(MixedGraph(complete.nodes, complete.edges[2:]))
    assert len(skeleton_pairs(model)) == 13
    assert restricted_graphical(model, "UG").graphical
    for kind in ("DAG", "AnG"):
        with pytest.raises(CapExceededError, match="skeleton has 13 edges, above the directing cap 12"):
            restricted_graphical(model, kind)
    with pytest.raises(CapExceededError, match="skeleton has 13 edges"):
        decide_graphical(model)


# -- necessity probes ------------------------------------------------------------------


def test_perturbation_breaks_faithfulness():
    rng = random.Random(5)
    for _ in range(20):
        graph = random_anterial_graph(rng, LABELS[: rng.randint(2, 4)], 0.5)
        j = induced_model(graph)
        flipped = flip_one_elementary(rng, j)
        assert not is_faithful(flipped, graph)
        assert (
            not check_singleton_transitivity(flipped).passed
            or not _stabilities_hold(flipped, minimal_preorder(graph).leq_rows)
            or not is_minimally_markov(flipped, graph)
        )


def test_verdict_json_shape():
    verdict = decide_graphical(induced_model(g("a -- b")))
    d = verdict.to_json_dict()
    assert set(d) == {"graphical", "witnesses", "failure"}
    assert d["graphical"] is True and d["failure"] is None
    assert all(isinstance(w, str) and "a" in w for w in d["witnesses"])
