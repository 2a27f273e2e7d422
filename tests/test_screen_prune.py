"""The directing search pruned by the screen's upward test, and the failure
count from the frontier memo, against the unpruned search.

`reference_sweep` (tests/conftest.py) walks every anterial directing,
screens it and verifies the screen passes.  The pruned search must confirm
the same witnesses in the same order, a search without a witness must
report the same two counts, and `_count_anterial_directings` must equal
the enumerator's count for every option set the search uses.  The verdicts
of the 299 census models, of the seeded 5- to 7-node models and of the
gate-passing failures are compared with `reference_sweep` in
tests/test_collider_prune.py; here the prune itself is compared with the
screen's first test on the same models.
"""

import json
import random

import pytest

from graphfaith import faithfulness
from graphfaith.errors import CapExceededError
from graphfaith.faithfulness import _CLASS_OPTIONS, _collider_checks, decide_graphical, restricted_graphical
from graphfaith.generate import flip_one_elementary, random_anterial_graph
from graphfaith.graphs import MixedGraph, graph_to_text, induced_model, line
from graphfaith.limits import Caps
from graphfaith.models import _upward_rows_mask, skeleton_pairs
from graphfaith.preorders import _count_anterial_directings, _iter_anterial_directings

from conftest import census_models, reference_search_json, reference_sweep, trips_first_test
from test_collider_prune import gate_passing_models_without_witness, seeded_graph_models

KINDS = ("AnG", "DAG")


def complete_model(labels):
    """The model of the complete graph in lines: no statement at all."""
    edges = tuple(line(u, v) for x, u in enumerate(labels) for v in labels[x + 1 :])
    return induced_model(MixedGraph(frozenset(labels), edges))


def seeded_model(seed):
    return induced_model(random_anterial_graph(random.Random(seed), "abcdefg", 0.5))


def seeded_flip(seed):
    return flip_one_elementary(random.Random(seed), seeded_model(seed))


def assert_prune_keeps_the_first_test_passes(model, kind):
    """The upward prune yields exactly the unpruned directings whose rows
    pass the screen's first test, in the same order, with or without the
    non-collider masks."""
    options = _CLASS_OPTIONS[kind.upper()]
    up = _upward_rows_mask(model)
    checks = _collider_checks(model)
    for colliders in (None, checks) if checks else (None,):
        unpruned = _iter_anterial_directings(model, options=options, colliders=colliders)
        expected = [d.choices for d in unpruned if not trips_first_test(model, d.rows)]
        pruned = _iter_anterial_directings(model, options=options, colliders=colliders, up=up)
        assert [d.choices for d in pruned] == expected


def assert_matches_reference(model, kind):
    verdict = restricted_graphical(model, kind)
    assert json.dumps(verdict.to_json_dict()) == json.dumps(reference_search_json(model, kind))
    return verdict


@pytest.mark.parametrize("kind", KINDS)
def test_census_prune_keeps_the_first_test_passes(kind):
    models = census_models()
    assert len(models) == 299
    pruned_some = 0
    for model in models:
        assert_prune_keeps_the_first_test_passes(model, kind)
        pruned_some += _upward_rows_mask(model) != 0
    assert 0 < pruned_some < 299


@pytest.mark.parametrize("kind", KINDS)
def test_seeded_prune_keeps_the_first_test_passes(kind):
    for model in seeded_graph_models():
        assert_prune_keeps_the_first_test_passes(model, kind)


@pytest.mark.parametrize("model_of", [lambda: seeded_model(9), lambda: complete_model("abcde")], ids=["seed9", "k5"])
def test_large_classes_keep_their_witnesses_in_order(model_of):
    model = model_of()
    witnesses, _, _ = reference_sweep(model, _CLASS_OPTIONS["ANG"])
    assert len(witnesses) in (3786, 6942)
    verdict = decide_graphical(model)
    assert [graph_to_text(w) for w in verdict.witnesses] == [graph_to_text(w) for w in witnesses]


@pytest.mark.parametrize("seed, tried", [(78, 233956), (87, 127967)])
def test_seven_node_flip_payloads(seed, tried):
    model = seeded_flip(seed)
    verdict = assert_matches_reference(model, "AnG")
    assert verdict.failure.witness == {"directings_tried": tried, "stability_passing": 0}


@pytest.mark.parametrize(
    "model_of, counts",
    [
        (lambda: complete_model("abcde"), (6942, 120)),
        (lambda: complete_model("abcdef"), (209527, 720)),
        (lambda: seeded_model(1), (207259, 702)),
    ],
    ids=["k5", "k6", "seed1"],
)
def test_memo_count_equals_the_enumerator_on_large_skeletons(model_of, counts):
    model = model_of()
    for kind, expected in zip(KINDS, counts):
        options = _CLASS_OPTIONS[kind.upper()]
        assert _count_anterial_directings(model, options) == expected
        assert sum(1 for _ in _iter_anterial_directings(model, edge_cap=15, options=options)) == expected


def test_memo_count_equals_the_enumerator_on_seeded_models():
    consistent, inconsistent = gate_passing_models_without_witness()
    rng = random.Random(32)
    models = [*seeded_graph_models(), *consistent, *inconsistent]
    models += [flip_one_elementary(rng, induced_model(random_anterial_graph(rng, "abcdef"[: rng.randint(3, 6)], 0.6))) for _ in range(40)]
    for model in models:
        for kind in KINDS:
            options = _CLASS_OPTIONS[kind.upper()]
            expected = sum(1 for _ in _iter_anterial_directings(model, options=options))
            assert _count_anterial_directings(model, options) == expected


@pytest.mark.parametrize("seed", [78, 87])
def test_a_failure_counts_without_walking_every_directing(monkeypatch, seed):
    # A row of s = 78 rules out every directing, so its witness pass is
    # skipped and its one pass is the payload's screen count; s = 87 has
    # masks, and a second pass screens without them.  Each pass walks only
    # what the upward prune keeps, and the memo counts the rest.
    passes = []
    original = faithfulness._iter_anterial_directings

    def recording(model, **kwargs):
        passes.append([kwargs.get("colliders") is not None, 0])
        for directing in original(model, **kwargs):
            passes[-1][1] += 1
            yield directing

    monkeypatch.setattr(faithfulness, "_iter_anterial_directings", recording)
    verdict = decide_graphical(seeded_flip(seed))
    assert verdict.failure.witness["directings_tried"] == {78: 233956, 87: 127967}[seed]
    assert passes == {78: [[False, 304]], 87: [[True, 2], [False, 240]]}[seed]


def test_edge_cap_fires_one_edge_above_the_cap():
    model = complete_model("abcd")  # 6 skeleton edges
    assert len(skeleton_pairs(model)) == 6
    with pytest.raises(CapExceededError, match="skeleton has 6 edges, above the directing cap 5"):
        decide_graphical(model, caps=Caps(skeleton_edges=5))
    assert len(decide_graphical(model, caps=Caps(skeleton_edges=6)).witnesses) == 355
