"""The directing search pruned by unshielded colliders, against the unpruned search.

The pruned pass must confirm the same witnesses in the same order, and a
search without a witness must report the unpruned counts, byte for byte.
The unpruned route is `reference_sweep` (tests/conftest.py), the search with
no prune beyond the anterial one.
"""

import hashlib
import itertools
import json
import random
from functools import lru_cache

import pytest

from graphfaith import faithfulness
from graphfaith.faithfulness import _collider_checks, restricted_graphical
from graphfaith.generate import all_anterial_graphs, flip_one_elementary, random_anterial_graph
from graphfaith.graphs import induced_model, parse_graph_text
from graphfaith.limits import DEFAULT_CAPS
from graphfaith.models import _upward_rows_mask, skeleton_pairs
from graphfaith.preorders import _iter_anterial_directings, enumerate_compatible_preorders

from conftest import (
    census_models,
    keeps_collider_demands,
    reference_collider_demands,
    reference_search_json,
    trips_first_test,
)


@lru_cache(maxsize=None)
def seeded_graph_models():
    """Graph-induced models on 5 to 7 nodes with at most 8 skeleton edges."""
    rng = random.Random(2024)
    models = []
    while len(models) < 16:
        model = induced_model(random_anterial_graph(rng, "abcdefg"[: rng.randint(5, 7)], 0.4))
        if len(skeleton_pairs(model)) <= 8:
            models.append(model)
    return tuple(models)


@lru_cache(maxsize=None)
def gate_passing_models_without_witness():
    """Seeded one-statement flips of graph-induced 4- to 6-node models that
    pass the AnG gate and have no witness: (consistent rows, inconsistent)."""
    rng = random.Random(5)
    consistent, inconsistent = [], []
    while len(consistent) < 12 or len(inconsistent) < 6:
        n = rng.randint(4, 6)
        model = flip_one_elementary(rng, induced_model(random_anterial_graph(rng, "abcdef"[:n], 0.5)))
        if len(skeleton_pairs(model)) > 8 or faithfulness._gate_failure(model, "ANG", DEFAULT_CAPS):
            continue
        kept = consistent if reference_collider_demands(model) is not None else inconsistent
        if len(kept) < (12 if kept is consistent else 6) and not restricted_graphical(model, "AnG").graphical:
            kept.append(model)
    return tuple(consistent), tuple(inconsistent)


@lru_cache(maxsize=None)
def six_node_flips():
    """The seeded one-statement flips of graph-induced six-node models,
    seeds 0 to 299, that pass the AnG gate."""
    flips = []
    for seed in range(300):
        model = induced_model(random_anterial_graph(random.Random(seed), "abcdef", 0.5))
        model = flip_one_elementary(random.Random(seed), model)
        if not faithfulness._gate_failure(model, "ANG", DEFAULT_CAPS):
            flips.append(model)
    return tuple(flips)


@pytest.fixture
def passes(monkeypatch):
    """Each pass of the search's enumerator: [pruned, directings yielded]."""
    calls = []
    original = faithfulness._iter_anterial_directings

    def recording(model, **kwargs):
        call = [kwargs.get("colliders") is not None, 0]
        calls.append(call)
        for directing in original(model, **kwargs):
            call[1] += 1
            yield directing

    monkeypatch.setattr(faithfulness, "_iter_anterial_directings", recording)
    return calls


def assert_same_verdict(passes, model, kind):
    """The verdict JSON equals the unpruned one.  The witness pass runs
    unless a row rules out every directing, and takes the non-collider
    masks whenever the skeleton has a pair; a failure screens once more
    without them, for the payload's screen count."""
    verdict = restricted_graphical(model, kind)
    assert json.dumps(verdict.to_json_dict()) == json.dumps(reference_search_json(model, kind))
    checks = _collider_checks(model)
    made = [with_checks for with_checks, _ in passes]
    passes.clear()
    assert made == ([bool(checks)] if checks is not None else []) + ([False] if not verdict.graphical else [])
    return verdict


def assert_prune_is_the_collider_rule(model, kind):
    """The enumeration with the non-collider masks and the upward mask
    yields exactly the unpruned directings that keep the statement-by-
    statement collider rule and pass the screen's first test, in the same
    order: the upward mask carries the wanted colliders."""
    wanted = reference_collider_demands(model)
    checks = _collider_checks(model)
    assert (checks is None) == (wanted is None)
    if wanted is None:
        return
    options = faithfulness._CLASS_OPTIONS[kind.upper()]
    up = _upward_rows_mask(model)
    pruned = [d.choices for d in _iter_anterial_directings(model, options=options, colliders=checks, up=up)]
    expected = [
        d.choices
        for d in _iter_anterial_directings(model, options=options)
        if keeps_collider_demands(d.graph(), wanted) and not trips_first_test(model, d.rows)
    ]
    assert pruned == expected


def wanted_colliders(model):
    """(i, k, j) for each unshielded triple of the skeleton whose middle node
    k is in no separating set of i and j, by index."""
    skeleton = skeleton_pairs(model)

    def adjacent(x, y):
        return (min(x, y), max(x, y)) in skeleton

    g = model.ground
    for i, j in itertools.combinations(g, 2):
        if adjacent(i, j):
            continue
        rest = [x for x in g if x not in (i, j)]
        subsets = (c for r in range(len(rest) + 1) for c in itertools.combinations(rest, r))
        separating = [c for c in subsets if model.contains({i}, {j}, set(c))]
        for k in rest:
            if adjacent(i, k) and adjacent(j, k) and all(k not in c for c in separating):
                yield model._index[i], model._index[k], model._index[j]


def assert_upward_mask_holds_the_wanted_colliders(models):
    found = 0
    for model in models:
        up, n = _upward_rows_mask(model), model.n
        for i, k, j in wanted_colliders(model):
            found += 1
            assert up >> n * i + k & 1 and up >> n * j + k & 1
    assert found


@pytest.mark.parametrize("kind", ["AnG", "DAG"])
def test_census_verdicts_match_the_unpruned_search(passes, kind):
    models = census_models()
    assert len(models) == 299
    graphical = 0
    for model in models:
        graphical += assert_same_verdict(passes, model, kind).graphical
    # every model is graph-induced, so AnG finds a witness for each; a DAG
    # search fails wherever the class holds no DAG
    assert graphical == 299 if kind == "AnG" else 0 < graphical < 299


@pytest.mark.parametrize("kind", ["AnG", "DAG"])
def test_census_prune_is_the_collider_rule(kind):
    for model in census_models():
        assert_prune_is_the_collider_rule(model, kind)


@pytest.mark.parametrize("kind", ["AnG", "DAG"])
def test_seeded_five_to_seven_node_verdicts_match(passes, kind):
    models = seeded_graph_models()
    assert {model.n for model in models} == {5, 6, 7}
    for model in models:
        verdict = assert_same_verdict(passes, model, kind)
        assert verdict.graphical or kind == "DAG"
        assert_prune_is_the_collider_rule(model, kind)


@pytest.mark.parametrize("kind", ["AnG", "DAG"])
def test_failures_without_witness_keep_their_payload(passes, kind):
    consistent, inconsistent = gate_passing_models_without_witness()
    passes.clear()  # the first call above searched each model
    for model in consistent + inconsistent:
        verdict = assert_same_verdict(passes, model, kind)
        assert not verdict.graphical
        assert_prune_is_the_collider_rule(model, kind)
    for model in inconsistent:
        assert reference_collider_demands(model) is None


def test_seed_one_seven_node_model_pins(passes):
    # 207,259 anterial directings unpruned; 14 keep every collider check,
    # and 4 of those pass the upward prune.
    model = induced_model(random_anterial_graph(random.Random(1), "abcdefg", 0.5))
    verdict = faithfulness.decide_graphical(model)
    assert passes == [[True, 4]]
    assert len(verdict.witnesses) == 2
    # the verdict JSON's SHA-256 as the unpruned search printed it
    digest = hashlib.sha256(json.dumps(verdict.to_json_dict()).encode()).hexdigest()
    assert digest == "04aeae805ae39fefc2b1fdb1adc65d3d2a5c0da6667210a9cdf4e45e9fc0de0c"


def test_full_enumerations_keep_their_counts():
    assert sum(1 for _ in all_anterial_graphs("abcd")) == 5000
    assert sum(1 for model in census_models() for _ in enumerate_compatible_preorders(model)) == 30072


@pytest.mark.parametrize("kind, text", [("UG", "a -- b\nb -- c"), ("BG", "a <-> b\nb <-> c")])
def test_one_option_searches_take_no_prune(monkeypatch, passes, kind, text):
    monkeypatch.setattr(faithfulness, "_collider_checks", None)  # a call would fail
    assert restricted_graphical(induced_model(parse_graph_text(text)), kind).graphical
    assert passes == [[False, 1]]


def test_rows_that_rule_out_every_directing_skip_the_witness_pass(monkeypatch):
    flips = six_node_flips()
    ruled_out = [model for model in flips if _collider_checks(model) is None]
    assert (len(flips), len(ruled_out)) == (62, 13)
    expected = [json.dumps(reference_search_json(model, "AnG")) for model in ruled_out]

    def verify(*args, **kwargs):
        raise AssertionError("a ruled-out search verified a directing")

    monkeypatch.setattr(faithfulness, "is_faithful", verify)
    assert [json.dumps(faithfulness.decide_graphical(model).to_json_dict()) for model in ruled_out] == expected


def test_skeleton_is_the_unseparated_pairs_in_sorted_order():
    for model in census_models() + seeded_graph_models():
        g = model.ground
        unseparated = []
        for i, j in itertools.combinations(range(model.n), 2):
            rest = [x for x in g if x not in (g[i], g[j])]
            subsets = (c for r in range(len(rest) + 1) for c in itertools.combinations(rest, r))
            if not any(model.contains({g[i]}, {g[j]}, set(c)) for c in subsets):
                unseparated.append((i, j))
        assert model._skeleton == tuple(unseparated)


def test_collider_checks_layout():
    # a -> c <- b, c -- d: pairs (a,c) (b,c) (c,d); a, b meet at c as a
    # collider, which gets no mask; a, d and b, d meet at c as
    # non-colliders, each filed at (c,d) with bit c of rows a, d and b, d
    model = induced_model(parse_graph_text("a -> c\nb -> c\nc -- d"))
    assert _collider_checks(model) == ((), (), (1 << 2 | 1 << 14, 1 << 6 | 1 << 14))


def test_upward_mask_holds_every_wanted_collider():
    consistent, inconsistent = gate_passing_models_without_witness()
    for models in (census_models(), seeded_graph_models(), consistent, inconsistent):
        assert_upward_mask_holds_the_wanted_colliders(models)
