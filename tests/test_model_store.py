"""The model store's codec, member walk, materialization and elementary
checks, pinned against the member-by-member routes they replaced.

The references in conftest read one code, one statement, one pair or one
bit at a time; the library walks runs of non-zero bytes, groups rows by
conditioning set and shifts whole rows.  Every comparison is an exact
equality of triples, texts, models, tables or verdicts, over the 4-node
census, seeded 5- to 9-node graph models and their one-statement flips,
8-node concentration models like the Gaussian benchmark's, and explicit
statements that are no semi-graphoid.
"""

import random
import tracemalloc

import pytest

from graphfaith.errors import CapExceededError
from graphfaith.gaussian import adjacency_weight_matrix, model_from_concentration
from graphfaith.generate import flip_one_elementary, random_anterial_graph, random_connected_ug
from graphfaith.graphs import induced_model
from graphfaith.models import (
    IndependenceModel,
    _decode_masks,
    _iter_singleton_transitivity_violations,
    model_from_elementary,
    model_to_text,
    parse_model_text,
)

from conftest import (
    census_models,
    reference_elementary,
    reference_model_from_elementary,
    reference_model_to_text,
    reference_parse_model_text,
    reference_singleton_transitivity_violations,
    reference_stability_table,
)

WIDE_LABELS = tuple("abcdefghi")


def graph_models_and_flips():
    """Two seeded graph models per size from 5 to 9 nodes, each with one flip."""
    out = []
    for n in range(5, 10):
        for seed in range(2):
            rng = random.Random(10 * n + seed)
            model = induced_model(random_anterial_graph(rng, WIDE_LABELS[:n], 0.4))
            out += [model, flip_one_elementary(rng, model)]
    return out


def concentration_models():
    """Models of K = I - A/10 over random connected 8-node graphs."""
    graphs = [random_connected_ug(random.Random(s), WIDE_LABELS[:8], 0.1) for s in range(4)]
    return [model_from_concentration(adjacency_weight_matrix(g, "-1/10")) for g in graphs]


def statement_models():
    """Random explicit statements over 4 to 6 labels: no closure, so these
    are mostly no semi-graphoids."""
    out = []
    for s in range(12):
        rng = random.Random(s)
        labels = WIDE_LABELS[: 4 + s % 3]
        statements = []
        for _ in range(rng.randint(1, 40)):
            roles = [rng.randrange(4) for _ in labels]
            if 1 in roles and 2 in roles:
                statements.append(tuple({lab for lab, r in zip(labels, roles) if r == k} for k in (1, 2, 3)))
        out.append(IndependenceModel.from_statements(labels, statements))
    return out


def assert_store_matches_references(model):
    assert list(model._triples()) == [_decode_masks(code) for code in model._codes()]
    text = model_to_text(model)
    # as lines: a failing comparison of long texts then reports quickly
    assert text.splitlines(True) == reference_model_to_text(model).splitlines(True)
    assert parse_model_text(text) == reference_parse_model_text(text) == model
    assert model._elementary == reference_elementary(model)
    assert model._stability_table == reference_stability_table(model)
    violations = list(_iter_singleton_transitivity_violations(model))
    assert violations == list(reference_singleton_transitivity_violations(model))
    rows = model._elementary
    assert model_from_elementary(model.ground, rows) == reference_model_from_elementary(model.ground, rows)
    return not violations


def test_store_matches_references_on_the_census():
    for model in census_models():
        assert assert_store_matches_references(model)


def test_store_matches_references_on_graph_models_and_flips():
    verdicts = [assert_store_matches_references(model) for model in graph_models_and_flips()]
    # every graph model is singleton-transitive; some flips are not
    assert all(verdicts[::2]) and not all(verdicts[1::2])


def test_store_matches_references_on_concentration_models():
    models = concentration_models()
    assert all(model.statement_count() > 1000 for model in models)
    for model in models:
        assert assert_store_matches_references(model)


def test_store_matches_references_on_explicit_statements():
    models = statement_models()
    assert not any(model._semi_graphoid for model in models)
    verdicts = [assert_store_matches_references(model) for model in models]
    assert not all(verdicts)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_sparse_texts_stay_small():
    # 14 labels, one statement on the two lowest: the codec must size its
    # member buffer by the highest code, not by 4^14 bits (33.5 MB).
    text = "".join(f"node v{k:02d}\n" for k in range(12)) + "a _||_ b\n"

    def round_trip():
        model = parse_model_text(text)
        assert model.n == 14 and model.statement_count() == 1
        assert model_to_text(model) == text

    assert _peak_bytes(round_trip) < 2_000_000
    # 15 labels exceed the cap before any member bit is set.
    wide = "node v12\n" + text

    def refused():
        with pytest.raises(CapExceededError, match="^model text ground size 15 exceeds cap 14$"):
            parse_model_text(wide)

    assert _peak_bytes(refused) < 2_000_000
