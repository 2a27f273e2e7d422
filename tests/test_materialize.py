"""Member-only materialization pinned against the 4^n reference routes.

The references in conftest decode every base-4 code below 4^n; the library
generates triples directly and materializes a model from its members only,
so every comparison here is an exact equality of triple sets or models.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given

from graphfaith.errors import ParseError
from graphfaith.gaussian import RationalMatrix, inverse, partial_covariance
from graphfaith.generate import flip_one_elementary, random_anterial_graph, random_connected_ug
from graphfaith.graphs import induced_model, separates
from graphfaith.models import (
    IndependenceModel,
    _iter_bits,
    _iter_triple_masks,
    elementary_table,
    marginalize_and_condition,
    model_from_elementary,
    model_to_text,
    parse_model_text,
)

from conftest import (
    LABELS,
    reference_model_from_elementary,
    reference_triple_masks,
    small_models,
)

WIDE_LABELS = tuple("abcdefgh")


def _graph_map(g):
    ground = sorted(g.nodes)

    def holds(i, j, cm):
        return separates(g, {ground[i]}, {ground[j]}, {ground[k] for k in _iter_bits(cm)})

    return elementary_table(len(ground), holds)


@pytest.mark.parametrize("n", range(8))
def test_triple_generator_matches_code_decoding(n):
    new = list(_iter_triple_masks(n))
    assert len(new) == len(set(new))
    assert set(new) == set(reference_triple_masks(n))


@pytest.mark.parametrize("n", (3, 4, 5, 6, 7, 8))
def test_model_from_elementary_matches_reference_on_graphs(n):
    for seed in range(2):
        g = random_anterial_graph(random.Random(100 * n + seed), WIDE_LABELS[:n], edge_prob=0.4)
        elem = _graph_map(g)
        ground = tuple(sorted(g.nodes))
        model = model_from_elementary(ground, elem)
        assert model == reference_model_from_elementary(ground, elem)
        assert model.statement_count() > 0


def test_model_from_elementary_matches_reference_on_gaussians():
    for seed, n in ((1, 4), (2, 5), (3, 6)):
        labels = LABELS[:n]
        g = random_connected_ug(random.Random(seed), labels, 0.2)
        k = RationalMatrix.from_rows(
            labels,
            [
                [1 if a == b else (Fraction(-1, 10) if g.is_adjacent(a, b) else 0) for b in labels]
                for a in labels
            ],
        )
        sigma = inverse(k)

        def holds(i, j, cm):
            return partial_covariance(sigma, i, j, list(_iter_bits(cm))) == 0

        elem = elementary_table(n, holds)
        assert model_from_elementary(labels, elem) == reference_model_from_elementary(labels, elem)


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_model_from_elementary_matches_reference_on_random_bitmaps(n):
    # Not compositional, with bits at conditioning sets that hold i or j:
    # the rule is the same predicate, so the models must still be equal.
    for seed in range(4):
        rng = random.Random(1000 * n + seed)
        elem = {(i, j): rng.getrandbits(1 << n) for i in range(n) for j in range(i + 1, n)}
        ground = LABELS[:n]
        assert model_from_elementary(ground, elem) == reference_model_from_elementary(ground, elem)


def test_model_from_elementary_tiny_grounds():
    assert model_from_elementary((), {}) == IndependenceModel((), 0)
    assert model_from_elementary(("a",), {}) == IndependenceModel(("a",), 0)
    for bits in range(4):  # C can only be empty for two nodes; bit 1 and up are ignored
        elem = {(0, 1): bits}
        model = model_from_elementary(("b", "a"), elem)
        assert model == reference_model_from_elementary(("a", "b"), elem)
        assert model.contains({"a"}, {"b"}) == bool(bits & 1)


@given(small_models(max_nodes=4))
def test_byte_view_matches_the_member_integer(model):
    assert list(model._codes()) == list(_iter_bits(model.members))
    for am, bm, cm in reference_triple_masks(model.n):
        for x, y in ((am, bm), (bm, am)):
            expected = bool((model.members >> model._code(x, y, cm)) & 1)
            assert model._has(x, y, cm) == expected


def _reference_flip(rng, model):
    codes = [
        model._code(am, bm, cm)
        for am, bm, cm in reference_triple_masks(model.n)
        if am.bit_count() == 1 and bm.bit_count() == 1
    ]
    return IndependenceModel(model.ground, model.members ^ (1 << rng.choice(codes)))


def test_flip_one_elementary_matches_reference():
    for seed in range(6):
        g = random_anterial_graph(random.Random(seed), LABELS[: 3 + seed % 3], edge_prob=0.5)
        model = induced_model(g)
        assert flip_one_elementary(random.Random(seed), model) == _reference_flip(random.Random(seed), model)


@given(small_models(max_nodes=4))
def test_marginalize_and_condition_by_definition(model):
    ground = model.ground
    margin, condition = ground[:1], ground[-1:] if model.n > 1 else ()
    result = marginalize_and_condition(model, margin, condition)
    for am, bm, cm in reference_triple_masks(result.n):
        a, b, c = (result._labels_of(m) for m in (am, bm, cm))
        assert result.contains(a, b, c) == model.contains(a, b, c | set(condition))


def test_parse_keeps_first_appearance_order_and_errors():
    text = "node z\nc _||_ a | b\nz,b _||_ a\n"
    model = parse_model_text(text)
    assert model.ground == ("a", "b", "c", "z")
    assert model == IndependenceModel.from_statements("abcz", [("c", "a", "b"), ("zb", "a", "")])
    assert parse_model_text(model_to_text(model)) == model
    # syntax errors are found in a first pass, overlaps in a second one
    with pytest.raises(ParseError) as exc:
        parse_model_text("a _||_ a\nb _||_ c\nbad line\n", path="m.ci")
    assert exc.value.line == 3
    with pytest.raises(ParseError) as exc:
        parse_model_text("node q\nb _||_ c\nz,y _||_ x | y z\n", path="m.ci")
    assert exc.value.line == 3
    assert str(exc.value) == "m.ci:3: statement sets overlap on node 'y'"
