"""Witness verification by elementary rows, against full materialization.

`is_faithful` builds no model: it asks that the model be a compositional
semi-graphoid, that its rows be empty on the graph's adjacent pairs, and
that every other row equal the graph's separation row.  The oracle is the
direct-triple route, `induced_model(g, via_elementary=False) == model`.
`markov_equivalent` compares separation tables, and `classify` stops each
non-adjacent pair at its first separating set; both are pinned against the
materialized or exhaustive answers.
"""

import random

import pytest

from graphfaith.cli import run
from graphfaith.errors import GraphError, ModelError
from graphfaith.faithfulness import is_faithful
from graphfaith.generate import flip_one_elementary, random_anterial_graph, random_mixed_graph
from graphfaith.graphs import (
    MixedGraph,
    arc,
    arrow,
    classify,
    induced_model,
    line,
    markov_equivalent,
    parse_graph_text,
)
from graphfaith.models import IndependenceModel, _decode_masks, _stabilities_hold, model_to_text
from graphfaith.preorders import _iter_anterial_directings

from conftest import census_models, reference_is_maximal


def materialized_faithful(model, g):
    return induced_model(g, via_elementary=False) == model


def drop_member(model, code):
    return IndependenceModel(model.ground, model.members & ~(1 << code))


def non_elementary_codes(model):
    return [code for code in model._codes() if any(m & (m - 1) for m in _decode_masks(code)[:2])]


def assert_agrees(model, g):
    verdict = is_faithful(model, g)
    assert verdict == materialized_faithful(model, g), (model_to_text(model), g)
    return verdict


def test_every_census_screen_pass_agrees():
    passes = confirmed = 0
    for model in census_models():
        for directing in _iter_anterial_directings(model):
            if _stabilities_hold(model, directing.rows):
                passes += 1
                confirmed += assert_agrees(model, directing.graph())
    assert (passes, passes - confirmed) == (5000, 78)


def test_seeded_anterial_graphs_flips_and_dropped_members():
    rng = random.Random(16)
    verdicts = []
    for n in range(3, 8):
        labels = "abcdefg"[:n]
        for _ in range(4 if n < 7 else 2):
            g = random_anterial_graph(rng, labels, rng.choice((0.3, 0.5, 0.7)))
            model = induced_model(g)
            other = random_anterial_graph(rng, labels, 0.5)
            candidates = [model, flip_one_elementary(rng, model), flip_one_elementary(rng, model)]
            if model.members:
                candidates.append(drop_member(model, rng.choice(list(model._codes()))))
            for candidate in candidates:
                for h in (g, other):
                    verdicts.append(assert_agrees(candidate, h))
    assert True in verdicts and False in verdicts


def test_random_mixed_graphs_with_multi_edges():
    rng = random.Random(61)
    multi = verdicts = 0
    for _ in range(40):
        labels = "abcdef"[: rng.randint(2, 6)]
        g = random_mixed_graph(rng, labels, edge_prob=0.6, multi_prob=0.4)
        multi += len(g.edges) > len(g.adjacent_pairs)
        model = induced_model(g)
        for candidate in (model, flip_one_elementary(rng, model), induced_model(random_mixed_graph(rng, labels))):
            verdicts += assert_agrees(candidate, g)
    assert multi and verdicts


def test_adjacent_pair_needs_an_empty_row():
    # every row matches on the non-adjacent pairs (there are none) and the
    # model is a compositional graphoid: only the adjacent row rules it out
    g = parse_graph_text("a -- b\n")
    assert not is_faithful(IndependenceModel.full_independence("ab"), g)
    assert not materialized_faithful(IndependenceModel.full_independence("ab"), g)


def test_model_must_be_closed_under_composition():
    # dropping a member with a side of two nodes keeps every elementary row,
    # so only the closure step tells the model from the graph's
    rng = random.Random(3)
    dropped = 0
    while dropped < 8:
        g = random_anterial_graph(rng, "abcde", 0.4)
        model = induced_model(g)
        codes = non_elementary_codes(model)
        if not codes:
            continue
        smaller = drop_member(model, rng.choice(codes))
        assert smaller._elementary == model._elementary
        assert not smaller._compositional
        assert not is_faithful(smaller, g)
        assert not materialized_faithful(smaller, g)
        assert is_faithful(model, g)
        dropped += 1


def test_errors_keep_their_order_and_text():
    model = induced_model(parse_graph_text("a -> c\nb -> c\n"))
    with pytest.raises(GraphError, match=r"^graph has 3 nodes, above the cap 2$"):
        is_faithful(model, parse_graph_text("a -> c\nb -> c\n"), cap=2)
    # the ground check comes first, also above the cap
    with pytest.raises(ModelError, match=r"^model ground \['a', 'b'\] does not match graph nodes \['a', 'c'\]$"):
        is_faithful(IndependenceModel.full_independence("ab"), parse_graph_text("a -- c\n"), cap=1)


@pytest.mark.parametrize(
    "model_text, graph_text, extra, code, out, err",
    [
        ("node c\na _||_ b\n", "a -> c\nb -> c\n", [], 0, '{"faithful": true}\n', ""),
        ("node c\na _||_ b\n", "a -> c\nb -> c\n", ["--cap", "2"], 2, "", "error: graph has 3 nodes, above the cap 2\n"),
        ("a _||_ b\n", "a -- b\n", [], 1, '{"faithful": false}\n', ""),
        (
            "a _||_ b\n",
            "a -- c\n",
            ["--cap", "1"],
            2,
            "",
            "error: model ground ['a', 'b'] does not match graph nodes ['a', 'c']\n",
        ),
    ],
)
def test_faithful_json_bytes_and_exit_codes(tmp_path, capsys, model_text, graph_text, extra, code, out, err):
    (tmp_path / "m.ci").write_text(model_text)
    (tmp_path / "g.graph").write_text(graph_text)
    argv = ["faithful", "--model", str(tmp_path / "m.ci"), "--graph", str(tmp_path / "g.graph"), "--json", *extra]
    assert run(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


def test_markov_equivalent_is_equality_of_induced_models():
    rng = random.Random(7)
    answers = set()
    for _ in range(60):
        labels = "abcde"[: rng.randint(2, 5)]
        g1 = random_mixed_graph(rng, labels, edge_prob=0.6, multi_prob=0.3)
        # g1's pairs joined again by other edges, so that equivalent pairs turn up
        kinds = (line, arc, arrow, lambda u, v: arrow(v, u))
        g2 = MixedGraph(g1.nodes, tuple(rng.choice(kinds)(u, v) for u, v in sorted(g1.adjacent_pairs)))
        for h in (g1, g2, random_mixed_graph(rng, labels, edge_prob=0.6, multi_prob=0.3)):
            answer = markov_equivalent(g1, h)
            assert answer == (induced_model(g1) == induced_model(h))
            if h != g1:
                answers.add(answer)
    assert answers == {True, False}


def test_markov_equivalent_errors():
    with pytest.raises(GraphError, match="different node sets"):
        markov_equivalent(parse_graph_text("a -- b\n"), parse_graph_text("a -- c\n"), cap=1)
    with pytest.raises(GraphError, match=r"^graph has 2 nodes, above the cap 1$"):
        markov_equivalent(parse_graph_text("a -- b\n"), parse_graph_text("a -> b\n"), cap=1)


def test_classify_maximality_matches_the_pairwise_search():
    rng = random.Random(10)
    seen = set()
    for _ in range(60):
        labels = "abcdefgh"[: rng.randint(3, 8)]
        g = random_anterial_graph(rng, labels, 0.5) if rng.random() < 0.5 else random_mixed_graph(rng, labels)
        report = classify(g)
        expected = reference_is_maximal(g) if report.is_cmg else None
        assert report.is_maximal == expected
        seen.add(expected)
    assert seen == {True, False, None}
