"""Seeded random generators used by the test harness and the demo scripts."""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from .graphs import MixedGraph, _add_anterior_step, arc, arrow, line
from .models import IndependenceModel, _iter_subsets
from .preorders import _EDGE_OPTIONS, Preorder, _iter_anterial_directings, direct_skeleton


def random_skeleton(rng: random.Random, labels: Sequence[str], edge_prob: float = 0.5) -> MixedGraph:
    edges = []
    for x, u in enumerate(labels):
        for v in labels[x + 1 :]:
            if rng.random() < edge_prob:
                edges.append(line(u, v))
    return MixedGraph(frozenset(labels), tuple(edges))


def random_connected_ug(rng: random.Random, labels: Sequence[str], extra_prob: float = 0.3) -> MixedGraph:
    """Random spanning tree plus extra lines; connected by construction."""
    order = list(labels)
    rng.shuffle(order)
    edges = [line(order[i], rng.choice(order[:i])) for i in range(1, len(order))]
    for x, u in enumerate(labels):
        for v in labels[x + 1 :]:
            if rng.random() < extra_prob:
                edges.append(line(u, v))
    g = MixedGraph(frozenset(labels), tuple(edges))
    return MixedGraph(g.nodes, tuple(sorted(set(g.edges))))


def random_preorder(rng: random.Random, labels: Sequence[str], order_prob: float = 0.5) -> Preorder:
    """Random partition into classes plus a random partial order over them."""
    shuffled = list(labels)
    rng.shuffle(shuffled)
    classes: list[list[str]] = []
    for lab in shuffled:
        if classes and rng.random() < 0.4:
            rng.choice(classes).append(lab)
        else:
            classes.append([lab])
    ground = tuple(sorted(set(labels)))
    at = {lab: i for i, lab in enumerate(ground)}
    # rows[i] holds the j with i <= j; a step a -> b puts b below a.
    rows = [1 << i for i in range(len(ground))]
    for cls_ in classes:
        for lab in cls_[1:]:
            _add_anterior_step(rows, at[cls_[0]], at[lab])
            _add_anterior_step(rows, at[lab], at[cls_[0]])
    # class x below class y, for a random set of x < y; the steps keep the rows closed
    k = len(classes)
    for x in range(k):
        for y in range(x + 1, k):
            if rng.random() < order_prob:
                _add_anterior_step(rows, at[classes[y][0]], at[classes[x][0]])
    return Preorder(ground, tuple(rows))


def random_anterial_graph(
    rng: random.Random, labels: Sequence[str], edge_prob: float = 0.5
) -> MixedGraph:
    """Direct a random skeleton by a random preorder; anterial by construction."""
    sk = random_skeleton(rng, labels, edge_prob)
    return direct_skeleton(sk, random_preorder(rng, labels))


def random_dag(rng: random.Random, labels: Sequence[str], edge_prob: float = 0.5) -> MixedGraph:
    order = list(labels)
    rng.shuffle(order)
    edges = []
    for x in range(len(order)):
        for y in range(x + 1, len(order)):
            if rng.random() < edge_prob:
                edges.append(arrow(order[x], order[y]))
    return MixedGraph(frozenset(labels), tuple(edges))


def random_mixed_graph(
    rng: random.Random,
    labels: Sequence[str],
    edge_prob: float = 0.5,
    multi_prob: float = 0.15,
) -> MixedGraph:
    """Arbitrary mixed graph for engine stress tests: random kind per pair,
    sometimes with a parallel arc (the multi-edge shapes a CMG may carry)."""
    edges = []
    for x, u in enumerate(labels):
        for v in labels[x + 1 :]:
            if rng.random() >= edge_prob:
                continue
            kind = rng.choice(("line", "arrow", "worra", "arc"))
            if kind == "line":
                edges.append(line(u, v))
            elif kind == "arrow":
                edges.append(arrow(u, v))
            elif kind == "worra":
                edges.append(arrow(v, u))
            else:
                edges.append(arc(u, v))
            if kind != "arc" and rng.random() < multi_prob:
                edges.append(arc(u, v))
    return MixedGraph(frozenset(labels), tuple(edges))


def all_anterial_graphs(labels: Sequence[str]) -> Iterator[MixedGraph]:
    """Every anterial graph on these labels, exhaustively: the directings of
    the complete skeleton in which a pair may also stay unjoined.  Each pair
    (u, v), in sorted label order, has no edge, u -- v, u -> v, v -> u or
    u <-> v, tried in that order with the last pair varying fastest."""
    ground = tuple(sorted(labels))
    complete = IndependenceModel(ground, 0)  # no statements: every pair is a skeleton edge
    for directing in _iter_anterial_directings(
        complete, edge_cap=len(ground) * (len(ground) - 1) // 2, options=(None, *_EDGE_OPTIONS)
    ):
        yield directing.graph()


def flip_one_elementary(rng: random.Random, model: IndependenceModel) -> IndependenceModel:
    """Toggle one uniformly chosen elementary statement of the model."""
    n = model.n
    full = (1 << n) - 1
    codes = sorted(
        model._code(1 << i, 1 << j, cm)
        for i in range(n)
        for j in range(i + 1, n)
        for cm in _iter_subsets(full ^ (1 << i) ^ (1 << j))
    )
    code = rng.choice(codes)
    return IndependenceModel(model.ground, model.members ^ (1 << code))
