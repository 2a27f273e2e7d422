"""Shared strategies and independent desk oracles for the test suite.

The oracles here deliberately re-derive everything from the raw definitions
(walk enumeration without pruning, section classification by scanning,
simple-path blocking for undirected graphs) so that agreement tests pin the
engines against independent code paths.
"""

from __future__ import annotations

import itertools
import random

import hypothesis
from hypothesis import strategies as st

from graphfaith.graphs import ARC, ARROW, HEAD, LINE, MixedGraph, arc, arrow, line
from graphfaith.models import IndependenceModel, _iter_triple_masks, skeleton_pairs

hypothesis.settings.register_profile(
    "suite", max_examples=50, derandomize=True, deadline=None
)
hypothesis.settings.load_profile("suite")

LABELS = tuple("abcdef")

EDGE_CHOICES = ("none", "--", "->", "<-", "<->")


def build_graph(labels, choices, extra_arcs=()):
    pairs = list(itertools.combinations(labels, 2))
    edges = []
    for (u, v), choice in zip(pairs, choices):
        if choice == "--":
            edges.append(line(u, v))
        elif choice == "->":
            edges.append(arrow(u, v))
        elif choice == "<-":
            edges.append(arrow(v, u))
        elif choice == "<->":
            edges.append(arc(u, v))
    for u, v in extra_arcs:
        edges.append(arc(u, v))
    return MixedGraph(frozenset(labels), tuple(edges))


@st.composite
def mixed_graphs(draw, min_nodes=2, max_nodes=4, multi=False):
    n = draw(st.integers(min_nodes, max_nodes))
    labels = LABELS[:n]
    pairs = list(itertools.combinations(labels, 2))
    choices = [draw(st.sampled_from(EDGE_CHOICES)) for _ in pairs]
    extra = []
    if multi:
        for (u, v), choice in zip(pairs, choices):
            if choice in ("--", "->", "<-") and draw(st.booleans()):
                extra.append((u, v))
    return build_graph(labels, choices, extra)


@st.composite
def anterial_graphs(draw, min_nodes=2, max_nodes=4):
    from graphfaith.generate import random_anterial_graph

    n = draw(st.integers(min_nodes, max_nodes))
    seed = draw(st.integers(0, 2**30))
    return random_anterial_graph(random.Random(seed), LABELS[:n], edge_prob=0.55)


@st.composite
def undirected_graphs(draw, min_nodes=2, max_nodes=5):
    n = draw(st.integers(min_nodes, max_nodes))
    labels = LABELS[:n]
    pairs = list(itertools.combinations(labels, 2))
    edges = [line(u, v) for (u, v) in pairs if draw(st.booleans())]
    return MixedGraph(frozenset(labels), tuple(edges))


@st.composite
def disjoint_queries(draw, graph):
    """A disjoint (A, B, C) query over the graph's nodes, A and B non-empty."""
    nodes = sorted(graph.nodes)
    roles = [draw(st.integers(0, 3)) for _ in nodes]
    a = {n for n, r in zip(nodes, roles) if r == 1}
    b = {n for n, r in zip(nodes, roles) if r == 2}
    c = {n for n, r in zip(nodes, roles) if r == 3}
    if not a:
        free = [n for n in nodes if n not in b and n not in c]
        hypothesis.assume(free)
        a = {free[0]}
    if not b:
        free = [n for n in nodes if n not in a and n not in c]
        hypothesis.assume(free)
        b = {free[0]}
    return frozenset(a), frozenset(b), frozenset(c)


@st.composite
def small_models(draw, min_nodes=2, max_nodes=4):
    n = draw(st.integers(min_nodes, max_nodes))
    ground = LABELS[:n]
    probe = IndependenceModel(tuple(ground), 0)
    codes = [probe._code(am, bm, cm) for am, bm, cm in _iter_triple_masks(n)]
    mask = 0
    for code in codes:
        if draw(st.booleans()):
            mask |= 1 << code
    return IndependenceModel(tuple(ground), mask)


# ----------------------------------------------------------------------
# Independent desk oracles
# ----------------------------------------------------------------------


def own_sections(nodes, edges):
    """Section decomposition by direct scan, written independently of Walk."""
    sections = []
    start = 0
    for i, e in enumerate(edges):
        if e.kind != LINE:
            sections.append((start, i))
            start = i + 1
    sections.append((start, len(nodes) - 1))
    return sections


def own_walk_connects(nodes, edges, c_set):
    """Definition check: collider sections meet C, non-collider ones avoid it."""
    for first, last in own_sections(nodes, edges):
        left_head = first > 0 and edges[first - 1].mark_at(nodes[first]) == HEAD
        right_head = last < len(edges) and edges[last].mark_at(nodes[last]) == HEAD
        is_collider = left_head and right_head
        meets_c = any(nodes[p] in c_set for p in range(first, last + 1))
        if is_collider != meets_c:
            return False
    return True


def bruteforce_connecting_exists(g: MixedGraph, a_set, b_set, c_set, max_len):
    """Literal enumeration of every walk up to max_len, no pruning at all.

    Exponential; callers keep graphs tiny.
    """
    incident = {v: [] for v in g.nodes}
    for e in g.edges:
        incident[e.u].append((e, e.v))
        incident[e.v].append((e, e.u))

    def extend(nodes, edges):
        if nodes[-1] in b_set and own_walk_connects(nodes, edges, c_set):
            return True
        if len(edges) >= max_len:
            return False
        for e, w in incident[nodes[-1]]:
            if extend(nodes + [w], edges + [e]):
                return True
        return False

    return any(extend([start], []) for start in sorted(a_set))


def ug_path_blocking_separates(g: MixedGraph, a_set, b_set, c_set):
    """For undirected graphs: separated iff every simple path hits C."""
    assert all(e.kind == LINE for e in g.edges)
    neighbours = {v: set() for v in g.nodes}
    for e in g.edges:
        neighbours[e.u].add(e.v)
        neighbours[e.v].add(e.u)

    def free_path_exists(path):
        v = path[-1]
        if v in b_set:
            return True
        for w in neighbours[v]:
            if w in path or w in c_set:
                continue
            if free_path_exists(path + [w]):
                return True
        return False

    return not any(free_path_exists([a]) for a in sorted(a_set) if a not in c_set)


def anterior_by_walks(g: MixedGraph, j, max_len=None):
    """ant(j) by enumerating walks and testing the anterior pattern directly:
    all lines, or at least one arrow with every arrow forward and no arcs."""
    if max_len is None:
        max_len = 2 * len(g.nodes)
    incident = {v: [] for v in g.nodes}
    for e in g.edges:
        if e.kind == LINE:
            incident[e.u].append((e, e.v))
            incident[e.v].append((e, e.u))
        elif e.kind == ARROW:
            incident[e.u].append((e, e.v))
    found = set()

    def walk(v, length):
        if length > 0 and v == j:
            return True
        if length >= max_len:
            return False
        return any(walk(w, length + 1) for _, w in incident[v])

    for i in sorted(g.nodes - {j}):
        if walk(i, 0):
            found.add(i)
    return found


def semi_graphoid_closure(model: IndependenceModel) -> IndependenceModel:
    """Fixpoint closure under decomposition, weak union, and contraction.

    Test-harness helper only (the library checks axioms, never forces them).
    """
    n = model.n
    probe = model
    mask = model.members
    triples = list(_iter_triple_masks(n))
    changed = True
    while changed:
        changed = False
        current = mask

        def has(am, bm, cm):
            wa, wb = probe._weights[am], probe._weights[bm]
            if wa < wb:
                wa, wb = wb, wa
            return (current >> (wa + 2 * wb + 3 * probe._weights[cm])) & 1

        for am, bm, cm in triples:
            if not has(am, bm, cm):
                continue
            for side_a, side_b in ((am, bm), (bm, am)):
                sub = 0
                while True:
                    sub = (sub - side_b) & side_b
                    if sub == 0:
                        break
                    rest = side_b ^ sub
                    if not rest:
                        continue
                    for new_a, new_b, new_c in (
                        (side_a, sub, cm),  # decomposition
                        (side_a, sub, cm | rest),  # weak union
                    ):
                        wa, wb = probe._weights[new_a], probe._weights[new_b]
                        if wa < wb:
                            wa, wb = wb, wa
                        bit = 1 << (wa + 2 * wb + 3 * probe._weights[new_c])
                        if not mask & bit:
                            mask |= bit
                            changed = True
            # contraction: <A,B|C u D> and <A,D|C> give <A,B u D|C>
            for side_a, side_b in ((am, bm), (bm, am)):
                sub = 0
                while True:
                    sub = (sub - cm) & cm
                    if sub == 0:
                        break
                    c0 = cm ^ sub
                    if has(side_a, sub, c0):
                        new_b = side_b | sub
                        wa, wb = probe._weights[side_a], probe._weights[new_b]
                        if wa < wb:
                            wa, wb = wb, wa
                        bit = 1 << (wa + 2 * wb + 3 * probe._weights[c0])
                        if not mask & bit:
                            mask |= bit
                            changed = True
    return IndependenceModel(model.ground, mask)


def product_filter_directings(model: IndependenceModel) -> list[MixedGraph]:
    """The directing search without pruning: build each of the 4^k directings
    of the model's skeleton, in itertools.product order over the sorted
    skeleton pairs and the options (line, u -> v, v -> u, arc), and keep the
    anterial ones."""
    pairs = sorted(skeleton_pairs(model))
    nodes = frozenset(model.ground)
    kept = []
    for assignment in itertools.product((LINE, ARROW, "<-", ARC), repeat=len(pairs)):
        edges = []
        for (u, v), choice in zip(pairs, assignment):
            if choice == LINE:
                edges.append(line(u, v))
            elif choice == ARROW:
                edges.append(arrow(u, v))
            elif choice == "<-":
                edges.append(arrow(v, u))
            else:
                edges.append(arc(u, v))
        g = MixedGraph(nodes, tuple(edges))
        if g.semi_directed_cycle() is None and g.violating_arc() is None:
            kept.append(g)
    return kept
