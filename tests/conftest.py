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

from graphfaith.graphs import ARC, ARROW, HEAD, LINE, MixedGraph, arc, arrow, line, separates
from graphfaith.models import (
    IndependenceModel,
    _base4_weights,
    _iter_bits,
    _iter_subsets,
    _sorted_labels,
    skeleton_pairs,
)

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
    codes = [probe._code(am, bm, cm) for am, bm, cm in reference_triple_masks(n)]
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


def reference_closure(start, step):
    """Nodes reachable from start in one or more steps (start excluded), by
    a stack walk over label sets."""
    seen = set()
    stack = list(step[start])
    while stack:
        w = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        stack.extend(step[w])
    seen.discard(start)
    return frozenset(seen)


def reference_reach(g: MixedGraph, with_lines):
    """v -> the nodes v reaches over forward arrows (and lines, both ways)."""
    step = {v: set() for v in g.nodes}
    for e in g.edges:
        if e.kind == ARROW:
            step[e.u].add(e.v)
        elif e.kind == LINE and with_lines:
            step[e.u].add(e.v)
            step[e.v].add(e.u)
    return {v: reference_closure(v, step) for v in g.nodes}


def reference_sets(g: MixedGraph, with_lines):
    """j -> the i != j that reach j: ant(j) with lines, an(j) without."""
    out = {v: set() for v in g.nodes}
    for i, reach in reference_reach(g, with_lines).items():
        for j in reach:
            out[j].add(i)
    return {j: frozenset(s) for j, s in out.items()}


def reference_semi_directed_cycle(g: MixedGraph):
    reach = reference_reach(g, True)
    for e in g.edges:
        if e.kind == ARROW and e.u in reach[e.v]:
            return g._anterior_path(e.v, e.u) + (e.v,)
    return None


def reference_violating_arc(g: MixedGraph):
    ant = reference_sets(g, True)
    for e in g.edges:
        if e.kind == ARC and (e.u in ant[e.v] or e.v in ant[e.u]):
            return e
    return None


def reference_is_maximal(g: MixedGraph):
    """Every non-adjacent pair has some separating set, searched pair by pair."""
    nodes = sorted(g.nodes)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            if g.is_adjacent(u, v):
                continue
            rest = [w for w in nodes if w != u and w != v]
            if not any(
                separates(g, {u}, {v}, {rest[k] for k in range(len(rest)) if (sub >> k) & 1})
                for sub in range(1 << len(rest))
            ):
                return False
    return True


def reference_class_flags(g: MixedGraph):
    """Every flag of `classify`, keyed as its JSON dict, from the label closure."""
    kinds = {e.kind for e in g.edges}
    reach = reference_reach(g, False)
    an = reference_sets(g, False)
    is_cmg = reference_semi_directed_cycle(g) is None
    no_directed_cycle = not any(e.kind == ARROW and e.u in reach[e.v] for e in g.edges)
    line_nodes = {n for e in g.edges if e.kind == LINE for n in (e.u, e.v)}
    heads_at = {n for e in g.edges for n in (e.u, e.v) if e.mark_at(n) == HEAD}
    no_heads_at_lines = not (line_nodes & heads_at)
    is_simple = len(g.adjacent_pairs) == len(g.edges)
    arcs_ancestral = all(e.u not in an[e.v] and e.v not in an[e.u] for e in g.edges if e.kind == ARC)
    return {
        "simple": is_simple,
        "CMG": is_cmg,
        "AnG": is_cmg and reference_violating_arc(g) is None,
        "UG": kinds <= {LINE},
        "BG": kinds <= {ARC},
        "DAG": kinds <= {ARROW} and no_directed_cycle,
        "UCG": is_cmg and ARC not in kinds,
        "BCG": is_cmg and LINE not in kinds,
        "regression": is_cmg and no_heads_at_lines,
        "AG": is_simple and no_directed_cycle and no_heads_at_lines and arcs_ancestral,
        "maximal": reference_is_maximal(g) if is_cmg else None,
    }


def reference_minimal_preorder_rows(g: MixedGraph):
    """The minimal preorder's rows (bit b of row a: b is a or an anterior of
    a), or the error text of a graph that has none."""
    cycle = reference_semi_directed_cycle(g)
    if cycle is not None:
        return f"graph has a semi-directed cycle {' -> '.join(cycle)}; no valid preorder exists"
    bad_arc = reference_violating_arc(g)
    if bad_arc is not None:
        return (
            f"arc between {bad_arc.u!r} and {bad_arc.v!r} has an endpoint anterior to the other; "
            "no valid preorder exists"
        )
    ground = sorted(g.nodes)
    ant = reference_sets(g, True)
    return tuple(
        sum(1 << k for k, b in enumerate(ground) if b == a or b in ant[a]) for a in ground
    )


def semi_graphoid_closure(model: IndependenceModel) -> IndependenceModel:
    """Fixpoint closure under decomposition, weak union, and contraction.

    Test-harness helper only (the library checks axioms, never forces them).
    """
    n = model.n
    probe = model
    mask = model.members
    triples = list(reference_triple_masks(n))
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


def reference_triple_masks(n):
    """The triple generator by decoding every base-4 code below 4^n, in code
    order: all disjoint (A, B, C) with A, B non-empty, canonical side order."""
    w = _base4_weights(n)
    for code in range(4**n):
        am = bm = cm = 0
        rest = code
        pos = 0
        while rest:
            digit = rest & 3
            rest >>= 2
            if digit == 1:
                am |= 1 << pos
            elif digit == 2:
                bm |= 1 << pos
            elif digit == 3:
                cm |= 1 << pos
            pos += 1
        if am and bm and w[am] > w[bm]:
            yield am, bm, cm


def reference_model_from_elementary(ground, separated):
    """model_from_elementary by testing every triple of the 4^n codes: <A,B|C>
    is a member iff <i,j|C> holds for every i in A and j in B."""
    gtuple = tuple(sorted(set(ground)))
    probe = IndependenceModel(gtuple, 0)
    mask = 0
    for am, bm, cm in reference_triple_masks(len(gtuple)):
        if all(
            (separated[(min(i, j), max(i, j))] >> cm) & 1
            for i in _iter_bits(am)
            for j in _iter_bits(bm)
        ):
            mask |= 1 << probe._code(am, bm, cm)
    return IndependenceModel(gtuple, mask)


def reference_partial_covariance(m, i, j, given):
    """sigma_ij - sigma_iC (sigma_CC)^-1 sigma_Cj by solving sigma_CC x =
    sigma_Cj with forward elimination and back substitution, one fresh
    system per call: the route the conditioning-set walk replaced."""
    if not given:
        return m.rows[i][j]
    n = len(given)
    a = [[m.rows[r][c] for c in given] for r in given]
    b = [m.rows[r][j] for r in given]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
                b[r] -= factor * b[col]
    x = [0] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc -= a[r][c] * x[c]
        x[r] = acc / a[r][r]
    acc = m.rows[i][j]
    for idx, r in enumerate(given):
        acc -= m.rows[i][r] * x[idx]
    return acc


def reference_singleton_transitivity_violations(model: IndependenceModel):
    """The singleton-transitivity scan by membership lookups: for every pair
    i < j, every C with <i,j|C> and every k outside, in that order."""
    n = model.n
    full = (1 << n) - 1
    has = model._has
    g = model.ground
    for i in range(n):
        im = 1 << i
        for j in range(i + 1, n):
            jm = 1 << j
            rest = full ^ im ^ jm
            for cm in _iter_subsets(rest):
                if has(im, jm, cm):
                    for k in _iter_bits(rest ^ cm):
                        km = 1 << k
                        if has(im, jm, cm | km) and not (has(im, km, cm) or has(jm, km, cm)):
                            yield (
                                "singleton-transitivity",
                                {"i": g[i], "j": g[j], "k": g[k], "C": list(_sorted_labels(model, cm))},
                            )


def reference_ordered_up_violations(model: IndependenceModel, preorder):
    """Ordered upward stability by membership lookups, in the scan order above."""
    n = model.n
    full = (1 << n) - 1
    has = model._has
    g = model.ground
    leq = preorder.leq_rows
    sim_col = preorder._sim_cols
    for i in range(n):
        im = 1 << i
        for j in range(i + 1, n):
            jm = 1 << j
            rest = full ^ im ^ jm
            up = leq[i] | leq[j]
            for cm in _iter_subsets(rest):
                if has(im, jm, cm):
                    for k in _iter_bits(rest ^ cm):
                        eligible = (up >> k) & 1 or (sim_col[k] & cm)
                        if eligible and not has(im, jm, cm | (1 << k)):
                            yield (
                                "ordered-upward-stability",
                                {"i": g[i], "j": g[j], "C": list(_sorted_labels(model, cm)), "k": g[k]},
                            )


def reference_ordered_down_violations(model: IndependenceModel, preorder):
    """Ordered downward stability by membership lookups, in the scan order above."""
    n = model.n
    full = (1 << n) - 1
    has = model._has
    g = model.ground
    leq = preorder.leq_rows
    lt_col = preorder._lt_cols
    for i in range(n):
        im = 1 << i
        for j in range(i + 1, n):
            jm = 1 << j
            rest = full ^ im ^ jm
            for cm in _iter_subsets(rest):
                if has(im, jm, cm):
                    for k in _iter_bits(cm):
                        km = 1 << k
                        if (leq[i] >> k) & 1 or (leq[j] >> k) & 1:
                            continue
                        if lt_col[k] & (cm ^ km):
                            continue
                        if not has(im, jm, cm ^ km):
                            yield (
                                "ordered-downward-stability",
                                {"i": g[i], "j": g[j], "C": list(_sorted_labels(model, cm)), "k": g[k]},
                            )
