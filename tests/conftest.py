"""Shared strategies and independent desk oracles for the test suite.

The oracles here deliberately re-derive everything from the raw definitions
(walk enumeration without pruning, section classification by scanning,
simple-path blocking for undirected graphs) so that agreement tests pin the
engines against independent code paths.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import hypothesis
from hypothesis import strategies as st

from graphfaith.generate import all_anterial_graphs
from graphfaith.graphs import (
    ARC,
    ARROW,
    HEAD,
    LINE,
    TAIL,
    MixedGraph,
    _check_query_sets,
    arc,
    arrow,
    graph_to_text,
    induced_model,
    line,
    separates,
)
from graphfaith.errors import ModelError, ParseError
from graphfaith.faithfulness import _CLASS_OPTIONS, is_faithful
from graphfaith.limits import DEFAULT_CAPS, HARD_MAX_ELEMENTARY_NODES, HARD_MAX_SKELETON_EDGES, require_within
from graphfaith.models import (
    SEPARATOR,
    IndependenceModel,
    _base4_weights,
    _decode_masks,
    _iter_bits,
    _iter_subsets,
    _members_of,
    _model_where,
    _node_declaration,
    _part_id,
    _require_disjoint_masks,
    _require_label,
    _set_code,
    _sorted_labels,
    _stabilities_hold,
    model_from_elementary,
    skeleton_pairs,
)
from graphfaith.preorders import _iter_anterial_directings

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


def reference_separates(g: MixedGraph, a, b, c=()):
    """The tuple-state engine that `separates` replaced: breadth-first search
    over (node, entry mark of the current section, section touched C)
    states, one Python tuple per state, over a label-keyed incidence list."""
    a_set, b_set, c_set = frozenset(a), frozenset(b), frozenset(c)
    _check_query_sets(g, a_set, b_set, c_set)
    inc = {v: [] for v in g.nodes}
    for e in g.edges:
        inc[e.u].append((e.v, e.mark_at(e.u), e.mark_at(e.v), e.kind == LINE))
        inc[e.v].append((e.u, e.mark_at(e.v), e.mark_at(e.u), e.kind == LINE))
    seen = {(start, TAIL, False) for start in a_set}
    queue = list(seen)
    for v, mark, touched in queue:
        for w, mark_v, mark_w, is_line in inc[v]:
            if is_line:
                state = (w, mark, touched or (w in c_set))
            else:
                if (mark == HEAD and mark_v == HEAD) != touched:
                    continue  # the closed section fails its collider/non-collider test
                state = (w, mark_w, w in c_set)
            if state in seen:
                continue
            seen.add(state)
            if w in b_set and not state[2]:
                return False
            queue.append(state)
    return True


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


def reference_anterior_path(g: MixedGraph, start, goal):
    """The first shortest path from start to goal over lines and arrows out,
    breadth first with each node's neighbours in label order."""
    step = {v: set() for v in g.nodes}
    for e in g.edges:
        if e.kind != ARC:
            step[e.u].add(e.v)
        if e.kind == LINE:
            step[e.v].add(e.u)
    prev = {start: None}
    queue = [start]
    for v in queue:
        for w in sorted(step[v] - prev.keys()):
            prev[w] = v
            queue.append(w)
    path = [goal]
    while path[-1] != start:
        path.append(prev[path[-1]])
    return tuple(reversed(path))


def reference_semi_directed_cycle(g: MixedGraph):
    reach = reference_reach(g, True)
    for e in g.edges:
        if e.kind == ARROW and e.u in reach[e.v]:
            return reference_anterior_path(g, e.v, e.u) + (e.v,)
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


def _pairwise_graph(model: IndependenceModel, kind: str) -> MixedGraph:
    """UG: a line wherever conditioning on everything else fails to separate.
    BG: an arc wherever the marginal independence is missing."""
    g = model.ground
    full = (1 << model.n) - 1
    edges = []
    for (i, j), row in model._elementary.items():
        cm = full ^ (1 << i) ^ (1 << j) if kind == "UG" else 0
        if not (row >> cm) & 1:
            edges.append(line(g[i], g[j]) if kind == "UG" else arc(g[i], g[j]))
    return MixedGraph(frozenset(g), tuple(edges))


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


def reference_sweep(model: IndependenceModel, options):
    """The directing search without any prune beyond the anterial one: every
    anterial directing whose pairs take `options`, screened by both ordered
    stabilities and, when it passes, verified by `is_faithful`.  Returns the
    witnesses in enumeration order, the directings tried and the screen
    passes."""
    witnesses, tried, screened = [], 0, 0
    for directing in _iter_anterial_directings(model, edge_cap=HARD_MAX_SKELETON_EDGES, options=options):
        tried += 1
        if _stabilities_hold(model, directing.rows):
            screened += 1
            g = directing.graph()
            if is_faithful(model, g, cap=max(model.n, DEFAULT_CAPS.model_nodes)):
                witnesses.append(g)
    return witnesses, tried, screened


def reference_search_json(model: IndependenceModel, kind: str) -> dict:
    """The verdict JSON of a gate-passing AnG or DAG search, as
    `reference_sweep` finds it: the witnesses, or the failure payload with
    its two counts."""
    dag = kind.upper() == "DAG"
    witnesses, tried, screened = reference_sweep(model, _CLASS_OPTIONS[kind.upper()])
    if witnesses:
        return {"graphical": True, "witnesses": [graph_to_text(w) for w in witnesses], "failure": None}
    counts = {"dags_tried" if dag else "directings_tried": tried, "stability_passing": screened}
    name = "compatible-order-search" if dag else "compatible-preorder-search"
    return {"graphical": False, "witnesses": [], "failure": {"property": name, "witness": counts}}


@lru_cache(maxsize=None)
def census_models():
    """Every graph-induced model on four labelled nodes, once each."""
    models = {}
    for g in all_anterial_graphs("abcd"):
        model = induced_model(g)
        models.setdefault(model.members, model)
    return tuple(models.values())


def reference_collider_demands(model: IndependenceModel):
    """The unshielded-collider rule read statement by statement: for each
    triple (i, k, j) of the model skeleton with i < j non-adjacent, whether
    a faithful graph has a collider at k (k in no separating set of i, j)
    or not (k in every one).  None when k is in some separating sets and
    not in all."""
    labels = model.ground
    skeleton = skeleton_pairs(model)

    def adjacent(x, y):
        return (min(x, y), max(x, y)) in skeleton

    wanted = {}
    for i, j in itertools.combinations(labels, 2):
        if adjacent(i, j):
            continue
        rest = [x for x in labels if x not in (i, j)]
        separating = [
            set(c)
            for r in range(len(rest) + 1)
            for c in itertools.combinations(rest, r)
            if model.contains({i}, {j}, set(c))
        ]
        for k in rest:
            if adjacent(i, k) and adjacent(j, k):
                inside = {k in c for c in separating}
                if len(inside) == 2:
                    return None
                wanted[i, k, j] = inside == {False}
    return wanted


def trips_first_test(model: IndependenceModel, rows) -> bool:
    """The first test of the stability screen, read from the stability table
    row by row: some table pair i, j has a node of up_any in row i or j."""
    return any(up_any & (rows[i] | rows[j]) for i, j, up_any, _, _, _ in model._stability_table)


def keeps_collider_demands(g: MixedGraph, wanted) -> bool:
    """Every demanded triple of g has two heads at its middle node exactly
    when a collider is wanted there."""
    edge = {frozenset((e.u, e.v)): e for e in g.edges}
    return all(
        (edge[frozenset((i, k))].mark_at(k) == HEAD and edge[frozenset((k, j))].mark_at(k) == HEAD) == collider
        for (i, k, j), collider in wanted.items()
    )


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


def reference_marginalize_and_condition(model: IndependenceModel, margin, condition) -> IndependenceModel:
    """marginalize_and_condition by asking the input about every triple of
    the result's ground: <A,B|D> is kept when <A,B|D u condition> is a
    member, with each mask lifted back to the input's ground."""
    mm, cm0 = model._mask_of(margin), model._mask_of(condition)
    keep = [i for i in range(model.n) if not ((mm | cm0) >> i) & 1]
    lift = [0] * (1 << len(keep))  # lift[mask]: a mask over keep as one over the input ground
    for pos, old in enumerate(keep):
        bit = 1 << pos
        for m in range(bit):
            lift[m | bit] = lift[m] | (1 << old)
    has = model._has
    return _model_where(
        tuple(model.ground[i] for i in keep), lambda am, bm, cm: has(lift[am], lift[bm], lift[cm] | cm0)
    )


def elementary_table(n, holds):
    """{(i, j): the bitmask over conditioning masks C with holds(i, j, C)},
    for every pair i < j of n nodes and every C avoiding both."""
    full = (1 << n) - 1
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            row = 0
            for cm in _iter_subsets(full ^ (1 << i) ^ (1 << j)):
                if holds(i, j, cm):
                    row |= 1 << cm
            table[(i, j)] = row
    return table


def reference_elementary(model: IndependenceModel):
    """The elementary rows by one `_has` lookup per pair and conditioning set."""
    return elementary_table(model.n, lambda i, j, cm: model._has(1 << i, 1 << j, cm))


def reference_stability_table(model: IndependenceModel):
    """`IndependenceModel._stability_table` by one row test per member
    <i,j|C> and node k: up holds the k outside C and the pair whose C u {k}
    leaves the row, down the k in C whose C minus k does."""
    full = (1 << model.n) - 1
    table = []
    for (i, j), row in reference_elementary(model).items():
        rest = full ^ (1 << i) ^ (1 << j)
        ups, downs = [], []
        up_any = down_any = 0
        for cm in _iter_bits(row):
            up = down = 0
            for k in _iter_bits(rest ^ cm):
                if not (row >> (cm | (1 << k))) & 1:
                    up |= 1 << k
            for k in _iter_bits(cm):
                if not (row >> (cm ^ (1 << k))) & 1:
                    down |= 1 << k
            if up:
                ups.append((cm, up))
                up_any |= up
            if down:
                downs.append((cm, down))
                down_any |= down
        if up_any or down_any:
            table.append((i, j, up_any, down_any, tuple(ups), tuple(downs)))
    return tuple(table)


def reference_parse_model_text(text, *, path=None):
    """parse_model_text line by line as the library read it before its
    codec was trimmed: comments split off every line, every body asked
    whether it declares a node, one mask per part id, and one code and one
    `_set_code` per statement."""
    declared = set()
    sides, givens = {}, {}
    parts = [()]
    statements = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body or _node_declaration(body, declared, path, lineno) is not None:
            continue
        if SEPARATOR not in body:
            raise ParseError(f"expected a statement containing {SEPARATOR!r}", path=path, line=lineno)
        left, right = body.split(SEPARATOR, 1)
        b_part, _, c_part = right.partition("|")
        a = _part_id(sides, parts, left, False, path, lineno)
        b = _part_id(sides, parts, b_part, False, path, lineno)
        c = _part_id(givens, parts, c_part, True, path, lineno)
        if not a or not b:
            raise ParseError("both sides of a statement must be non-empty", path=path, line=lineno)
        statements += (a, b, c)
    ground = tuple(sorted(declared.union(*parts)))
    require_within("model text ground", len(ground), HARD_MAX_ELEMENTARY_NODES)
    index = {lab: i for i, lab in enumerate(ground)}
    masks = [sum({1 << index[lab] for lab in labels}) for labels in parts]
    model = IndependenceModel(ground, 0)
    buf = bytearray()
    for s in range(0, len(statements), 3):
        am, bm, cm = masks[statements[s]], masks[statements[s + 1]], masks[statements[s + 2]]
        if (am & bm) | (am & cm) | (bm & cm):
            lines = [n for n, line in enumerate(text.splitlines(), start=1) if SEPARATOR in line.split("#", 1)[0]]
            try:
                _require_disjoint_masks(model, am, bm, cm)
            except ModelError as exc:
                raise ParseError(str(exc), path=path, line=lines[s // 3]) from None
        _set_code(buf, model._code(am, bm, cm))
    return IndependenceModel(ground, _members_of(buf))


def reference_model_to_text(model: IndependenceModel):
    """model_to_text member by member over `_codes` and `_decode_masks`,
    the labels of each mask cached, each statement joined afresh."""
    ground = model.ground
    for label in ground:
        _require_label(label, f"label {label!r}", None, None)
    names = {}

    def labels(mask):
        out = names.get(mask)
        if out is None:
            out = names[mask] = tuple(ground[i] for i in _iter_bits(mask))
        return out

    lines = []
    used = 0
    for code in model._codes():
        am, bm, cm = _decode_masks(code)
        a_s, b_s = labels(am), labels(bm)
        if b_s < a_s:
            a_s, b_s = b_s, a_s
        stmt = f"{','.join(a_s)} {SEPARATOR} {','.join(b_s)}"
        if cm:
            stmt += f" | {' '.join(labels(cm))}"
        lines.append(stmt)
        used |= am | bm | cm
    node_lines = [f"node {lab}" for i, lab in enumerate(ground) if not (used >> i) & 1]
    return "\n".join(node_lines + sorted(lines)) + ("\n" if node_lines or lines else "")


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


def _pivot(rows, r, c):
    """One exact Gauss-Jordan step on the nonzero Fraction entry rows[r][c], in
    place: row r is scaled to a unit pivot and column c is cleared from every
    other row.  Rows are replaced, never mutated, so a shallow copy of `rows`
    keeps the unpivoted matrix intact."""
    p = rows[r][c]
    pivot_row = rows[r] = [x / p for x in rows[r]]
    for i, row in enumerate(rows):
        factor = row[c]
        if factor and i != r:
            rows[i] = [x - factor * y for x, y in zip(row, pivot_row)]


def _reduce(rows):
    """Gauss-Jordan over Fraction on the leading square block of `rows`, in
    place, swapping rows to a nonzero pivot; returns the block's determinant,
    or 0 (with elimination stopped) when it is singular."""
    det = Fraction(1)
    for c in range(len(rows)):
        r = next((r for r in range(c, len(rows)) if rows[r][c] != 0), None)
        if r is None:
            return Fraction(0)
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
            det = -det
        det *= rows[c][c]
        _pivot(rows, c, c)
    return det


def reference_det(rows):
    """The determinant of a square matrix of ints or Fractions, over Fraction."""
    return _reduce([[Fraction(x) for x in row] for row in rows])


def reference_leading_minors(m):
    return [reference_det([row[:k] for row in m.rows[:k]]) for k in range(1, m.n + 1)]


def reference_inverse_rows(m):
    """The rows of m's inverse by Gauss-Jordan over Fraction on [m | I], or None
    when m is singular."""
    n = m.n
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m.rows)]
    if _reduce(rows) == 0:
        return None
    return tuple(tuple(row[n:]) for row in rows)


def reference_covariance_model(sigma):
    """The model of a symmetric positive definite covariance by the Fraction
    sweep: a depth-first walk over the conditioning sets C with one diagonal
    `_pivot` per C, where entry (a, b) outside C is the partial covariance."""
    n = sigma.n
    order = sorted(range(n), key=lambda r: sigma.labels[r])
    zero = set()

    def walk(cm, rows):
        rest = [a for a in range(n) if not cm >> a & 1]
        zero.update((a, b, cm) for x, a in enumerate(rest) for b in rest[x + 1 :] if rows[a][b] == 0)
        for k in range(cm.bit_length(), n):
            child = list(rows)
            _pivot(child, k, k)
            walk(cm | 1 << k, child)

    walk(0, [[sigma.rows[r][c] for c in order] for r in order])
    ground = tuple(sigma.labels[r] for r in order)
    return model_from_elementary(ground, elementary_table(n, lambda a, b, cm: (a, b, cm) in zero))


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


def _leq(leq, a: int, b: int) -> bool:
    return bool((leq[a] >> b) & 1)


def reference_ordered_up_violations(model: IndependenceModel, leq):
    """Ordered upward stability by membership lookups, in the scan order
    above; bit j of leq[i] means node i <= node j, read one pair at a time."""
    n = model.n
    full = (1 << n) - 1
    has = model._has
    g = model.ground
    for i in range(n):
        im = 1 << i
        for j in range(i + 1, n):
            jm = 1 << j
            rest = full ^ im ^ jm
            up = leq[i] | leq[j]
            for cm in _iter_subsets(rest):
                if has(im, jm, cm):
                    for k in _iter_bits(rest ^ cm):
                        eligible = (up >> k) & 1 or any(
                            _leq(leq, c, k) and _leq(leq, k, c) for c in _iter_bits(cm)
                        )
                        if eligible and not has(im, jm, cm | (1 << k)):
                            yield (
                                "ordered-upward-stability",
                                {"i": g[i], "j": g[j], "C": list(_sorted_labels(model, cm)), "k": g[k]},
                            )


def reference_ordered_down_violations(model: IndependenceModel, leq):
    """Ordered downward stability by membership lookups, in the scan order
    above, with leq read as in `reference_ordered_up_violations`."""
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
                    for k in _iter_bits(cm):
                        km = 1 << k
                        if _leq(leq, i, k) or _leq(leq, j, k):
                            continue
                        if any(_leq(leq, l, k) and not _leq(leq, k, l) for l in _iter_bits(cm ^ km)):
                            continue
                        if not has(im, jm, cm ^ km):
                            yield (
                                "ordered-downward-stability",
                                {"i": g[i], "j": g[j], "C": list(_sorted_labels(model, cm)), "k": g[k]},
                            )
