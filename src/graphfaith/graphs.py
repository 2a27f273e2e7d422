"""Mixed graphs (lines, arrows, arcs) and walk-based separation.

Separation treats walks, not paths: a walk connects given C when every
collider section has a node in C and every non-collider section avoids C.
Walks may revisit nodes and edges, so the decision procedure runs over the
finite state space (node, entry mark of the current section, whether the
section has touched C); `connecting_walk_oracle` independently searches for
an explicit walk and re-checks it against the raw definition.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

from .errors import GraphError, ParseError
from .limits import DEFAULT_CAPS
from .models import (
    IndependenceModel,
    _iter_bits,
    _iter_triple_masks,
    _member_buffer,
    _members_of,
    _node_declaration,
    _require_label,
    _set_code,
    elementary_table,
    model_from_elementary,
    skeleton_pairs,
)

TAIL = "tail"
HEAD = "head"

LINE = "--"
ARROW = "->"
ARC = "<->"

_KINDS = (LINE, ARROW, ARC)


class Edge(NamedTuple):
    """One edge; `u`/`v` order is meaningful only for arrows (tail -> head)."""

    u: str
    v: str
    kind: str

    def mark_at(self, node: str) -> str:
        if self.kind == LINE:
            return TAIL
        if self.kind == ARC:
            return HEAD
        return HEAD if node == self.v else TAIL

    def other(self, node: str) -> str:
        return self.v if node == self.u else self.u

    def pair(self) -> tuple[str, str]:
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)


def line(a: str, b: str) -> Edge:
    return Edge(*sorted((a, b)), LINE)


def arrow(tail: str, head: str) -> Edge:
    return Edge(tail, head, ARROW)


def arc(a: str, b: str) -> Edge:
    return Edge(*sorted((a, b)), ARC)


@dataclass(frozen=True)
class MixedGraph:
    """Labeled mixed graph; immutable after construction, multi-edges allowed.

    Loops are rejected.  Multi-edge legality and acyclicity are *reported* by
    `classify`, not enforced here, so that non-CMG inputs can still be
    inspected.
    """

    nodes: frozenset[str]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        for label in self.nodes:
            if not label or not isinstance(label, str):
                raise GraphError(f"node labels must be non-empty strings, got {label!r}")
        canonical = []
        for e in self.edges:
            if e.kind not in _KINDS:
                raise GraphError(f"unknown edge kind {e.kind!r}")
            if e.u == e.v:
                raise GraphError(f"loop at node {e.u!r} is not allowed")
            if e.u not in self.nodes or e.v not in self.nodes:
                raise GraphError(f"edge {e} mentions an undeclared node")
            if e.kind != ARROW and e.u > e.v:
                e = Edge(e.v, e.u, e.kind)
            canonical.append(e)
        object.__setattr__(self, "edges", tuple(sorted(canonical)))

    @classmethod
    def build(
        cls,
        nodes: Iterable[str] = (),
        lines: Iterable[tuple[str, str]] = (),
        arrows: Iterable[tuple[str, str]] = (),
        arcs: Iterable[tuple[str, str]] = (),
    ) -> "MixedGraph":
        edges = (
            [line(a, b) for a, b in lines]
            + [arrow(a, b) for a, b in arrows]
            + [arc(a, b) for a, b in arcs]
        )
        all_nodes = set(nodes)
        for e in edges:
            all_nodes.add(e.u)
            all_nodes.add(e.v)
        return cls(frozenset(all_nodes), tuple(edges))

    # -- derived structure (graphs are immutable, so these are safe) -----

    @cached_property
    def _incidence(self) -> dict[str, tuple[tuple[str, str, str, bool], ...]]:
        """node -> tuple of (other, mark_here, mark_other, is_line)."""
        inc: dict[str, list[tuple[str, str, str, bool]]] = {v: [] for v in self.nodes}
        for e in self.edges:
            inc[e.u].append((e.v, e.mark_at(e.u), e.mark_at(e.v), e.kind == LINE))
            inc[e.v].append((e.u, e.mark_at(e.v), e.mark_at(e.u), e.kind == LINE))
        return {v: tuple(sorted(items)) for v, items in inc.items()}

    @cached_property
    def _edges_at(self) -> dict[str, tuple[tuple[Edge, str], ...]]:
        """node -> sorted (edge, other endpoint) pairs, for walk enumeration."""
        at: dict[str, list[tuple[Edge, str]]] = {v: [] for v in self.nodes}
        for e in self.edges:
            at[e.u].append((e, e.v))
            at[e.v].append((e, e.u))
        return {v: tuple(sorted(items)) for v, items in at.items()}

    @cached_property
    def adjacent_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset(e.pair() for e in self.edges)

    def is_adjacent(self, a: str, b: str) -> bool:
        return ((a, b) if a <= b else (b, a)) in self.adjacent_pairs

    @cached_property
    def _ground(self) -> tuple[str, ...]:
        return tuple(sorted(self.nodes))

    def _reach_rows(self, with_lines: bool) -> tuple[int, ...]:
        """Over the sorted nodes, bit i of row j is set when i reaches j by
        arrows (and lines, when `with_lines`), or i == j."""
        at = {lab: i for i, lab in enumerate(self._ground)}
        rows = [1 << i for i in range(len(at))]
        for e in self.edges:
            if e.kind == ARROW:
                _add_anterior_step(rows, at[e.u], at[e.v])
            elif e.kind == LINE and with_lines:
                _add_anterior_step(rows, at[e.u], at[e.v])
                _add_anterior_step(rows, at[e.v], at[e.u])
        return tuple(rows)

    @cached_property
    def _anterior_rows(self) -> tuple[int, ...]:
        """Reflexive anterior masks: the rows of the minimal preorder."""
        return self._reach_rows(with_lines=True)

    def _sets_of(self, rows: tuple[int, ...]) -> dict[str, frozenset[str]]:
        ground = self._ground
        return {
            ground[j]: frozenset(ground[i] for i in _iter_bits(row ^ (1 << j)))
            for j, row in enumerate(rows)
        }

    @cached_property
    def anterior_sets(self) -> dict[str, frozenset[str]]:
        """j -> ant(j); a node is never an anterior of itself."""
        return self._sets_of(self._anterior_rows)

    @cached_property
    def ancestor_sets(self) -> dict[str, frozenset[str]]:
        return self._sets_of(self._reach_rows(with_lines=False))

    def semi_directed_cycle(self) -> tuple[str, ...] | None:
        """Some semi-directed cycle as a node tuple, or None."""
        for e in self.edges:
            if e.kind == ARROW and e.v in self.anterior_sets[e.u]:
                return self._anterior_path(e.v, e.u) + (e.v,)
        return None

    def _anterior_path(self, start: str, goal: str) -> tuple[str, ...]:
        # BFS over lines/forward arrows; caller guarantees reachability.
        prev: dict[str, str] = {}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            if v == goal:
                break
            for w, mark_v, _mw, is_line in self._incidence[v]:
                if not is_line and mark_v == HEAD:
                    continue  # only lines and arrows leaving v
                if w not in prev and w != start:
                    prev[w] = v
                    queue.append(w)
        path = [goal]
        while path[-1] != start:
            path.append(prev[path[-1]])
        return tuple(reversed(path))

    def violating_arc(self) -> Edge | None:
        """An arc whose endpoint is an anterior of the other, or None."""
        ant = self.anterior_sets
        for e in self.edges:
            if e.kind == ARC and (e.u in ant[e.v] or e.v in ant[e.u]):
                return e
        return None

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges))


def _add_anterior_step(ant: list[int], a: int, b: int) -> None:
    """Add the step a -> b to transitively closed reflexive rows, in place.

    ant[y] is the mask of the nodes that reach y.  Everything that reaches a
    now reaches whatever b reaches, and the rows stay closed.
    """
    bit, grown = 1 << b, ant[a]
    for y, row in enumerate(ant):
        if row & bit:
            ant[y] = row | grown


def _require_known(g: MixedGraph, labels: Iterable[str]) -> None:
    for lab in labels:
        if lab not in g.nodes:  # name the smallest unknown label, whatever the set order
            raise GraphError(f"unknown node label {min(set(labels) - g.nodes)!r}")


def anteriors(g: MixedGraph, j: str) -> frozenset[str]:
    """ant(j): all i with a semi-directed or all-line walk from i to j."""
    _require_known(g, [j])
    return g.anterior_sets[j]


def ancestors(g: MixedGraph, j: str) -> frozenset[str]:
    """an(j): all i with a directed walk from i to j."""
    _require_known(g, [j])
    return g.ancestor_sets[j]


# ----------------------------------------------------------------------
# Separation
# ----------------------------------------------------------------------


def _check_query_sets(g: MixedGraph, a: frozenset, b: frozenset, c: frozenset) -> None:
    _require_known(g, a | b | c)
    for x, y, name in ((a, b, "A and B"), (a, c, "A and C"), (b, c, "B and C")):
        shared = x & y
        if shared:
            raise GraphError(f"{name} overlap on node {sorted(shared)[0]!r}")
    if not a or not b:
        raise GraphError("A and B must be non-empty")


def separates(g: MixedGraph, a: Iterable[str], b: Iterable[str], c: Iterable[str] = ()) -> bool:
    """True when no walk connects A to B given C.

    Reachability over states (node, entry mark of current section, section
    touched C).  A line stays inside the section; any other edge closes it,
    and the closed section must contain a C node exactly when both flanking
    marks are heads (the collider patterns).
    """
    a_set, b_set, c_set = frozenset(a), frozenset(b), frozenset(c)
    _check_query_sets(g, a_set, b_set, c_set)
    inc = g._incidence
    seen: set[tuple[str, str, bool]] = set()
    queue: deque[tuple[str, str, bool]] = deque()
    for start in a_set:
        state = (start, TAIL, False)
        seen.add(state)
        queue.append(state)
    while queue:
        v, mark, touched = queue.popleft()
        for w, mark_v, mark_w, is_line in inc[v]:
            if is_line:
                state = (w, mark, touched or (w in c_set))
            else:
                collider = mark == HEAD and mark_v == HEAD
                if collider != touched:
                    continue  # closed section fails its collider/non-collider test
                state = (w, mark_w, w in c_set)
            if state in seen:
                continue
            seen.add(state)
            if state[0] in b_set and not state[2]:
                return False
            queue.append(state)
    return True


@dataclass(frozen=True)
class Walk:
    """Alternating node/edge list; repeats of nodes and edges are fine."""

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.edges) + 1 or not self.nodes:
            raise GraphError("walk must alternate nodes and edges")
        for i, e in enumerate(self.edges):
            if {self.nodes[i], self.nodes[i + 1]} != {e.u, e.v}:
                raise GraphError(f"edge {e} not incident to walk positions {i},{i + 1}")

    @property
    def length(self) -> int:
        return len(self.edges)

    def sections(self) -> list[tuple[int, int]]:
        """Maximal all-line runs as (first, last) node positions."""
        out = []
        start = 0
        for i, e in enumerate(self.edges):
            if e.kind != LINE:
                out.append((start, i))
                start = i + 1
        out.append((start, len(self.nodes) - 1))
        return out

    def __str__(self) -> str:
        parts = [self.nodes[0]]
        for i, e in enumerate(self.edges):
            sym = "<-" if e.kind == ARROW and self.nodes[i] == e.v else e.kind
            parts.append(f" {sym} {self.nodes[i + 1]}")
        return "".join(parts)


def walk_is_connecting(walk: Walk, c: Iterable[str]) -> bool:
    """Direct check of the definition: every collider section meets C, every
    non-collider section avoids C.  Independent of the state-space engine."""
    c_set = frozenset(c)
    for first, last in walk.sections():
        left = walk.edges[first - 1] if first > 0 else None
        right = walk.edges[last] if last < len(walk.edges) else None
        collider = (
            left is not None
            and right is not None
            and left.mark_at(walk.nodes[first]) == HEAD
            and right.mark_at(walk.nodes[last]) == HEAD
        )
        touched = any(walk.nodes[p] in c_set for p in range(first, last + 1))
        if collider != touched:
            return False
    return True


def connecting_walk_oracle(
    g: MixedGraph,
    a: Iterable[str],
    b: Iterable[str],
    c: Iterable[str] = (),
    max_len: int | None = None,
) -> Walk | None:
    """Search for a connecting walk of length <= max_len by explicit walk
    enumeration; any returned walk is re-verified against the raw definition.

    A branch is abandoned only when a *closed* section already violates its
    collider/non-collider condition (final once closed) or the length budget
    runs out; exhausted (node, mark, touched) states are remembered with the
    largest budget that failed, which keeps the refutation side polynomial.
    With max_len = 4*|V| the search is a complete decision procedure.
    """
    a_set, b_set, c_set = frozenset(a), frozenset(b), frozenset(c)
    _check_query_sets(g, a_set, b_set, c_set)
    if max_len is None:
        max_len = 4 * len(g.nodes)
    if max_len < 1:
        raise GraphError(f"max_len must be >= 1, got {max_len}")
    edges_at = g._edges_at
    failed: dict[tuple[str, str, bool], int] = {}
    node_stack: list[str] = []
    edge_stack: list[Edge] = []

    def search(v: str, mark: str, touched: bool, budget: int) -> bool:
        if v in b_set and not touched:
            return True
        if budget == 0:
            return False
        if failed.get((v, mark, touched), -1) >= budget:
            return False
        for e, w in edges_at[v]:
            if e.kind == LINE:
                nmark, ntouched = mark, touched or (w in c_set)
            else:
                collider = mark == HEAD and e.mark_at(v) == HEAD
                if collider != touched:
                    continue
                nmark, ntouched = e.mark_at(w), w in c_set
            node_stack.append(w)
            edge_stack.append(e)
            if search(w, nmark, ntouched, budget - 1):
                return True
            node_stack.pop()
            edge_stack.pop()
        prev = failed.get((v, mark, touched), -1)
        if budget > prev:
            failed[(v, mark, touched)] = budget
        return False

    # iterative deepening: the first budget that succeeds gives a shortest walk
    for budget in range(1, max_len + 1):
        for start in sorted(a_set):
            node_stack[:] = [start]
            edge_stack[:] = []
            if search(start, TAIL, False, budget):
                walk = Walk(tuple(node_stack), tuple(edge_stack))
                if not walk_is_connecting(walk, c_set):
                    raise GraphError(f"internal error: candidate walk {walk} failed verification")
                return walk
    return None


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GraphClassReport:
    is_simple: bool
    is_cmg: bool
    is_ang: bool
    is_ug: bool
    is_bg: bool
    is_dag: bool
    is_ucg: bool
    is_bcg: bool
    is_regression_graph: bool
    is_ag: bool
    is_maximal: bool | None  # None when not a CMG or above the cap

    def to_json_dict(self) -> dict:
        return {
            "simple": self.is_simple,
            "CMG": self.is_cmg,
            "AnG": self.is_ang,
            "UG": self.is_ug,
            "BG": self.is_bg,
            "DAG": self.is_dag,
            "UCG": self.is_ucg,
            "BCG": self.is_bcg,
            "regression": self.is_regression_graph,
            "AG": self.is_ag,
            "maximal": self.is_maximal,
        }


def classify(g: MixedGraph, *, maximality_cap: int = DEFAULT_CAPS.model_nodes) -> GraphClassReport:
    """Compute every class flag; maximality by exhaustive conditioning search."""
    kinds = {e.kind for e in g.edges}
    is_simple = len(g.adjacent_pairs) == len(g.edges)
    is_cmg = g.semi_directed_cycle() is None
    is_ang = is_cmg and g.violating_arc() is None
    an = g.ancestor_sets
    no_directed_cycle = not any(e.kind == ARROW and e.v in an[e.u] for e in g.edges)
    is_ug = kinds <= {LINE}
    is_bg = kinds <= {ARC}
    is_dag = kinds <= {ARROW} and no_directed_cycle
    is_ucg = is_cmg and ARC not in kinds
    is_bcg = is_cmg and LINE not in kinds
    line_nodes = {n for e in g.edges if e.kind == LINE for n in (e.u, e.v)}
    heads_at = {n for e in g.edges for n in (e.u, e.v) if e.mark_at(n) == HEAD}
    no_heads_at_lines = not (line_nodes & heads_at)
    is_regression = is_cmg and no_heads_at_lines
    arcs_ancestral = all(
        e.u not in an[e.v] and e.v not in an[e.u] for e in g.edges if e.kind == ARC
    )
    is_ag = is_simple and no_directed_cycle and no_heads_at_lines and arcs_ancestral
    is_maximal: bool | None = None
    if is_cmg and len(g.nodes) <= maximality_cap:
        # Maximal: every non-adjacent pair has a separating set.
        ground = g._ground
        table = _separation_table(g)
        is_maximal = all(row or g.is_adjacent(ground[i], ground[j]) for (i, j), row in table.items())
    return GraphClassReport(
        is_simple=is_simple,
        is_cmg=is_cmg,
        is_ang=is_ang,
        is_ug=is_ug,
        is_bg=is_bg,
        is_dag=is_dag,
        is_ucg=is_ucg,
        is_bcg=is_bcg,
        is_regression_graph=is_regression,
        is_ag=is_ag,
        is_maximal=is_maximal,
    )


# ----------------------------------------------------------------------
# Induced independence model and Markov equivalence
# ----------------------------------------------------------------------


def _separation_table(g: MixedGraph) -> dict[tuple[int, int], int]:
    """The `elementary_table` of g over its sorted nodes: bit C of row (i, j)
    is set when C separates i and j."""
    ground = g._ground
    labels = [frozenset(ground[k] for k in _iter_bits(mask)) for mask in range(1 << len(ground))]

    def holds(i: int, j: int, cm: int) -> bool:
        return separates(g, labels[1 << i], labels[1 << j], labels[cm])

    return elementary_table(len(ground), holds)


# A few recent models: a 10-node model holds 128 KB of members, and as much
# again once its byte view is read.
@lru_cache(maxsize=16)
def _induced_model_cached(g: MixedGraph, via_elementary: bool) -> IndependenceModel:
    ground = g._ground
    if via_elementary:
        return model_from_elementary(ground, _separation_table(g))
    n = len(ground)
    labels = [frozenset(ground[k] for k in _iter_bits(mask)) for mask in range(1 << n)]
    probe = IndependenceModel(ground, 0)
    buf = _member_buffer(n)
    for am, bm, cm in _iter_triple_masks(n):
        if separates(g, labels[am], labels[bm], labels[cm]):
            _set_code(buf, probe._code(am, bm, cm))
    return IndependenceModel(ground, _members_of(buf))


def induced_model(
    g: MixedGraph,
    *,
    cap: int = DEFAULT_CAPS.model_nodes,
    via_elementary: bool = True,
    cross_check: bool = False,
) -> IndependenceModel:
    """The full independence model of g (trivial statements implicit).

    By default only elementary separations are computed and set statements
    are filled in by composition/decomposition, which is exact because
    separation models are compositional graphoids; `via_elementary=False`
    queries every triple directly, and `cross_check=True` runs both routes
    and insists they agree.
    """
    if len(g.nodes) > cap:
        raise GraphError(f"graph has {len(g.nodes)} nodes, above the cap {cap}")
    result = _induced_model_cached(g, via_elementary)
    if cross_check:
        other = _induced_model_cached(g, not via_elementary)
        if result != other:
            raise GraphError("internal error: elementary and direct model routes disagree")
    return result


def skeleton(g: MixedGraph) -> MixedGraph:
    """Same nodes, one line per adjacent pair (arrowheads and multiplicity dropped)."""
    return MixedGraph(g.nodes, tuple(line(u, v) for u, v in sorted(g.adjacent_pairs)))


def model_skeleton(model: IndependenceModel) -> MixedGraph:
    """Lines-only graph with an edge wherever no conditioning set separates."""
    return MixedGraph(
        frozenset(model.ground),
        tuple(line(u, v) for u, v in sorted(skeleton_pairs(model))),
    )


def markov_equivalent(g1: MixedGraph, g2: MixedGraph, *, cap: int = DEFAULT_CAPS.model_nodes) -> bool:
    """True when both graphs induce the same independence model."""
    if g1.nodes != g2.nodes:
        raise GraphError("graphs have different node sets")
    return induced_model(g1, cap=cap) == induced_model(g2, cap=cap)


# ----------------------------------------------------------------------
# Text format: `node A`, `A -- B`, `A -> B`, `A <-> B`, `#` comments
# ----------------------------------------------------------------------


def parse_graph_text(text: str, *, path: str | None = None) -> MixedGraph:
    """Parse the line-per-item graph format.

    Repeated edge lines create multi-edges.  Multi-edge combinations that can
    never occur in a chain mixed graph (an arrow with a line, or opposed
    arrows, between one pair) are rejected at load time.
    """
    declared: set[str] = set()
    nodes: set[str] = set()
    edges: list[Edge] = []
    kinds_by_pair: dict[tuple[str, str], set[tuple[str, str]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        label = _node_declaration(body, declared, path, lineno)
        if label is not None:
            nodes.add(label)
            continue
        tokens = body.split()
        if len(tokens) != 3 or tokens[1] not in _KINDS:
            raise ParseError(
                "expected `node LABEL` or `A -- B` / `A -> B` / `A <-> B`", path=path, line=lineno
            )
        u, kind, v = tokens
        for lab in (u, v):
            _require_label(lab, f"label {lab!r}", path, lineno)
        if u == v:
            raise ParseError(f"loop at node {u!r} is not allowed", path=path, line=lineno)
        edge = line(u, v) if kind == LINE else arrow(u, v) if kind == ARROW else arc(u, v)
        pair = edge.pair()
        seen_kinds = kinds_by_pair.setdefault(pair, set())
        directed = (edge.u, edge.v) if kind == ARROW else ("", "")
        for prev_kind, prev_dir in seen_kinds:
            illegal = (
                {prev_kind, kind} == {LINE, ARROW}
                or (prev_kind == kind == ARROW and prev_dir != directed)
            )
            if illegal:
                raise ParseError(
                    f"multi-edge {prev_kind}/{kind} between {pair[0]!r} and {pair[1]!r} "
                    "cannot occur in a chain mixed graph (only arc+line or arc+arrow may repeat)",
                    path=path,
                    line=lineno,
                )
        seen_kinds.add((kind, directed))
        edges.append(edge)
        nodes.add(u)
        nodes.add(v)
    return MixedGraph(frozenset(nodes), tuple(edges))


def graph_to_text(g: MixedGraph) -> str:
    """Serialize; `node` lines appear only for isolated nodes, so that
    parse(serialize(g)) == g and serialize(parse(t)) == t up to line order."""
    used = {n for e in g.edges for n in (e.u, e.v)}
    lines_out = [f"node {lab}" for lab in sorted(g.nodes - used)]
    lines_out += [f"{e.u} {e.kind} {e.v}" for e in g.edges]
    return "\n".join(lines_out) + ("\n" if lines_out else "")
