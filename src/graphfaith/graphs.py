"""Mixed graphs (lines, arrows, arcs) and walk-based separation.

Separation treats walks, not paths: a walk connects given C when every
collider section has a node in C and every non-collider section avoids C.
Walks may revisit nodes and edges, so the decision procedure runs over the
finite state space (node, entry mark of the current section, whether the
section has touched C); `connecting_walk_oracle` independently searches for
an explicit walk and re-checks it against the raw definition.  `separates`
answers single queries by a level-by-level walk over four frontier node
masks, one per (entry mark, touched) pair, on per-node edge masks
(`MixedGraph._masks`), and builds `induced_model`'s table.  `_rows_from`
runs the same states from one source for every conditioning set at once;
verification, Markov equivalence and maximality read its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

from .errors import GraphError, ParseError
from .limits import DEFAULT_CAPS
from .models import (
    IndependenceModel,
    _iter_bits,
    _iter_subsets,
    _model_where,
    _node_declaration,
    _require_label,
    _sets_holding,
    model_from_elementary,
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
    def _masks(self) -> tuple[dict[str, int], tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(bit, lines, out, into, arcs) over the sorted nodes: bit[label] is
        1 << index, and bit w of lines[v], out[v], into[v] or arcs[v] is set
        when v -- w, v -> w, w -> v or v <-> w."""
        at = {label: i for i, label in enumerate(self._ground)}
        lines, out, into, arcs = masks = [[0] * len(at) for _ in range(4)]
        for e in self.edges:
            u, v = at[e.u], at[e.v]
            here, there = (out, into) if e.kind == ARROW else (lines, lines) if e.kind == LINE else (arcs, arcs)
            here[u] |= 1 << v
            there[v] |= 1 << u
        return ({label: 1 << i for label, i in at.items()}, *map(tuple, masks))

    @cached_property
    def _moves(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The moves of `_rows_from` over the sorted nodes.  State
        4v + 2h + t is node v, entered with a head (h = 1) or a tail, with
        its section touching C (t = 1) or not; moves[s] holds (target, sets)
        pairs, shared by every graph on as many nodes (`_move_pairs`): the
        conditioning sets whose bits cross to target."""
        at = {label: i for i, label in enumerate(self._ground)}
        enter, stay = _move_pairs(len(at))
        moves: list[list[tuple[int, int]]] = [[] for _ in range(4 * len(at))]
        for e in self.edges:
            for v, w in ((e.u, e.v), (e.v, e.u)):
                x, y = 4 * at[v], 2 * at[w]
                if e.kind == LINE:  # the section goes on, with its entry mark
                    for head in (0, 1):
                        moves[x + 2 * head] += enter[y + head]
                        moves[x + 2 * head + 1].append(stay[y + head])
                else:  # the section closes: it must have touched C exactly when it is a collider
                    pairs = enter[y + (e.mark_at(w) == HEAD)]
                    moves[x] += pairs
                    moves[x + 2 + (e.mark_at(v) == HEAD)] += pairs
        return tuple(map(tuple, moves))

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
        n = len(at)
        rows = _identity_rows(n)
        for e in self.edges:
            if e.kind == ARROW:
                rows = _add_anterior_step(rows, n, at[e.u], at[e.v])
            elif e.kind == LINE and with_lines:
                rows = _add_anterior_step(rows, n, at[e.u], at[e.v])
                rows = _add_anterior_step(rows, n, at[e.v], at[e.u])
        return _unpack_rows(rows, n)

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
        # BFS over lines and arrows out, in ascending node order; the caller
        # guarantees reachability.
        bit, lines, out, _, _ = self._masks
        s, t = bit[start].bit_length() - 1, bit[goal].bit_length() - 1
        prev: dict[int, int] = {}
        seen, queue = 1 << s, [s]
        for v in queue:
            if v == t:
                break
            new = (lines[v] | out[v]) & ~seen
            seen |= new
            for w in _iter_bits(new):
                prev[w] = v
                queue.append(w)
        path = [t]
        while path[-1] != s:
            path.append(prev[path[-1]])
        return tuple(self._ground[v] for v in reversed(path))

    def violating_arc(self) -> Edge | None:
        """An arc whose endpoint is an anterior of the other, or None."""
        ant = self.anterior_sets
        for e in self.edges:
            if e.kind == ARC and (e.u in ant[e.v] or e.v in ant[e.u]):
                return e
        return None


# Packed rows: the n rows of a relation on n nodes in one integer, row y at
# bits n*y ... n*y+n-1.  The directing search holds its prefix state this
# way, and graphs and random preorders grow their anterior rows this way.


def _identity_rows(n: int) -> int:
    """The packed reflexive rows of n nodes that reach only themselves."""
    return sum(1 << (n + 1) * y for y in range(n))


def _unpack_rows(rows: int, n: int) -> tuple[int, ...]:
    """The n packed rows as a tuple of masks, row 0 first."""
    full = (1 << n) - 1
    return tuple([(rows >> n * y) & full for y in range(n)])


def _add_anterior_step(rows: int, n: int, a: int, b: int) -> int:
    """Packed transitively closed reflexive rows with the step a -> b added.

    Bit i of row y is set when i reaches y.  Everything that reaches a now
    reaches whatever b reaches: row a is ORed into every row that holds b,
    and the rows stay closed.  `(rows >> b) & low` keeps bit b of each row
    at that row's bit 0; row a is below 2^n, so the product places one copy
    of it in each such row, with no carries.
    """
    full = (1 << n) - 1
    low = ((1 << n * n) - 1) // full
    return rows | ((rows >> b) & low) * ((rows >> n * a) & full)


def _require_known(g: MixedGraph, labels: Iterable[str]) -> None:
    if not g.nodes.issuperset(labels):  # name the smallest unknown label, whatever the set order
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
    if a & b or a & c or b & c:  # one test when the sets are disjoint; the loop only names the overlap
        for x, y, name in ((a, b, "A and B"), (a, c, "A and C"), (b, c, "B and C")):
            if x & y:
                raise GraphError(f"{name} overlap on node {min(x & y)!r}")
    if not a or not b:
        raise GraphError("A and B must be non-empty")


def separates(g: MixedGraph, a: Iterable[str], b: Iterable[str], c: Iterable[str] = ()) -> bool:
    """True when no walk connects A to B given C.

    Reachability over states (node, entry mark of the current section,
    section touched C), level by level over four frontier node masks: t0
    and h0 hold the untouched states entered with a tail or a head, t1 and
    h1 the touched ones.  A line stays inside the section; any other edge
    closes it, and the closed section must contain a C node exactly when
    both flanking marks are heads (the collider patterns).  So t0 follows
    every edge, h0 lines and arrows out, h1 lines, arrows in and arcs, and
    t1 lines only; each level splits its targets by C, and the walk stops
    at the first untouched state on a B node.
    """
    a_set, b_set, c_set = frozenset(a), frozenset(b), frozenset(c)
    bit, lines, out, into, arcs = g._masks
    am = bm = cm = 0
    try:
        for x in a_set:
            am |= bit[x]
        for x in b_set:
            bm |= bit[x]
        for x in c_set:
            cm |= bit[x]
    except KeyError:
        am = 0  # an unknown label, which the check names
    if not am or not bm or am & bm or am & cm or bm & cm:
        _check_query_sets(g, a_set, b_set, c_set)
    free = ~cm
    t0 = seen_t0 = am
    h0 = h1 = t1 = seen_h0 = seen_h1 = seen_t1 = 0
    while t0 | h0 | h1 | t1:
        tail = head = 0  # the targets of closing edges, entered with a tail or a head
        line_t = line_h = 0  # the targets of untouched lines, entered with the section's mark
        kept_t = kept_h = 0  # the targets of touched lines, touched whatever C
        while t0:
            low = t0 & -t0
            t0 ^= low
            v = low.bit_length() - 1
            line_t |= lines[v]
            tail |= into[v]
            head |= out[v] | arcs[v]
        while h0:
            low = h0 & -h0
            h0 ^= low
            v = low.bit_length() - 1
            line_h |= lines[v]
            head |= out[v]
        while h1:
            low = h1 & -h1
            h1 ^= low
            v = low.bit_length() - 1
            kept_h |= lines[v]
            tail |= into[v]
            head |= arcs[v]
        while t1:
            low = t1 & -t1
            t1 ^= low
            kept_t |= lines[low.bit_length() - 1]
        tail |= line_t  # an untouched line splits by C as a closing edge does
        head |= line_h
        t0 = tail & free & ~seen_t0
        h0 = head & free & ~seen_h0
        if (t0 | h0) & bm:
            return False
        t1 = (tail & cm | kept_t) & ~seen_t1
        h1 = (head & cm | kept_h) & ~seen_h1
        seen_t0 |= t0
        seen_h0 |= h0
        seen_t1 |= t1
        seen_h1 |= h1
    return True


@lru_cache(maxsize=4)
def _move_pairs(n: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], tuple[tuple[int, int], ...]]:
    """The (target, sets) pairs of `MixedGraph._moves` on n nodes, by the
    state 2k that a move enters (node k // 2, with a head when k is odd):
    enter[k] sends the sets that hold the node to its touched state and the
    others to its untouched one, and stay[k] sends every set to the touched
    state."""
    holding = _sets_holding(n)
    full = (1 << (1 << n)) - 1
    enter = tuple(((2 * k + 1, holding[k // 2]), (2 * k, full ^ holding[k // 2])) for k in range(2 * n))
    return enter, tuple((2 * k + 1, full) for k in range(2 * n))


def _rows_from(g: MixedGraph, i: int) -> list[int]:
    """rows[j]: row (i, j) of g's separation table over its sorted nodes,
    for every j != i, from one fixpoint for all conditioning sets at once.

    The states and moves are those of `separates`, run from node i alone.
    Each state carries one bit per conditioning set C, set when the state is
    reachable given C, and a move sends each set's bit down the branch that
    C takes (`MixedGraph._moves`).  Only the sets new to a state move on.  A
    set separates i and j when it holds neither and no untouched state at j
    is reachable given it.
    """
    moves = g._moves
    holding = _sets_holding(len(g._ground))
    free = ((1 << (1 << len(holding))) - 1) ^ holding[i]  # the sets that leave i out
    reach = [0] * len(moves)
    fresh = reach[:]  # the sets a state has gained since it last moved on
    reach[4 * i] = fresh[4 * i] = free
    queue = [4 * i]
    for s in queue:  # first in, first out, so that a state's gains gather before it moves on
        bits, fresh[s] = fresh[s], 0
        for t, sets in moves[s]:
            new = bits & sets & ~reach[t]
            if new:
                reach[t] |= new
                if not fresh[t]:
                    queue.append(t)
                fresh[t] |= new
    return [free & ~(h | reach[4 * j] | reach[4 * j + 2]) for j, h in enumerate(holding)]


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
        is_maximal = all(row for _, _, row in _non_adjacent_rows(g))
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


@lru_cache(maxsize=4)
def _subset_labels(ground: tuple[str, ...]) -> tuple[frozenset[str], ...]:
    """labels[mask]: the labels of the set bits of mask, over `ground`."""
    return tuple(frozenset(ground[k] for k in _iter_bits(mask)) for mask in range(1 << len(ground)))


def _separation_row(g: MixedGraph, i: int, j: int) -> int:
    """Row (i, j) of g's separation table, one `separates` call per
    conditioning set: bit C is set when C separates i and j."""
    labels = _subset_labels(g._ground)
    a, b, rest = labels[1 << i], labels[1 << j], (len(labels) - 1) ^ (1 << i) ^ (1 << j)
    return sum(1 << cm for cm in _iter_subsets(rest) if separates(g, a, b, labels[cm]))


def _separation_table(g: MixedGraph) -> dict[tuple[int, int], int]:
    """The elementary table of g over its sorted nodes, in the layout of
    `IndependenceModel._elementary`: bit C of row (i, j) is set when C
    separates i and j."""
    n = len(g._ground)
    return {(i, j): _separation_row(g, i, j) for i in range(n) for j in range(i + 1, n)}


def _non_adjacent_rows(g: MixedGraph) -> Iterator[tuple[int, int, int]]:
    """(i, j, row (i, j) of g's separation table) for each pair i < j of
    g's sorted nodes that no edge joins, in order, from one `_rows_from`
    fixpoint per source."""
    ground = g._ground
    for i, u in enumerate(ground):
        rows = None
        for j in range(i + 1, len(ground)):
            if not g.is_adjacent(u, ground[j]):
                rows = rows or _rows_from(g, i)
                yield i, j, rows[j]


def _table_matches(g: MixedGraph, table: dict[tuple[int, int], int]) -> bool:
    """Whether `table`, in the layout of `IndependenceModel._elementary`
    over g's sorted nodes, is g's separation table.  Adjacent nodes are
    never separated, so their rows must be 0; the other rows come from
    `_non_adjacent_rows`, and the first mismatch decides."""
    at = {label: i for i, label in enumerate(g._ground)}
    if any(table[at[u], at[v]] for u, v in g.adjacent_pairs):
        return False
    return all(table[i, j] == row for i, j, row in _non_adjacent_rows(g))


def _require_model_cap(g: MixedGraph, cap: int) -> None:
    if len(g.nodes) > cap:
        raise GraphError(f"graph has {len(g.nodes)} nodes, above the cap {cap}")


# A few recent models: a 10-node model holds 128 KB of members, and as much
# again once its byte view is read.
@lru_cache(maxsize=16)
def _induced_model_cached(g: MixedGraph, via_elementary: bool) -> IndependenceModel:
    ground = g._ground
    if via_elementary:
        return model_from_elementary(ground, _separation_table(g))
    labels = _subset_labels(ground)
    return _model_where(ground, lambda am, bm, cm: separates(g, labels[am], labels[bm], labels[cm]))


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
    _require_model_cap(g, cap)
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
    g = model.ground
    return MixedGraph(frozenset(g), tuple(line(g[i], g[j]) for i, j in model._skeleton))


def markov_equivalent(g1: MixedGraph, g2: MixedGraph, *, cap: int = DEFAULT_CAPS.model_nodes) -> bool:
    """True when both graphs induce the same independence model.

    The induced model is `model_from_elementary` of the separation table,
    whose elementary rows are that table, so equal tables mean equal models
    and no model is built.  Both tables come from `_non_adjacent_rows`; the
    rows of g1's adjacent pairs are 0.
    """
    if g1.nodes != g2.nodes:
        raise GraphError("graphs have different node sets")
    _require_model_cap(g1, cap)
    table = dict.fromkeys(combinations(range(len(g1.nodes)), 2), 0)
    table.update(((i, j), row) for i, j, row in _non_adjacent_rows(g1))
    return _table_matches(g2, table)


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
    first: dict[tuple[str, str], Edge] = {}  # the first line or arrow on each pair
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
        # Arcs never conflict; every line or arrow must equal the pair's first one.
        pair = edge.pair()
        prev = edge if kind == ARC else first.setdefault(pair, edge)
        if prev != edge:
            raise ParseError(
                f"multi-edge {prev.kind}/{kind} between {pair[0]!r} and {pair[1]!r} "
                "cannot occur in a chain mixed graph (only arc+line or arc+arrow may repeat)",
                path=path,
                line=lineno,
            )
        edges.append(edge)
        nodes.add(u)
        nodes.add(v)
    return MixedGraph(frozenset(nodes), tuple(edges))


def graph_to_text(g: MixedGraph) -> str:
    """Serialize; `node` lines appear only for isolated nodes, so that
    parse(serialize(g)) == g and serialize(parse(t)) == t up to line order.  A
    label that the parser would reject raises its ParseError here."""
    for label in sorted(g.nodes):
        _require_label(label, f"label {label!r}", None, None)
    used = {n for e in g.edges for n in (e.u, e.v)}
    lines_out = [f"node {lab}" for lab in sorted(g.nodes - used)]
    lines_out += [f"{e.u} {e.kind} {e.v}" for e in g.edges]
    return "\n".join(lines_out) + ("\n" if lines_out else "")
