"""Preorders over the ground set and their interplay with graphs.

A preorder is reflexive and transitive; mutual comparability is an
equivalence, and the quotient by it is a partial order.  For anterial
graphs the minimal preorder makes two nodes comparable exactly when one is
an anterior of the other (its rows are the graph's anterior masks), and
directing a skeleton by a preorder inverts that construction, which is
what lets a model's skeleton be searched for compatible preorders by
enumerating edge directings.  A prefix of the search is two integers, each
packing n rows: the anterior masks, grown edge by edge with
`_add_anterior_step`, the step graphs build theirs with, and the nodes each
row may never take in (arrow heads and arc ends).  The search prunes a
prefix as soon as the two share a bit, that is when it closes a
semi-directed cycle or puts an arc between anterior-related nodes.  Both
failures are monotone: adding edges only grows anterior sets, so a pruned
prefix has no anterial completion and nothing is lost.  The graphicality
search also drops a prefix whose anterior rows fail the stability screen's
first test, which is monotone too, and counts the directings of a failed
search by a memo over the prefixes' frontier (`_count_anterial_directings`)
instead of walking them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .errors import CapExceededError, GraphError, ParseError, PreorderError
from .graphs import ARC, ARROW, LINE, MixedGraph, arc, arrow, line, model_skeleton
from .graphs import _add_anterior_step, _identity_rows, _unpack_rows
from .limits import DEFAULT_CAPS
from .models import IndependenceModel, _columns, _iter_bits, _require_label


@dataclass(frozen=True)
class Preorder:
    """Reflexive transitive relation; bit j of leq_rows[i] means ground[i] <= ground[j]."""

    ground: tuple[str, ...]
    leq_rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.leq_rows) != len(self.ground):
            raise PreorderError("relation size does not match ground size")
        if len(set(self.ground)) != len(self.ground):
            raise PreorderError("ground contains duplicate labels")
        for label, row in zip(self.ground, self.leq_rows):
            if row < 0 or row >> len(self.ground):
                raise PreorderError(f"row of {label!r} relates it to a node outside the ground")

    # -- construction ----------------------------------------------------

    @classmethod
    def from_pairs(
        cls, ground: Iterable[str], pairs: Iterable[tuple[str, str]]
    ) -> "Preorder":
        """Build from explicit (a, b) pairs meaning a <= b; validated as given.

        Reflexive pairs are added automatically; transitivity is *checked*,
        not forced, and a failure reports a witness pair.
        """
        gtuple = tuple(sorted(set(ground)))
        index = {lab: i for i, lab in enumerate(gtuple)}
        rows = [1 << i for i in range(len(gtuple))]
        for a, b in pairs:
            if a not in index or b not in index:
                missing = a if a not in index else b
                raise PreorderError(f"unknown node label {missing!r}")
            rows[index[a]] |= 1 << index[b]
        p = cls(gtuple, tuple(rows))
        p._validate()
        return p

    @classmethod
    def all_equivalent(cls, ground: Iterable[str]) -> "Preorder":
        gtuple = tuple(sorted(set(ground)))
        full = (1 << len(gtuple)) - 1
        return cls(gtuple, tuple(full for _ in gtuple))

    @classmethod
    def all_incomparable(cls, ground: Iterable[str]) -> "Preorder":
        gtuple = tuple(sorted(set(ground)))
        return cls(gtuple, tuple(1 << i for i in range(len(gtuple))))

    def _validate(self) -> None:
        n = len(self.ground)
        rows = self.leq_rows
        for i in range(n):
            if not (rows[i] >> i) & 1:
                raise PreorderError(f"relation is not reflexive: missing {self.ground[i]!r} <= {self.ground[i]!r}")
        for i in range(n):
            reach = rows[i]
            for j in list(_iter_bits(reach)):
                if rows[j] & ~reach:
                    k = next(_iter_bits(rows[j] & ~reach))
                    raise PreorderError(
                        "relation is not transitive: "
                        f"{self.ground[i]!r} <= {self.ground[j]!r} <= {self.ground[k]!r} "
                        f"but not {self.ground[i]!r} <= {self.ground[k]!r}"
                    )

    # -- basic relations ---------------------------------------------------

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.ground)}

    def _i(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise PreorderError(f"unknown node label {label!r}") from None

    def leq(self, a: str, b: str) -> bool:
        return bool((self.leq_rows[self._i(a)] >> self._i(b)) & 1)

    def sim(self, a: str, b: str) -> bool:
        return self.leq(a, b) and self.leq(b, a)

    def lt(self, a: str, b: str) -> bool:
        return self.leq(a, b) and not self.leq(b, a)

    def incomparable(self, a: str, b: str) -> bool:
        return not self.leq(a, b) and not self.leq(b, a)

    @cached_property
    def _sim_cols(self) -> tuple[int, ...]:
        """sim_cols[k]: mask of l with l ~ k."""
        return _columns(self.leq_rows)[0]

    def is_partial_order(self) -> bool:
        return all(self._sim_cols[k] == 1 << k for k in range(len(self.ground)))

    def classes(self) -> tuple[tuple[str, ...], ...]:
        """Equivalence classes, each sorted, ordered by first member."""
        seen: set[int] = set()
        out = []
        for i in range(len(self.ground)):
            if i in seen:
                continue
            members = sorted(_iter_bits(self._sim_cols[i]))
            seen.update(members)
            out.append(tuple(self.ground[m] for m in members))
        return tuple(out)

    def quotient(self) -> "QuotientOrder":
        """The induced partial order on equivalence classes (validated)."""
        self._validate()
        classes = self.classes()
        reps = [cls_[0] for cls_ in classes]
        below: list[tuple[int, int]] = []
        for x, rx in enumerate(reps):
            for y, ry in enumerate(reps):
                if self.leq(rx, ry):
                    below.append((x, y))
        order = QuotientOrder(classes, frozenset(below))
        order.validate()
        return order


@dataclass(frozen=True)
class QuotientOrder:
    """Partial order over the equivalence classes of a preorder."""

    classes: tuple[tuple[str, ...], ...]
    below: frozenset[tuple[int, int]]  # (x, y): class x <= class y

    def validate(self) -> None:
        k = len(self.classes)
        for x in range(k):
            if (x, x) not in self.below:
                raise PreorderError(f"quotient order not reflexive at class {self.classes[x]}")
        for x, y in self.below:
            if x != y and (y, x) in self.below:
                raise PreorderError(
                    f"quotient order not antisymmetric between classes {self.classes[x]} and {self.classes[y]}"
                )
            for y2, z in self.below:
                if y2 == y and (x, z) not in self.below:
                    raise PreorderError("quotient order not transitive")

    def leq_classes(self, x: int, y: int) -> bool:
        return (x, y) in self.below


def quotient(p: Preorder) -> QuotientOrder:
    return p.quotient()


# ----------------------------------------------------------------------
# Preorders against graphs
# ----------------------------------------------------------------------


# The options a skeleton pair (u, v) can take, and the edge each one draws:
# "--", "u -> v", "v -> u" or "<->".
_EDGE_OPTIONS = (LINE, ARROW, "<-", ARC)
_EDGE = {LINE: line, ARROW: arrow, "<-": lambda u, v: arrow(v, u), ARC: arc}
# The option by (v <= u, u <= v): equivalent, below, above or incomparable.
_BY_ORDER = {(True, True): LINE, (True, False): ARROW, (False, True): "<-", (False, False): ARC}
# The marks each option puts at the ends of its pair (u, v): (head at u, head at v).
_HEADS = {LINE: (False, False), ARROW: (False, True), "<-": (True, False), ARC: (True, True)}


def _option(p: Preorder, u: str, v: str) -> str:
    """The one option that p allows on the pair (u, v): the arrow points at the lower end."""
    return _BY_ORDER[p.leq(v, u), p.leq(u, v)]


def is_valid_for(p: Preorder, g: MixedGraph) -> bool:
    """Edge conditions: lines need equivalence, arrows need head < tail,
    arcs need incomparability.  Each edge must take the pair's one option;
    an arrow is stored tail first, so its option is ARROW."""
    _require_matching_ground(p, g)
    return all(_option(p, e.u, e.v) == e.kind for e in g.edges)


def _require_matching_ground(p: Preorder, g: MixedGraph) -> None:
    if frozenset(p.ground) != g.nodes:
        raise PreorderError(
            f"preorder ground {sorted(p.ground)} does not match graph nodes {sorted(g.nodes)}"
        )


def minimal_preorder(g: MixedGraph) -> Preorder:
    """The preorder with the fewest comparable pairs that is valid for g.

    Two nodes are comparable exactly when one is an anterior of the other:
    j <= i iff i is an anterior of j (or i == j).  Requires an anterial
    graph; only those admit a valid preorder.
    """
    cycle = g.semi_directed_cycle()
    if cycle is not None:
        raise GraphError(f"graph has a semi-directed cycle {' -> '.join(cycle)}; no valid preorder exists")
    bad_arc = g.violating_arc()
    if bad_arc is not None:
        raise GraphError(
            f"arc between {bad_arc.u!r} and {bad_arc.v!r} has an endpoint anterior to the other; "
            "no valid preorder exists"
        )
    return Preorder(g._ground, g._anterior_rows)


def direct_skeleton(sk: MixedGraph, p: Preorder) -> MixedGraph:
    """Direct each skeleton edge by the preorder: equivalent endpoints keep a
    line, comparable ones get the arrow pointing at the lower node, and
    incomparable ones get an arc.  The result is anterial and p is valid for it."""
    if any(e.kind != LINE for e in sk.edges):
        raise GraphError("skeleton must contain lines only")
    _require_matching_ground(p, sk)
    return MixedGraph(sk.nodes, tuple(_EDGE[_option(p, e.u, e.v)](e.u, e.v) for e in sk.edges))


def is_compatible(p: Preorder, model: IndependenceModel) -> bool:
    """A preorder is model-compatible when it is the minimal preorder of the
    graph it induces on the model's skeleton."""
    if tuple(p.ground) != model.ground:
        raise PreorderError(
            f"preorder ground {sorted(p.ground)} does not match model ground {list(model.ground)}"
        )
    directed = direct_skeleton(model_skeleton(model), p)
    return minimal_preorder(directed) == p


class Directing(NamedTuple):
    """One anterial directing of a model's skeleton over the sorted `ground`.

    `choices[e]` is the option taken by the e-th skeleton pair (u, v), in
    `model._skeleton`'s order: one of _EDGE_OPTIONS, or None when the pair
    is left unjoined.  `rows` are the leq rows of the minimal preorder of
    the directed graph: bit j of rows[i] is set when ground[j] is an
    anterior of ground[i] or j == i.
    """

    ground: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]
    choices: tuple[str | None, ...]
    rows: tuple[int, ...]

    def graph(self) -> MixedGraph:
        """The skeleton with each pair joined as its choice says."""
        edges = tuple(_EDGE[c](u, v) for (u, v), c in zip(self.pairs, self.choices) if c is not None)
        return MixedGraph(frozenset(self.ground), edges)


def _direct_edge(ant: int, forbid: int, n: int, u: int, v: int, choice: str | None) -> tuple[int, int] | None:
    """Add one directed skeleton edge to a prefix state, or None if it fails.

    Both ints pack n rows (row y at bits n*y ... n*y+n-1): row y of `ant` is
    the reflexive anterior mask of y (the row of the minimal preorder), and
    row y of `forbid` holds the nodes that must never become anteriors of y:
    the head of every arrow out of y and the far end of every arc at y.  An
    end without a head steps its anteriors on to the other end, a head
    forbids itself in the other end's row, and the placement fails exactly
    when some anterior is forbidden.  A None choice leaves the pair unjoined
    and the state as it is.
    """
    if choice is None:
        return ant, forbid
    head_u, head_v = _HEADS[choice]
    if head_u:
        forbid |= 1 << n * v + u
    else:
        ant = _add_anterior_step(ant, n, u, v)
    if head_v:
        forbid |= 1 << n * u + v
    else:
        ant = _add_anterior_step(ant, n, v, u)
    return None if ant & forbid else (ant, forbid)


def _iter_anterial_directings(
    model: IndependenceModel,
    *,
    edge_cap: int = DEFAULT_CAPS.skeleton_edges,
    options=_EDGE_OPTIONS,
    colliders=None,
    up: int = 0,
) -> Iterator[Directing]:
    """All anterial directings of the model's skeleton whose every pair takes
    one of `options`, in lexicographic order of the per-pair choice vector.

    Depth-first over the skeleton pairs in `model._skeleton`'s order.  A
    prefix is dropped with its whole subtree as soon as an arrow closes a
    semi-directed cycle (its head becomes an anterior of its tail) or an arc
    joins a node to one of its anteriors.  Adding edges only grows anterior
    sets, so neither failure can be undone further down: the pruning is
    exact, and the yielded directings and their order are those of
    filtering all len(options)^k choice vectors.
    With (ARROW, "<-") these are the DAGs; with None, also every anterial
    graph on part of the skeleton.

    `up` and `colliders`, for the graphicality search only, drop more
    placements, each with its subtree; the directings that are left keep
    their order (see `faithfulness._search` for the demands they enforce).
    `up`, a mask in the packed layout of `_direct_edge`'s rows, seeds the
    forbidden rows, so the one `ant & forbid` test drops a placement whose
    anterior rows meet it.  colliders[d] lists masks in the same layout,
    each of which the anterior rows must meet once pair d is placed.  The
    options must then all be joins.
    """
    ends = model._skeleton
    k = len(ends)
    if k > edge_cap:
        raise CapExceededError(f"skeleton has {k} edges, above the directing cap {edge_cap}")
    ground, n = model.ground, model.n
    pairs = tuple((ground[u], ground[v]) for u, v in ends)
    states = [(_identity_rows(n), up)] + [None] * k
    if k == 0:
        yield Directing(ground, pairs, (), _unpack_rows(states[0][0], n))
        return
    demands = colliders or ((),) * k
    picks = [-1] * k
    depth = 0
    while depth >= 0:
        picks[depth] += 1
        if picks[depth] == len(options):
            picks[depth] = -1
            depth -= 1
            continue
        state = _direct_edge(*states[depth], n, *ends[depth], options[picks[depth]])
        if state is None or not all(state[0] & m for m in demands[depth]):
            continue
        if depth + 1 < k:
            depth += 1
            states[depth] = state
        else:
            choices = tuple([options[p] for p in picks])
            yield Directing(ground, pairs, choices, _unpack_rows(state[0], n))


def _count_anterial_directings(model: IndependenceModel, options=_EDGE_OPTIONS) -> int:
    """How many directings `_iter_anterial_directings` yields with these
    options and no demand masks or upward mask, counted by a memo over
    the same pairs instead of a walk to every leaf.

    At depth d the live nodes are the ends of the pairs not yet placed;
    every later placement steps and forbids between live nodes only.  A new
    anterior x of y then runs from x through an old path to a live node p,
    on among live nodes to a live node b, and through an old path from b to
    y.  So the subtree of a prefix is decided by, for each live b: its live
    anteriors, `ant[b] & live`, which carry every old path between live
    nodes; and the live x that must never come to reach b, those whose row
    of `ant` meets `forbid[z]` for some row z that b already reaches, retired
    or live (z = b included).  A later forbid bit joins two live nodes, and
    the first part decides it.  Prefixes that agree on depth and on both
    parts have the same number of anterial completions, which the memo
    shares.
    """
    ends = model._skeleton
    n, k = model.n, len(ends)
    live = [0] * (k + 1)  # live[d]: the nodes with a pair at depth d or later
    for d in range(k - 1, -1, -1):
        live[d] = live[d + 1] | 1 << ends[d][0] | 1 << ends[d][1]
    # the live rows, each masked to the live columns
    masks = [sum(nodes << n * b for b in _iter_bits(nodes)) for nodes in live]
    members = [tuple(_iter_bits(nodes)) for nodes in live]
    memo: dict[tuple, int] = {}

    def count(depth: int, ant: int, forbid: int) -> int:
        if depth == k:
            return 1
        nodes, here = live[depth], members[depth]
        rows = _unpack_rows(ant, n)
        closed = [0] * n  # closed[b]: the live x that must never come to reach b
        for z, banned in enumerate(_unpack_rows(forbid, n)):
            if banned:
                xs = 0
                for x in here:
                    if rows[x] & banned:
                        xs |= 1 << x
                if xs:
                    reach = rows[z] & nodes
                    for b in here:
                        if reach >> b & 1:
                            closed[b] |= xs
        key = (depth, ant & masks[depth], tuple(closed))
        total = memo.get(key)
        if total is None:
            total = 0
            for option in options:
                state = _direct_edge(ant, forbid, n, *ends[depth], option)
                if state is not None:
                    total += count(depth + 1, *state)
            memo[key] = total
        return total

    return count(0, _identity_rows(n), 0)


def enumerate_compatible_preorders(
    model: IndependenceModel, *, edge_cap: int = DEFAULT_CAPS.skeleton_edges
) -> Iterator[Preorder]:
    """Every preorder that is compatible with the model, each exactly once.

    Works over skeleton directings rather than abstract preorders: every
    compatible preorder is the minimal preorder of some anterial directing of
    the model's skeleton, and conversely each such minimal preorder is
    compatible by construction.

    No preorder comes twice, because the directing can be read back from its
    minimal preorder p: direct_skeleton(skeleton, p) gives it again.  Every
    skeleton pair is joined (the options hold no None), and p is valid for
    the directing: a line's ends reach each other, so they are equivalent;
    an arrow u -> v puts v below u, and not above it, since a way back from
    v to u would close a semi-directed cycle; an arc's ends are incomparable,
    since an anterial graph has no arc between a node and its anterior.  So
    each pair takes the one option that p allows, and distinct directings
    have distinct minimal preorders.
    """
    for directing in _iter_anterial_directings(model, edge_cap=edge_cap):
        yield Preorder(directing.ground, directing.rows)


# ----------------------------------------------------------------------
# Text format: `class a b c` declares an equivalence class,
# `order X < Y` relates classes by 1-based index or by member label.
# ----------------------------------------------------------------------


def parse_preorder_text(text: str, *, path: str | None = None) -> Preorder:
    """Parse class/order lines; unlisted pairs stay incomparable.

    The `order` lines must spell out the full strict relation (their
    transitive closure is not taken); transitivity is validated and
    violations are reported with a witness.  A line that orders two classes
    the other way round from an earlier line is rejected.
    """
    classes: list[list[str]] = []
    member_class: dict[str, int] = {}
    order_lines: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        if tokens[0] == "class":
            if len(tokens) < 2:
                raise ParseError("expected `class LABEL...`", path=path, line=lineno)
            for lab in tokens[1:]:
                _require_label(lab, f"label {lab!r}", path, lineno)
                if lab in member_class:
                    raise ParseError(f"node {lab!r} already belongs to a class", path=path, line=lineno)
                member_class[lab] = len(classes)
            classes.append(tokens[1:])
        elif tokens[0] == "order":
            if len(tokens) != 4 or tokens[2] != "<":
                raise ParseError("expected `order X < Y`", path=path, line=lineno)
            order_lines.append((lineno, tokens[1], tokens[3]))
        else:
            raise ParseError("expected `class ...` or `order X < Y`", path=path, line=lineno)

    def resolve(token: str, lineno: int) -> int:
        if token in member_class:
            return member_class[token]
        if token.isdigit():
            k = int(token) - 1
            if 0 <= k < len(classes):
                return k
        raise ParseError(f"unknown class reference {token!r}", path=path, line=lineno)

    related = {(x, x) for x in range(len(classes))}  # class x <= class y
    for lineno, xs, ys in order_lines:
        x, y = resolve(xs, lineno), resolve(ys, lineno)
        if x == y:
            raise ParseError("a class cannot be strictly below itself", path=path, line=lineno)
        if (y, x) in related:
            raise ParseError(f"`order {xs} < {ys}` reverses an earlier order line", path=path, line=lineno)
        related.add((x, y))
    pairs = [(a, b) for x, y in related for a in classes[x] for b in classes[y]]
    ground = [lab for cls_ in classes for lab in cls_]
    try:
        return Preorder.from_pairs(ground, pairs)
    except PreorderError as exc:
        raise ParseError(str(exc), path=path) from None


def preorder_to_text(p: Preorder) -> str:
    """Serialize; a label that the parser would reject raises its ParseError here."""
    for label in p.ground:
        _require_label(label, f"label {label!r}", None, None)
    classes = p.classes()
    lines_out = [f"class {' '.join(cls_)}" for cls_ in classes]
    for x, cls_x in enumerate(classes):
        for y, cls_y in enumerate(classes):
            if x != y and p.leq(cls_x[0], cls_y[0]):
                lines_out.append(f"order {cls_x[0]} < {cls_y[0]}")
    return "\n".join(lines_out) + ("\n" if lines_out else "")
