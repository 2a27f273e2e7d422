"""Markov, minimal-Markov, and faithfulness decisions, with witness graphs.

The central decision: a model is faithful to some graph exactly when it is a
singleton-transitive compositional graphoid and its skeleton admits a
directing that is faithful to it (the "only if" is a checked hypothesis; see
decide_graphical).  The search walks the anterial directings of the
skeleton depth first and prunes every prefix that already closes a
semi-directed cycle or puts an arc between a node and its anterior; adding
edges never removes either failure, so no anterial directing is lost.  Each
candidate is screened by the compatible-preorder stability conditions
(necessary, and cheap) and then confirmed by `is_faithful`, which compares
the model's elementary rows with the graph's separation rows and builds no
model (the confirmation is load-bearing: the screen alone over-accepts,
and every false positive found so far is a non-maximal graph; see
_search).  The confirmed witnesses are exactly the minimally-Markov members of the model's
Markov equivalence class.  The class-restricted decisions (UG, BG, DAG)
run the same search with fewer options per skeleton pair.

Where a pair has a choice of options (AnG and DAG), the search also drops
the directings that break the model's unshielded colliders or fail the
screen's first test; see _search for the demands and why no witness is
lost.  A failure reports the counts of the unpruned search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import GraphError, InternalCheckError, ModelError
from .graphs import ARC, ARROW, LINE, MixedGraph, _require_model_cap, _table_matches, induced_model
from .limits import DEFAULT_CAPS
from .models import (
    IndependenceModel,
    _iter_bits,
    _sets_holding,
    _stabilities_hold,
    _upward_rows_mask,
    check_composition,
    check_downward_stability,
    check_intersection,
    check_semi_graphoid,
    check_singleton_transitivity,
    check_upward_stability,
    skeleton_pairs,
)
from .preorders import _EDGE_OPTIONS, _count_anterial_directings, _iter_anterial_directings
# minimal_preorder stays bound here: perfbench's tracer wraps faithfulness.minimal_preorder.
from .preorders import minimal_preorder  # noqa: F401


def pairwise_conditioning_set(g: MixedGraph, i: str, j: str) -> frozenset[str]:
    """ant(i) u ant(j) minus the pair itself: the conditioning set that the
    pairwise Markov property tests for a non-adjacent pair."""
    if i not in g.nodes or j not in g.nodes:
        missing = i if i not in g.nodes else j
        raise GraphError(f"unknown node label {missing!r}")
    if i == j:
        raise GraphError(f"a pair needs two nodes, got {i!r} twice")
    if g.is_adjacent(i, j):
        raise GraphError(f"nodes {i!r} and {j!r} are adjacent; no pairwise conditioning set")
    ant = g.anterior_sets
    return frozenset((ant[i] | ant[j]) - {i, j})


def _require_same_ground(model: IndependenceModel, g: MixedGraph) -> None:
    if frozenset(model.ground) != g.nodes:
        raise ModelError(
            f"model ground {list(model.ground)} does not match graph nodes {sorted(g.nodes)}"
        )


def is_pairwise_markov(model: IndependenceModel, g: MixedGraph) -> bool:
    """<i,j|C(i,j)> must be in the model for every non-adjacent pair."""
    _require_same_ground(model, g)
    nodes = sorted(g.nodes)
    for x, i in enumerate(nodes):
        for j in nodes[x + 1 :]:
            if g.is_adjacent(i, j):
                continue
            if not model.contains({i}, {j}, pairwise_conditioning_set(g, i, j)):
                return False
    return True


def is_markov(model: IndependenceModel, g: MixedGraph, *, cap: int = DEFAULT_CAPS.model_nodes) -> bool:
    """Global Markov property: every separation statement is in the model."""
    _require_same_ground(model, g)
    return induced_model(g, cap=cap).is_submodel_of(model)


def is_minimally_markov(
    model: IndependenceModel, g: MixedGraph, *, cap: int = DEFAULT_CAPS.model_nodes
) -> bool:
    """Markov with equal skeletons: no graph with fewer edges can be Markov."""
    if not is_markov(model, g, cap=cap):
        return False
    return skeleton_pairs(model) == g.adjacent_pairs


def is_faithful(model: IndependenceModel, g: MixedGraph, *, cap: int = DEFAULT_CAPS.model_nodes) -> bool:
    """Exact equality of the model and the graph's induced model, read row
    by row: no model is built.

    The induced model is `model_from_elementary` of g's separation table.
    That model's elementary rows are the table, and its rule (<A,B|C> when
    every pair across A and B is separated given C) gives any model closed
    under decomposition and composition from its own rows.  So the model
    equals it exactly when the model's rows equal the table and the model is
    so closed.  Separation models are compositional graphoids, so a model
    that is not a compositional semi-graphoid is faithful to no graph.  The
    rows are compared by `_table_matches`, which reads g's rows of its
    non-adjacent pairs from `graphs._rows_from` (one fixpoint per source
    node for every conditioning set at once, and no `separates` call) and
    stops at the first mismatch.
    """
    _require_same_ground(model, g)
    _require_model_cap(g, cap)
    return model._compositional and _table_matches(g, model._elementary)


@dataclass(frozen=True)
class Failure:
    property_name: str
    witness: Mapping[str, object] | None

    def to_json_dict(self) -> dict:
        return {"property": self.property_name, "witness": dict(self.witness) if self.witness else None}


@dataclass(frozen=True)
class FaithfulnessVerdict:
    """Outcome of a graphicality decision.

    `witnesses` holds every faithful graph on the model's own skeleton, i.e.
    the minimally-Markov members of the Markov equivalence class (empty when
    none exists there).  The class can additionally contain non-maximal
    members on strictly smaller skeletons; a same-model maximal completion
    puts a representative on the model skeleton, so `graphical` matched the
    existence of any faithful graph in every exhaustively tested case.
    `failure` names the first condition that failed, with a witness
    instantiation where one exists.
    """

    graphical: bool
    witnesses: tuple[MixedGraph, ...]
    failure: Failure | None

    def to_json_dict(self) -> dict:
        from .graphs import graph_to_text

        return {
            "graphical": self.graphical,
            "witnesses": [graph_to_text(w) for w in self.witnesses],
            "failure": self.failure.to_json_dict() if self.failure else None,
        }


def _gate_failure(model: IndependenceModel, kind: str, caps) -> Failure | None:
    """Run the conditions of one graph class in order; the first failure wins.

    Every class needs a singleton-transitive semi-graphoid; UG adds
    intersection and upward stability, BG composition and downward
    stability, and DAG and AnG both intersection and composition.  The
    checks are looked up here, at call time, so a wrapper set on this
    module's `check_*` names sees every call.
    """
    set_cap, elementary_cap = caps.set_axiom_nodes, caps.elementary_axiom_nodes
    checks = [(check_semi_graphoid, set_cap)]
    if kind != "BG":
        checks.append((check_intersection, set_cap))
    if kind != "UG":
        checks.append((check_composition, set_cap))
    checks.append((check_singleton_transitivity, elementary_cap))
    if kind == "UG":
        checks.append((check_upward_stability, elementary_cap))
    elif kind == "BG":
        checks.append((check_downward_stability, elementary_cap))
    for check, cap in checks:
        report = check(model, cap=cap)
        if not report.passed:
            return Failure(report.property_name, report.violations[0] if report.violations else None)
    return None


# The options each class's search gives a skeleton pair.
_CLASS_OPTIONS = {"UG": (LINE,), "BG": (ARC,), "DAG": (ARROW, "<-"), "ANG": _EDGE_OPTIONS}


def _collider_checks(model: IndependenceModel) -> tuple[tuple[int, ...], ...] | None:
    """The non-collider demands of the model's unshielded triples, as packed
    masks filed by depth for `_iter_anterial_directings`, or None when some
    row rules out every faithful directing.

    Take i, j non-adjacent in the skeleton and k adjacent to both.  In any
    directing of the skeleton, the walk i, k, j has end sections that hold i
    and j, which no conditioning set holds, so only the section at k
    decides.  If both marks at k are heads (an arc, or an arrow into k), k
    is a section of its own and a collider: the walk connects given C
    exactly when k is in C.  Otherwise a line at k puts k in an end section,
    or k is a section that is no collider; either way the walk connects
    given C exactly when k is not in C.  So in a faithful directing, where
    <i,j|C> is a member exactly when i and j are separated given C, a
    collider at k leaves k out of every separating set of i, j, and a
    non-collider puts k in every one.  i and j are non-adjacent, so their
    row has a separating set, and the row decides which of the two holds.
    A row with k in some separating sets but not in all fits neither, and
    no directing of the skeleton is faithful.

    A wanted collider gets no entry: the upward mask enforces it (see
    _search).  A wanted non-collider needs a mark at k that is no head, so
    k an anterior of i or of j.  Its mask holds bit k of rows i and j, and
    is filed at the depth of the triple's later pair in `model._skeleton`.
    _search skips its witness pass on None.
    """
    rows, n, pairs = model._elementary, model.n, model._skeleton
    depth = {}  # (x, k): the depth of the pair of x and k
    neighbours = [0] * n
    for d, (u, v) in enumerate(pairs):
        depth[u, v] = depth[v, u] = d
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u
    holding = _sets_holding(n)
    demands: list[list[int]] = [[] for _ in pairs]
    for (i, j), row in rows.items():
        common = neighbours[i] & neighbours[j] if row else 0  # none for adjacent i, j
        for k in _iter_bits(common):
            inside = row & holding[k]
            if inside == row:  # k in every separating set: a non-collider
                demands[max(depth[i, k], depth[j, k])].append(1 << n * i + k | 1 << n * j + k)
            elif inside:
                return None
    return tuple(map(tuple, demands))


def _search(model: IndependenceModel, kind: str, caps) -> FaithfulnessVerdict:
    """The one graphicality route: the class's gate, then every anterial
    directing of the skeleton whose pairs take the class's options (AnG all
    four, DAG the two arrows, so the acyclic orientations; UG and BG one,
    so the skeleton drawn in lines or in arcs, and no other candidate).

    Each candidate is screened by both ordered stabilities of its minimal
    preorder and, when it passes, verified row by row (`is_faithful`).  The
    screen is necessary (a faithful graph always satisfies both ordered
    stabilities w.r.t. its minimal preorder) but not sufficient.  Every
    false positive found so far is non-maximal: some non-adjacent pair of
    the directing has no separating set, although the model separates it.
    The smallest case found: for the model of the undirected 4-cycle
    a-c-b-d, the directing {a--c, a<->d, b<->c, b--d} passes the screen,
    but the walk c <-> b <-> c -- a <-> d connects c and d given {a,b}.
    Being ancestral does not rule this out.  For the model of a -- c,
    a -- d, b -- c, b -- d, c -- d, whose only statement is <a,b|c d>, the
    ancestral directing {a <-> d, b <-> c, c -> a, c <-> d, d -> b} passes
    the screen, but a <-> d <-> c <-> b is an inducing path (each inner
    node a collider and an ancestor of an end), so no set separates a and
    b.  Verification therefore filters rather than asserts.  Only screen passes are built as graphs.
    The UG and BG gates hold the closed-form conditions (an upward-stable
    singleton-transitive graphoid is faithful to its skeleton in lines, and
    dually in arcs), so their one candidate must be a witness.

    With more than one option (AnG, DAG), the enumerator tests two demands
    on each kept prefix's anterior rows.  Once the pair of x and k is
    placed, its mark at k is a head exactly when k is not in ant(x): a tail
    steps k into ant(x), and a head forbids it there.  The upward mask
    (`models._upward_rows_mask`), which seeds the forbidden rows, is the
    screen's first test: an up_any node of a pair i, j in ant(i) or ant(j)
    gives an upward break, and rows only gain bits down the tree, so every
    leaf below breaks it too.  It holds every wanted collider (see
    _collider_checks): if k is in no separating set of i, j, then for any
    separating set C, C u {k} does not separate i and j, so k is in up_any
    of i, j, and k stays out of ant(i) and ant(j) exactly when both marks
    at k are heads.  The masks of `_collider_checks` hold the other half,
    tested once both pairs of the triple are placed: a wanted non-collider
    at k needs k in ant(i) or ant(j).  No faithful directing breaks either
    demand, and the dropped ones leave the order of the rest as it is, so
    the pass confirms the witnesses of the unpruned search in the same
    order.  A search without a witness reports the unpruned counts: the
    directings tried, from the memo of `preorders._count_anterial_directings`,
    and the screen passes, counted over the directings that the upward mask
    keeps, where every screen pass lies.
    """
    failure = _gate_failure(model, kind, caps)
    if failure is not None:
        return FaithfulnessVerdict(False, (), failure)
    options = _CLASS_OPTIONS[kind]
    # one option draws one graph, so only a choice between options is capped and pruned
    choice = len(options) > 1
    edge_cap = caps.skeleton_edges if choice else len(model._skeleton)
    up = _upward_rows_mask(model) if choice else 0
    demands = _collider_checks(model) if choice else ()
    witnesses = []
    if demands is not None:  # None: no directing of the skeleton is faithful
        directings = _iter_anterial_directings(
            model, edge_cap=edge_cap, options=options, colliders=demands or None, up=up
        )
        for directing in directings:
            if _stabilities_hold(model, directing.rows):
                g = directing.graph()
                if is_faithful(model, g, cap=model.n):
                    witnesses.append(g)
    if witnesses:
        return FaithfulnessVerdict(True, tuple(witnesses), None)
    if not choice:
        raise InternalCheckError(f"the {kind} gate passed, but the skeleton drawn in {options[0]} is not faithful")
    directings = _iter_anterial_directings(model, edge_cap=edge_cap, options=options, up=up)
    screened = sum(_stabilities_hold(model, directing.rows) for directing in directings)
    tried = _count_anterial_directings(model, options)
    arrows_only = kind == "DAG"
    property_name = "compatible-order-search" if arrows_only else "compatible-preorder-search"
    counts = {"dags_tried" if arrows_only else "directings_tried": tried, "stability_passing": screened}
    return FaithfulnessVerdict(False, (), Failure(property_name, counts))


def decide_graphical(
    model: IndependenceModel,
    *,
    caps=DEFAULT_CAPS,
) -> FaithfulnessVerdict:
    """Decide whether some graph is faithful to the model.

    Condition checks run in a fixed order (semi-graphoid, intersection,
    composition, singleton-transitivity) and the first failure wins.  When
    they pass, every anterial directing of the model's skeleton is tried, as
    the pruned depth-first search yields it: its minimal preorder is
    compatible by construction, and the directing is a witness when both
    ordered stabilities hold and `is_faithful` confirms it row by row (see
    _search for why the second step is load-bearing).  A faithful graph
    must be anterial (pruning drops only prefixes whose every completion is
    not) and must pass the stability screen, so the search finds every
    faithful graph on the model's skeleton.

    Not every faithful graph has that skeleton: a non-maximal one has fewer
    edges (on four nodes, 78 of the 5,000 anterial graphs are non-maximal,
    and they induce 13 of the 299 models).  So `graphical: false` rests on
    the checked hypothesis that `FaithfulnessVerdict` states: every model
    with a faithful graph has one on its own skeleton.  It holds for all
    299 four-node models, the 13 included (a tier-1 test), and for 3,000
    distinct models of seeded non-maximal five-node graphs.  Candidates are
    streamed, never held in a list.  The search skips directings that no
    faithful graph can be (see _search), so the witnesses, their order and
    the failure counts are those of the unpruned search.
    """
    return _search(model, "ANG", caps)


def restricted_graphical(
    model: IndependenceModel,
    class_filter: str,
    *,
    caps=DEFAULT_CAPS,
) -> FaithfulnessVerdict:
    """Graphicality within one graph class: UG, BG, DAG, or AnG.

    Every class runs _search with its own gate and the options its pairs
    may take.  The DAG route tries arrow-only directings, i.e. preorders
    with singleton classes.
    """
    kind = class_filter.strip().upper()
    if kind not in _CLASS_OPTIONS:
        raise ModelError(f"unknown class filter {class_filter!r}; expected UG, BG, DAG, or AnG")
    return _search(model, kind, caps)
