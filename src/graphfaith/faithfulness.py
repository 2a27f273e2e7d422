"""Markov, minimal-Markov, and faithfulness decisions, with witness graphs.

The central decision: a model is faithful to some graph exactly when it is a
singleton-transitive compositional graphoid and its skeleton admits a
directing that is faithful to it.  The search walks the anterial directings
of the skeleton depth first and prunes every prefix that already closes a
semi-directed cycle or puts an arc between a node and its anterior; adding
edges never removes either failure, so no anterial directing is lost.  Each
candidate is screened by the compatible-preorder stability conditions
(necessary, and cheap) and then confirmed by direct model equality (the
confirmation is load-bearing: the screen alone over-accepts on some
anterial-but-not-ancestral directings; see _search).  The
confirmed witnesses are exactly the minimally-Markov members of the model's
Markov equivalence class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import GraphError, InternalCheckError, ModelError
from .graphs import ARROW, MixedGraph, arc, induced_model, line
from .limits import DEFAULT_CAPS
from .models import (
    IndependenceModel,
    _stabilities_hold,
    check_composition,
    check_downward_stability,
    check_intersection,
    check_semi_graphoid,
    check_singleton_transitivity,
    check_upward_stability,
    skeleton_pairs,
)
# minimal_preorder stays bound here: perfbench's tracer wraps faithfulness.minimal_preorder.
from .preorders import _EDGE_OPTIONS, _iter_anterial_directings, minimal_preorder  # noqa: F401


def pairwise_conditioning_set(g: MixedGraph, i: str, j: str) -> frozenset[str]:
    """ant(i) u ant(j) minus the pair itself: the conditioning set that the
    pairwise Markov property tests for a non-adjacent pair."""
    if i not in g.nodes or j not in g.nodes:
        missing = i if i not in g.nodes else j
        raise GraphError(f"unknown node label {missing!r}")
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
    """Exact equality of the model and the graph's induced model."""
    _require_same_ground(model, g)
    return induced_model(g, cap=cap) == model


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


def _search(model: IndependenceModel, kind: str, caps) -> FaithfulnessVerdict:
    """The directing search behind AnG (every anterial directing of the
    skeleton) and DAG (the enumerator tries only the two arrows on each
    pair, so it yields the acyclic orientations and nothing else).

    Each candidate is screened by both ordered stabilities of its minimal
    preorder and, when it passes, verified by direct model equality.  The
    screen is necessary (a faithful graph always satisfies both ordered
    stabilities w.r.t. its minimal preorder) but not sufficient: on
    anterial graphs that are not ancestral, a connecting walk may have to
    revisit a node, and such a directing can pass the screen without being
    faithful.  The smallest case found: for the model of the undirected
    4-cycle a-c-b-d, the directing {a--c, a<->d, b<->c, b--d} passes the
    screen, but the walk c <-> b <-> c -- a <-> d connects c and d given
    {a,b}, so its induced model is strictly smaller.  Verification therefore
    filters rather than asserts.  Only screen passes are built as graphs.
    """
    failure = _gate_failure(model, kind, caps)
    if failure is not None:
        return FaithfulnessVerdict(False, (), failure)
    model_cap = max(caps.model_nodes, model.n)
    arrows_only = kind == "DAG"
    options = (ARROW, "<-") if arrows_only else _EDGE_OPTIONS
    witnesses: list[MixedGraph] = []
    tried = 0
    screened = 0
    for directing in _iter_anterial_directings(model, edge_cap=caps.skeleton_edges, options=options):
        tried += 1
        if not _stabilities_hold(model, directing.preorder):
            continue
        screened += 1
        g = directing.graph()
        if is_faithful(model, g, cap=model_cap):
            witnesses.append(g)
    if witnesses:
        return FaithfulnessVerdict(True, tuple(witnesses), None)
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
    ordered stabilities hold and direct verification confirms faithfulness
    (see _search for why the second step is load-bearing).
    Exact either way: a faithful graph must have the model's skeleton, must
    be anterial (pruning drops only prefixes whose every completion is not)
    and must pass the stability screen, so the sweep sees every possible
    witness.  Candidates are streamed, never held in a list.
    """
    return _search(model, "AnG", caps)


def restricted_graphical(
    model: IndependenceModel,
    class_filter: str,
    *,
    caps=DEFAULT_CAPS,
) -> FaithfulnessVerdict:
    """Graphicality within one graph class: UG, BG, DAG, or AnG.

    The UG and BG routes use the closed-form conditions (no search): an
    upward-stable singleton-transitive graphoid is faithful to the graph its
    everything-else conditioning sets draw, and dually for bidirected graphs
    with marginal independences.  The DAG route restricts the search to
    arrow-only directings, i.e. preorders with singleton classes.
    """
    kind = class_filter.strip().upper()
    if kind == "ANG":
        return decide_graphical(model, caps=caps)
    if kind in ("UG", "BG"):
        return _closed_form(model, kind, caps)
    if kind == "DAG":
        return _search(model, kind, caps)
    raise ModelError(f"unknown class filter {class_filter!r}; expected UG, BG, DAG, or AnG")


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


def _closed_form(model: IndependenceModel, kind: str, caps) -> FaithfulnessVerdict:
    failure = _gate_failure(model, kind, caps)
    if failure is not None:
        return FaithfulnessVerdict(False, (), failure)
    name, stability = ("undirected", "upward") if kind == "UG" else ("bidirected", "downward")
    candidate = _pairwise_graph(model, kind)
    if candidate.adjacent_pairs != skeleton_pairs(model):
        raise InternalCheckError(
            f"pairwise-constructed {name} graph disagrees with the model skeleton "
            f"despite {stability}-stability"
        )
    if not is_faithful(model, candidate, cap=max(caps.model_nodes, model.n)):
        raise InternalCheckError(f"{name} candidate passed the {kind} conditions but is not faithful")
    return FaithfulnessVerdict(True, (candidate,), None)
