"""Acceptance suite: one pass/fail line per criterion (run with pytest -s).

Everything here is exact combinatorics or exact rational arithmetic; the
random parts use fixed seeds.  Each criterion prints its line and asserts
inside its stated time budget.
"""

import itertools
import random
import time
from fractions import Fraction

from graphfaith.faithfulness import (
    decide_graphical,
    is_faithful,
    is_markov,
    is_minimally_markov,
    is_pairwise_markov,
)
from graphfaith.gaussian import (
    RationalMatrix,
    adjacency_weight_matrix,
    inverse,
    is_m_matrix,
    is_positive_definite,
    model_from_covariance,
)
from graphfaith.generate import (
    flip_one_elementary,
    random_anterial_graph,
    random_connected_ug,
    random_dag,
    random_mixed_graph,
)
from graphfaith.graphs import (
    MixedGraph,
    arc,
    arrow,
    classify,
    connecting_walk_oracle,
    induced_model,
    line,
    separates,
)
from graphfaith.models import (
    _stabilities_hold,
    check_composition,
    check_intersection,
    check_ordered_downward_stability,
    check_ordered_upward_stability,
    check_semi_graphoid,
    check_singleton_transitivity,
    check_upward_stability,
    marginalize_and_condition,
)
from graphfaith.preorders import minimal_preorder

LABELS = tuple("abcdef")

EDGE_CHOICES = (None, "--", "->", "<-", "<->")


def _graph_from_choices(labels, pairs, choices):
    edges = []
    for (u, v), choice in zip(pairs, choices):
        if choice is None:
            continue
        if choice == "--":
            edges.append(line(u, v))
        elif choice == "->":
            edges.append(arrow(u, v))
        elif choice == "<-":
            edges.append(arrow(v, u))
        else:
            edges.append(arc(u, v))
    return MixedGraph(frozenset(labels), tuple(edges))


def _all_simple_graphs(max_nodes):
    for n in range(1, max_nodes + 1):
        labels = LABELS[:n]
        pairs = list(itertools.combinations(labels, 2))
        for choices in itertools.product(EDGE_CHOICES, repeat=len(pairs)):
            yield _graph_from_choices(labels, pairs, choices)


def _is_anterial(g):
    return g.semi_directed_cycle() is None and g.violating_arc() is None


def _all_queries(labels):
    out = []
    for roles in itertools.product(range(4), repeat=len(labels)):
        a = frozenset(l for l, r in zip(labels, roles) if r == 1)
        b = frozenset(l for l, r in zip(labels, roles) if r == 2)
        c = frozenset(l for l, r in zip(labels, roles) if r == 3)
        if a and b and sorted(a) < sorted(b):
            out.append((a, b, c))
    return out


def _report(name, passed, t0, budget):
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({elapsed:.1f}s, budget {budget}s)")
    assert passed
    assert elapsed < budget


def test_criterion_1_round_trip_faithfulness():
    """Every anterial graph on <= 4 nodes round-trips through decide_graphical."""
    t0 = time.time()
    verdicts = {}
    ok = True
    for g in _all_simple_graphs(4):
        if not _is_anterial(g):
            continue
        j = induced_model(g)
        key = (j.ground, j.members)
        if key not in verdicts:
            verdicts[key] = decide_graphical(j)
        verdict = verdicts[key]
        if not verdict.graphical:
            ok = False
            break
        # all witnesses are verified faithful, hence equivalent to g; check one
        if induced_model(verdict.witnesses[0]) != j:
            ok = False
            break
    _report("1 round-trip faithfulness (all AnGs, |V|<=4)", ok, t0, 900)


def test_criterion_2_axiom_suite_on_induced_models():
    """200 random AnGs with |V| <= 6 pass the full axiom battery."""
    t0 = time.time()
    rng = random.Random(2024)
    ok = True
    for _ in range(200):
        n = rng.randint(2, 6)
        g = random_anterial_graph(rng, LABELS[:n], edge_prob=0.5)
        j = induced_model(g)
        p = minimal_preorder(g)
        if not (
            check_semi_graphoid(j).passed
            and check_intersection(j).passed
            and check_composition(j).passed
            and check_singleton_transitivity(j).passed
            and check_ordered_upward_stability(j, p).passed
            and check_ordered_downward_stability(j, p).passed
        ):
            ok = False
            break
    _report("2 axiom suite on induced models (200 random AnGs, |V|<=6)", ok, t0, 300)


def test_criterion_3_separation_engine_equivalence():
    """separates agrees with the walk oracle: exhaustive simple graphs at
    |V| <= 4, exhaustive multigraphs at |V| <= 3, and 100 random |V|=6 graphs."""
    t0 = time.time()
    ok = True
    queries_by_n = {n: _all_queries(LABELS[:n]) for n in (2, 3, 4)}
    for g in _all_simple_graphs(4):
        n = len(g.nodes)
        if n < 2:
            continue
        for a, b, c in queries_by_n[n]:
            if separates(g, a, b, c) != (connecting_walk_oracle(g, a, b, c, 4 * n) is None):
                ok = False
                break
        if not ok:
            break
    # exhaustive multigraphs on 3 nodes: per pair, any subset of
    # {line, ->, <-, arc} (engines do not require CMG legality)
    if ok:
        labels = LABELS[:3]
        pairs = list(itertools.combinations(labels, 2))
        kind_sets = list(itertools.chain.from_iterable(
            itertools.combinations(("--", "->", "<-", "<->"), k) for k in range(3)
        ))
        for combo in itertools.product(kind_sets, repeat=3):
            edges = []
            for (u, v), kinds in zip(pairs, combo):
                for kind in kinds:
                    if kind == "--":
                        edges.append(line(u, v))
                    elif kind == "->":
                        edges.append(arrow(u, v))
                    elif kind == "<-":
                        edges.append(arrow(v, u))
                    else:
                        edges.append(arc(u, v))
            g = MixedGraph(frozenset(labels), tuple(edges))
            for a, b, c in queries_by_n[3]:
                if separates(g, a, b, c) != (connecting_walk_oracle(g, a, b, c, 12) is None):
                    ok = False
                    break
            if not ok:
                break
    if ok:
        rng = random.Random(314159)
        labels = LABELS[:6]
        for _ in range(100):
            g = random_mixed_graph(rng, labels, edge_prob=0.5, multi_prob=0.2)
            for _ in range(20):
                rest = list(labels)
                rng.shuffle(rest)
                na, nb, nc = rng.randint(1, 2), rng.randint(1, 2), rng.randint(0, 3)
                a = frozenset(rest[:na])
                b = frozenset(rest[na : na + nb])
                c = frozenset(rest[na + nb : na + nb + nc])
                if separates(g, a, b, c) != (connecting_walk_oracle(g, a, b, c, 24) is None):
                    ok = False
                    break
            if not ok:
                break
    _report("3 separation engine equals walk oracle", ok, t0, 600)


def test_criterion_4_pairwise_iff_global():
    """Pairwise and global Markov agree on maximal AnGs and on perturbed
    compositional-graphoid models."""
    t0 = time.time()
    ok = True
    for g in _all_simple_graphs(4):
        if not _is_anterial(g) or classify(g).is_maximal is not True:
            continue
        j = induced_model(g)
        if is_pairwise_markov(j, g) != is_markov(j, g):
            ok = False
            break
    preconditioned = 0
    if ok:
        rng = random.Random(4096)
        attempts = 0
        while preconditioned < 50 and attempts < 2000:
            attempts += 1
            n = rng.randint(2, 4)
            g = random_anterial_graph(rng, LABELS[:n], edge_prob=0.5)
            if classify(g).is_maximal is not True:
                continue
            j = flip_one_elementary(rng, induced_model(g))
            if not (
                check_semi_graphoid(j).passed
                and check_intersection(j).passed
                and check_composition(j).passed
            ):
                continue
            preconditioned += 1
            if is_pairwise_markov(j, g) != is_markov(j, g):
                ok = False
                break
        ok = ok and preconditioned == 50
    _report("4 pairwise iff global Markov (maximal AnGs + 50 perturbations)", ok, t0, 300)


def test_criterion_5_gaussian_counterexample():
    """The 4x4 covariance with a vanishing partial covariance at <1,3|2>:
    dense concentration, upward-stability failure, unfaithful to the
    complete graph."""
    t0 = time.time()
    sigma = RationalMatrix.from_rows(
        ("1", "2", "3", "4"),
        [[3, 2, 1, 2], [2, 4, 2, 1], [1, 2, 7, 1], [2, 1, 1, 6]],
    )
    j = model_from_covariance(sigma)
    conc = inverse(sigma)
    labels = ("1", "2", "3", "4")
    complete = MixedGraph(
        frozenset(labels),
        tuple(line(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]),
    )
    checks = [
        sigma.rows[0][2] - sigma.rows[0][1] * Fraction(1, 4) * sigma.rows[1][2] == 0,
        j.contains({"1"}, {"3"}, {"2"}),
        all(conc.rows[i][k] != 0 for i in range(4) for k in range(4)),
        not check_upward_stability(j).passed,
        check_upward_stability(j).violations[0] == {"i": "1", "j": "3", "C": ["2"], "k": "4"},
        not is_faithful(j, complete),
    ]
    _report("5 exact Gaussian counterexample", all(checks), t0, 1)


def test_criterion_6_mtp2_chain():
    """I - (1/10) adjacency as concentration: M-matrix, PD, faithful model."""
    t0 = time.time()
    rng = random.Random(2718)
    ok = True
    for _ in range(20):
        n = rng.randint(2, 5)
        g = random_connected_ug(rng, LABELS[:n], extra_prob=0.35)
        k = adjacency_weight_matrix(g, Fraction(-1, 10))
        if not (is_m_matrix(k) and is_positive_definite(k)):
            ok = False
            break
        if not is_faithful(model_from_covariance(inverse(k)), g):
            ok = False
            break
    _report("6 MTP2 concentration chain (20 random connected UGs, |V|<=5)", ok, t0, 120)


def test_criterion_7_alpha_operator():
    """Marginalized/conditioned DAG models keep the closure properties and
    stay graphical."""
    t0 = time.time()
    rng = random.Random(1618)
    ok = True
    for _ in range(50):
        n = rng.randint(3, 5)
        g = random_dag(rng, LABELS[:n], edge_prob=0.5)
        j = induced_model(g)
        nodes = sorted(g.nodes)
        rng.shuffle(nodes)
        m_size = rng.randint(1, 2)
        c_size = rng.randint(0, 1)
        margin = set(nodes[:m_size])
        cond = set(nodes[m_size : m_size + c_size])
        out = marginalize_and_condition(j, margin, cond)
        if not (
            check_intersection(out).passed
            and check_composition(out).passed
            and check_singleton_transitivity(out).passed
        ):
            ok = False
            break
        if not decide_graphical(out).graphical:
            ok = False
            break
    _report("7 marginalize/condition operator (50 random DAGs, |V|<=5)", ok, t0, 600)


def test_criterion_8_necessity_probes():
    """Flipping one elementary statement of a faithful model must break
    faithfulness and at least one necessity probe."""
    t0 = time.time()
    rng = random.Random(0)
    ok = True
    for _ in range(50):
        n = rng.randint(2, 5)
        g = random_anterial_graph(rng, LABELS[:n], edge_prob=0.55)
        j = induced_model(g)
        flipped = flip_one_elementary(rng, j)
        if is_faithful(flipped, g):
            ok = False
            break
        probes_fail = (
            not check_singleton_transitivity(flipped).passed
            or not _stabilities_hold(flipped, minimal_preorder(g).leq_rows)
            or not is_minimally_markov(flipped, g)
        )
        if not probes_fail:
            ok = False
            break
    _report("8 necessity probes under single flips (50 faithful pairs)", ok, t0, 300)
