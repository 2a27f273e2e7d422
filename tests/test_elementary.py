"""The per-pair elementary table, pinned against the membership-lookup scans.

Singleton-transitivity, both ordered and both plain stabilities and the
skeleton read rows of `IndependenceModel._elementary`.  The references in
conftest answer the same questions with one `_has` lookup per statement;
every comparison here is an exact equality of violation lists (in yield
order), reports, pair sets or models.
"""

import dataclasses
import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from graphfaith.gaussian import adjacency_weight_matrix, model_from_concentration
from graphfaith.generate import flip_one_elementary, random_anterial_graph, random_connected_ug, random_preorder
from graphfaith.graphs import induced_model
from graphfaith.models import (
    _iter_singleton_transitivity_violations,
    _iter_subsets,
    _ordered_down_breaks,
    _ordered_up_breaks,
    _reduce,
    _sorted_labels,
    check_downward_stability,
    check_ordered_downward_stability,
    check_ordered_upward_stability,
    check_singleton_transitivity,
    check_upward_stability,
    model_from_elementary,
    skeleton_pairs,
)
from graphfaith.preorders import Preorder, minimal_preorder

from conftest import (
    LABELS,
    reference_ordered_down_violations,
    reference_ordered_up_violations,
    reference_singleton_transitivity_violations,
    small_models,
)


def assert_table_matches_lookups(model):
    n = model.n
    full = (1 << n) - 1
    table = model._elementary
    assert list(table) == [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), row in table.items():
        expected = 0
        for cm in _iter_subsets(full ^ (1 << i) ^ (1 << j)):
            if model._has(1 << i, 1 << j, cm):
                expected |= 1 << cm
        assert row == expected
    g = model.ground
    assert skeleton_pairs(model) == frozenset((g[i], g[j]) for (i, j), row in table.items() if not row)


def witnesses(model, name, breaks):
    """(i, j, C, k) breaks as the (axiom, witness) pairs of the references."""
    g = model.ground
    return [
        (name, {"i": g[i], "j": g[j], "C": list(_sorted_labels(model, cm)), "k": g[k]})
        for i, j, cm, k in breaks
    ]


def assert_scans_match_references(model, preorders):
    """Returns the number of violations found per scan, over all preorders."""
    new = list(_iter_singleton_transitivity_violations(model))
    old = list(reference_singleton_transitivity_violations(model))
    assert new == old
    axioms = ("singleton-transitivity",)
    assert check_singleton_transitivity(model) == _reduce("singleton-transitivity", axioms, old)
    found = {"singleton-transitivity": len(old)}
    for p in preorders:
        for scan, reference, check, name in (
            (_ordered_up_breaks, reference_ordered_up_violations,
             check_ordered_upward_stability, "ordered-upward-stability"),
            (_ordered_down_breaks, reference_ordered_down_violations,
             check_ordered_downward_stability, "ordered-downward-stability"),
        ):
            old = list(reference(model, p.leq_rows))
            assert witnesses(model, name, scan(model, p.leq_rows)) == old
            report = check(model, p)
            assert report == _reduce(name, (name,), old)
            assert report.count == len(old)
            found[name] = found.get(name, 0) + len(old)
    # The plain stabilities are the ordered ones under the trivial preorders.
    ground = model.ground
    for reference, check, ordered, name, trivial in (
        (reference_ordered_up_violations, check_upward_stability, check_ordered_upward_stability,
         "upward-stability", Preorder.all_equivalent(ground)),
        (reference_ordered_down_violations, check_downward_stability, check_ordered_downward_stability,
         "downward-stability", Preorder.all_incomparable(ground)),
    ):
        old = [(name, w) for _, w in reference(model, trivial.leq_rows)]
        report = check(model)
        assert report == _reduce(name, (name,), old)
        assert report == dataclasses.replace(ordered(model, trivial), property_name=name)
        found[name] = found.get(name, 0) + len(old)
    return found


def preorders_for(model, rng):
    ground = model.ground
    graph = random_anterial_graph(rng, ground, 0.5)
    return (
        Preorder.all_equivalent(ground),
        Preorder.all_incomparable(ground),
        minimal_preorder(graph),
        random_preorder(rng, ground),
    )


@given(small_models(max_nodes=5), st.integers(0, 2**16))
def test_scans_match_references_on_arbitrary_bitmaps(model, seed):
    # Bitmaps drawn bit by bit: mostly not semi-graphoids, not compositional.
    assert_table_matches_lookups(model)
    assert_scans_match_references(model, preorders_for(model, random.Random(seed)))


def test_scans_match_references_on_graph_models_and_flips():
    rng = random.Random(17)
    found = {}
    for _ in range(24):
        graph = random_anterial_graph(rng, LABELS[: rng.randint(3, 6)], 0.45)
        j = induced_model(graph)
        for model in (j, flip_one_elementary(rng, j), flip_one_elementary(rng, j)):
            assert_table_matches_lookups(model)
            preorders = preorders_for(model, rng) + (minimal_preorder(graph),)
            for name, count in assert_scans_match_references(model, preorders).items():
                found[name] = found.get(name, 0) + count
    # every scan reaches its violating branch on these inputs
    assert len(found) == 5 and all(found.values()), found


def test_table_rebuilds_graph_and_gaussian_models():
    rng = random.Random(23)
    for _ in range(12):
        graph = random_anterial_graph(rng, LABELS[: rng.randint(2, 6)], 0.5)
        model = induced_model(graph)
        assert model_from_elementary(model.ground, model._elementary) == model
    for n in (3, 4, 5):
        ug = random_connected_ug(rng, LABELS[:n], 0.5)
        model = model_from_concentration(adjacency_weight_matrix(ug, Fraction(-1, 2 * n)))
        assert model_from_elementary(model.ground, model._elementary) == model
