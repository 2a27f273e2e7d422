"""The set-axiom gate: the whole-model shift test that decides a pass,
against the exhaustive scans that report a failure.

Every check's report must equal the report its scan gives through
`_reduce`, and the shift test alone must give the scan's verdict wherever
it decides: `_semi_graphoid` on every model, and the one-node joins of
intersection and composition on every semi-graphoid.
"""

import hashlib
import json
import random

from hypothesis import given

from graphfaith.cli import run
from graphfaith.gaussian import (
    RationalMatrix,
    adjacency_weight_matrix,
    model_from_concentration,
    model_from_covariance,
)
from graphfaith.generate import flip_one_elementary, random_anterial_graph, random_connected_ug
from graphfaith.graphs import induced_model
from graphfaith.models import (
    IndependenceModel,
    _iter_composition_violations,
    _iter_intersection_violations,
    _iter_semi_graphoid_violations,
    _joins_hold,
    _reduce,
    check_composition,
    check_intersection,
    check_semi_graphoid,
    model_to_text,
)

from conftest import LABELS, reference_triple_masks, semi_graphoid_closure, small_models

# (check, name, sub-axioms, scan, one-node joins (given, spread) or None)
GATE = (
    (check_semi_graphoid, "semi-graphoid", ("decomposition", "weak-union", "contraction"),
     _iter_semi_graphoid_violations, None),
    (check_intersection, "intersection", ("intersection",), _iter_intersection_violations, (3, 3)),
    (check_composition, "composition", ("composition",), _iter_composition_violations, (0, 0)),
)


def assert_gate_matches_scans(model):
    """Each report equals its scan's; returns the scan verdicts by name."""
    verdicts = {}
    for check, name, axioms, scan, joins in GATE:
        expected = _reduce(name, axioms, scan(model))
        assert check(model, cap=10) == expected, (name, model.ground, model.members)
        verdicts[name] = expected.passed
    assert model._semi_graphoid == verdicts["semi-graphoid"]
    if model._semi_graphoid:
        for _, name, _, _, joins in GATE[1:]:
            assert _joins_hold(model, *joins) == verdicts[name], (name, model.ground, model.members)
    return verdicts


def random_closure(rng, n):
    """The semi-graphoid closure of a few random triples over n nodes."""
    probe = IndependenceModel(LABELS[:n], 0)
    triples = list(reference_triple_masks(n))
    mask = 0
    for am, bm, cm in rng.sample(triples, rng.randint(1, 4)):
        mask |= 1 << probe._code(am, bm, cm)
    return semi_graphoid_closure(IndependenceModel(LABELS[:n], mask))


def model(ground, *statements):
    return IndependenceModel.from_statements(ground, statements)


@given(small_models(min_nodes=2, max_nodes=4))
def test_gate_matches_scans_on_small_models(m):
    assert_gate_matches_scans(m)


def test_gate_matches_scans_on_semi_graphoid_closures():
    failing = {"intersection": 0, "composition": 0}
    for seed in range(150):
        rng = random.Random(seed)
        verdicts = assert_gate_matches_scans(random_closure(rng, 3 + seed % 2))
        assert verdicts["semi-graphoid"]
        for name in failing:
            failing[name] += not verdicts[name]
    # the closures reach the joins' failing side, not only the scans'
    assert failing["intersection"] and failing["composition"]


def test_gate_matches_scans_on_graph_models_and_flips():
    for seed in range(40):
        rng = random.Random(seed)
        n = 4 + seed % 4
        m = induced_model(random_anterial_graph(rng, "abcdefg"[:n], 0.5))
        assert all(assert_gate_matches_scans(m).values())
        for _ in range(2):
            assert_gate_matches_scans(flip_one_elementary(rng, m))


def test_gate_matches_scans_on_gaussian_models():
    unfaithful = RationalMatrix.from_rows(
        ("1", "2", "3", "4"),
        [[3, 2, 1, 2], [2, 4, 2, 1], [1, 2, 7, 1], [2, 1, 1, 6]],
    )
    assert all(assert_gate_matches_scans(model_from_covariance(unfaithful)).values())
    for seed in range(4):
        ug = random_connected_ug(random.Random(seed), LABELS[: 4 + seed % 2])
        k = adjacency_weight_matrix(ug, "-1/10")
        assert all(assert_gate_matches_scans(model_from_concentration(k)).values())
        assert all(assert_gate_matches_scans(model_from_covariance(k)).values())


def test_gate_on_zero_and_one_node():
    for ground in ((), ("a",)):
        for m in (IndependenceModel(ground, 0), IndependenceModel.full_independence(ground)):
            assert all(assert_gate_matches_scans(m).values())


def test_full_independence_passes_by_shifts():
    for n in range(2, 6):
        assert all(assert_gate_matches_scans(IndependenceModel.full_independence(LABELS[:n])).values())


def test_scan_decides_models_that_are_no_semi_graphoid():
    # <a,bd|> fails decomposition; no instance of intersection or
    # composition applies to it
    lone = model("abd", ({"a"}, {"b", "d"}, set()))
    assert assert_gate_matches_scans(lone) == {"semi-graphoid": False, "intersection": True, "composition": True}
    # Every one-node join holds on these two, yet the joins over two-node
    # sides fail: only the scan sees that, because the model fails
    # decomposition, on which the joins' induction rests.
    split = model("abcde", ({"a"}, {"b", "c"}, {"d", "e"}), ({"a"}, {"d", "e"}, {"b", "c"}))
    assert _joins_hold(split, 3, 3)
    assert assert_gate_matches_scans(split)["intersection"] is False
    joined = model("abcde", ({"a"}, {"b", "c"}, set()), ({"a"}, {"d", "e"}, set()))
    assert _joins_hold(joined, 0, 0)
    assert assert_gate_matches_scans(joined)["composition"] is False


def failing_models():
    """Five seeded models that fail the gate: three flipped graph models
    (failing weak union; decomposition and weak union; contraction and
    intersection) and two semi-graphoid closures, one failing each join."""
    out = []
    for seed in (2, 5, 10):
        rng = random.Random(seed)
        out.append(flip_one_elementary(rng, induced_model(random_anterial_graph(rng, LABELS[:5], 0.5))))
    out.append(random_closure(random.Random(1), 4))
    out.append(random_closure(random.Random(7), 4))
    return out


# sha256 of `axioms --json` stdout, and (property, passed, count) per report
SG, INT, COMP, ST = "semi-graphoid", "intersection", "composition", "singleton-transitivity"
AXIOMS_JSON = (
    ("0c001c8fcac957c2984e564015bbadf8619ce8454770350c9ed7435a4391c2fe",
     ((SG, False, 8), (INT, True, 0), (COMP, True, 0), (ST, True, 0))),
    ("eb227e7733c478894b0911923cd7a08643ae2b0fa880af0d69a2d9929232d944",
     ((SG, False, 5), (INT, True, 0), (COMP, True, 0), (ST, False, 1))),
    ("c857408873243da7e9e70180f2b432ec201c3f44dcf546a199711ccaeb87d3c1",
     ((SG, False, 2), (INT, False, 4), (COMP, True, 0), (ST, False, 1))),
    ("8bc55eaa4b32cc724b8bc5aeb764918f90fedfa2572d99cea2388a6606fc1f6b",
     ((SG, True, 0), (INT, False, 2), (COMP, True, 0), (ST, True, 0))),
    ("51dc274889d39b8768029d1cdc2ee976bc3036f012020d65eda9b3f83f0c862d",
     ((SG, True, 0), (INT, True, 0), (COMP, False, 8), (ST, True, 0))),
)


def test_axioms_json_of_failing_models_pinned(tmp_path, capsys):
    for m, (digest, summary) in zip(failing_models(), AXIOMS_JSON):
        path = tmp_path / "m.ci"
        path.write_text(model_to_text(m))
        assert run(["axioms", "--model", str(path), "--json"]) == 1
        out = capsys.readouterr().out
        reports = json.loads(out)["reports"]
        assert tuple((r["property"], r["passed"], r["count"]) for r in reports) == summary
        assert hashlib.sha256(out.encode()).hexdigest() == digest
