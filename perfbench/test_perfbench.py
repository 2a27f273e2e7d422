"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def gf():
    return wl.import_program()


def first_input(gf, name, workdir, stratum=None, accept=lambda inp: True):
    workload = wl.WORKLOADS[name]
    for row in wl.plan(workload, wl.load_pool()[name], run.DEFAULT_SEED):
        for entry in row:
            if stratum in (None, entry["stratum"]):
                inp = wl.make_input(gf, workload, entry, workdir)
                if accept(inp):
                    return workload, inp
    raise LookupError(f"no {name} input in the pool fits the test")


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_pool_inputs_are_distinct_and_fill_rounds(gf, name, tmp_path):
    workload = wl.WORKLOADS[name]
    rounds = wl.plan(workload, wl.load_pool()[name], run.DEFAULT_SEED)
    assert len(rounds) >= 8
    assert all([e["stratum"] for e in row] == list(workload.round_slots) for row in rounds)
    inputs = [wl.make_input(gf, workload, e, tmp_path) for row in rounds for e in row]
    keys = {inp.extra.get("skeleton", inp.graph) for inp in inputs}
    assert len(keys) == len(inputs)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_generation_is_identical_for_one_seed(gf, name, tmp_path):
    workload = wl.WORKLOADS[name]
    pool = wl.load_pool()[name]
    assert wl.plan(workload, pool, 7) == wl.plan(workload, pool, 7)
    assert wl.plan(workload, pool, 7) != wl.plan(workload, pool, 8)
    entry = wl.plan(workload, pool, 7)[0][0]
    a = wl.make_input(gf, workload, entry, tmp_path / "a")
    b = wl.make_input(gf, workload, entry, tmp_path / "b")
    assert a.graph == b.graph
    assert a.shape == b.shape
    for key, path in a.files.items():
        if path.exists():
            assert path.read_text() == b.files[key].read_text()


def is_maximal(inp):
    return inp.graph.adjacent_pairs == inp.extra["skeleton"]


def drop_generating_witness(gf, inp, outputs):
    (rc, text), = outputs
    payload = json.loads(text)
    own = gf.graphs.graph_to_text(inp.graph)
    assert own in payload["witnesses"]
    payload["witnesses"].remove(own)
    return [(rc, json.dumps(payload, sort_keys=True))]


def flip_markov(gf, inp, outputs):
    first, (rc, text) = outputs
    payload = json.loads(text)
    payload["markov"] = not payload["markov"]
    return [first, (1 - rc, json.dumps(payload, sort_keys=True))]


def drop_ug_witness(gf, inp, outputs):
    first, (rc, text) = outputs
    payload = json.loads(text)
    payload["witnesses"] = []
    return [first, (rc, json.dumps(payload, sort_keys=True))]


@pytest.mark.parametrize(
    "name, stratum, corrupt",
    [
        ("search6", "k5", drop_generating_witness),
        ("materialize9", None, flip_markov),
        ("gaussian_ug8", None, drop_ug_witness),
    ],
)
def test_corrupted_output_counts_as_failed(gf, tmp_path, name, stratum, corrupt):
    accept = {
        "search6": is_maximal,
        "materialize9": lambda inp: gf.graphs.classify(inp.extra["g2"]).is_maximal,
    }.get(name, lambda inp: True)
    workload, inp = first_input(gf, name, tmp_path, stratum, accept)
    outputs, _, error = run.run_op(gf, workload, inp)
    assert error == ""
    good = (inp, outputs, 0.1, "")
    bad = (inp, corrupt(gf, inp, outputs), 0.1, "")
    verdicts = run.evaluate(gf, workload, [good, bad])
    assert verdicts[0][1] == []
    assert verdicts[1][1]
    # Beyond the digest, the semantic check sees the corruption too.
    assert [p for p in verdicts[1][1] if "digest" not in p]


def test_crashed_op_counts_as_failed(gf, tmp_path):
    workload, inp = first_input(gf, "gaussian_ug8", tmp_path)
    verdicts = run.evaluate(gf, workload, [(inp, None, 0.1, "RuntimeError: boom")])
    assert verdicts[0][1][0] == "RuntimeError: boom"


def test_tracer_restores_every_patched_attribute(gf):
    before = {(b.module, b.attr): getattr(sys.modules[b.module], b.attr) for b in tracing.BOUNDARIES}
    with tracing.Tracer() as t:
        patched = {key for key, fn in before.items() if getattr(sys.modules[key[0]], key[1]) is not fn}
    assert patched == set(before)
    assert t.absent == []
    after = {(b.module, b.attr): getattr(sys.modules[b.module], b.attr) for b in tracing.BOUNDARIES}
    assert after == before


def test_absent_boundary_is_reported_not_fatal(gf):
    bogus = tracing.Boundary("cli", "graphfaith.cli", "no_such_function")
    with tracing.Tracer([*tracing.BOUNDARIES, bogus]) as t:
        pass
    assert t.absent == ["graphfaith.cli.no_such_function"]
    assert not hasattr(sys.modules["graphfaith.cli"], "no_such_function")


def traced_op(gf, workload, inp):
    t = tracing.Tracer()
    wl.clear_caches(gf)
    t.op = 0
    with t:
        outputs, _, error = run.run_op(gf, workload, inp)
    assert error == ""
    assert wl.check(gf, workload, inp, outputs) == []
    return t.metrics(1, lambda m: len(wl.skeleton_of(m)))


def test_materialize9_separates_calls_are_exact(gf, tmp_path):
    workload, inp = first_input(gf, "materialize9", tmp_path)
    metrics = traced_op(gf, workload, inp)
    # Two elementary materializations: C(9,2) pairs times 2^7 conditioning sets each.
    assert metrics["graphs.separates.calls"] == 2 * 36 * 2**7 == 9216
    assert metrics["graphs.induced_model.calls"] == 2
    assert metrics["graphs.induced_model.cache_hits"] == 0


def test_search6_candidates_are_4_to_the_k(gf, tmp_path):
    workload, inp = first_input(gf, "search6", tmp_path, "k5")
    metrics = traced_op(gf, workload, inp)
    assert metrics["preorders.directings.candidates"] == 4**5
    assert 0 < metrics["preorders.directings.yielded"] <= 4**5
    assert metrics["faithfulness.screen.calls"] == metrics["preorders.directings.yielded"]
    assert metrics["faithfulness.verify.confirmed"] == inp.shape["witnesses"]


def test_self_times_subtract_children():
    t = tracing.Tracer([])
    t.layers = ["a", "b"]
    t.spans = [[0, 0, -1, 0.0, 10.0], [1, 0, 0, 2.0, 5.0], [1, 0, 0, 6.0, 7.0]]
    assert t.self_times() == {"a": 6.0, "b": 4.0}


def test_tail_has_ten_samples_beyond_it():
    times = [float(i) for i in range(25)]
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == 10
    assert pct == pytest.approx(60.0)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


@pytest.mark.parametrize("trace", [False, True])
def test_one_round_reports_every_metric(trace):
    lines, result = run.run_workload("gaussian_ug8", run.DEFAULT_SEED, 0.01, trace)
    assert result["correct"] and result["failed"] == 0
    names = [m for m, *_ in (tracing.PER_LAYER if trace else run.END_TO_END)]
    assert list(result["metrics"]) == names
    if trace:
        assert result["attempted"] == 2
        assert result["metrics"]["trace.absent_boundaries"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
