"""The three benchmark workloads: input generation, one op, output checks.

Every workload drives the user-facing verbs in-process through
``graphfaith.cli.run(argv)`` with stdout captured.  Inputs come from
``graphfaith.generate`` seeded by a *generator seed*; the recorded pool
(``pool.json``, written by ``record.py``) lists, per workload and stratum,
the generator seeds a run may draw from and the reference digest of each
input's output.  A run's ``--seed`` picks a seeded permutation of every
stratum, so the same seed gives the same inputs and every input has a
reference to compare against.

The program modules are passed in as ``gf`` (a namespace holding
``cli``, ``generate``, ``graphs``, ``models``, ``gaussian`` and
``faithfulness``) rather than imported here, because set-up re-imports the
package to time it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import random
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
POOL_FILE = Path(__file__).resolve().parent / "pool.json"
PROGRAM_MODULES = ("cli", "generate", "graphs", "models", "gaussian", "faithfulness")

# Triples per materialize9 op that are checked against the walk oracle.
ORACLE_SAMPLE = 24


@dataclass
class Input:
    """One generated input: the generating graph(s), the files an op reads,
    and the shape recorded in the output."""

    gen_seed: int
    stratum: str
    digest: str
    graph: object
    files: dict[str, Path]
    shape: dict[str, int]
    extra: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    why: str
    # One round of the timed loop: one input per slot, in this order.
    round_slots: tuple[str, ...]
    # (gf, gen_seed) -> (stratum or None, generating graph, extra); runs in set-up.
    generate: Callable
    write_files: Callable
    op: Callable
    check: Callable


def _program_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "graphfaith" or n.startswith("graphfaith.")}


def import_program() -> types.SimpleNamespace:
    """Import a fresh copy of graphfaith from this checkout's ``src`` and
    return its modules; ``modules`` holds every module of the copy.  Raises
    ImportError when the checkout holds no program."""
    for name in _program_modules():
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("graphfaith")
    if Path(package.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"graphfaith was imported from {package.__file__}, not from {SRC}")
    named = {m: importlib.import_module(f"graphfaith.{m}") for m in PROGRAM_MODULES}
    return types.SimpleNamespace(modules=_program_modules(), **named)


def activate(gf) -> None:
    """Make ``gf`` the copy that imports made at call time resolve to."""
    sys.modules.update(gf.modules)


def clear_caches(gf) -> None:
    """Empty every function cache in the program, as a fresh process would
    start."""
    for module in gf.modules.values():
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def run_verb(gf, argv: list[str]) -> tuple[int, str]:
    """Run one CLI verb in-process; return (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = gf.cli.run(argv)
    return rc, out.getvalue()


def digest(outputs: list[tuple[int, str]]) -> str:
    """Digest of every verb's exit code and stdout, in order."""
    blob = json.dumps([[rc, text] for rc, text in outputs], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_pool() -> dict:
    return json.loads(POOL_FILE.read_text())


def _subsets_without(nodes, u, v):
    rest = [w for w in nodes if w not in (u, v)]
    return itertools.chain.from_iterable(itertools.combinations(rest, r) for r in range(len(rest) + 1))


def skeleton_of(model) -> frozenset[tuple[str, str]]:
    """Pairs that no conditioning set separates, from the model store alone."""
    return frozenset(
        (u, v)
        for u, v in itertools.combinations(model.ground, 2)
        if not any(model.contains({u}, {v}, c) for c in _subsets_without(model.ground, u, v))
    )


# -- search6 ------------------------------------------------------------------

SEARCH_LABELS = tuple("abcdef")


def _search_generate(gf, gen_seed: int):
    g = gf.generate.random_anterial_graph(random.Random(gen_seed), SEARCH_LABELS, 0.5)
    # The direct route queries every triple, so the model is built without
    # the elementary route the search later verifies with.
    model = gf.graphs.induced_model(g, via_elementary=False)
    skeleton = skeleton_of(model)
    k = len(skeleton)
    stratum = f"k{k}" if 5 <= k <= 8 else None
    return stratum, g, {"model": model, "k": k, "skeleton": skeleton}


def _search_write(gf, inp: Input, workdir: Path) -> None:
    path = workdir / f"{inp.gen_seed}-model.txt"
    text = gf.models.model_to_text(inp.extra["model"])
    path.write_text(text)
    inp.files["model"] = path
    k = inp.extra["k"]
    inp.shape.update(
        nodes=len(SEARCH_LABELS),
        skeleton_edges=k,
        candidates_4k=4**k,
        model_statements=inp.extra["model"].statement_count(),
        model_text_bytes=len(text),
    )


def _search_op(gf, inp: Input) -> list[tuple[int, str]]:
    return [run_verb(gf, ["graphical", "--model", str(inp.files["model"]), "--json"])]


def _search_check(gf, inp: Input, outputs) -> list[str]:
    (rc, text), = outputs
    if rc != 0:
        return [f"graphical exit code {rc}, expected 0"]
    payload = json.loads(text)
    if payload.get("graphical") is not True:
        return ["graphical verdict is not true for a graph-induced model"]
    witnesses = [gf.graphs.parse_graph_text(w) for w in payload.get("witnesses", [])]
    problems = []
    if not witnesses:
        problems.append("no witnesses for a graph-induced model")
    skeleton = inp.extra["skeleton"]
    if any(w.adjacent_pairs != skeleton for w in witnesses):
        problems.append("a witness is not on the model skeleton")
    if inp.graph.adjacent_pairs == skeleton and inp.graph not in witnesses:
        problems.append("the generating graph is missing from the witnesses")
    inp.shape["witnesses"] = len(witnesses)
    return problems


# -- materialize9 -------------------------------------------------------------

MATERIALIZE_LABELS = tuple("abcdefghi")


def _materialize_generate(gf, gen_seed: int):
    rng = random.Random(gen_seed)
    g = gf.generate.random_anterial_graph(rng, MATERIALIZE_LABELS, 0.35)
    if not g.edges:
        return None, g, {}
    drop = rng.randrange(len(g.edges))
    # Dropping an edge keeps the graph anterial, and G' differs from G, so
    # the markov verb never finds G' in the model cache.
    g2 = gf.graphs.MixedGraph(g.nodes, g.edges[:drop] + g.edges[drop + 1 :])
    return "all", g, {"g2": g2}


def _materialize_write(gf, inp: Input, workdir: Path) -> None:
    for key, graph in (("graph", inp.graph), ("graph2", inp.extra["g2"])):
        path = workdir / f"{inp.gen_seed}-{key}.txt"
        path.write_text(gf.graphs.graph_to_text(graph))
        inp.files[key] = path
    inp.files["model"] = workdir / f"{inp.gen_seed}-model.txt"
    inp.shape.update(
        nodes=len(MATERIALIZE_LABELS), graph_edges=len(inp.graph.edges), triples_4n=4 ** len(MATERIALIZE_LABELS)
    )


def _materialize_op(gf, inp: Input) -> list[tuple[int, str]]:
    first = run_verb(gf, ["model", "--graph", str(inp.files["graph"]), "--json"])
    inp.files["model"].write_text(json.loads(first[1])["model"])
    second = run_verb(
        gf, ["markov", "--model", str(inp.files["model"]), "--graph", str(inp.files["graph2"]), "--json"]
    )
    return [first, second]


def _random_triple(rng: random.Random, labels) -> tuple[set, set, set]:
    shuffled = list(labels)
    rng.shuffle(shuffled)
    a, b = {shuffled[0]}, {shuffled[1]}
    c = set()
    for lab in shuffled[2:]:
        r = rng.random()
        if r < 0.15:
            a.add(lab)
        elif r < 0.3:
            b.add(lab)
        elif r < 0.65:
            c.add(lab)
    return a, b, c


def _maximal_by_oracle(gf, g) -> bool:
    """Every non-adjacent pair is separated by some set, by the walk oracle."""
    nodes = sorted(g.nodes)
    return all(
        any(gf.graphs.connecting_walk_oracle(g, {u}, {v}, c) is None for c in _subsets_without(nodes, u, v))
        for u, v in itertools.combinations(nodes, 2)
        if not g.is_adjacent(u, v)
    )


def _materialize_check(gf, inp: Input, outputs) -> list[str]:
    (rc1, text1), (rc2, text2) = outputs
    if rc1 != 0:
        return [f"model exit code {rc1}, expected 0"]
    payload = json.loads(text1)
    problems = []
    if payload.get("ground") != list(MATERIALIZE_LABELS):
        problems.append("model ground differs from the graph's nodes")
    text = payload["model"]
    model = gf.models.parse_model_text(text)
    again = gf.models.model_to_text(model)
    if again != text and gf.models.parse_model_text(again) != model:
        problems.append("model text does not round-trip")
    rng = random.Random(inp.gen_seed)
    for _ in range(ORACLE_SAMPLE):
        a, b, c = _random_triple(rng, MATERIALIZE_LABELS)
        separated = gf.graphs.connecting_walk_oracle(inp.graph, a, b, c) is None
        if model.contains(a, b, c) != separated:
            problems.append(f"statement {sorted(a)} _||_ {sorted(b)} | {sorted(c)} disagrees with the walk oracle")
            break
    verdict = json.loads(text2).get("markov")
    g2 = inp.extra["g2"]
    # Pairwise and global Markov agree on maximal graphs; G' need not be one.
    pairwise = gf.faithfulness.is_pairwise_markov(model, g2)
    if verdict is not pairwise and _maximal_by_oracle(gf, g2):
        problems.append(f"markov verdict {verdict}, pairwise Markov on a maximal graph says {pairwise}")
    if rc2 != (0 if verdict is True else 1):
        problems.append(f"markov exit code {rc2} does not match the verdict {verdict}")
    inp.shape.update(model_statements=model.statement_count(), model_text_bytes=len(text))
    return problems


# -- gaussian_ug8 -------------------------------------------------------------

GAUSSIAN_LABELS = tuple("abcdefgh")


def _gaussian_generate(gf, gen_seed: int):
    g = gf.generate.random_connected_ug(random.Random(gen_seed), GAUSSIAN_LABELS, 0.1)
    # K = I - A/10 is diagonally dominant on 8 nodes, hence positive definite.
    return "all", g, {"conc": gf.gaussian.adjacency_weight_matrix(g, "-1/10")}


def _gaussian_write(gf, inp: Input, workdir: Path) -> None:
    path = workdir / f"{inp.gen_seed}-conc.csv"
    path.write_text(gf.gaussian.matrix_to_csv(inp.extra["conc"]))
    inp.files["conc"] = path
    inp.files["model"] = workdir / f"{inp.gen_seed}-model.txt"
    inp.shape.update(nodes=len(GAUSSIAN_LABELS), graph_edges=len(inp.graph.edges))


def _gaussian_op(gf, inp: Input) -> list[tuple[int, str]]:
    first = run_verb(gf, ["gaussian", "--conc", str(inp.files["conc"]), "--print-model", "--json"])
    inp.files["model"].write_text(json.loads(first[1])["model"])
    second = run_verb(
        gf, ["graphical", "--model", str(inp.files["model"]), "--class-filter", "UG", "--json"]
    )
    return [first, second]


def _gaussian_check(gf, inp: Input, outputs) -> list[str]:
    (rc1, text1), (rc2, text2) = outputs
    if rc1 != 0:
        return [f"gaussian exit code {rc1}, expected 0"]
    if rc2 != 0:
        return [f"graphical exit code {rc2}, expected 0"]
    first = json.loads(text1)
    witnesses = json.loads(text2).get("witnesses", [])
    problems = []
    if len(witnesses) != 1 or gf.graphs.parse_graph_text(witnesses[0]) != inp.graph:
        problems.append("the UG witness is not the generating graph")
    inp.shape.update(model_statements=first["statements"], model_text_bytes=len(first["model"]))
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search6",
            "graphical --json on 6-node graph-induced models with 5-8 skeleton edges: "
            "directing enumeration and the stability screen dominate",
            ("k5", "k6", "k7", "k7", "k7", "k7", "k8"),
            _search_generate,
            _search_write,
            _search_op,
            _search_check,
        ),
        Workload(
            "materialize9",
            "model then markov on 9-node anterial graphs: two full 4^9 materializations "
            "and a model-text round trip per op, no search",
            ("all",),
            _materialize_generate,
            _materialize_write,
            _materialize_op,
            _materialize_check,
        ),
        Workload(
            "gaussian_ug8",
            "gaussian --print-model then graphical --class-filter UG on 8-node concentration "
            "matrices: exact Schur complements and axiom scans over stored statements",
            ("all",),
            _gaussian_generate,
            _gaussian_write,
            _gaussian_op,
            _gaussian_check,
        ),
    )
}


def plan(workload: Workload, pool_entries: list[dict], seed: int) -> list[list[dict]]:
    """Rounds of pool entries for a run: each stratum in a seeded order,
    one entry per slot per round, as many rounds as the pool allows."""
    rng = random.Random(seed)
    by_stratum: dict[str, list[dict]] = {}
    for entry in pool_entries:
        by_stratum.setdefault(entry["stratum"], []).append(entry)
    queues = {s: iter(rng.sample(entries, len(entries))) for s, entries in sorted(by_stratum.items())}
    slots = workload.round_slots
    rounds = min(len(by_stratum[s]) // slots.count(s) for s in set(slots))
    return [[next(queues[slot]) for slot in slots] for _ in range(rounds)]


def make_input(gf, workload: Workload, entry: dict, workdir: Path) -> Input:
    stratum, graph, extra = workload.generate(gf, entry["gen_seed"])
    if stratum != entry["stratum"]:
        raise RuntimeError(
            f"{workload.name}: generator seed {entry['gen_seed']} gave stratum {stratum}, "
            f"pool says {entry['stratum']}"
        )
    inp = Input(entry["gen_seed"], stratum, entry["digest"], graph, {}, {}, extra)
    workdir.mkdir(parents=True, exist_ok=True)
    workload.write_files(gf, inp, workdir)
    return inp


def check(gf, workload: Workload, inp: Input, outputs) -> list[str]:
    """Problems with one op's outputs; empty when they are correct."""
    if outputs is None:
        return ["op raised"]
    try:
        problems = workload.check(gf, inp, outputs)
    except Exception as exc:  # a malformed output is a failed op, not a crash
        problems = [f"malformed output: {type(exc).__name__}: {exc}"]
    if digest(outputs) != inp.digest:
        problems.append("output differs from the reference digest")
    return problems
