"""CLI verbs: thin wrappers, exit codes, JSON schemas, file diagnostics."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from graphfaith.cli import run
from graphfaith.faithfulness import decide_graphical
from graphfaith.generate import flip_one_elementary, random_anterial_graph, random_preorder
from graphfaith.graphs import graph_to_text, induced_model, parse_graph_text, separates
from graphfaith.models import model_to_text, parse_model_text
from graphfaith.preorders import preorder_to_text

ROOT = Path(__file__).resolve().parents[1]
COLLIDER = "a -> c\nb -> c\n"
CHAIN = "a -> b\nb -> c\n"
SIGMA_CSV = "1,2,3,4\n3,2,1,2\n2,4,2,1\n1,2,7,1\n2,1,1,6\n"
TRANSITIVITY_CI = "a _||_ c\na _||_ c | b\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("coll.graph", COLLIDER),
        ("chain.graph", CHAIN),
        ("sigma.csv", SIGMA_CSV),
        ("trans.ci", TRANSITIVITY_CI),
    ):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    for name, text in (("coll.ci", COLLIDER), ("chain.ci", CHAIN)):
        p = tmp_path / name
        p.write_text(model_to_text(induced_model(parse_graph_text(text))))
        paths[name] = str(p)
    return paths


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit codes and verdicts --------------------------------------------------------


def test_separate_exit_codes(files, capsys):
    code, out, _ = invoke(capsys, "separate", "--graph", files["coll.graph"], "--a", "a", "--b", "b", "--given", "c")
    assert code == 1 and "not separated" in out
    code, out, _ = invoke(capsys, "separate", "--graph", files["coll.graph"], "--a", "a", "--b", "b")
    assert code == 0 and out.strip() == "separated"


def test_separate_matches_library(files, capsys):
    graph = parse_graph_text(COLLIDER)
    expected = separates(graph, {"a"}, {"b"}, {"c"})
    code, out, _ = invoke(
        capsys, "separate", "--graph", files["coll.graph"], "--a", "a", "--b", "b", "--given", "c", "--json"
    )
    payload = json.loads(out)
    assert payload["separated"] == expected
    assert payload["connecting_walk"] == "a -> c <- b"
    assert code == (0 if expected else 1)


def test_graphical_transitivity_example(files, capsys):
    code, out, _ = invoke(capsys, "graphical", "--model", files["trans.ci"])
    assert code == 1
    assert "singleton-transitivity" in out


def test_graphical_json_matches_library(files, capsys):
    code, out, _ = invoke(capsys, "graphical", "--model", files["coll.ci"], "--json")
    assert code == 0
    payload = json.loads(out)
    expected = decide_graphical(parse_model_text(model_to_text(induced_model(parse_graph_text(COLLIDER)))))
    assert payload["graphical"] is True
    assert payload["failure"] is None
    assert payload["witnesses"] == [graph_to_text(w) for w in expected.witnesses]


def test_gaussian_print_model_contains_statement(files, capsys):
    code, out, _ = invoke(capsys, "gaussian", "--cov", files["sigma.csv"], "--print-model")
    assert code == 0
    assert "1 _||_ 3 | 2" in out


def test_gaussian_matrix_role_spellings(files, capsys):
    code, out, _ = invoke(
        capsys, "gaussian", "--matrix", files["sigma.csv"], "--role", "covariance", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["positive_definite"] is True and payload["m_matrix"] is False
    assert payload["statements"] == 1


def test_markov_variants(files, capsys):
    code, _, _ = invoke(capsys, "markov", "--model", files["coll.ci"], "--graph", files["coll.graph"])
    assert code == 0
    code, _, _ = invoke(
        capsys, "markov", "--model", files["coll.ci"], "--graph", files["coll.graph"], "--variant", "minimal"
    )
    assert code == 0
    code, _, _ = invoke(
        capsys, "markov", "--model", files["coll.ci"], "--graph", files["chain.graph"], "--variant", "global"
    )
    assert code == 1


def test_faithful_verb(files, capsys):
    code, out, _ = invoke(capsys, "faithful", "--model", files["coll.ci"], "--graph", files["coll.graph"])
    assert code == 0 and "yes" in out
    code, out, _ = invoke(capsys, "faithful", "--model", files["coll.ci"], "--graph", files["chain.graph"])
    assert code == 1 and "no" in out


def test_axioms_verb(files, capsys):
    code, out, _ = invoke(capsys, "axioms", "--model", files["coll.ci"], "--json")
    assert code == 0
    payload = json.loads(out)
    assert [r["property"] for r in payload["reports"]] == [
        "semi-graphoid", "intersection", "composition", "singleton-transitivity",
    ]
    code, out, _ = invoke(capsys, "axioms", "--model", files["trans.ci"])
    assert code == 1
    assert "singleton-transitivity: FAIL" in out


def test_stability_verb(files, capsys):
    code, _, _ = invoke(capsys, "stability", "--model", files["coll.ci"], "--minimal-of", files["coll.graph"])
    assert code == 0
    code, out, _ = invoke(capsys, "stability", "--model", files["coll.ci"], "--trivial", "all-equivalent")
    assert code == 1
    assert "upward-stability: FAIL" in out


def test_stability_verb_with_preorder_file(files, tmp_path, capsys):
    pre = tmp_path / "sink.pre"
    pre.write_text("class a\nclass b\nclass c\norder c < a\norder c < b\n")
    code, out, _ = invoke(
        capsys, "stability", "--model", files["coll.ci"], "--preorder", str(pre), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["property"] for r in payload["reports"]] == [
        "ordered-upward-stability",
        "ordered-downward-stability",
    ]
    assert all(r["passed"] for r in payload["reports"])


STABILITY_SOURCES = {
    "equal.pre": "class a b c\n",
    "incomparable.pre": "class a\nclass b\nclass c\n",
    "ug.graph": "a -- c\nc -- b\n",
    "bg.graph": "a <-> b\nb <-> c\n",
}
COLLIDER_UP_BREAK = {"C": [], "i": "a", "j": "b", "k": "c"}
CHAIN_DOWN_BREAK = {"C": ["b"], "i": "a", "j": "c", "k": "b"}


@pytest.mark.parametrize(
    "option, source, model, direction, witness",
    [
        ("--preorder", "equal.pre", "coll.ci", "up", COLLIDER_UP_BREAK),
        ("--preorder", "equal.pre", "coll.ci", "down", None),
        ("--preorder", "incomparable.pre", "chain.ci", "up", None),
        ("--preorder", "incomparable.pre", "chain.ci", "down", CHAIN_DOWN_BREAK),
        ("--minimal-of", "ug.graph", "coll.ci", "up", COLLIDER_UP_BREAK),
        ("--minimal-of", "ug.graph", "coll.ci", "down", None),
        ("--minimal-of", "bg.graph", "chain.ci", "up", None),
        ("--minimal-of", "bg.graph", "chain.ci", "down", CHAIN_DOWN_BREAK),
    ],
)
def test_stability_one_direction(files, tmp_path, capsys, option, source, model, direction, witness):
    path = tmp_path / source
    path.write_text(STABILITY_SOURCES[source])
    argv = ["stability", "--model", files[model], option, str(path), "--direction", direction]
    prop = {"up": "ordered-upward-stability", "down": "ordered-downward-stability"}[direction]
    code, out, _ = invoke(capsys, *argv)
    assert code == (0 if witness is None else 1)
    assert out == f"{prop}: {'pass' if witness is None else 'FAIL (1 violations)'}\n"
    json_code, out, _ = invoke(capsys, *argv, "--json")
    assert json_code == code
    report = {
        "count": 0 if witness is None else 1,
        "passed": witness is None,
        "property": prop,
        "violations": [] if witness is None else [{"witness": witness}],
    }
    assert out == json.dumps({"reports": [report]}, sort_keys=True) + "\n"


def test_stability_ground_mismatch_exit_2(files, tmp_path, capsys):
    pre = tmp_path / "abd.pre"
    pre.write_text("class a\nclass b\nclass d\n")
    code, out, err = invoke(capsys, "stability", "--model", files["coll.ci"], "--preorder", str(pre))
    assert (code, out) == (2, "")
    assert err == "error: preorder ground ('a', 'b', 'd') does not match model ground ('a', 'b', 'c')\n"
    graph = tmp_path / "abd.graph"
    graph.write_text("a -> b\nb -> d\n")
    code, out, err = invoke(capsys, "stability", "--model", files["coll.ci"], "--minimal-of", str(graph))
    assert (code, out, err) == (2, "", "error: graph nodes do not match the model ground\n")
    # A graph with no valid preorder is reported before its ground is compared.
    graph.write_text("a -> b\nb -> d\nd -- a\n")
    code, out, err = invoke(capsys, "stability", "--model", files["coll.ci"], "--minimal-of", str(graph))
    assert (code, out) == (2, "")
    assert err == "error: graph has a semi-directed cycle b -> d -> a -> b; no valid preorder exists\n"


# sha256 of the four `stability --json` outputs, joined, of five seeded
# failing models: a flipped model of a random 5-node anterial graph, with
# that graph for --minimal-of and a random preorder for --preorder.
STABILITY_JSON = (
    (1, "6a3b25a18d39f57ae04722814a75510edb1f5e0003ac553790eda77199cea82b"),
    (3, "5e65705616bbef08322832572dc0a4fbddcb0e29a668136364393e79fc2cc572"),
    (4, "e6e3506f8c7aa79f02b9b054ed46c216102c3ab68f0b6f09cbf92ef17ef07811"),
    (6, "531de3131f7b13238466c91946bc7647d34ec9cb2e781332328b6ea0715eb60a"),
    (8, "92bc187a7b5cd67e143c2744ae38cfd433e88eb6ecaa4d353b4f866e51b564e4"),
)


def test_stability_json_of_failing_models_pinned(tmp_path, capsys):
    paths = {name: tmp_path / name for name in ("m.ci", "g.graph", "p.pre")}
    modes = (
        ("--trivial", "all-equivalent"),
        ("--trivial", "all-incomparable"),
        ("--preorder", str(paths["p.pre"])),
        ("--minimal-of", str(paths["g.graph"])),
    )
    for seed, digest in STABILITY_JSON:
        rng = random.Random(seed)
        graph = random_anterial_graph(rng, "abcde", 0.5)
        model = flip_one_elementary(rng, induced_model(graph))
        paths["m.ci"].write_text(model_to_text(model))
        paths["g.graph"].write_text(graph_to_text(graph))
        paths["p.pre"].write_text(preorder_to_text(random_preorder(rng, model.ground)))
        outs = []
        for mode in modes:
            code, out, _ = invoke(capsys, "stability", "--model", str(paths["m.ci"]), *mode, "--json")
            assert code == (0 if all(r["passed"] for r in json.loads(out)["reports"]) else 1)
            outs.append(out)
        assert not json.loads(outs[0])["reports"][0]["passed"]
        assert hashlib.sha256("".join(outs).encode()).hexdigest() == digest


def test_unknown_label_error_is_the_same_under_every_hash_seed(files):
    # Label options are parsed into frozensets, whose iteration order follows
    # the string hash seed; the error must name the smallest unknown label.
    script = (
        "import sys\n"
        "from graphfaith.cli import run\n"
        "print(run(['separate', '--graph', sys.argv[1], '--a', 'z,x,y', '--b', 'a']))\n"
        "print(run(['alpha', '--model', sys.argv[2], '--marginalize', 'r,p,q']))\n"
    )
    outputs = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script, files["coll.graph"], files["coll.ci"]],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        outputs.add((done.stdout, done.stderr))
    assert outputs == {("2\n2\n", "error: unknown node label 'x'\nerror: unknown node label 'p'\n")}


def test_alpha_verb_marginalize(files, capsys):
    code, out, _ = invoke(capsys, "alpha", "--model", files["coll.ci"], "--marginalize", "c")
    assert code == 0
    assert "a _||_ b" in out  # the marginal independence survives marginalizing the collider


def test_classify_verb(files, capsys):
    code, out, _ = invoke(capsys, "classify", "--graph", files["coll.graph"], "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["DAG"] is True and payload["maximal"] is True


def test_model_verb_round_trip(files, capsys):
    code, out, _ = invoke(capsys, "model", "--graph", files["coll.graph"], "--cross-check")
    assert code == 0
    assert parse_model_text(out) == induced_model(parse_graph_text(COLLIDER))


def test_alpha_verb(files, capsys):
    code, out, _ = invoke(
        capsys, "alpha", "--model", files["coll.ci"], "--marginalize", "", "--condition", "c"
    )
    assert code == 0
    assert "node a" in out and "node b" in out  # no statements survive conditioning


def test_gaussian_conc_role(files, tmp_path, capsys):
    k = tmp_path / "k.csv"
    k.write_text("1,2,3\n1,-1/10,0\n-1/10,1,-1/10\n0,-1/10,1\n")
    code, out, _ = invoke(capsys, "gaussian", "--conc", str(k), "--print-model", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["m_matrix"] is True
    assert "1 _||_ 3 | 2" in payload["model"]


# -- errors ------------------------------------------------------------------------------


def test_gaussian_conc_not_positive_definite_names_concentration(tmp_path, capsys):
    k = tmp_path / "k.csv"
    k.write_text("a,b\n1,2\n2,1\n")
    code, out, err = invoke(capsys, "gaussian", "--conc", str(k))
    assert code == 2 and out == ""
    assert "concentration is not positive definite: leading principal minor 2 is -3" in err
    assert "covariance" not in err


def test_gaussian_rejects_label_the_model_text_cannot_carry(tmp_path, capsys):
    # "b x" would print as a statement side that fails to re-parse.
    m = tmp_path / "m.csv"
    m.write_text("a,b x\n1,0\n0,1\n")
    code, out, err = invoke(capsys, "gaussian", "--cov", str(m), "--print-model")
    assert (code, out) == (2, "")
    assert "m.csv:1: header cell 2 ('b x')" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["stability", "--model", "coll.ci", "--preorder", ""],
        ["gaussian", "--cov", ""],
        ["gaussian", "--conc", ""],
    ],
)
def test_empty_file_option_is_an_unreadable_file(files, capsys, argv):
    argv = [files.get(arg, arg) for arg in argv]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert "cannot read file" in err


def test_usage_error_exit_2(capsys):
    assert run(["separate", "--graph", "nope.graph"]) == 2  # missing --a/--b


def test_missing_file_exit_2(tmp_path, capsys):
    code = run(["classify", "--graph", str(tmp_path / "missing.graph")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_parse_diagnostics_carry_location(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("a -- b\na -> b\n")
    code = run(["classify", "--graph", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.graph:2" in err and "chain mixed graph" in err


def test_unknown_axiom_property(files, capsys):
    code = run(["axioms", "--model", files["coll.ci"], "--properties", "bogus"])
    assert code == 2


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert "graphfaith" in capsys.readouterr().out


def test_python_dash_m_runs_the_command(files):
    from graphfaith import __version__

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "graphfaith", *argv], env=env, capture_output=True, text=True, timeout=60
        )

    done = module("--version")
    assert (done.returncode, done.stdout) == (0, f"graphfaith {__version__}\n")
    done = module("separate", "--graph", files["coll.graph"], "--a", "a", "--b", "b", "--given", "c")
    assert (done.returncode, done.stdout) == (1, "not separated (a -> c <- b)\n")


def test_seed_flag_rejected(files, capsys):
    # --seed is not an option of any verb: passing it is a usage error
    code, _, err = invoke(capsys, "classify", "--graph", files["coll.graph"], "--seed", "7")
    assert code == 2
    assert "--seed" in err


def test_json_flag_never_changes_exit_code(files, capsys):
    for extra in ([], ["--json"]):
        plain = run(["faithful", "--model", files["coll.ci"], "--graph", files["chain.graph"], *extra])
        capsys.readouterr()
        assert plain == 1


def test_cap_flag_applies(files, capsys):
    code = run(["model", "--graph", files["coll.graph"], "--cap", "2"])
    assert code == 2
    assert "cap" in capsys.readouterr().err
