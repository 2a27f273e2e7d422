"""CLI verbs: thin wrappers, exit codes, JSON schemas, file diagnostics."""

import json

import pytest

from graphfaith.cli import run
from graphfaith.faithfulness import decide_graphical
from graphfaith.graphs import graph_to_text, induced_model, parse_graph_text, separates
from graphfaith.models import model_to_text, parse_model_text

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
    model = induced_model(parse_graph_text(COLLIDER))
    p = tmp_path / "coll.ci"
    p.write_text(model_to_text(model))
    paths["coll.ci"] = str(p)
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


def test_seed_flag_accepted(files, capsys):
    code, _, _ = invoke(capsys, "classify", "--graph", files["coll.graph"], "--seed", "7")
    assert code == 0


def test_json_flag_never_changes_exit_code(files, capsys):
    for extra in ([], ["--json"]):
        plain = run(["faithful", "--model", files["coll.ci"], "--graph", files["chain.graph"], *extra])
        capsys.readouterr()
        assert plain == 1


def test_cap_flag_applies(files, capsys):
    code = run(["model", "--graph", files["coll.graph"], "--cap", "2"])
    assert code == 2
    assert "cap" in capsys.readouterr().err
