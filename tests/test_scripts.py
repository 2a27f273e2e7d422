"""End-to-end runs of the demo scripts under scripts/."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from graphfaith.faithfulness import FaithfulnessVerdict

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return done.stdout


def test_stability_screen_gap_counts_on_four_nodes():
    # Over every graph-induced model on 4 nodes, 78 of the 5000 directings
    # that pass the stability screen are not faithful; the first is the
    # 4-cycle with two arcs that the directing search documents.
    # No screen pass breaks the unshielded-collider rule that the search
    # prunes by, false positives included, and no row rules out a skeleton.
    lines = run_script("stability_screen_gap.py", "4").splitlines()
    assert lines[:5] == [
        "distinct graph-induced models on 4 nodes: 299",
        "directings passing the stability screen: 5000",
        "of those, actually faithful: 4922",
        "screen-only false positives: 78",
        "screen passes breaking the collider rule: 0 (0 of them false positives), "
        "models with a row that rules out every directing: 0",
    ]
    assert lines[6:11] == [
        "example false positive (passes screen, not faithful):",
        "a -- c",
        "a <-> d",
        "b <-> c",
        "b -- d",
    ]
    # Every false positive is non-maximal, 12 of them ancestral, and every
    # faithful pass is maximal; the passes separated pairwise given C(i,j)
    # are exactly the maximal ones.  run_script's exit check holds the
    # script to both.
    assert lines[-6] == "screen passes separated pairwise given C(i,j): 4922 of 5000, differing from maximality on 0"
    assert lines[-5:-2] == [
        "false positives that are ancestral: 12, maximal: 0",
        "faithful screen passes that are maximal: 4922 of 4922",
        "every screen pass is faithful exactly when it is maximal",
    ]


def test_search_cases_on_the_four_node_complete_graph():
    # its empty model is faithful to every anterial directing of K4
    line, = run_script("search_cases.py", "k4").splitlines()
    name, rest = line.split(": ", 1)
    seconds, digest, verdict = rest.split(", ", 2)
    assert name == "k4" and seconds.endswith(" s") and float(seconds[:-2]) >= 0
    assert (digest, verdict) == ("sha256 c9e2a9dbe0c8edcd", "graphical, 355 witnesses")


def test_search_cases_keep_their_digests():
    # the verdicts of the unpruned search: s78, s87 and e47 fail with the
    # counts of every directing, and the pool cases cover every pool model
    # in order
    lines = run_script("search_cases.py", "s78", "s87", "e47", "dag-pool", "ang-pool").splitlines()
    found = {line.split(": ", 1)[0]: line.split(", ")[1:] for line in lines}
    assert found == {
        "s78": ["sha256 7d42d4333b4a7d3c", "not graphical", "compatible-preorder-search directings_tried=233956 stability_passing=0"],
        "s87": ["sha256 23d55a12a120f10e", "not graphical", "compatible-preorder-search directings_tried=127967 stability_passing=0"],
        "e47": ["sha256 3396c634757ef84a", "not graphical", "compatible-preorder-search directings_tried=6942 stability_passing=0"],
        "dag-pool": ["sha256 1c56fb4e54ae72d1", "84 models", "2 graphical", "2 witnesses"],
        "ang-pool": ["sha256 f5c9c61895fe0637", "84 models", "84 graphical", "592 witnesses"],
    }


def test_mutant_table_matches_the_code():
    # scripts/mutants.py reports an entry as stale unless its snippet occurs
    # exactly once; the run itself is a CI step, not a tier-1 test
    from mutants import MUTANTS

    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / "src" / "graphfaith" / m.file).read_text(encoding="utf-8").count(m.snippet) == 1, m.name
        assert m.tests and all((ROOT / "tests" / f).is_file() for f in m.tests), m.name


def test_census_exits_1_when_a_class_is_not_reconstructed(monkeypatch, capsys):
    # run_script checks for exit 0 on the real search; a search that finds
    # no witness leaves every class unreconstructed
    assert run_script("equivalence_class_census.py", "3").splitlines()[4] == (
        "classes reconstructed up to skeleton-matching members: 11/11"
    )
    spec = importlib.util.spec_from_file_location("census", ROOT / "scripts" / "equivalence_class_census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    monkeypatch.setattr(sys, "argv", ["equivalence_class_census.py", "3"])
    monkeypatch.setattr(census, "decide_graphical", lambda model: FaithfulnessVerdict(False, (), None))
    assert census.main() == 1
    assert "classes reconstructed up to skeleton-matching members: 0/11" in capsys.readouterr().out


def test_code_lines_modules_sum_to_the_total():
    *modules, total = [line.split() for line in run_script("code_lines.py").splitlines()]
    assert total[1] == "total"
    assert [path for _, path in modules] == sorted(path for _, path in modules)
    assert "src/graphfaith/models.py" in {path for _, path in modules}
    assert sum(int(count) for count, _ in modules) == int(total[0]) > 0
