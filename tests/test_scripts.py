"""End-to-end runs of the demo scripts under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

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
    lines = run_script("stability_screen_gap.py", "4").splitlines()
    assert lines[:4] == [
        "distinct graph-induced models on 4 nodes: 299",
        "directings passing the stability screen: 5000",
        "of those, actually faithful: 4922",
        "screen-only false positives: 78",
    ]
    assert lines[5:10] == [
        "example false positive (passes screen, not faithful):",
        "a -- c",
        "a <-> d",
        "b <-> c",
        "b -- d",
    ]
