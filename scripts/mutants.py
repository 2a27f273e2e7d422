#!/usr/bin/env python3
"""Run the mutants of `tests/mutants.py` against the tests that must kill them.

`src/` and `tests/` are copied to a temporary directory.  The unmutated
copy must pass every listed test file first (else the run stops with exit
2).  Then each mutant is applied on its own: its snippet is replaced in the
copy, `pytest -x -q --assert=plain` runs on its test files with a timeout
of TIMEOUT seconds, and the file is restored.  `--assert=plain` keeps
pytest from diffing large texts when an assertion fails.  Each mutant is reported as:

- killed: the tests failed;
- survived: the tests passed, so they cannot see the mutant;
- stale: the snippet does not occur exactly once, so the table no longer
  matches the code;
- timed out: the tests ran past the timeout;
- broken: pytest could not run the tests (an exit code other than 0 or 1,
  as when the replacement does not import).

Exits 1 when any mutant survived, is stale or is broken, else 0.

Usage: python scripts/mutants.py
"""

import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 300.0  # seconds per mutant's test run; the unmutated run gets twice this


def load_table():
    # loaded by path: `import mutants` would find this script
    spec = importlib.util.spec_from_file_location("mutants_table", ROOT / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def run_tests(work: Path, files, timeout: float) -> str:
    """'passed', 'failed', 'timed out' or 'broken' for pytest over the
    copy's test files."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "--assert=plain", "-p", "no:cacheprovider"]
    try:
        done = subprocess.run(
            argv + [str(work / "tests" / f) for f in files],
            cwd=work, env=env, capture_output=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timed out"
    return {0: "passed", 1: "failed"}.get(done.returncode, "broken")


def main() -> int:
    mutants = load_table()
    with tempfile.TemporaryDirectory(prefix="graphfaith-mutants-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        files = sorted({f for m in mutants for f in m.tests})
        baseline = run_tests(work, files, TIMEOUT * 2)
        if baseline != "passed":
            print(f"the unmutated tests {baseline}: {' '.join(files)}")
            return 2
        outcomes = {}
        for m in mutants:
            path = work / "src" / "graphfaith" / m.file
            source = path.read_text(encoding="utf-8")
            start = time.perf_counter()
            if source.count(m.snippet) != 1:
                outcome = "stale"
            else:
                path.write_text(source.replace(m.snippet, m.replacement), encoding="utf-8")
                try:
                    result = run_tests(work, m.tests, TIMEOUT)
                finally:
                    path.write_text(source, encoding="utf-8")
                outcome = {"failed": "killed", "passed": "survived"}.get(result, result)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            print(f"{outcome:9} {time.perf_counter() - start:6.1f} s  {m.file}: {m.name}", flush=True)
    print(", ".join(f"{count} {outcome}" for outcome, count in sorted(outcomes.items())))
    return 1 if outcomes.keys() & {"survived", "stale", "broken"} else 0


if __name__ == "__main__":
    sys.exit(main())
