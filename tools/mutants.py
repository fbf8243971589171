"""Run the mutation kill list: each named mutant must fail its tests.

    python3 tools/mutants.py

The list, ``tools/mutants.json``, is a JSON array of mutants.  Each has a
``name``, a ``file`` relative to the repository root, a ``find`` snippet
that occurs in that file exactly once, its ``replace``ment, a ``why``
line, and ``tests``: the pytest arguments (test files or node ids)
expected to kill it.

Each mutant is applied to a fresh copy of ``src/``, ``tests/``, ``bench/``
and ``README.md`` in a temporary directory, and its tests run there with
``pytest -x``.  A mutant is killed when those tests fail; it survives
when they pass.  A mutant whose tests run past ``MUTANT_TIMEOUT_S`` is
stopped, reported as ``timeout`` and counted as killed, and the summary
line names it.  Before any mutant runs, the same tests run once on an
unmutated copy, so a test that fails on its own cannot count as a kill.
Exit status: 0 when every mutant is killed, 1 when one survives, 2 when
the list is malformed, a snippet does not match once, or the unmutated
tests fail.

Stdlib only.  The tests need pytest and hypothesis, as tier-1 does.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIST = ROOT / "tools" / "mutants.json"
FIELDS = ("name", "file", "find", "replace", "why", "tests")
# what the tests read: the package, the tests, the benchmark's tracer and
# the README's ledger
COPIED = ("src", "tests", "bench", "README.md")
# the longest test list of any mutant passes in about 5 s on a 2-core
# machine, so a mutant whose tests run this long loops
MUTANT_TIMEOUT_S = 120


def load(path: Path) -> list[dict]:
    mutants = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(mutants, list):
        raise ValueError(f"{path}: expected a JSON list of mutants")
    names = set()
    for i, m in enumerate(mutants):
        if not isinstance(m, dict) or sorted(m) != sorted(FIELDS):
            raise ValueError(f"{path}: mutant {i} needs exactly the fields "
                             f"{', '.join(FIELDS)}")
        if m["name"] in names:
            raise ValueError(f"{path}: mutant name {m['name']!r} repeats")
        names.add(m["name"])
        if not m["tests"]:
            raise ValueError(f"{path}: mutant {m['name']!r} names no tests")
        count = (ROOT / m["file"]).read_text(encoding="utf-8").count(m["find"])
        if count != 1:
            raise ValueError(f"{path}: mutant {m['name']!r}: its snippet "
                             f"occurs {count} times in {m['file']}")
    return mutants


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def run_tests(tree: Path, tests: list[str],
              timeout: float | None = None) -> subprocess.CompletedProcess:
    """The tests' pytest run in ``tree``; ``subprocess.TimeoutExpired``
    once it runs past ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, capture_output=True, text=True,
        timeout=timeout)


def main() -> int:
    try:
        mutants = load(LIST)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        tests = sorted({t for m in mutants for t in m["tests"]})
        if run_tests(clean, tests).returncode != 0:
            print("error: the unmutated tree fails the listed tests",
                  file=sys.stderr)
            return 2
        survivors, timeouts = [], []
        for i, m in enumerate(mutants):
            tree = Path(tmp) / f"m{i}"
            copy_tree(tree)
            target = tree / m["file"]
            source = target.read_text(encoding="utf-8")
            target.write_text(source.replace(m["find"], m["replace"]),
                              encoding="utf-8")
            try:
                code = run_tests(tree, m["tests"], MUTANT_TIMEOUT_S).returncode
                verdict = "killed " if code else "SURVIVED"
            except subprocess.TimeoutExpired:
                verdict = "timeout "
                timeouts.append(m["name"])
            print(f"{verdict}  {m['name']}", flush=True)
            if verdict == "SURVIVED":
                survivors.append(m["name"])
            shutil.rmtree(tree)
    elapsed = time.perf_counter() - start
    timed_out = (f"; timed out after {MUTANT_TIMEOUT_S} s: "
                 f"{', '.join(timeouts)}" if timeouts else "")
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants "
          f"killed in {elapsed:.1f} s{timed_out}")
    for name in survivors:
        print(f"survivor: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
