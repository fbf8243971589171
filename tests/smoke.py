"""The packaging smoke cases as one table, and a runner for it.

Each case runs the CLI from an empty directory outside the checkout, so
an installed package must ship its data files.  A case is the argument
list, the expected exit code, what stderr may hold and, for a case that
reads a broken input, the file to write first: its name, the bundled data
file it copies (None for a file written whole), the key path of the entry
it changes and the value put there.

Run it with the command that starts the CLI, for example

    python tests/smoke.py "$VENV/bin/elusive14"
    PYTHONPATH=$PWD/src python tests/smoke.py python3 -m elusive14.cli

It prints one line per case and exits 1 if any case fails.  The runner
uses only the standard library and does not import the package;
tests/test_cli.py parses every case with the CLI's own parser.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EMPTY = "empty"
NO_TRACEBACK = "no Traceback"
ASSIGNMENT = str(ROOT / "tests" / "data" / "g6_closure_1.json")

CASES = [
    (["orbits", "compute", "G6", "--format", "json"], 0, NO_TRACEBACK, None),
    # G5, with 1092 elements, has the largest bundled image tables
    (["orbits", "compute", "G5", "--format", "json"], 0, NO_TRACEBACK, None),
    # an intransitive group's census comes with nothing on stderr
    (["orbits", "compute", "G6_3", "--format", "json"], 0, EMPTY, None),
    (["conjecture-check", "--n", "4"], 0, NO_TRACEBACK, None),
    # checks G4's bundled psi_p^q witness
    (["group", "classify", "G4", "--format", "json"], 0, NO_TRACEBACK, None),
    # the heuristic witness search finds no witness for G6
    (["group", "classify", "G6"], 1, NO_TRACEBACK, None),
    # nor for G6's generators in a file named G4: a file's own name
    # selects no bundled witness
    (["group", "classify", "g6_named_g4.json"], 1, NO_TRACEBACK,
     ("g6_named_g4.json", None, [],
      {"name": "G4", "degree": 14,
       "generators": ["(1,5,11,10)(2,9)(3,8,12,4)(6,14,13,7)",
                      "(1,9,5,14)(2,12,7,8)(3,4,10,11)(6,13)"]})),
    # the exhaustive sweep writes its report and nothing else
    (["conjecture-check", "--n", "5", "--format", "json"], 0, EMPTY, None),
    # verify14 and replay-appendix read all three bundled data files
    (["verify14", "--format", "json"], 0, NO_TRACEBACK, None),
    # the benchmark's verdict command
    (["verify14", "--seed-independent", "--format", "json"], 0,
     NO_TRACEBACK, None),
    # the removed --cap flag is a usage error
    (["verify14", "--cap", "5"], 2, NO_TRACEBACK, None),
    (["replay-appendix", "--format", "json"], 0, NO_TRACEBACK, None),
    (["replay-appendix", "--case-study-file", "bad_case_study.json"], 2,
     NO_TRACEBACK, ("bad_case_study.json", "case_study.json",
                    ["combination_table", "1"], 5)),
    # the next two raise their errors in modules the CLI imports only
    # when a command needs them
    (["dtree", "bad_group.json", ASSIGNMENT], 2, NO_TRACEBACK,
     ("bad_group.json", None, [],
      {"name": "bad", "degree": 14, "generators": ["(1,2"]})),
    (["verify14", "--subgroups-file", "bad_subgroups.json"], 2,
     NO_TRACEBACK, ("bad_subgroups.json", "subgroups.json",
                    ["subgroups", 1, "generators"], ["(1,15)"])),
    (["verify14", "--groups-file", "no_generators.json"], 2, NO_TRACEBACK,
     ("no_generators.json", "groups.json", ["groups", 0, "generators"], [])),
    # the 14-variable oracle on a checked-in G6 assignment
    (["dtree", "G6", ASSIGNMENT, "--format", "json"], 0, EMPTY, None),
    (["fixedpoint", "G6", "G6_3", ASSIGNMENT, "--format", "json"], 0,
     NO_TRACEBACK, None),
    # G1 is not a subgroup of G6, so it has no fixed-point complex there
    (["fixedpoint", "G6", "G1", ASSIGNMENT], 2, NO_TRACEBACK, None),
    # a group wider than the oracle's 14 variables is refused by its arity
    (["dtree", "c15.json", ASSIGNMENT], 2, NO_TRACEBACK,
     ("c15.json", None, [],
      {"name": "C15", "degree": 15,
       "generators": ["(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15)"]})),
    # a TRUE orbit above a FALSE one is no monotone function
    (["dtree", "G6", "upward.json"], 2, NO_TRACEBACK,
     ("upward.json", None, [], [{"orbit": "1.0", "state": "F"},
                                {"orbit": "3.1", "state": "T"}])),
    (["euler", "G6", ASSIGNMENT, "--format", "json"], 0, NO_TRACEBACK, None),
]


def write_input(directory: Path, name: str, source: str | None,
                path: list, value) -> None:
    """Write ``name`` into ``directory``: ``value`` itself, or a copy of
    the bundled ``source`` with the entry at ``path`` set to ``value``."""
    doc = value
    if source is not None:
        doc = json.loads((ROOT / "src" / "elusive14" / "data" / source)
                         .read_text())
        entry = doc
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
    (directory / name).write_text(json.dumps(doc))


def run(command: list[str]) -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv, code, rule, broken in CASES:
            if broken is not None:
                write_input(Path(tmp), *broken)
            proc = subprocess.run([*command, *argv], cwd=tmp, text=True,
                                  capture_output=True, timeout=600)
            ok = proc.returncode == code and (
                not proc.stderr if rule == EMPTY
                else "Traceback" not in proc.stderr)
            print(f"{'ok  ' if ok else 'FAIL'} exit {proc.returncode} "
                  f"(expected {code}, stderr {rule}): {' '.join(argv)}")
            if not ok:
                failures += 1
                sys.stdout.write(proc.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tests/smoke.py PROGRAM [ARGUMENT...]")
    sys.exit(run(sys.argv[1:]))
