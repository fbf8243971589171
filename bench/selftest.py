"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Runs a short traced pass (the verdict pair, the cheapest oracle14 input of
seed 0 and the n = 5 sweep) and checks that child spans lie inside their
parents, that every self time is >= 0 and that the traced counters equal
the pinned invariants.  It then shows that each check can fail: a span
that leaks out of its parent is reported, and a wrong pinned value turns
into a failed operation, both in the traced pass and in a one-second
end-to-end verdict run.  Exits 0 when every check holds.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
from checks import pins_copy
from tracing import Tracer

RESULTS: list[bool] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")


def quiet(_line: str) -> None:
    pass


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "elusive14", "cli.py")):
        print(f"no elusive14 sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    workdir = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        oracle_ops, records = run.workload_ops("oracle14", workdir, 0)
        cheapest = min(range(len(records)),
                       key=lambda i: records[i]["pool_restrictions"])
        ops = run.VERDICT_OPS + [oracle_ops[cheapest]] + run.SWEEP_OPS
        pins = pins_copy()
        tracer, self_times, metrics, errors = run.traced_pass(ops, pins,
                                                              quiet)

        check("child spans lie inside their parents",
              not tracer.nesting_errors(), f"{len(tracer.spans)} spans")
        check("every self time is >= 0", min(self_times) >= -1e-9,
              f"smallest {min(self_times):.3g} s")
        flat = [e for errs in errors.values() for e in errs]
        check("outputs and traced counters equal the pins", not flat,
              "; ".join(flat[:3]))
        expected = {"perm.elements": 1540, "orbits.count": 155,
                    "search.nodes": 521, "search.cases": 520,
                    "search.leaf_assignments": 25444,
                    "search.leaf_chi1": 4224, "search.prunes_by_link": 4224,
                    "replay.residual_chi1": 16, "replay.free_orbits": 12,
                    "oracle.sweep_depth_calls": 7581}
        wrong = {k: metrics[k][0] for k, v in expected.items()
                 if metrics[k][0] != v}
        check("traced counters are reported with their pinned values",
              not wrong, str(wrong) if wrong else "")

        leaky = Tracer()
        parent = leaky.open("parent")
        child = leaky.open("child")
        leaky.close(child)
        leaky.close(parent)
        leaky.spans[child].end = leaky.spans[parent].end + 1.0
        check("a span leaking out of its parent is caught",
              bool(leaky.nesting_errors()) and min(leaky.self_times()) < 0)

        bad = pins_copy()
        bad["verify14"]["search"]["default"]["nodes_explored"] += 1
        bad["replay"]["free_orbits"] = 6
        _, _, _, bad_errors = run.traced_pass(ops[:2], bad, quiet)
        check("a wrong pin fails the traced operations",
              bool(bad_errors[0]) and bool(bad_errors[1]))
        res = run.run_e2e("verdict", 0, 1.0, workdir, bad, quiet)
        check("a wrong pin fails the end-to-end operations",
              res["failed"] > 0 and res["failed"] <= res["attempted"],
              f"{res['failed']}/{res['attempted']} failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
