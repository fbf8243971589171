"""Regenerate bench/oracle_pool.json, the candidate pool of the oracle14
workload.

The pool holds full G6-invariant orbit-type assignments of two kinds:
lower closures of a few random orbits (as ``sample_invariant_function``
builds them) and survivors of the search with the link test switched off
(labellings that fail only the link condition).  For each candidate it
records the number of restrictions the depth oracle fills, which is the
hardness the workload stratifies on.  The pool is deterministic: the same
POOL_SEED gives the same file.  It takes several minutes, one oracle call
per candidate.

    python3 bench/make_pool.py
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from elusive14.bundle import build_campaign  # noqa: E402
from elusive14.oracle import BooleanFunction, DepthSolver  # noqa: E402
from elusive14.search import run_search  # noqa: E402

POOL_SEED = 14
CLOSURES = 40
SURVIVORS = 40
POOL_FILE = os.path.join(HERE, "oracle_pool.json")


def closure_candidates(table, poset, rng, count):
    """Lower closures of 1 to 6 random orbits below the top level."""
    below_top = [o for o in range(1, table.orbit_count)
                 if table.level[o] < table.n]
    seen, out = set(), []
    while len(out) < count:
        t_bits = 0
        for o in rng.sample(below_top, rng.randint(1, 6)):
            t_bits |= poset.lower[o]
        if t_bits not in seen:
            seen.add(t_bits)
            out.append(t_bits)
    return out


def survivor_candidates(camp, rng, count):
    """Distinct survivors of the default schedule without the link test."""
    report = run_search(camp.engine(), camp.schedule("default"),
                        link_check=False)
    table = camp.table
    picked = rng.sample(report.feasible_functions, count)
    return [sum(1 << table.oid(lbl) for lbl, v in states.items() if v == "T")
            for states in picked]


def main() -> int:
    camp = build_campaign()
    table, poset = camp.table, camp.poset
    rng = random.Random(POOL_SEED)
    kinds = [("closure", t) for t in closure_candidates(table, poset, rng,
                                                        CLOSURES)]
    kinds += [("survivor", t) for t in survivor_candidates(camp, rng,
                                                           SURVIVORS)]
    pool = []
    for i, (kind, t_bits) in enumerate(kinds):
        solver = DepthSolver(BooleanFunction.from_orbit_types(table, t_bits))
        depth = solver.depth()
        restrictions = len(solver.memo) - solver.memo.count(0xFF)
        pool.append({
            "kind": kind,
            "true_orbits": [str(table.label(o))
                            for o in range(1, table.orbit_count)
                            if t_bits >> o & 1],
            "depth": depth,
            "restrictions": restrictions,
        })
        print(f"{i + 1}/{len(kinds)} {kind} restrictions {restrictions}",
              file=sys.stderr, flush=True)
    with open(POOL_FILE, "w") as fh:
        json.dump({"pool_seed": POOL_SEED, "candidates": pool}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
