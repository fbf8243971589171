"""Seeded input generator of the oracle14 workload.

The inputs are full G6-invariant orbit-type assignments drawn from the
pinned candidate pool (``oracle_pool.json``, rebuilt by ``make_pool.py``):
lower closures of random orbits and survivors of the search with the link
test off.  Per-input oracle cost spans two orders of magnitude, so a plain
random draw would make the cost of one pass depend mostly on the seed.
The draw is stratified instead: each kind's candidates are sorted by the
number of restrictions the oracle fills and cut into ``STRATA`` equal
bins, and the seed picks one candidate from every bin.  Every seed thus
gets the same mix of easy and hard inputs, from different functions, and
of several seeded draws the one nearest the expected total hardness is
used.
Candidates above ``MAX_RESTRICTIONS`` are left out to size one pass for a
2-core machine.

Every written file is checked before the program sees it: fully assigned,
downward closed (``complexes.assert_monotone``) and nontrivial (the empty
set TRUE, the full set FALSE).
"""

from __future__ import annotations

import json
import os
import random
import statistics

POOL_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "oracle_pool.json")
KINDS = ("closure", "survivor")
STRATA = 4
MAX_RESTRICTIONS = 2_200_000
DRAWS = 16


class InputError(ValueError):
    """A generated assignment is not a valid oracle14 input."""


def strata(pool: list[dict]) -> dict[str, list[list[dict]]]:
    """Per kind, the eligible candidates cut into STRATA bins by hardness."""
    out = {}
    for kind in KINDS:
        ranked = sorted((c for c in pool if c["kind"] == kind
                         and c["restrictions"] <= MAX_RESTRICTIONS),
                        key=lambda c: (c["restrictions"], c["true_orbits"]))
        if len(ranked) < STRATA:
            raise InputError(f"pool has {len(ranked)} eligible {kind} "
                             f"candidates, need {STRATA}")
        out[kind] = [ranked[len(ranked) * b // STRATA:
                            len(ranked) * (b + 1) // STRATA]
                     for b in range(STRATA)]
    return out


def choose(seed: int, pool: list[dict]) -> list[dict]:
    """One candidate per kind and stratum, in a seeded order.

    Of DRAWS such sets drawn from the seed, the one whose total hardness
    lies nearest the expected total is kept, so that the cost of a pass
    varies with the program and the machine, not with the draw.
    """
    rng = random.Random(seed)
    bins = [(b, candidates) for per_kind in strata(pool).values()
            for b, candidates in enumerate(per_kind)]
    target = sum(statistics.fmean(c["restrictions"] for c in candidates)
                 for _, candidates in bins)
    best = None
    for _ in range(DRAWS):
        draw = [dict(rng.choice(candidates), stratum=b)
                for b, candidates in bins]
        gap = abs(sum(c["restrictions"] for c in draw) - target)
        if best is None or gap < best[0]:
            best = (gap, draw)
    picked = best[1]
    rng.shuffle(picked)
    return picked


def validate(states: dict[str, str], table, poset) -> None:
    """Raise InputError unless the assignment is full, downward closed and
    nontrivial."""
    from elusive14.complexes import FALSE, TypeAssignment, assert_monotone

    a = TypeAssignment.from_states(table, poset, states)
    if not a.is_fully_assigned():
        raise InputError("assignment leaves orbits free")
    if not assert_monotone(a):
        raise InputError("assignment is not downward closed")
    top = f"{table.n}.0"
    if a.state_of_label(top) != FALSE:
        raise InputError("the full set must be FALSE")
    # the empty set's orbit is not assignable: it is TRUE by construction


def write_inputs(seed: int, workdir: str) -> list[dict]:
    """Write the seed's inputs as assignment files; returns one record per
    input with its path, kind, stratum and pool hardness."""
    from elusive14.bundle import load_group_specs
    from elusive14.orbits import OrbitPoset, OrbitTable

    with open(POOL_FILE) as fh:
        pool = json.load(fh)["candidates"]
    table = OrbitTable(load_group_specs()["G6"].build())
    poset = OrbitPoset(table)
    labels = [str(table.label(o)) for o in range(1, table.orbit_count)]
    records = []
    for i, cand in enumerate(choose(seed, pool)):
        true = set(cand["true_orbits"])
        states = {lbl: "T" if lbl in true else "F" for lbl in labels}
        validate(states, table, poset)
        path = os.path.join(workdir, f"input{i:02d}.json")
        with open(path, "w") as fh:
            json.dump([{"orbit": lbl, "state": st}
                       for lbl, st in states.items()], fh)
        records.append({"path": path, "kind": cand["kind"],
                        "stratum": cand["stratum"],
                        "pool_restrictions": cand["restrictions"]})
    return records


def main(argv=None) -> int:
    """Write the inputs of one seed and print their records as JSON.  The
    benchmark runs this as a child so that its own process stays small:
    a child's peak RSS as wait4 reports it is never below the size of the
    process that forked it."""
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__.split(".")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(write_inputs(args.seed, args.out)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
