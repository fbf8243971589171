"""Pinned invariants and the output checks built on them.

Every operation the benchmark runs is checked against these values; a
check returns a list of mismatch messages, and an operation with any
mismatch counts as failed.  The replay pins are the recomputed endgame
(16 chi=1 settings, none passing the link test, 12 free orbits), not the
published 6/2 that the bundled worked example prints.
"""

from __future__ import annotations

import copy
import json

PINS = {
    "verify14": {
        "exit": 0,
        "all_verified": True,
        "groups": ["G1", "G2", "G3", "G4", "G5", "G6"],
        "search": {
            "default": {"feasible_functions": 0, "nodes_explored": 521,
                        "cases_enumerated": 520, "leaf_assignments": 25444,
                        "prunes_by_link": 4224},
            "alternate": {"feasible_functions": 0, "nodes_explored": 517,
                          "cases_enumerated": 516, "leaf_assignments": 25444,
                          "prunes_by_link": 4224},
        },
        "leaf_chi1": 4224,
    },
    "replay": {"exit": 0, "ok": True, "residual_cases_chi_1": 16,
               "residual_cases_passing_link": 0, "free_orbits": 12},
    "sweep5": {"exit": 0, "ok": True, "monotone_functions": 7581,
               "weakly_symmetric_nontrivial": 29, "non_elusive": 1467},
    "dtree": {"exit": 0, "arity": 14, "depth": 14, "elusive": True,
              "path_steps": 14},
    "census": {"orbits": 155, "elements": 1540},
}


def pins_copy() -> dict:
    return copy.deepcopy(PINS)


def _diff(where: str, got, want) -> list[str]:
    return [] if got == want else [f"{where}: got {got!r}, pinned {want!r}"]


def _parse(out: str, where: str):
    try:
        rep = json.loads(out)
    except ValueError as exc:
        return None, [f"{where}: output is not JSON ({exc})"]
    if not isinstance(rep, dict):
        return None, [f"{where}: output is not a JSON object"]
    return rep, []


def check_verify14(code: int, out: str, pins: dict) -> list[str]:
    p = pins["verify14"]
    errs = _diff("verify14 exit", code, p["exit"])
    rep, bad = _parse(out, "verify14")
    if rep is None:
        return errs + bad
    errs += _diff("verify14 all_verified", rep.get("all_verified"),
                  p["all_verified"])
    groups = rep.get("groups", [])
    errs += _diff("verify14 groups", [g.get("name") for g in groups],
                  p["groups"])
    for g in groups:
        errs += _diff(f"verify14 {g.get('name')} verified", g.get("verified"),
                      True)
    g6 = [g for g in groups if g.get("name") == "G6"]
    runs = {r.get("schedule"): r for r in (g6[0].get("search", [])
                                           if g6 else [])}
    errs += _diff("verify14 schedules", sorted(runs), sorted(p["search"]))
    for schedule, want in p["search"].items():
        run = runs.get(schedule, {})
        for key, value in want.items():
            errs += _diff(f"verify14 {schedule} {key}", run.get(key), value)
    return errs


def check_replay(code: int, out: str, pins: dict) -> list[str]:
    p = pins["replay"]
    errs = _diff("replay exit", code, p["exit"])
    rep, bad = _parse(out, "replay")
    if rep is None:
        return errs + bad
    errs += _diff("replay ok", rep.get("ok"), p["ok"])
    for key in ("residual_cases_chi_1", "residual_cases_passing_link"):
        errs += _diff(f"replay {key}", rep.get(key), p[key])
    errs += _diff("replay free orbits", len(rep.get("free_orbits", [])),
                  p["free_orbits"])
    return errs


def check_sweep5(code: int, out: str, pins: dict) -> list[str]:
    p = pins["sweep5"]
    errs = _diff("sweep5 exit", code, p["exit"])
    rep, bad = _parse(out, "sweep5")
    if rep is None:
        return errs + bad
    for key in ("ok", "monotone_functions", "weakly_symmetric_nontrivial",
                "non_elusive"):
        errs += _diff(f"sweep5 {key}", rep.get(key), p[key])
    return errs


def check_dtree(code: int, out: str, pins: dict) -> list[str]:
    p = pins["dtree"]
    errs = _diff("dtree exit", code, p["exit"])
    rep, bad = _parse(out, "dtree")
    if rep is None:
        return errs + bad
    for key in ("arity", "depth", "elusive"):
        errs += _diff(f"dtree {key}", rep.get(key), p[key])
    errs += _diff("dtree adversary path steps",
                  len(rep.get("adversary_path", [])), p["path_steps"])
    return errs


CHECKS = {"verify14": check_verify14, "replay": check_replay,
          "sweep5": check_sweep5, "dtree": check_dtree}


def check_output(kind: str, code: int, out: str, pins: dict) -> list[str]:
    """Mismatches of one operation's exit code and output against the
    pins; an output of an unexpected shape is a mismatch, not a crash."""
    try:
        return CHECKS[kind](code, out, pins)
    except (AttributeError, TypeError) as exc:
        return [f"{kind}: output has an unexpected shape ({exc})"]
