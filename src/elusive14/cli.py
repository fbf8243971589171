"""Command-line front door.

Exit codes: 0 = verified / ok, 1 = verification failed (counterexample or
unresolved), 2 = input or data error.  JSON output is canonical: sorted
keys, no timestamps; timings appear only in the text rendering.

Each command imports the modules it runs when it runs, so that the sweep
and the oracle do not load the campaign data or the search, the verdict
commands do not load the oracle, and none loads hashlib.  The imports name
the defining module at call time, so a wrapper put in that module's
namespace applies.  ``dtree`` alone reads its solver class from this
module, as ``DepthSolver``, resolved on first use, so a stand-in put here
applies.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from . import InputError, __version__
from .orbits import OrbitPoset, OrbitTable, iter_bits
from .perm import PermGroup, classify, is_transitive

# type checkers read this name as True; importing it from typing would
# load typing on every start
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .bundle import Campaign, GroupSpec
    from .complexes import TypeAssignment


def __getattr__(name: str):
    """``DepthSolver``, imported from the oracle on first use and kept in
    this namespace."""
    if name != "DepthSolver":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .oracle import DepthSolver
    globals()[name] = DepthSolver
    return DepthSolver


def emit(report: dict, fmt: str, text_renderer=None) -> str:
    """Serialize a report; the JSON form is canonical and byte-stable."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if text_renderer is not None:
        return text_renderer(report)
    return "".join(f"{k}: {report[k]}\n" for k in sorted(report))


def _resolve_group(arg: str) -> tuple[str, PermGroup, GroupSpec | None]:
    """A group argument is a bundled name (G1..G6, G6_1..G6_11) or a JSON
    file path.  Only an argument of a bundled name's form, G<k> or G6_<k>,
    reads the bundled tables, and a bundled name wins over a file of that
    name.  The bundled record comes back for G1..G6 only: a file's own name
    selects no bundled data."""
    from .bundle import load_group_file, load_group_specs, load_subgroup_specs
    if re.fullmatch(r"G\d+|G6_\d+", arg):
        specs = load_group_specs()
        if arg in specs:
            return arg, specs[arg].build(), specs[arg]
        for sub in load_subgroup_specs():
            if sub.name == arg:
                return arg, sub.build(specs["G6"].degree), None
    return (*load_group_file(arg), None)


def _load_assignment(args, max_arity: int | None = None
                     ) -> tuple[str, TypeAssignment]:
    """The group argument's name and the assignment file over its orbits:
    a JSON list of {"orbit": "level.index", "state": "T"|"F"} whose TRUE
    orbits lie above no FALSE orbit.  A refusal of the file's JSON, of an
    orbit listed twice, or of an orbit label or state starts with the
    file's path.  A group of degree above ``max_arity`` is refused before
    its orbit table is built."""
    from .bundle import ASSIGNMENT, load_json
    from .complexes import TypeAssignment, assert_monotone
    path = args.assignment
    states = {}
    for entry in load_json(None, path, ASSIGNMENT):
        if entry["orbit"] in states:
            raise ValueError(f"{path}: orbit {entry['orbit']} is listed twice")
        states[entry["orbit"]] = entry["state"]
    name, group, _ = _resolve_group(args.groupfile)
    if max_arity is not None and group.degree > max_arity:
        from .oracle import ArityError
        raise ArityError(f"arity {group.degree} exceeds the {max_arity} "
                         f"limit")
    table = OrbitTable(group)
    try:
        assignment = TypeAssignment.from_states(table, OrbitPoset(table),
                                                states)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not assert_monotone(assignment):
        raise ValueError(f"{args.command} needs a downward-closed assignment: "
                         "a TRUE orbit lies above a FALSE one")
    return name, assignment


def _classification_dict(cls) -> dict:
    """The classification's fields that are set, the witness left out."""
    return {k: v for k, v in cls._asdict().items()
            if k != "witness" and v not in (None, "")}


def cmd_group(args) -> int:
    name, group, spec = _resolve_group(args.file)
    report = {"name": name, "degree": group.degree, "order": group.order,
              "transitive": is_transitive(group)}
    code = 0
    if args.action == "classify":
        cls = classify(group, spec.oliver_witness() if spec else None)
        report["classification"] = _classification_dict(cls)
        code = 0 if cls.kind != "unresolved" else 1
    sys.stdout.write(emit(report, args.format))
    return code


def cmd_orbits(args) -> int:
    name, group, spec = _resolve_group(args.file)
    table = OrbitTable(group)
    if args.action == "compute":
        levels = {str(k): len(table.ids_at_level[k]) for k in range(table.n + 1)}
        report = {
            "group": name,
            "degree": table.n,
            "orbit_count": table.orbit_count - 1,
            "orbit_count_with_empty": table.orbit_count,
            "levels": levels,
            "census": table.census(),
        }
        published = spec.printed_orbit_total if spec else None
        if published is not None:
            report["published_total"] = published
            report["matches_published"] = (
                published in (table.orbit_count, table.orbit_count - 1))
        sys.stdout.write(emit(report, args.format))
        return 0
    poset = OrbitPoset(table)
    edges = []
    for o2 in range(1, table.orbit_count):
        for o1 in iter_bits(poset.lower[o2]):
            if o1 != o2:
                edges.append([table.label(o1), table.label(o2)])
    report = {"group": name, "comparable_pairs": edges}
    sys.stdout.write(emit(report, args.format))
    return 0


def cmd_euler(args) -> int:
    from .complexes import IndeterminateFace
    name, assignment = _load_assignment(args)
    if not assignment.is_fully_assigned():
        raise IndeterminateFace("assignment has FREE orbits")
    report = {"group": name, "euler": assignment.chi,
              "link_euler_x1": assignment.chi_link}
    sys.stdout.write(emit(report, args.format))
    return 0


def cmd_fixedpoint(args) -> int:
    from .complexes import fixed_point_complex
    name, assignment = _load_assignment(args)
    sub_name, sub, _ = _resolve_group(args.subgroupfile)
    if not all(g in assignment.table.group for g in sub.generators):
        raise ValueError(f"{sub_name} is not a subgroup of {name}")
    fpc = fixed_point_complex(assignment, sub)
    report = {"group": name, "subgroup": sub_name,
              "blocks": fpc.block_points,
              "faces": [list(f) for f in fpc.faces],
              "euler": fpc.euler}
    sys.stdout.write(emit(report, args.format))
    return 0


def cmd_dtree(args) -> int:
    from .oracle import MAX_ARITY, BooleanFunction
    name, assignment = _load_assignment(args, MAX_ARITY)
    if not assignment.is_fully_assigned():
        raise ValueError("dtree needs every orbit assigned T or F")
    f = BooleanFunction.from_orbit_types(assignment.table, assignment.t_bits)
    # the module attribute, read at call time
    solver = sys.modules[__name__].DepthSolver(f)
    depth = solver.depth()
    report = {"group": name, "arity": f.n, "depth": depth,
              "elusive": depth == f.n,
              "adversary_path": [{"variable": v, "answer": a}
                                 for v, a in solver.adversary_path()]}
    sys.stdout.write(emit(report, args.format))
    return 0


def cmd_conjecture(args) -> int:
    from .oracle import exhaustive_conjecture_check
    rep = exhaustive_conjecture_check(args.n)
    sys.stdout.write(emit({**rep._asdict(), "ok": rep.ok}, args.format))
    return 0 if rep.ok else 1


def _search_summary(report) -> dict:
    return {
        "schedule": report.schedule,
        "feasible_functions": len(report.feasible_functions),
        "nodes_explored": report.stats.nodes_explored,
        "cases_enumerated": report.stats.cases_enumerated,
        "prunes_by_conflict": report.stats.prunes_by_conflict,
        "prunes_by_chi": report.stats.prunes_by_chi,
        "prunes_by_link": report.stats.prunes_by_link,
        "leaf_assignments": report.stats.leaf_assignments,
    }


def verify14(seed_independent: bool = False,
             campaign: Campaign | None = None) -> dict:
    """Run the whole campaign: orders and transitivity for all six groups,
    classification for G1..G5, and the orbit-type search for G6 under the
    default schedule (then the alternate one if ``seed_independent``)."""
    from .bundle import build_campaign, data_digests
    from .search import run_search
    camp = campaign if campaign is not None else build_campaign()
    entries = []
    all_ok = True
    for name in ("G1", "G2", "G3", "G4", "G5", "G6"):
        spec = camp.specs[name]
        group = camp.groups[name]
        t0 = time.perf_counter()
        entry = {
            "name": name,
            "order_computed": group.order,
            "order_printed": spec.printed_order,
            "order_discrepancy": group.order != spec.printed_order,
            "transitive": is_transitive(group),
            "generators_corrected": spec.printed_generators is not None,
        }
        if spec.witness_order is not None:
            entry["order_witness_arithmetic"] = spec.witness_order
        if spec.order_note:
            entry["order_note"] = spec.order_note
        if name == "G6":
            cls = classify(group)
            entry["classification"] = _classification_dict(cls)
            entry["method"] = "search"
            schedules = (("default", "alternate") if seed_independent
                         else ("default",))
            engine = camp.engine()
            reports = [run_search(engine, camp.schedule(s)) for s in schedules]
            entry["search"] = [_search_summary(r) for r in reports]
            entry["verified"] = (cls.kind == "unresolved"
                                 and all(r.verified for r in reports))
            if seed_independent:
                entry["schedules_agree"] = (
                    reports[0].feasible_functions == reports[1].feasible_functions)
                entry["verified"] = entry["verified"] and entry["schedules_agree"]
        else:
            cls = classify(group, spec.oliver_witness())
            entry["classification"] = _classification_dict(cls)
            entry["method"] = cls.kind
            entry["verified"] = cls.chi_condition is not None
            if spec.expected_method and cls.kind != spec.expected_method:
                entry["expected_method"] = spec.expected_method
                entry["verified"] = False
        entry["seconds"] = round(time.perf_counter() - t0, 3)
        all_ok = all_ok and entry["verified"] and entry["transitive"]
        entries.append(entry)
    return {
        "tool": "elusive14",
        "version": __version__,
        "data_digests": data_digests(camp.overrides),
        "groups": entries,
        "all_verified": all_ok,
    }


def _verify_text(report: dict) -> str:
    lines = [f"elusive14 {report['version']}"]
    for g in report["groups"]:
        method = g["method"]
        order = f"order {g['order_computed']}"
        if g["order_discrepancy"]:
            order += f" (published {g['order_printed']})"
        verdict = "verified" if g["verified"] else "FAILED"
        extra = ""
        if method == "search":
            runs = g["search"]
            extra = (f", {runs[0]['feasible_functions']} feasible functions, "
                     f"{runs[0]['nodes_explored']} nodes")
        lines.append(f"  {g['name']}: {order}, method {method}{extra} "
                     f"[{verdict}, {g['seconds']}s]")
    lines.append("all verified" if report["all_verified"]
                 else "VERIFICATION FAILED")
    return "\n".join(lines) + "\n"


def _campaign_from_args(args) -> Campaign:
    from .bundle import build_campaign
    return build_campaign(groups_file=args.groups_file,
                          subgroups_file=args.subgroups_file,
                          case_study_file=args.case_study_file)


def cmd_verify14(args) -> int:
    report = verify14(seed_independent=args.seed_independent,
                      campaign=_campaign_from_args(args))
    if args.format == "json":
        # timings vary run to run; the canonical form drops them
        for g in report["groups"]:
            g.pop("seconds", None)
    sys.stdout.write(emit(report, args.format, _verify_text))
    return 0 if report["all_verified"] else 1


def _theta_dict(comp) -> dict:
    return {"matched": comp.matched, "skipped_unanchored": len(comp.skipped),
            "mismatched": comp.mismatched, "published_count": comp.printed_count,
            "computed_count": comp.computed_count}


def cmd_replay(args) -> int:
    from .replay import replay_case_study
    camp = _campaign_from_args(args)
    res = replay_case_study(camp)
    report = {
        "steps": [{
            "step": s.step,
            "subgroup": s.subgroup,
            "published_cases": s.printed_cases,
            "block_local_cases": s.local_cases,
            "search_children": s.child_cases,
            "selection": s.selection,
            "theta_t": _theta_dict(s.theta_t),
            "theta_f": _theta_dict(s.theta_f),
            "errata": list(s.errata),
        } for s in res.steps],
        "satisfied_unvisited": res.satisfied_unvisited,
        "pending_unvisited": res.pending_unvisited,
        "chi": res.chi,
        "chi_link_x1": res.chi_link,
        "free_orbits": res.free_orbits,
        "free_orbit_relations": [list(r) for r in res.free_relations],
        "residual_cases_chi_1": res.cases_with_chi_1,
        "residual_cases_passing_link": res.cases_passing_link,
        "leaf_cases": res.leaf_cases,
        "published_final": res.published_final,
        "combination_table_check": res.combination_check,
        "problems": res.problems,
        "ok": res.ok,
    }

    def text(rep) -> str:
        lines = ["worked-example replay"]
        for s in rep["steps"]:
            lines.append(
                f"  step {s['step']} ({s['subgroup']}): "
                f"{s['block_local_cases']} block-local cases "
                f"(published {s['published_cases']}), "
                f"{s['search_children']} search children")
        lines.append(f"  unvisited satisfied: {rep['satisfied_unvisited']}, "
                     f"still branching: {rep['pending_unvisited']}")
        lines.append(f"  endgame: chi {rep['chi']}, link chi {rep['chi_link_x1']}, "
                     f"{len(rep['free_orbits'])} free orbits, "
                     f"{rep['residual_cases_chi_1']} chi=1 settings, "
                     f"{rep['residual_cases_passing_link']} pass the link test")
        lines.append(f"  published endgame: {rep['published_final']}")
        lines.append("ok" if rep["ok"] else "PROBLEMS:\n    " +
                     "\n    ".join(rep["problems"]))
        return "\n".join(lines) + "\n"

    sys.stdout.write(emit(report, args.format, text))
    return 0 if res.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elusive14",
        description="Verify that every nontrivial monotone weakly symmetric "
                    "boolean function of 14 variables is elusive.")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        # accepted on either side of the subcommand
        p.add_argument("--format", choices=("json", "text"),
                       default=argparse.SUPPRESS)
        return p

    p = add_parser("group", help="group order / classification")
    p.add_argument("action", choices=("order", "classify"))
    p.add_argument("file", help="bundled name (G1..G6) or group JSON file")
    p.set_defaults(func=cmd_group)

    p = add_parser("orbits", help="subset-orbit census / inclusion order")
    p.add_argument("action", choices=("compute", "poset"))
    p.add_argument("file", nargs="?", default="G6")
    p.set_defaults(func=cmd_orbits)

    p = add_parser("euler", help="Euler characteristic of an assignment")
    p.add_argument("groupfile")
    p.add_argument("assignment")
    p.set_defaults(func=cmd_euler)

    p = add_parser("fixedpoint", help="fixed-point complex of a subgroup")
    p.add_argument("groupfile")
    p.add_argument("subgroupfile")
    p.add_argument("assignment")
    p.set_defaults(func=cmd_fixedpoint)

    p = add_parser("dtree", help="exact decision-tree depth")
    p.add_argument("groupfile")
    p.add_argument("assignment")
    p.set_defaults(func=cmd_dtree)

    p = add_parser("conjecture-check", help="exhaustive small-arity sweep")
    p.add_argument("--n", type=int, choices=range(1, 6), required=True)
    p.set_defaults(func=cmd_conjecture)

    p = add_parser("verify14", help="run the whole campaign")
    p.add_argument("--seed-independent", action="store_true",
                   help="run a second, differently ordered schedule and "
                        "require identical verdicts")
    _add_override_flags(p)
    p.set_defaults(func=cmd_verify14)

    p = add_parser("replay-appendix",
                   help="replay the bundled worked-example branch")
    _add_override_flags(p)
    p.set_defaults(func=cmd_replay)
    return parser


def _add_override_flags(p) -> None:
    p.add_argument("--groups-file", default=None,
                   help="replace the bundled group table")
    p.add_argument("--subgroups-file", default=None,
                   help="replace the bundled subgroup table")
    p.add_argument("--case-study-file", default=None,
                   help="replace the bundled worked-example data")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError, ValueError) as exc:
        from .bundle import data_digests
        digests = ", ".join(f"{k}={v[:12]}" for k, v in data_digests().items())
        sys.stderr.write(f"error: {exc}\n(bundled data digests: {digests})\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
