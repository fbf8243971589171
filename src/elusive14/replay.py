"""Replay of the bundled worked-example branch.

Follows the published branch choices step by step, checks the number of
feasible cases at each step, and compares the resulting T/F orbit sets
against the published ones.  Published labels enter the comparison only
through the bundled anchor representatives; labels without an anchor are
recorded as skipped, never guessed.

Case counts come in two flavours.  The published counts are block-local:
assignments of the free block-union orbits consistent with the inclusion
order among the governed unions and the subgroup's Euler condition, as
the search engine enumerates them under that order instead of the orbit
poset.  The search itself explores the (possibly smaller) set of children
that also survive full orbit closure; both numbers are reported.
"""

from __future__ import annotations

from collections import namedtuple

from .bundle import Campaign, DataIntegrityError
from .complexes import FALSE, FREE, TRUE, TypeAssignment
from .orbits import OrbitPoset, iter_bits
from .search import SearchEngine, SearchStats, SubgroupCheck, condition_met


class MappingIncomplete(DataIntegrityError):
    """A published label needed for branch selection has no anchor."""


# one side (T or F) of a step's published orbit set against the computed
# state, and the levels the publication lists in full
ThetaComparison = namedtuple(
    "ThetaComparison", "printed_count computed_count matched skipped "
    "mismatched complete_levels")
TraceStep = namedtuple(
    "TraceStep", "step subgroup printed_cases local_cases child_cases "
    "selection theta_t theta_f errata")


class ReplayResult(namedtuple(
        "ReplayResult", "steps satisfied_unvisited pending_unvisited chi "
        "chi_link free_orbits free_relations leaf_cases cases_with_chi_1 "
        "cases_passing_link published_final combination_check problems")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.problems


def count_local_cases(camp: Campaign, st: TypeAssignment,
                      check: SubgroupCheck) -> int:
    """Number of assignments of the check's free governed orbits that are
    consistent at block level: a block collection can be a face only when
    all its sub-collections are faces, and the Euler condition holds.  This
    is the counting convention the published worked example uses.  It is
    the search engine's own case enumeration under the order the governed
    unions generate, which knows nothing of other orbit relations.

    The closures are block-local on purpose: they differ from the orbit
    poset's closures restricted to the governed orbits, and with those the
    published step-4 count of 4 comes out as 3."""
    table = camp.table
    unions = check.unions
    covers = {o: set() for o in iter_bits(check.governed)}
    for s in range(1, len(unions)):
        for i in iter_bits(s):
            if s ^ 1 << i:
                covers[table.orbit_of(unions[s])].add(
                    table.orbit_of(unions[s ^ 1 << i]))
    engine = SearchEngine(table, OrbitPoset.generated_by(table, covers))
    start = TypeAssignment(table, engine.poset, st.t_bits & check.governed,
                           st.f_bits & check.governed)
    return len(engine.enumerate_cases(start, check, SearchStats()))


def _compare_theta(camp: Campaign, state: TypeAssignment, printed_t: list[str],
                   printed_f: list[str], problems: list[str],
                   where: str) -> tuple[ThetaComparison, ThetaComparison]:
    table, anchors = camp.table, camp.anchors
    t_set, f_set = set(printed_t), set(printed_f)
    per_level_counts = {k: len(table.ids_at_level[k]) for k in range(table.n + 1)}

    comparisons = []
    for labels, want in ((printed_t, TRUE), (printed_f, FALSE)):
        comp = ThetaComparison(
            printed_count=len(labels),
            computed_count=sum(1 for o in range(1, table.orbit_count)
                               if state.state(o) == want),
            matched=[], skipped=[], mismatched=[], complete_levels=[])
        for lbl in labels:
            oid = anchors.get(lbl)
            if oid is None:
                comp.skipped.append(lbl)
            elif state.state(oid) == want:
                comp.matched.append(lbl)
            else:
                comp.mismatched.append(lbl)
                problems.append(f"{where}: published {lbl} should be {want} "
                                f"but computed {state.state(oid)}")
        # levels listed in full pin every orbit of that level, anchored or not
        by_level: dict[int, set[int]] = {}
        for lbl in labels:
            k, j = lbl.split(".")
            by_level.setdefault(int(k), set()).add(int(j))
        for k, idxs in sorted(by_level.items()):
            if idxs == set(range(per_level_counts.get(k, 0))):
                comp.complete_levels.append(k)
                for oid in table.ids_at_level[k]:
                    if state.state(oid) != want:
                        problems.append(
                            f"{where}: level {k} is fully listed as {want} "
                            f"but orbit {table.label(oid)} computed "
                            f"{state.state(oid)}")
        comparisons.append(comp)

    # reverse direction: every anchored label must sit where the state says
    for lbl, oid in anchors.items():
        st = state.state(oid)
        if st == TRUE and lbl not in t_set:
            problems.append(f"{where}: anchored {lbl} computed T but absent "
                            f"from the published T set")
        elif st == FALSE and lbl not in f_set:
            problems.append(f"{where}: anchored {lbl} computed F but absent "
                            f"from the published F set")
        elif st == FREE and (lbl in t_set or lbl in f_set):
            problems.append(f"{where}: anchored {lbl} computed free but "
                            f"published as determined")
    return comparisons[0], comparisons[1]


def _select_case(camp: Campaign, children: list[TypeAssignment],
                 parent: TypeAssignment, governed: int,
                 select: dict, where: str) -> tuple[TypeAssignment, dict[str, str]]:
    anchors = camp.anchors
    named: dict[int, str] = {}
    echo: dict[str, str] = {}
    for lbl, want in select.get("set", ()):
        oid = anchors.get(lbl)
        if oid is None:
            raise MappingIncomplete(f"{where}: selector label {lbl} has no anchor")
        named[oid] = want
        echo[lbl] = want
    default = select.get("default_free")
    if default is not None:
        # every other governed orbit free before this step takes the default
        free_before = governed & ~(parent.t_bits | parent.f_bits)
        named.update((o, default) for o in iter_bits(free_before)
                     if o not in named)

    def matches(child: TypeAssignment) -> bool:
        return all((TRUE if child.t_bits >> o & 1 else FALSE) == want
                   for o, want in named.items())

    chosen = [c for c in children if matches(c)]
    if len(chosen) != 1:
        raise MappingIncomplete(
            f"{where}: selector identifies {len(chosen)} cases, expected 1")
    return chosen[0], echo


def replay_case_study(camp: Campaign) -> ReplayResult:
    """Replay the bundled branch and collect every comparison outcome.

    Published integers that the recomputation reproduces are enforced as
    problems-on-mismatch; the published final free-orbit and case counts
    are returned alongside the recomputed ones (the bundled data documents
    where they disagree and why the recomputation is authoritative).
    """
    engine = camp.engine()
    table = camp.table
    stats = SearchStats()
    state = engine.initial_state()
    problems: list[str] = []
    steps: list[TraceStep] = []
    visited: set[str] = set()
    data_file = camp.overrides["case_study.json"] or "case_study.json"

    for raw in camp.case_study["steps"]:
        where = f"step {raw['step']}"
        source = f"{data_file} {where}"
        check = camp.checks.get(raw["subgroup"])
        if check is None:
            raise DataIntegrityError(
                f"{source}: {raw['subgroup']!r} is not a non-identity "
                "subgroup of G6")
        visited.add(raw["subgroup"])
        local = count_local_cases(camp, state, check)
        children = engine.enumerate_cases(state, check, stats)
        if local != raw["printed_cases"]:
            problems.append(f"{where}: {local} block-local cases computed, "
                            f"{raw['printed_cases']} published")
        state, echo = _select_case(camp, children, state, check.governed,
                                   raw["select"], source)
        comp_t, comp_f = _compare_theta(camp, state, raw["theta_t"],
                                        raw["theta_f"], problems, where)
        steps.append(TraceStep(
            step=raw["step"], subgroup=raw["subgroup"],
            printed_cases=raw["printed_cases"], local_cases=local,
            child_cases=len(children), selection=echo,
            theta_t=comp_t, theta_f=comp_f,
            errata=tuple(raw.get("errata", ()))))

    # subgroups the published branch never narrates: either their condition
    # is already determined and satisfied, or they still hold free governed
    # orbits and simply branch at their own schedule position
    satisfied: list[str] = []
    pending: list[str] = []
    assigned = state.t_bits | state.f_bits
    for name, check in camp.checks.items():
        if name in visited:
            continue
        if check.governed & ~assigned:
            pending.append(name)
            continue
        chi = engine.subgroup_chi(state.t_bits, check)
        if not condition_met(check.condition, chi):
            problems.append(f"{name}: unvisited by the published branch but "
                            f"its condition fails (chi={chi})")
        satisfied.append(name)

    final = camp.case_study["final"]
    if state.chi != final["chi"]:
        problems.append(f"final: chi {state.chi} != published {final['chi']}")
    if state.chi_link != final["chi_link"]:
        problems.append(f"final: link chi {state.chi_link} != published "
                        f"{final['chi_link']}")

    free = [o for o in range(1, table.orbit_count) if not assigned >> o & 1]
    if len(free) != final["computed_free_orbits"]:
        problems.append(f"final: {len(free)} free orbits, bundled "
                        f"regression value {final['computed_free_orbits']}")
    free_orbits = [{
        "orbit": table.label(o),
        "level": table.level[o],
        "size": table.size[o],
        "containing_x1": table.containing_x1[o],
    } for o in free]
    free_relations = [
        (table.label(a), table.label(b))
        for a in free for b in free
        if a != b and camp.poset.lower[b] >> a & 1]

    cases = engine.leaf_survivors(state, stats, link_check=False)
    survivors = [c for c in cases if c.chi_link == 1]
    leaf_cases = [{
        "true_free_orbits": [table.label(o) for o in free
                             if c.t_bits >> o & 1],
        "chi": c.chi,
        "chi_link": c.chi_link,
    } for c in cases]
    if len(cases) != final["computed_cases_with_chi_1"]:
        problems.append(f"final: {len(cases)} chi=1 cases, bundled "
                        f"regression value {final['computed_cases_with_chi_1']}")
    if len(survivors) != final["cases_passing_link"]:
        problems.append(f"final: {len(survivors)} cases pass the link "
                        f"condition, published {final['cases_passing_link']}")

    combo = _check_combination_table(camp, problems)
    return ReplayResult(
        steps=steps, satisfied_unvisited=sorted(satisfied),
        pending_unvisited=sorted(pending), chi=state.chi,
        chi_link=state.chi_link, free_orbits=free_orbits,
        free_relations=free_relations, leaf_cases=leaf_cases,
        cases_with_chi_1=len(cases), cases_passing_link=len(survivors),
        published_final={
            "free_orbits": final["published_free_orbits"],
            "free_labels": final["published_free_labels"],
            "cases_with_chi_1": final["published_cases_with_chi_1"],
        },
        combination_check=combo, problems=problems)


def _check_combination_table(camp: Campaign, problems: list[str]) -> dict:
    """The published survey of block-union orbits for the 6-block subgroup:
    multiplicity patterns must match per level, and anchored labels must
    land on canonical orbits with the right multiplicity."""
    table = camp.table
    spec = camp.case_study["combination_table"]
    unions = camp.checks["G6_3"].unions
    result: dict[str, dict] = {}
    for k in ("1", "2", "3"):
        counts: dict[int, int] = {}
        for s in range(1, len(unions)):
            if s.bit_count() == int(k):
                oid = table.orbit_of(unions[s])
                counts[oid] = counts.get(oid, 0) + 1
        printed = spec[k]
        computed_pattern = {}
        for oid, c in counts.items():
            key = (table.level[oid], c)
            computed_pattern[key] = computed_pattern.get(key, 0) + 1
        printed_pattern = {}
        for lbl, mult in printed:
            lvl = int(lbl.split(".")[0]) if lbl != "?" else None
            key = (lvl, mult)
            printed_pattern[key] = printed_pattern.get(key, 0) + 1
        # '?' rows have an unknown level: fold them into the computed
        # pattern by matching multiplicity alone
        for (lvl, mult), cnt in list(printed_pattern.items()):
            if lvl is not None:
                continue
            del printed_pattern[(lvl, mult)]
            candidates = [key for key in computed_pattern
                          if key[1] == mult and
                          computed_pattern[key] > printed_pattern.get(key, 0)]
            if len({c[0] for c in candidates}) == 1:
                printed_pattern[candidates[0]] = (
                    printed_pattern.get(candidates[0], 0) + cnt)
            else:
                problems.append(f"combination table k={k}: cannot place an "
                                f"unlabelled class of multiplicity {mult}")
        if computed_pattern != printed_pattern:
            problems.append(f"combination table k={k}: (level, multiplicity) "
                            f"pattern differs from the published survey")
        anchored_checked = []
        for lbl, mult in printed:
            oid = camp.anchors.get(lbl)
            if oid is None:
                continue
            if counts.get(oid, 0) != mult:
                problems.append(
                    f"combination table k={k}: label {lbl} published with "
                    f"multiplicity {mult}, computed {counts.get(oid, 0)}")
            else:
                anchored_checked.append(lbl)
        result[k] = {
            "orbit_classes": len(counts),
            "anchored_verified": anchored_checked,
        }
    return result
