"""Bundled input data and campaign assembly.

The package ships three JSON files: the six degree-14 groups, the eleven
subgroups of G6 with their published orbit labels, and the worked-example
branch data.  Published orbit labels carry no meaning of their own; the
representative sets printed next to them are the anchors that tie them to
canonical orbit ids, and every comparison against published label sets is
restricted to anchored labels.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources

from .orbits import OrbitPoset, OrbitTable, mask_from_points
from .perm import (Classification, OliverWitness, PermGroup, Permutation,
                   classify, generate, identity, parse_cycles)
from .search import Schedule, SearchEngine, SubgroupCheck, build_check

DATA_FILES = ("groups.json", "subgroups.json", "case_study.json")


class DataIntegrityError(Exception):
    """Bundled or user-supplied input data fails a consistency check."""


def _read_data(name: str, override: str | None = None) -> bytes:
    if override is not None:
        with open(override, "rb") as fh:
            return fh.read()
    return resources.files("elusive14.data").joinpath(name).read_bytes()


def load_json(name: str, override: str | None = None) -> dict:
    return json.loads(_read_data(name, override).decode("utf-8"))


def data_digests() -> dict[str, str]:
    """SHA-256 of each bundled data file, for report provenance."""
    return {name: hashlib.sha256(_read_data(name)).hexdigest()
            for name in DATA_FILES}


def expand_labels(entries: list[str]) -> list[str]:
    """Expand 'k.a~k.b' range shorthand into explicit level.index labels."""
    out = []
    for entry in entries:
        if "~" in entry:
            lo, hi = entry.split("~")
            lvl, a = lo.split(".")
            lvl2, b = hi.split(".")
            if lvl != lvl2:
                raise DataIntegrityError(f"range {entry!r} crosses levels")
            out.extend(f"{lvl}.{j}" for j in range(int(a), int(b) + 1))
        else:
            out.append(entry)
    return out


@dataclass(frozen=True)
class GroupSpec:
    name: str
    degree: int
    generators: tuple[str, ...]
    printed_order: int
    printed_orbit_total: int | None = None
    printed_generators: tuple[str, ...] | None = None
    errata: tuple[str, ...] = ()
    witness: dict | None = None
    expected_method: str | None = None
    order_note: str | None = None
    witness_order: int | None = None

    def build(self) -> PermGroup:
        try:
            gens = [parse_cycles(s, self.degree) for s in self.generators]
        except ValueError as exc:
            raise DataIntegrityError(f"{self.name}: {exc}") from exc
        return generate(gens)

    def oliver_witness(self) -> OliverWitness | None:
        """The printed witness, or None; raises DataIntegrityError unless
        it has an integer p, a generator list, and either q and
        h_generators both (an integer and a generator list) with kind
        psi_pq, or neither with kind psi_p."""
        w = self.witness
        if w is None:
            return None
        try:
            if not isinstance(w, dict):
                raise ValueError(f"{w!r} is not an object")
            if ("q" in w) != ("h_generators" in w):
                raise ValueError("q and h_generators must come together")
            kind = "psi_pq" if "q" in w else "psi_p"
            if w.get("kind") != kind:
                raise ValueError(f"kind {w.get('kind')!r} should be {kind!r}")
            if type(w.get("p")) is not int or type(w.get("q", 0)) is not int:
                raise ValueError("p and q must be integers")
            pg = self._parse_all(w.get("p_generators"))
            hg = (self._parse_all(w["h_generators"]) if "h_generators" in w
                  else None)
        except ValueError as exc:
            raise DataIntegrityError(f"{self.name}: bad witness: {exc}") from exc
        return OliverWitness(p=w["p"], q=w.get("q"), p_generators=pg,
                             h_generators=hg)

    def _parse_all(self, generators) -> tuple[Permutation, ...]:
        if not isinstance(generators, list):
            raise ValueError(f"generators {generators!r} are not a list")
        return tuple(parse_cycles(s, self.degree) for s in generators)


# Group files are read for degree-14 work; the cap keeps a typo such as
# degree 300000 from building degree-sized tuples for every generator, and
# keeps a closure that reaches perm's element cap at about 70 MiB
MAX_GROUP_DEGREE = 32


def _degree(value) -> int:
    """A group table's degree: a positive integer (JSON true is not one)
    of at most MAX_GROUP_DEGREE."""
    if type(value) is not int or value < 1:
        raise ValueError(f"degree {value!r} is not a positive integer")
    if value > MAX_GROUP_DEGREE:
        raise ValueError(f"degree {value} exceeds the cap of "
                         f"{MAX_GROUP_DEGREE}")
    return value


def load_group_specs(override: str | None = None) -> dict[str, GroupSpec]:
    raw = load_json("groups.json", override)
    try:
        degree = _degree(raw["degree"])
        return {g["name"]: GroupSpec(
            name=g["name"], degree=degree,
            generators=tuple(g["generators"]),
            printed_order=g["printed_order"],
            printed_orbit_total=g.get("printed_orbit_total"),
            printed_generators=(tuple(g["printed_generators"])
                                if "printed_generators" in g else None),
            errata=tuple(g.get("errata", ())),
            witness=g.get("witness"),
            expected_method=g.get("expected_method"),
            order_note=g.get("order_note"),
            witness_order=g.get("witness_order")) for g in raw["groups"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise DataIntegrityError(
            f"{override or 'groups.json'}: bad group table: {exc!r}") from exc


@dataclass(frozen=True)
class SubgroupSpec:
    name: str
    gap_subgroup_index: int
    generators: tuple[str, ...]
    printed_type: str
    blocks: tuple[dict, ...]
    type_erratum: str | None = None

    @property
    def number(self) -> int:
        return int(self.name.split("_")[1])

    def build(self, degree: int) -> PermGroup:
        if not self.generators:
            return generate([identity(degree)])
        return generate([parse_cycles(s, degree) for s in self.generators])


def load_subgroup_specs(override: str | None = None) -> list[SubgroupSpec]:
    raw = load_json("subgroups.json", override)
    where = override or "subgroups.json"
    try:
        specs = [SubgroupSpec(
            name=s["name"], gap_subgroup_index=s["gap_subgroup_index"],
            generators=tuple(s["generators"]), printed_type=s["printed_type"],
            blocks=tuple(s["blocks"]), type_erratum=s.get("type_erratum"))
            for s in raw["subgroups"]]
    except (KeyError, TypeError) as exc:
        raise DataIntegrityError(
            f"{where}: bad subgroup table: {exc!r}") from exc
    for spec in specs:
        if not (isinstance(spec.printed_type, str)
                and spec.printed_type in _CONDITION_OF_PRINTED_TYPE):
            raise DataIntegrityError(f"{where}: {spec.name}: unknown printed "
                                     f"type {spec.printed_type!r}")
        for block in spec.blocks:
            _require_anchor(block, f"{where} {spec.name} block")
    return specs


_STEP_KEYS = ("step", "subgroup", "printed_cases", "select", "theta_t",
              "theta_f")
_FINAL_KEYS = ("chi", "chi_link", "computed_free_orbits",
               "computed_cases_with_chi_1", "cases_passing_link",
               "published_free_orbits", "published_free_labels",
               "published_cases_with_chi_1")


def _require_keys(obj, keys, where: str) -> None:
    if not isinstance(obj, dict) or not set(keys) <= obj.keys():
        raise DataIntegrityError(
            f"{where} needs an object with keys {', '.join(keys)}")


def _require_anchor(entry, where: str) -> None:
    """A published block or union anchor: a list of 1-based points and the
    printed orbit label they represent."""
    _require_keys(entry, ("points", "printed_orbit"), where)
    points = entry["points"]
    if not (isinstance(points, list) and isinstance(entry["printed_orbit"], str)
            and all(type(p) is int and p >= 1 for p in points)):
        raise DataIntegrityError(
            f"{where}: points must be a list of positive integers and "
            "printed_orbit a string")


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _require_step(step, where: str) -> None:
    """A published branch step: a subgroup name, an integer case count, T/F
    label lists, and a selector object whose optional ``set`` lists
    [label, "T"|"F"] pairs and whose ``default_free`` is "T" or "F"."""
    _require_keys(step, _STEP_KEYS, where)
    select = step["select"]
    pairs = select.get("set", []) if isinstance(select, dict) else None
    if not (isinstance(step["subgroup"], str)
            and type(step["printed_cases"]) is int
            and all(_strings(step.get(k, []))
                    for k in ("theta_t", "theta_f", "errata"))
            and isinstance(pairs, list)
            and all(_strings(p) and len(p) == 2 and p[1] in ("T", "F")
                    for p in pairs)
            and select.get("default_free", "F") in ("T", "F")):
        raise DataIntegrityError(
            f"{where}: needs a subgroup name, an integer printed_cases, "
            "string lists theta_t, theta_f and errata, and a select object "
            'whose set lists [label, "T"|"F"] pairs')


def load_case_study(override: str | None = None) -> dict:
    """The worked-example data, with every key replay_case_study reads."""
    raw = load_json("case_study.json", override)
    where = override or "case_study.json"
    _require_keys(raw, ("steps", "final", "combination_table"), where)
    if not isinstance(raw["steps"], list):
        raise DataIntegrityError(f"{where}: steps must be a list")
    for step in raw["steps"]:
        _require_step(step, f"{where} step")
    _require_keys(raw["final"], _FINAL_KEYS, f"{where} final")
    _require_keys(raw["combination_table"], ("1", "2", "3"),
                  f"{where} combination_table")
    anchors = raw.get("union_anchors", [])
    if not isinstance(anchors, list):
        raise DataIntegrityError(f"{where}: union_anchors must be a list")
    for entry in anchors:
        _require_anchor(entry, f"{where} union anchor")
    return raw


def load_group_file(path: str) -> tuple[str, PermGroup]:
    """Read an external group file {name, degree, generators: [...]}: a
    positive integer degree and a nonempty list of cycle strings; the
    closure cap is not a data error and propagates."""
    try:
        with open(path, "rb") as fh:
            raw = json.load(fh)
        degree = _degree(raw["degree"])
        return raw["name"], generate([parse_cycles(g, degree)
                                      for g in raw["generators"]])
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise DataIntegrityError(f"bad group file {path}: {exc}") from exc


@dataclass
class AnchorMap:
    """Partial bijection published label <-> canonical orbit id."""

    label_to_oid: dict[str, int]
    skipped: list[str] = field(default_factory=list)

    def oid(self, label: str) -> int | None:
        return self.label_to_oid.get(label)


def build_anchor_map(table: OrbitTable, subgroup_specs: list[SubgroupSpec],
                     case_study: dict) -> AnchorMap:
    label_to_oid: dict[str, int] = {}
    oid_to_label: dict[int, str] = {}
    skipped: list[str] = []
    entries = [(block, f"{spec.name} block")
               for spec in subgroup_specs for block in spec.blocks]
    entries += [(entry, "union anchor")
                for entry in case_study.get("union_anchors", ())]
    for entry, origin in entries:
        label = entry["printed_orbit"]
        if "erratum" in entry:
            skipped.append(f"{origin} {entry['points']} -> {label}: {entry['erratum']}")
            continue
        mask = mask_from_points(entry["points"])
        if mask >> table.n:
            raise DataIntegrityError(
                f"{origin}: representative {entry['points']} leaves the "
                f"points 1..{table.n}")
        level = int(label.split(".")[0])
        if mask.bit_count() != level:
            raise DataIntegrityError(
                f"{origin}: representative {entry['points']} has "
                f"{mask.bit_count()} points but label {label} claims level {level}")
        oid = table.orbit_of(mask)
        if label in label_to_oid and label_to_oid[label] != oid:
            raise DataIntegrityError(
                f"label {label} anchored to two distinct orbits")
        if oid in oid_to_label and oid_to_label[oid] != label:
            raise DataIntegrityError(
                f"orbit {table.label(oid)} anchored to labels "
                f"{oid_to_label[oid]} and {label}")
        label_to_oid[label] = oid
        oid_to_label[oid] = label
    return AnchorMap(label_to_oid, skipped)


_CONDITION_OF_PRINTED_TYPE = {
    "identity": ("exact", 1),
    "cyclic": ("exact", 1),
    "psi_2": ("exact", 1),
    "psi_3": ("exact", 1),
    "psi_7": ("exact", 1),
    "psi_2_2": ("mod", 2),
}


@dataclass
class Campaign:
    """Everything the verification needs, built once from bundled data."""

    specs: dict[str, GroupSpec]
    groups: dict[str, PermGroup]
    table: OrbitTable
    poset: OrbitPoset
    subgroup_specs: dict[str, SubgroupSpec]
    subgroups: dict[str, PermGroup]
    subgroup_classifications: dict[str, Classification]
    checks: dict[str, SubgroupCheck]
    anchors: AnchorMap
    case_study: dict
    case_study_file: str = "case_study.json"

    @property
    def g6(self) -> PermGroup:
        return self.groups["G6"]

    def engine(self) -> SearchEngine:
        return SearchEngine(self.table, self.poset, self.checks)

    def schedule(self, name: str = "default") -> Schedule:
        """Built-in schedules: 'default' visits subgroups with fewer
        variable-orbits first (ties: higher subgroup number first);
        'alternate' breaks ties the other way."""
        nonid = [s for s in self.subgroup_specs.values() if s.number != 1]
        blocks = {s.name: len(self.subgroups[s.name].point_orbits())
                  for s in nonid}
        if name == "default":
            ordered = sorted(nonid, key=lambda s: (blocks[s.name], -s.number))
        elif name == "alternate":
            ordered = sorted(nonid, key=lambda s: (blocks[s.name], s.number))
        else:
            raise ValueError(f"unknown schedule {name!r}")
        return Schedule(name, tuple([s.name for s in ordered] + ["G6_1"]))


def build_campaign(groups_file: str | None = None,
                   subgroups_file: str | None = None,
                   case_study_file: str | None = None) -> Campaign:
    """Load every bundled artifact (or the given override files), rebuild
    it from generators, and verify the redundant printed facts along the
    way."""
    specs = load_group_specs(groups_file)
    missing = {f"G{i}" for i in range(1, 7)} - set(specs)
    if missing:
        raise DataIntegrityError(f"group table lacks {sorted(missing)}")
    groups = {name: spec.build() for name, spec in specs.items()}
    g6 = groups["G6"]
    table = OrbitTable(g6)
    poset = OrbitPoset(table)

    sub_specs = {s.name: s for s in load_subgroup_specs(subgroups_file)}
    missing = {f"G6_{i}" for i in range(1, 12)} - set(sub_specs)
    if missing:
        raise DataIntegrityError(f"subgroup table lacks {sorted(missing)}")
    subgroups: dict[str, PermGroup] = {}
    classifications: dict[str, Classification] = {}
    checks: dict[str, SubgroupCheck] = {}
    for name, spec in sub_specs.items():
        H = spec.build(g6.degree)
        if not H.element_set <= g6.element_set:
            raise DataIntegrityError(f"{name} is not a subgroup of G6")
        printed = sorted(tuple(sorted(b["points"])) for b in spec.blocks)
        computed = sorted(tuple(p + 1 for p in orb) for orb in H.point_orbits())
        if spec.blocks and printed != computed:
            raise DataIntegrityError(f"{name}: published blocks do not match "
                                     f"the recomputed variable orbits")
        cls = classify(H)
        condition = cls.chi_condition
        if condition is None:
            raise DataIntegrityError(f"{name}: classification failed, no "
                                     f"Euler condition available")
        expected = _CONDITION_OF_PRINTED_TYPE[spec.printed_type]
        if condition != expected:
            raise DataIntegrityError(
                f"{name}: computed condition {condition} does not match the "
                f"published type {spec.printed_type}")
        subgroups[name] = H
        classifications[name] = cls
        checks[name] = build_check(table, H, name, condition)

    case_study = load_case_study(case_study_file)
    anchors = build_anchor_map(table, list(sub_specs.values()), case_study)
    return Campaign(specs=specs, groups=groups, table=table, poset=poset,
                    subgroup_specs=sub_specs, subgroups=subgroups,
                    subgroup_classifications=classifications, checks=checks,
                    anchors=anchors, case_study=case_study,
                    case_study_file=case_study_file or "case_study.json")
