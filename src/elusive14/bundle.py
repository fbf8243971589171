"""Bundled input data and campaign assembly.

The package ships three JSON files: the six degree-14 groups, the eleven
subgroups of G6 with their published orbit labels, and the worked-example
branch data.  Published orbit labels carry no meaning of their own; the
representative sets printed next to them are the anchors that tie them to
canonical orbit ids, and every comparison against published label sets is
restricted to anchored labels.

Each JSON input, bundled or user-supplied, has one declared shape here:
the three files above, an external group file and an assignment file.
``_conform`` checks a file against its shape when it loads, so every key
the program reads has the declared type.  Checks that relate one field to
another stay in code: a witness's kind against its keys (when the witness
is used), and the subgroups and anchors against the rebuilt groups.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from importlib import resources
from typing import TYPE_CHECKING

from . import InputError
from .orbits import OrbitPoset, OrbitTable, mask_from_points
from .perm import (OliverWitness, PermGroup, Permutation, classify, generate,
                   identity, parse_cycles)

if TYPE_CHECKING:
    from .search import Schedule, SearchEngine, SubgroupCheck

DATA_FILES = ("groups.json", "subgroups.json", "case_study.json")


class DataIntegrityError(InputError):
    """Bundled or user-supplied input data fails a consistency check."""


class _Text:
    """A shape: a string that ``pattern`` matches in full, described as
    ``kind`` when one does not."""

    def __init__(self, pattern: str, kind: str):
        self.pattern = re.compile(pattern)
        self.kind = kind


def _conform(value, shape, where: str):
    """Return the parsed JSON ``value`` if it has ``shape``, else raise
    DataIntegrityError naming ``where``, the path inside it and the kind
    expected there.  A shape is a type (an int is never a bool), a range
    or set of allowed values, [shape] for a list of such values, a tuple
    for a list of fixed length, a _Text for a string of a given form, or
    a dict of keys, where a key ending in '?' is optional and keys it does
    not name are ignored."""
    if isinstance(shape, dict):
        ok, kind = isinstance(value, dict), "an object"
    elif isinstance(shape, list):
        ok, kind = isinstance(value, list), "a list"
    elif isinstance(shape, tuple):
        ok = isinstance(value, list) and len(value) == len(shape)
        kind = f"a list of {len(shape)}"
    elif isinstance(shape, _Text):
        ok = type(value) is str and shape.pattern.fullmatch(value) is not None
        kind = shape.kind
    elif isinstance(shape, type):
        ok = type(value) is shape
        kind = {int: "an integer", str: "a string"}[shape]
    else:
        ok = type(value) is type(next(iter(shape))) and value in shape
        kind = (f"an integer in {shape.start}..{shape.stop - 1}"
                if isinstance(shape, range)
                else "one of " + ", ".join(sorted(map(repr, shape))))
    if not ok:
        raise DataIntegrityError(f"{where}: expected {kind}")
    if isinstance(shape, dict):
        for key, sub in shape.items():
            name = key.rstrip("?")
            if name in value:
                _conform(value[name], sub, f"{where}: {name}")
            elif name == key:
                raise DataIntegrityError(f"{where}: lacks {name!r}")
    elif isinstance(shape, (list, tuple)):
        subs = shape if isinstance(shape, tuple) else shape * len(value)
        for i, (item, sub) in enumerate(zip(value, subs)):
            _conform(item, sub, f"{where}[{i}]")
    return value


def _fields(entry: dict, shape: dict) -> dict:
    """The keys of ``entry`` that ``shape`` names."""
    return {k: entry[k] for k in (key.rstrip("?") for key in shape)
            if k in entry}


# Group files are read for degree-14 work; the cap keeps a typo such as
# degree 300000 from building degree-sized tuples for every generator, and
# keeps a closure that reaches perm's element cap at about 70 MiB
MAX_GROUP_DEGREE = 32
_POINT = range(1, MAX_GROUP_DEGREE + 1)
_STATE = {"T", "F"}
# a published orbit label reads level.index; the T/F listings may also
# give a range k.a~k.b within one level, and the combination table '?'
# for an orbit the publication did not index
_LABEL = _Text(r"[0-9]+\.[0-9]+", "a label level.index")
_LABELS = _Text(r"([0-9]+)\.[0-9]+(~\1\.[0-9]+)?",
                "a label level.index or a range k.a~k.b within one level")
_LABEL_OR_UNKNOWN = _Text(r"\?|[0-9]+\.[0-9]+",
                          "a label level.index or '?'")

_CONDITION_OF_PRINTED_TYPE = {
    "identity": ("exact", 1), "cyclic": ("exact", 1), "psi_2": ("exact", 1),
    "psi_3": ("exact", 1), "psi_7": ("exact", 1), "psi_2_2": ("mod", 2)}

# the witness is checked when it is used, under "<group>: bad witness"
_WITNESS = {"kind": {"psi_p", "psi_pq"}, "p": int, "q?": int,
            "p_generators": [str], "h_generators?": [str]}
_GROUP = {"name": str, "generators": [str], "printed_order": int,
          "printed_orbit_total?": int, "printed_generators?": [str],
          "errata?": [str], "expected_method?": {
              "cyclic", "psi_p", "psi_pq", "sylow_lemma", "search"},
          "order_note?": str, "witness_order?": int}
_GROUPS = {"degree": _POINT, "groups": [_GROUP]}
# a published block or union anchor: 1-based points and the printed label
# of the orbit they represent
_ANCHOR = {"points": [_POINT], "printed_orbit": _LABEL, "erratum?": str}
_SUBGROUP = {"name": str, "generators": [str],
             "printed_type": set(_CONDITION_OF_PRINTED_TYPE),
             "blocks": [_ANCHOR], "type_erratum?": str}
_CASE_STUDY = {
    "steps": [{"step": int, "subgroup": str, "printed_cases": int,
               "select": {"set?": [(_LABEL, _STATE)], "default_free?": _STATE},
               "theta_t": [_LABELS], "theta_f": [_LABELS],
               "errata?": [str]}],
    "final": {"chi": int, "chi_link": int, "computed_free_orbits": int,
              "computed_cases_with_chi_1": int, "cases_passing_link": int,
              "published_free_orbits": int, "published_free_labels": [_LABEL],
              "published_cases_with_chi_1": int},
    "union_anchors?": [_ANCHOR],
    "combination_table": {k: [(_LABEL_OR_UNKNOWN, int)] for k in "123"}}
_GROUP_FILE = {"name": str, "degree": _POINT, "generators": [str]}
# an assignment file: {"orbit": "level.index", "state": "T"|"F"} entries
ASSIGNMENT = [{"orbit": str, "state": _STATE}]


def _read_data(name: str | None, override: str | None = None) -> bytes:
    if override is not None:
        with open(override, "rb") as fh:
            return fh.read()
    return resources.files("elusive14.data").joinpath(name).read_bytes()


def load_json(name: str | None, override: str | None = None, shape=None,
              where: str | None = None):
    """The bundled data file ``name``, or the file ``override`` read in
    its place, checked against ``shape``.  Text that is not JSON, or that
    nests deeper than the parser can recurse, is a DataIntegrityError;
    each error starts with ``where``, by default the file's name."""
    where = where or override or name
    try:
        raw = json.loads(_read_data(name, override))
    except (ValueError, RecursionError) as exc:
        raise DataIntegrityError(f"{where}: {exc}") from exc
    return raw if shape is None else _conform(raw, shape, where)


def data_digests(overrides: dict[str, str | None] | None = None
                 ) -> dict[str, str]:
    """SHA-256 of each data file, bundled or the override that
    ``overrides`` names for it, for report provenance.  The digest is
    CPython's builtin SHA-256, because ``hashlib`` loads OpenSSL, which
    would set the peak memory of a ``verify14`` run."""
    try:
        from _sha2 import sha256          # CPython 3.12 on
    except ImportError:
        try:
            from _sha256 import sha256    # up to CPython 3.11
        except ImportError:
            from hashlib import sha256
    overrides = overrides or {}
    return {name: sha256(_read_data(name, overrides.get(name))).hexdigest()
            for name in DATA_FILES}


def expand_labels(entries: list[str], where: str = "labels") -> list[str]:
    """Expand 'k.a~k.b' range shorthand into explicit level.index labels;
    a range that crosses levels or runs backwards raises
    DataIntegrityError naming ``where``."""
    out = []
    for entry in entries:
        if "~" in entry:
            lo, hi = entry.split("~")
            lvl, a = lo.split(".")
            lvl2, b = hi.split(".")
            if lvl != lvl2 or int(b) < int(a):
                raise DataIntegrityError(f"{where}: range {entry!r} crosses "
                                         "levels or runs backwards")
            out.extend(f"{lvl}.{j}" for j in range(int(a), int(b) + 1))
        else:
            out.append(entry)
    return out


class GroupSpec(namedtuple(
        "GroupSpec", "name degree generators printed_order printed_orbit_total "
        "printed_generators errata witness expected_method order_note "
        "witness_order source",
        defaults=(None, None, (), None, None, None, None, "groups.json"))):
    __slots__ = ()

    def build(self) -> PermGroup:
        try:
            return generate([parse_cycles(s, self.degree)
                             for s in self.generators])
        except ValueError as exc:
            raise DataIntegrityError(
                f"{self.source}: {self.name}: {exc}") from exc

    def oliver_witness(self) -> OliverWitness | None:
        """The printed witness, or None; raises DataIntegrityError unless
        it has the witness shape and either q and h_generators both, with
        kind psi_pq, or neither, with kind psi_p."""
        w = self.witness
        if w is None:
            return None
        where = f"{self.source}: {self.name}: bad witness"
        _conform(w, _WITNESS, where)
        if (("q" in w) != ("h_generators" in w)
                or w["kind"] != ("psi_pq" if "q" in w else "psi_p")):
            raise DataIntegrityError(f"{where}: kind psi_pq goes with q and "
                                     "h_generators, psi_p with neither")
        try:
            pg = self._parse_all(w["p_generators"])
            hg = (self._parse_all(w["h_generators"]) if "h_generators" in w
                  else None)
        except ValueError as exc:
            raise DataIntegrityError(f"{where}: {exc}") from exc
        return OliverWitness(p=w["p"], q=w.get("q"), p_generators=pg,
                             h_generators=hg)

    def _parse_all(self, generators: list[str]) -> tuple[Permutation, ...]:
        return tuple(parse_cycles(s, self.degree) for s in generators)


def load_group_specs(override: str | None = None) -> dict[str, GroupSpec]:
    raw = load_json("groups.json", override, _GROUPS)
    return {g["name"]: GroupSpec(**_fields(g, _GROUP), degree=raw["degree"],
                                 witness=g.get("witness"),
                                 source=override or "groups.json")
            for g in raw["groups"]}


class SubgroupSpec(namedtuple(
        "SubgroupSpec", "name generators printed_type blocks type_erratum "
        "source", defaults=(None, "subgroups.json"))):
    __slots__ = ()

    def build(self, degree: int) -> PermGroup:
        try:
            gens = [parse_cycles(s, degree) for s in self.generators]
        except ValueError as exc:
            raise DataIntegrityError(
                f"{self.source}: {self.name}: {exc}") from exc
        return generate(gens or [identity(degree)])


def load_subgroup_specs(override: str | None = None) -> list[SubgroupSpec]:
    raw = load_json("subgroups.json", override, {"subgroups": [_SUBGROUP]})
    return [SubgroupSpec(**_fields(s, _SUBGROUP),
                         source=override or "subgroups.json")
            for s in raw["subgroups"]]


def load_case_study(override: str | None = None) -> dict:
    """The worked-example data, with every key replay_case_study reads and
    the label ranges of its T/F listings expanded (each must lie within one
    level and run forwards)."""
    raw = load_json("case_study.json", override, _CASE_STUDY)
    for i, step in enumerate(raw["steps"]):
        for key in ("theta_t", "theta_f"):
            step[key] = expand_labels(
                step[key], f"{override or 'case_study.json'}: steps[{i}]: {key}")
    return raw


def load_group_file(path: str) -> tuple[str, PermGroup]:
    """Read an external group file {name, degree, generators: [...]}; a
    file whose generators do not parse or are empty is a data error, the
    closure cap is not and propagates."""
    where = f"bad group file {path}"
    try:
        raw = load_json(None, path, _GROUP_FILE, where)
        return raw["name"], generate([parse_cycles(g, raw["degree"])
                                      for g in raw["generators"]])
    except (OSError, ValueError) as exc:
        raise DataIntegrityError(f"{where}: {exc}") from exc


def build_anchor_map(table: OrbitTable, subgroup_specs: list[SubgroupSpec],
                     case_study: dict,
                     case_study_file: str = "case_study.json") -> dict[str, int]:
    """The partial bijection published label -> canonical orbit id that the
    block and union anchors give; an anchor with an erratum is left out."""
    label_to_oid: dict[str, int] = {}
    oid_to_label: dict[int, str] = {}
    entries = [(block, f"{spec.source}: {spec.name} block")
               for spec in subgroup_specs for block in spec.blocks]
    entries += [(entry, f"{case_study_file}: union anchor")
                for entry in case_study.get("union_anchors", ())]
    for entry, origin in entries:
        label = entry["printed_orbit"]
        if "erratum" in entry:
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
                f"{origin}: label {label} anchored to two distinct orbits")
        if oid in oid_to_label and oid_to_label[oid] != label:
            raise DataIntegrityError(
                f"{origin}: orbit {table.label(oid)} anchored to labels "
                f"{oid_to_label[oid]} and {label}")
        label_to_oid[label] = oid
        oid_to_label[oid] = label
    return label_to_oid


class Campaign(namedtuple(
        "Campaign", "specs groups table poset subgroup_specs subgroups checks "
        "anchors case_study overrides")):
    """Everything the verification needs, built once from bundled data;
    ``overrides`` maps each data file's name to the file read in its
    place, or None."""

    __slots__ = ()

    def engine(self) -> SearchEngine:
        from .search import SearchEngine
        return SearchEngine(self.table, self.poset)

    def schedule(self, name: str = "default") -> Schedule:
        """Built-in schedules: 'default' visits subgroups with fewer
        variable-orbits first (ties: higher k of G6_k first); 'alternate'
        breaks ties the other way.  A check with b blocks has 2^b unions."""
        from .search import Schedule
        if name not in ("default", "alternate"):
            raise ValueError(f"unknown schedule {name!r}")
        sign = -1 if name == "default" else 1
        return Schedule(name, tuple(sorted(
            self.checks.values(),
            key=lambda c: (len(c.unions), sign * int(c.name.split("_")[1])))))


def build_campaign(groups_file: str | None = None,
                   subgroups_file: str | None = None,
                   case_study_file: str | None = None) -> Campaign:
    """Load every bundled artifact (or the given override files), rebuild
    it from generators, and verify the redundant printed facts along the
    way."""
    from .search import build_check
    specs = load_group_specs(groups_file)
    missing = {f"G{i}" for i in range(1, 7)} - set(specs)
    if missing:
        raise DataIntegrityError(f"{groups_file or 'groups.json'}: group "
                                 f"table lacks {sorted(missing)}")
    groups = {name: spec.build() for name, spec in specs.items()}
    g6 = groups["G6"]
    table = OrbitTable(g6)
    poset = OrbitPoset(table)

    source = subgroups_file or "subgroups.json"
    sub_list = load_subgroup_specs(subgroups_file)
    if (sorted(s.name for s in sub_list)
            != sorted(f"G6_{i}" for i in range(1, 12))):
        raise DataIntegrityError(f"{source}: the subgroups must be "
                                 "G6_1..G6_11, each once")
    sub_specs = {s.name: s for s in sub_list}
    subgroups: dict[str, PermGroup] = {}
    checks: dict[str, SubgroupCheck] = {}
    for name, spec in sub_specs.items():
        where = f"{source}: {name}"
        H = spec.build(g6.degree)
        if not H.element_set <= g6.element_set:
            raise DataIntegrityError(f"{where} is not a subgroup of G6")
        # G6_1, and only G6_1, is the identity: its condition is
        # chi(Delta) = 1, which the search tests at its leaf, so it gets
        # no check of its own
        trivial = H.order == 1
        if ((name == "G6_1") != trivial
                or (spec.printed_type == "identity") != trivial):
            raise DataIntegrityError(
                f"{where}: order {H.order}, printed type {spec.printed_type}; "
                "G6_1 and no other subgroup must be the identity, so printed")
        printed = sorted(tuple(sorted(b["points"])) for b in spec.blocks)
        computed = sorted(tuple(p + 1 for p in orb) for orb in H.point_orbits())
        # only the identity's record lists no blocks
        if (spec.blocks or not trivial) and printed != computed:
            raise DataIntegrityError(f"{where}: published blocks do not "
                                     "match the recomputed variable orbits")
        condition = classify(H).chi_condition
        if condition is None:
            raise DataIntegrityError(f"{where}: classification failed, no "
                                     f"Euler condition available")
        if condition != _CONDITION_OF_PRINTED_TYPE[spec.printed_type]:
            raise DataIntegrityError(
                f"{where}: computed condition {condition} does not match the "
                f"published type {spec.printed_type}")
        subgroups[name] = H
        if not trivial:
            checks[name] = build_check(table, H, name, condition)

    case_study = load_case_study(case_study_file)
    anchors = build_anchor_map(table, list(sub_specs.values()), case_study,
                               case_study_file or "case_study.json")
    return Campaign(specs=specs, groups=groups, table=table, poset=poset,
                    subgroup_specs=sub_specs, subgroups=subgroups,
                    checks=checks, anchors=anchors, case_study=case_study,
                    overrides={"groups.json": groups_file,
                               "subgroups.json": subgroups_file,
                               "case_study.json": case_study_file})
