"""In-process span tracing of the elusive14 package, installed from outside.

``install`` puts a span around every call into a public module-level
function of the traced modules, around the constructors and methods listed
in ``_METHODS``, around ``SearchEngine.enumerate_cases`` and
``SearchEngine.leaf_survivors`` on each engine a campaign hands out, and
around the two ``DepthSolver`` calls the ``dtree`` command makes.  Nothing
in the package is edited: the wrappers replace names in the module
namespaces (and class attributes) and ``uninstall`` puts the originals
back.

``DepthSolver.depth`` recurses through ``self.depth``, so it is never
wrapped on the class; ``dtree`` gets a proxy solver whose two public calls
are spanned while the recursion stays untouched.  For the same reason the
sweep's depth calls are spanned at ``oracle.decision_tree_depth``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter

MODULES = ("perm", "orbits", "complexes", "bundle", "search", "replay",
           "oracle", "cli")


class Span:
    """One call: name, start/end (perf_counter seconds), the index of the
    span that caused it (-1 for none), the operation it belongs to, and the
    counters recorded at its boundary."""

    __slots__ = ("name", "start", "end", "parent", "op", "counters")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.counters = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps every span in memory; spans of one operation share ``op``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, name: str, op: int):
        """One top-level operation span; spans opened inside share ``op``."""
        self.op = op
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)
            self.op = -1

    # -- queries -------------------------------------------------------

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                kids[s.parent].append(i)
        return kids

    def self_times(self) -> list[float]:
        """Duration minus the union of the child spans' intervals.  The
        children are not clipped to the parent, so a child that leaks out
        of its parent can drive the self time below zero."""
        kids = self.children()
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            reach = float("-inf")
            for k in sorted(kids[i], key=lambda k: self.spans[k].start):
                c = self.spans[k]
                lo = max(c.start, reach)
                if c.end > lo:
                    covered += c.end - lo
                    reach = c.end
            out.append(s.duration - covered)
        return out

    def nesting_errors(self) -> list[tuple[int, str]]:
        """(span index, message) for every span that ends before it starts
        or does not lie inside its parent's interval."""
        errors = []
        for i, s in enumerate(self.spans):
            if s.end < s.start:
                errors.append((i, f"span {i} {s.name} ends before it starts"))
            if s.parent >= 0:
                p = self.spans[s.parent]
                if s.start < p.start or s.end > p.end:
                    errors.append(
                        (i, f"span {i} {s.name} leaves parent {p.name}"))
        return errors

    def has_ancestor(self, idx: int, anc: int) -> bool:
        p = self.spans[idx].parent
        while p >= 0:
            if p == anc:
                return True
            p = self.spans[p].parent
        return False

    def find(self, name: str, under: int | None = None,
             parent_name: str | None = None) -> list[int]:
        """Indices of spans called ``name``, optionally inside span
        ``under`` and/or directly below a span called ``parent_name``."""
        out = []
        for i, s in enumerate(self.spans):
            if s.name != name:
                continue
            if under is not None and not self.has_ancestor(i, under):
                continue
            if parent_name is not None and (
                    s.parent < 0 or self.spans[s.parent].name != parent_name):
                continue
            out.append(i)
        return out

    def total(self, idxs) -> float:
        return sum(self.spans[i].duration for i in idxs)


def _wrap(tracer: Tracer, name: str, fn, measure=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if measure is not None:
            try:
                tracer.spans[idx].counters = measure(result, args)
            except (AttributeError, TypeError):
                pass  # the program changed shape; the span keeps no counters
        return result

    return traced


def _search_counters(report, _args) -> dict:
    s = report.stats
    return {"schedule": report.schedule, "link_check": report.link_check,
            "feasible": len(report.feasible_functions),
            "nodes": s.nodes_explored, "cases": s.cases_enumerated,
            "leaf_assignments": s.leaf_assignments, "leaf_chi1": s.leaf_chi1,
            "prunes_by_chi": s.prunes_by_chi,
            "prunes_by_link": s.prunes_by_link,
            "prunes_by_conflict": s.prunes_by_conflict}


def _replay_counters(res, _args) -> dict:
    return {"residual_chi1": res.cases_with_chi_1,
            "passing_link": res.cases_passing_link,
            "free_orbits": len(res.free_orbits)}


def _sweep_counters(rep, _args) -> dict:
    return {"monotone_functions": rep.monotone_functions,
            "weakly_symmetric_nontrivial": rep.weakly_symmetric_nontrivial,
            "non_elusive": rep.non_elusive, "ok": rep.ok}


_MEASURES = {
    "search.run_search": _search_counters,
    "replay.replay_case_study": _replay_counters,
    "oracle.exhaustive_conjecture_check": _sweep_counters,
}

# (module, class, attribute, span name, counters at the boundary)
_METHODS = (
    ("orbits", "OrbitTable", "__init__", "orbits.OrbitTable",
     lambda _r, a: {"orbits": a[0].orbit_count - 1}),
    ("orbits", "OrbitPoset", "__init__", "orbits.OrbitPoset", None),
    ("search", "SearchEngine", "__init__", "search.SearchEngine", None),
    ("bundle", "GroupSpec", "build", "bundle.GroupSpec.build",
     lambda g, _a: {"elements": g.order}),
    ("bundle", "SubgroupSpec", "build", "bundle.SubgroupSpec.build",
     lambda g, _a: {"elements": g.order}),
)


class _SolverProxy:
    """Stands in for the DepthSolver that ``cli.cmd_dtree`` creates."""

    def __init__(self, tracer: Tracer, solver_cls, f):
        self._tracer = tracer
        self._solver = solver_cls(f)

    def depth(self) -> int:
        idx = self._tracer.open("oracle.DepthSolver.depth")
        try:
            d = self._solver.depth()
        finally:
            self._tracer.close(idx)
        memo = self._solver.memo
        self._tracer.spans[idx].counters = {
            "restrictions": len(memo) - memo.count(0xFF), "depth": d}
        return d

    def adversary_path(self):
        idx = self._tracer.open("oracle.DepthSolver.adversary_path")
        try:
            return self._solver.adversary_path()
        finally:
            self._tracer.close(idx)


def install(tracer: Tracer):
    """Wrap the package in place; returns a function that undoes it."""
    mods = {name: importlib.import_module(f"elusive14.{name}")
            for name in MODULES}
    wrappers = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            wrappers[obj] = _wrap(tracer, name, obj, _MEASURES.get(name))
    undo = []
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                undo.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    # a name the program no longer has is skipped; its metrics read 0
    for short, cls_name, attr, name, measure in _METHODS:
        cls = getattr(mods[short], cls_name, None)
        original = vars(cls).get(attr) if cls is not None else None
        if original is not None:
            undo.append((cls, attr, original))
            setattr(cls, attr, _wrap(tracer, name, original, measure))

    campaign_cls = getattr(mods["bundle"], "Campaign", None)
    engine = vars(campaign_cls).get("engine") if campaign_cls else None
    if engine is not None:
        @functools.wraps(engine)
        def traced_engine(self, *args, **kwargs):
            eng = engine(self, *args, **kwargs)
            for attr in ("enumerate_cases", "leaf_survivors"):
                if hasattr(eng, attr):
                    setattr(eng, attr,
                            _wrap(tracer, f"search.SearchEngine.{attr}",
                                  getattr(eng, attr)))
            return eng

        undo.append((campaign_cls, "engine", engine))
        campaign_cls.engine = traced_engine

    cli = mods["cli"]
    solver_cls = getattr(cli, "DepthSolver", None)
    if solver_cls is not None:
        undo.append((cli, "DepthSolver", solver_cls))
        cli.DepthSolver = lambda f: _SolverProxy(tracer, solver_cls, f)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
