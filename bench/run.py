"""elusive14 benchmark: the verifier's three user paths, end to end and per
layer.

    python3 bench/run.py --workload verdict|oracle14|sweep5|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from
``src/`` there and nothing is installed.  Workloads (closed loop, one
client, one child process at a time):

  verdict   ``verify14 --seed-independent`` then ``replay-appendix``: the
            proof path (search, perm, orbits, bundle; no oracle work).
  oracle14  ``dtree G6 FILE`` over a seeded, hardness-stratified set of
            full G6-invariant assignments: almost all oracle work.
  sweep5    ``conjecture-check --n 5``: thousands of tiny depth solvers
            plus the permutation-invariance scan.

With ``--trace 0`` the CLI runs as child processes and the end-to-end
metrics are reported.  With ``--trace 1`` the same operations of all three
workloads run once in process under span tracing (``tracing.py``) and the
per-layer metrics are reported; ``--workload`` then picks the operation
whose traced-minus-untraced time is the tracing overhead.  Every output is
checked against the pinned invariants in ``checks.py``.  Human-readable
lines go first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

from checks import PINS, check_output  # noqa: E402

WORKLOADS = ("verdict", "oracle14", "sweep5")
SETUP_REPEATS = 15
SETUP_MIN = 5
STARTUP_REPEATS = 7
OVERHEAD_BUDGET_S = 8.0
CHILD_TIMEOUT_S = 150
CLI = "import sys; from elusive14.cli import main; sys.exit(main())"

# What each command builds before its main call, timed in a fresh
# interpreter from before the package import.
SETUP = {
    "verdict": "from elusive14.bundle import build_campaign\n"
               "build_campaign()",
    "oracle14": "from elusive14.bundle import load_group_specs\n"
                "from elusive14.orbits import OrbitPoset, OrbitTable\n"
                "OrbitPoset(OrbitTable(load_group_specs()['G6'].build()))",
    "sweep5": "",
}
SETUP_SHIM = ("import time\nt0 = time.perf_counter()\nimport elusive14.cli\n"
              "{body}\nprint(time.perf_counter() - t0)")

VERDICT_OPS = [("verify14", ["verify14", "--seed-independent",
                             "--format", "json"]),
               ("replay", ["replay-appendix", "--format", "json"])]
SWEEP_OPS = [("sweep5", ["conjecture-check", "--n", "5", "--format", "json"])]
MEMO_SIZE = 3 ** 14
# The calibration loop and the reference speed that end-to-end times are
# scaled to: the speed at which CAL_ITERATIONS take CAL_REF_S.
CAL_ITERATIONS = 200_000
CAL_REF_S = 0.014


class ChildFailed(RuntimeError):
    """A child process could not be run to completion."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_child(args: list[str], errfile: str) -> tuple[int, str, float, float]:
    """Run one child to completion: exit code, stdout, wall seconds and
    peak RSS in MiB (from wait4, so only this child counts)."""
    t0 = perf_counter()
    with open(errfile, "wb") as err:
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                                stderr=err, env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out.decode("utf-8", "replace"),
            perf_counter() - t0, usage.ru_maxrss / 1024)


def calibrate() -> float:
    """Mean of three timings of a fixed pure-Python integer loop.  The mean
    rather than the best, because a child lives through slow moments too:
    over eight sweep5 runs this cut the spread left after scaling from
    0.062 to 0.044."""
    total = 0.0
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(CAL_ITERATIONS):
            acc += i * i
        total += perf_counter() - t0
    return total / 3


class MachineSpeed:
    """Scales a wall time to the reference speed.

    On a shared virtual machine the CPU speed drifts by tens of percent
    over seconds to minutes, and a pure-Python loop slows by the same
    factor as the program.  The harness and its children are pinned to
    one CPU, and each timed child is bracketed by calibration runs on that
    CPU; its time is scaled by CAL_REF_S over their mean.
    """

    def __init__(self):
        self.last = calibrate()
        self.raw: list[float] = []

    def scale(self, secs: float) -> float:
        """Call right after the timed child; returns the scaled time."""
        now = calibrate()
        self.raw.append(now)
        factor = 2 * CAL_REF_S / (self.last + now)
        self.last = now
        return secs * factor


def tail(values: list[float]) -> tuple[float | None, float]:
    """The highest percentile that still has at least ten samples beyond
    it, as (value, percentile); None when that percentile would not lie
    above the median, that is with fewer than 21 samples."""
    n = len(values)
    if n < 21:
        return None, 0.0
    k = n - 11
    return sorted(values)[k], 100.0 * (k + 1) / n


def setup_sample(workload: str, workdir: str) -> float:
    """One fresh interpreter's set-up time for the workload's command, in
    wall seconds."""
    rc, out, _, _ = run_child(["-c", SETUP_SHIM.format(body=SETUP[workload])],
                              os.path.join(workdir, "setup.err"))
    if rc != 0:
        raise ChildFailed(f"set-up child exited {rc}")
    return float(out.strip().splitlines()[-1])


def workload_ops(workload: str, workdir: str, seed: int):
    """The (kind, argv) list of one pass, plus the oracle input records."""
    if workload == "verdict":
        return VERDICT_OPS, []
    if workload == "sweep5":
        return SWEEP_OPS, []
    rc, out, _, _ = run_child([os.path.join(HERE, "oracle_inputs.py"),
                               "--seed", str(seed), "--out", workdir],
                              os.path.join(workdir, "inputs.err"))
    if rc != 0:
        raise ChildFailed(f"input generator exited {rc}")
    records = json.loads(out)
    return [("dtree", ["dtree", "G6", r["path"], "--format", "json"])
            for r in records], records


# -- end-to-end run (--trace 0) ---------------------------------------

def run_e2e(workload: str, seed: int, seconds: float, workdir: str,
            pins: dict, log) -> dict:
    ops, records = workload_ops(workload, workdir, seed)
    errfile = os.path.join(workdir, "child.err")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wall: dict[str, list[float]] = {}
    passes: list[float] = []
    attempted = failed = 0
    rss = 0.0
    problems: list[str] = []
    # set-up samples are spread over the run, so that a slow spell of the
    # machine weighs on set-up and on the passes alike; the first one only
    # fills the bytecode cache
    setup_sample(workload, workdir)
    speed = MachineSpeed()
    setups: list[float] = []
    last_setup = float("-inf")
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        pass_s = 0.0
        for kind, argv in ops:
            code, out, secs, peak = run_child(["-c", CLI, *argv], errfile)
            pass_s += speed.scale(secs)
            attempted += 1
            errs = check_output(kind, code, out, pins)
            if errs:
                failed += 1
                problems.extend(errs)
            wall.setdefault(kind, []).append(secs)
            rss = max(rss, peak)
            if perf_counter() - last_setup >= seconds / SETUP_REPEATS:
                setups.append(speed.scale(setup_sample(workload, workdir)))
                last_setup = perf_counter()
        passes.append(pass_s)
        # stop when another pass like this one would overrun the budget
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    while len(setups) < SETUP_MIN:
        setups.append(speed.scale(setup_sample(workload, workdir)))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    report_e2e(workload, seed, metrics, wall, passes, len(setups), speed,
               attempted, failed, records, log)
    for p in problems[:20]:
        log(f"  MISMATCH {p}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def report_e2e(workload, seed, metrics, wall, passes, setups, speed,
               attempted, failed, records, log) -> None:
    """Print the per-command figures with units and sample counts.  Single
    calls are wall seconds; setup_s and the passes are at reference
    speed."""
    cal = statistics.median(speed.raw)
    log(f"workload {workload} seed {seed}: {len(passes)} passes, "
        f"{attempted} child runs; calibration loop median {cal * 1e3:.2f} ms "
        f"(reference {CAL_REF_S * 1e3:.1f} ms)")
    log(f"  setup_s          {metrics['setup_s'][0]:.4f} s at reference "
        f"speed (median of {setups} fresh interpreters)")

    def timing(name, tname, values):
        log(f"  {name:<16} {statistics.median(values):.4f} s wall "
            f"(median of {len(values)})")
        value, pct = tail(values)
        if value is None:
            log(f"  {tname:<16} n/a (a tail above the median with 10 "
                f"samples beyond it needs >= 21, have {len(values)})")
        else:
            log(f"  {tname:<16} {value:.4f} s wall "
                f"(p{pct:.0f} of {len(values)})")

    log(f"  pass_s           {metrics['pass_s'][0]:.4f} s at reference "
        f"speed (median of {len(passes)} passes)")
    if workload == "verdict":
        timing("verify14_s", "verify14_tail_s", wall["verify14"])
        timing("replay_s", "replay_tail_s", wall["replay"])
    elif workload == "oracle14":
        log(f"  dtree_pass_s     {sum(wall['dtree']) / len(passes):.4f} s "
            f"wall (mean of {len(passes)} passes over {len(records)} inputs)")
        timing("dtree_call_s", "dtree_tail_s", wall["dtree"])
        for i, r in enumerate(records):
            log(f"    input{i:02d} {r['kind']:<8} stratum {r['stratum']} "
                f"pool restrictions {r['pool_restrictions']}")
    else:
        timing("sweep5_s", "sweep5_tail_s", wall["sweep5"])
    log(f"  peak_rss_mb      {metrics['peak_rss_mib'][0]:.1f} MiB "
        f"(largest of {attempted} children)")
    log(f"  failed_ops       {failed}/{attempted}")


# -- traced run (--trace 1) -------------------------------------------

def run_in_process(argv: list[str]) -> tuple[int, str]:
    from elusive14 import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_startup(workdir: str) -> float:
    """Median wall time of a fresh interpreter that imports the CLI and
    exits: what every child pays before ``main`` runs."""
    times = []
    for _ in range(STARTUP_REPEATS + 1):
        rc, _, secs, _ = run_child(["-c", "import elusive14.cli"],
                                   os.path.join(workdir, "startup.err"))
        if rc != 0:
            raise ChildFailed(f"start-up child exited {rc}")
        times.append(secs)
    return statistics.median(times[1:])


def traced_pass(ops, pins, log):
    """Run ``ops`` once in process under tracing.  Returns the tracer, the
    spans' self times, the per-layer metrics and the mismatches per
    operation: output checks, traced counters against the pins, spans
    outside their parent and negative self times."""
    from tracing import Tracer, install

    tracer = Tracer()
    errors: dict[int, list[str]] = {}
    uninstall = install(tracer)
    try:
        for i, (kind, argv) in enumerate(ops):
            with tracer.operation(f"op.{kind}", i):
                code, out = run_in_process(argv)
            errors[i] = check_output(kind, code, out, pins)
    finally:
        uninstall()
    self_times = tracer.self_times()
    metrics, counter_errors = layer_metrics(tracer, self_times, ops, pins,
                                            log)
    for op, errs in counter_errors.items():
        errors[op].extend(errs)
    for i, s in enumerate(tracer.spans):
        # 1 ns of slack for float rounding in the interval arithmetic
        if self_times[i] < -1e-9:
            errors[s.op].append(
                f"span {i} {s.name} has self time {self_times[i]:.3g}")
    for i, msg in tracer.nesting_errors():
        errors[tracer.spans[i].op].append(msg)
    return tracer, self_times, metrics, errors


def run_traced(workload: str, seed: int, workdir: str, pins: dict,
               log) -> dict:
    oracle_ops, records = workload_ops("oracle14", workdir, seed)
    ops = VERDICT_OPS + oracle_ops + SWEEP_OPS
    # the operation the tracing overhead is measured on; for oracle14 the
    # cheapest input, to keep the untraced repeats short
    first = len(VERDICT_OPS)
    cheapest = min(range(len(records)),
                   key=lambda i: records[i]["pool_restrictions"])
    probe = {"verdict": list(range(first)), "oracle14": [first + cheapest],
             "sweep5": [len(ops) - 1]}[workload]

    def probe_time(speed: MachineSpeed, traced: bool) -> float:
        """The probe operation once in process, at reference speed."""
        from tracing import Tracer, install

        uninstall = install(Tracer()) if traced else None
        try:
            t0 = perf_counter()
            for i in probe:
                run_in_process(ops[i][1])
            secs = perf_counter() - t0
        finally:
            if uninstall is not None:
                uninstall()
        return speed.scale(secs)

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    startup = cli_startup(workdir)
    tracer, self_times, metrics, errors = traced_pass(ops, pins, log)
    # the overhead compares traced and untraced runs of the same operation,
    # alternated and scaled to reference speed like the end-to-end times;
    # the warm-up run is not counted
    speed = MachineSpeed()
    repeats = min(7, max(2, round(OVERHEAD_BUDGET_S / 2
                                  / probe_time(speed, False))))
    runs = {False: [], True: []}
    for traced in (False, True) * repeats:
        runs[traced].append(probe_time(speed, traced))
    untraced_s = statistics.median(runs[False])
    traced_s = statistics.median(runs[True])
    metrics["cli.startup_s"] = (startup, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s,
                                       "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")

    log(f"traced pass, seed {seed}: {len(ops)} operations, "
        f"{len(tracer.spans)} spans; overhead measured on {workload}: "
        f"traced {traced_s:.4f} s, untraced {untraced_s:.4f} s at reference "
        f"speed (medians of {repeats})")
    for i, r in enumerate(records):
        span = [s for s in tracer.spans if s.op == first + i
                and s.name == "oracle.DepthSolver.depth"]
        if span:
            log(f"    input{i:02d} {r['kind']:<8} stratum {r['stratum']} "
                f"restrictions {span[0].counters['restrictions']} "
                f"depth_s {span[0].duration:.3f}")
    for name, (value, unit) in metrics.items():
        log(f"  {name:<30} {value:.6g} {unit}")
    by_name: dict[str, float] = {}
    for s, t in zip(tracer.spans, self_times):
        by_name[s.name] = by_name.get(s.name, 0.0) + t
    log("  largest self times by span name:")
    for name in sorted(by_name, key=by_name.get, reverse=True)[:10]:
        log(f"    {name:<40} {by_name[name]:.4f} s")
    spans_file = os.path.join(WORK, f"spans-{workload}-seed{seed}.jsonl")
    write_spans(tracer, self_times, spans_file)
    log(f"  spans written to {os.path.relpath(spans_file, ROOT)}")
    for op, errs in sorted(errors.items()):
        for e in errs[:10]:
            log(f"  MISMATCH op {op}: {e}")
    return {"attempted": len(ops),
            "failed": sum(1 for errs in errors.values() if errs),
            "metrics": metrics}


def write_spans(tracer, self_times, path: str) -> None:
    with open(path, "w") as fh:
        for i, s in enumerate(tracer.spans):
            fh.write(json.dumps({
                "id": i, "name": s.name, "parent": s.parent, "op": s.op,
                "start": s.start, "end": s.end, "self": self_times[i],
                "counters": s.counters}) + "\n")


def layer_metrics(tr, self_times, ops, pins, log) -> tuple[dict, dict]:
    """Per-layer numbers from the spans, and traced-counter mismatches per
    operation.  A span the program no longer produces reads as 0 and is
    logged; the operations' outputs are still checked by ``CHECKS``."""
    top = {s.op: i for i, s in enumerate(tr.spans) if s.parent < 0}
    verify, replay, sweep = top[0], top[1], top[len(ops) - 1]
    dtree_tops = [top[op] for op, (kind, _) in enumerate(ops)
                  if kind == "dtree"]
    errors: dict[int, list[str]] = {}

    def expect(i, what, key, want):
        got = (tr.spans[i].counters or {}).get(key)
        if got != want:
            errors.setdefault(tr.spans[i].op, []).append(
                f"{what}: traced {got!r}, pinned {want!r}")

    def find(name, under, parent_name=None):
        found = tr.find(name, under=under, parent_name=parent_name)
        if not found:
            log(f"  note: no {name} span")
        return found

    def counter(idxs, key):
        return sum((tr.spans[i].counters or {}).get(key, 0) for i in idxs)

    def median_duration(idxs):
        return statistics.median(tr.spans[i].duration for i in idxs) \
            if idxs else 0.0

    campaign = find("bundle.build_campaign", verify)[:1]
    builds = [i for c in campaign
              for i in find("bundle.GroupSpec.build", c)]
    closures = [i for c in campaign for i in tr.find("perm.generate", under=c)
                if tr.spans[tr.spans[i].parent].name
                in ("bundle.GroupSpec.build", "bundle.SubgroupSpec.build")]
    elements = counter(builds, "elements")
    if builds and elements != pins["census"]["elements"]:
        errors.setdefault(0, []).append(
            f"perm.elements: traced {elements}, pinned "
            f"{pins['census']['elements']}")
    tables = [i for t in top.values() for i in tr.find("orbits.OrbitTable",
                                                       under=t)]
    for i in tables:
        expect(i, "orbits.count", "orbits", pins["census"]["orbits"])
    runs = {(tr.spans[i].counters or {}).get("schedule"): i
            for i in find("search.run_search", verify)}
    key_of = {"feasible_functions": "feasible", "nodes_explored": "nodes",
              "cases_enumerated": "cases",
              "leaf_assignments": "leaf_assignments",
              "prunes_by_link": "prunes_by_link"}
    for schedule, i in runs.items():
        for key, want in pins["verify14"]["search"].get(schedule, {}).items():
            expect(i, f"search {schedule} {key}", key_of[key], want)
        expect(i, f"search {schedule} leaf_chi1", "leaf_chi1",
               pins["verify14"]["leaf_chi1"])
    default = runs.get("default")
    d = (tr.spans[default].counters or {}) if default is not None else {}
    rep = find("replay.replay_case_study", replay)[:1]
    for i in rep:
        expect(i, "replay.residual_chi1", "residual_chi1",
               pins["replay"]["residual_cases_chi_1"])
        expect(i, "replay.free_orbits", "free_orbits",
               pins["replay"]["free_orbits"])
    depth = [i for t in dtree_tops
             for i in find("oracle.DepthSolver.depth", t)]
    for i in depth:
        expect(i, "oracle depth", "depth", pins["dtree"]["depth"])
    adversary = [i for t in dtree_tops
                 for i in find("oracle.DepthSolver.adversary_path", t)]
    restrictions = counter(depth, "restrictions")
    depth_s = tr.total(depth)
    sweep_depth = find("oracle.decision_tree_depth", sweep)
    if sweep_depth and len(sweep_depth) != pins["sweep5"]["monotone_functions"]:
        errors.setdefault(len(ops) - 1, []).append(
            f"oracle.sweep_depth_calls: traced {len(sweep_depth)}, pinned "
            f"{pins['sweep5']['monotone_functions']}")
    check = find("oracle.exhaustive_conjecture_check", sweep)[:1]
    enum, leaf = [], []
    if default is not None:
        enum = find("search.SearchEngine.enumerate_cases", default)
        leaf = find("search.SearchEngine.leaf_survivors", default)
    leaf_assignments = d.get("leaf_assignments", 0)

    m = {
        "perm.closure_s": (tr.total(closures), "s"),
        "perm.elements": (elements, "count"),
        "perm.classify_s": (tr.total(find("perm.classify", verify,
                                          parent_name="cli.verify14")), "s"),
        "perm.classify_subgroups_s": (
            tr.total([i for c in campaign for i in tr.find(
                "perm.classify", under=c,
                parent_name="bundle.build_campaign")]), "s"),
        "orbits.table_s": (median_duration(tables), "s"),
        "orbits.poset_s": (median_duration(
            [i for t in top.values()
             for i in tr.find("orbits.OrbitPoset", under=t)]), "s"),
        "orbits.count": (counter(tables[:1], "orbits"), "count"),
        "complexes.deltas_s": (
            tr.total(find("complexes.chi_deltas", verify)
                     + find("complexes.link_x1_deltas", verify)), "s"),
        "bundle.campaign_s": (tr.total(campaign), "s"),
        "bundle.campaign_self_s": (sum(self_times[i] for i in campaign), "s"),
        "search.run_default_s": (tr.total([default] if default is not None
                                          else []), "s"),
        "search.run_alternate_s": (tr.total([runs["alternate"]]
                                            if "alternate" in runs else []),
                                   "s"),
        "search.enumerate_s": (tr.total(enum), "s"),
        "search.enumerate_calls": (len(enum), "count"),
        "search.leaf_s": (tr.total(leaf), "s"),
        "search.leaf_calls": (len(leaf), "count"),
        "search.nodes": (d.get("nodes", 0), "count"),
        "search.cases": (d.get("cases", 0), "count"),
        "search.leaf_assignments": (leaf_assignments, "count"),
        "search.leaf_chi1": (d.get("leaf_chi1", 0), "count"),
        "search.prunes_by_chi": (d.get("prunes_by_chi", 0), "count"),
        "search.prunes_by_link": (d.get("prunes_by_link", 0), "count"),
        "search.leaf_yield": (d.get("leaf_chi1", 0) / leaf_assignments
                              if leaf_assignments else 0.0, "ratio"),
        "replay.run_s": (tr.total(rep), "s"),
        "replay.residual_chi1": (counter(rep, "residual_chi1"), "count"),
        "replay.free_orbits": (counter(rep, "free_orbits"), "count"),
        "oracle.depth_s": (depth_s, "s"),
        "oracle.adversary_s": (tr.total(adversary), "s"),
        "oracle.restrictions": (restrictions, "count"),
        "oracle.restrictions_per_s": (restrictions / depth_s if depth_s
                                      else 0.0, "1/s"),
        "oracle.memo_fill": (restrictions / (len(depth) * MEMO_SIZE)
                             if depth else 0.0, "ratio"),
        "oracle.sweep_depth_s": (tr.total(sweep_depth), "s"),
        "oracle.sweep_depth_calls": (len(sweep_depth), "count"),
        "oracle.sweep_enumerate_s": (
            tr.total(find("oracle.enumerate_monotone", sweep)), "s"),
        "oracle.sweep_self_s": (sum(self_times[i] for i in check), "s"),
    }
    return m, errors


# -- entry point ------------------------------------------------------

def run_one(workload, seed, seconds, trace, pins, log) -> dict:
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if trace:
            return run_traced(workload, seed, workdir, pins, log)
        return run_e2e(workload, seed, seconds, workdir, pins, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(res: dict) -> str:
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "elusive14", "cli.py")):
        sys.stderr.write(f"error: no elusive14 sources under {SRC}; run "
                         f"from the root of a source checkout\n")
        return 2
    sys.path.insert(0, SRC)

    def log(line: str) -> None:
        print(line, flush=True)

    try:
        if args.workload != "all":
            res = run_one(args.workload, args.seed, args.seconds, args.trace,
                          PINS, log)
            print(result_line(res))
            return 0
        results = {w: run_one(w, args.seed, args.seconds, args.trace, PINS,
                              log) for w in WORKLOADS}
    except ChildFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {w: {n: {"value": v, "unit": u}
                        for n, (v, u) in r["metrics"].items()}
                    for w, r in results.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
