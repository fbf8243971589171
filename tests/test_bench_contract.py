"""What the benchmark in bench/ reads from the package.

bench/run.py turns traced spans into per-layer metrics by span name and
parent, and a span the program no longer produces reads as 0 there instead
of failing; bench/oracle_inputs.py builds and checks the oracle14 inputs
through the assignment API.  This test runs build_campaign, verify14 and
one dtree under bench's own tracer and fails where the benchmark would go
quiet.  It edits nothing under bench/.
"""

import contextlib
import io
import json
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
sys.path.insert(0, BENCH)

import oracle_inputs  # noqa: E402
import tracing  # noqa: E402
from checks import PINS, check_output  # noqa: E402


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """The tracer after three operations (0: build_campaign, 1: verify14
    --seed-independent, 2: dtree G6 on the seed-1 input the oracle finds
    cheapest), and the output checks of the two commands."""
    from elusive14 import bundle, cli

    workdir = tmp_path_factory.mktemp("oracle14")
    records = oracle_inputs.write_inputs(1, str(workdir))
    cheapest = min(records, key=lambda r: r["pool_restrictions"])
    commands = [("verify14", ["verify14", "--seed-independent"]),
                ("dtree", ["dtree", "G6", cheapest["path"]])]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    problems = {}
    try:
        with tracer.operation("op.campaign", 0):
            bundle.build_campaign()
        for op, (kind, argv) in enumerate(commands, start=1):
            out = io.StringIO()
            with tracer.operation(f"op.{kind}", op), \
                    contextlib.redirect_stdout(out):
                code = cli.main(["--format", "json", *argv])
            problems[kind] = check_output(kind, code, out.getvalue(), PINS)
    finally:
        uninstall()
    return tracer, problems


def op_root(tracer, op):
    (root,) = [i for i, s in enumerate(tracer.spans)
               if s.op == op and s.parent < 0]
    return root


def test_commands_meet_the_benchmark_pins(traced):
    _, problems = traced
    assert problems == {"verify14": [], "dtree": []}


def test_spans_the_benchmark_reads(traced):
    tracer, _ = traced
    assert not tracer.nesting_errors()
    campaign, verify, dtree = (op_root(tracer, op) for op in range(3))
    (built,) = tracer.find("bundle.build_campaign", under=campaign)

    # perm.closure_s and perm.elements
    builds = tracer.find("bundle.GroupSpec.build", under=built)
    assert sum(tracer.spans[i].counters["elements"]
               for i in builds) == PINS["census"]["elements"]
    assert len(tracer.find("perm.generate", under=built,
                           parent_name="bundle.GroupSpec.build")) == len(builds)
    assert tracer.find("perm.generate", under=built,
                       parent_name="bundle.SubgroupSpec.build")
    # perm.classify_s and perm.classify_subgroups_s
    assert tracer.find("perm.classify", under=verify,
                       parent_name="cli.verify14")
    assert tracer.find("perm.classify", under=built,
                       parent_name="bundle.build_campaign")
    # orbits.table_s, orbits.poset_s and orbits.count
    for root in (campaign, verify):
        (table,) = tracer.find("orbits.OrbitTable", under=root)
        assert tracer.spans[table].counters == {
            "orbits": PINS["census"]["orbits"]}
        assert len(tracer.find("orbits.OrbitPoset", under=root)) == 1
    # complexes.deltas_s
    assert tracer.find("complexes.chi_deltas", under=verify)
    assert tracer.find("complexes.link_x1_deltas", under=verify)
    # the search counters and per-schedule layers
    runs = {tracer.spans[i].counters["schedule"]: i
            for i in tracer.find("search.run_search", under=verify)}
    assert set(runs) == {"default", "alternate"}
    for schedule, run in runs.items():
        counters = tracer.spans[run].counters
        pinned = PINS["verify14"]["search"][schedule]
        assert counters["nodes"] == pinned["nodes_explored"]
        assert counters["cases"] == pinned["cases_enumerated"]
        assert counters["leaf_assignments"] == pinned["leaf_assignments"]
        assert counters["leaf_chi1"] == PINS["verify14"]["leaf_chi1"]
        enum = tracer.find("search.SearchEngine.enumerate_cases", under=run)
        leaf = tracer.find("search.SearchEngine.leaf_survivors", under=run)
        assert len(enum) == counters["nodes"] - len(leaf)
        assert leaf
    # oracle.depth_s, oracle.restrictions and oracle.adversary_s
    (depth,) = tracer.find("oracle.DepthSolver.depth", under=dtree)
    assert tracer.spans[depth].counters["depth"] == PINS["dtree"]["depth"]
    assert tracer.spans[depth].counters["restrictions"] > 0
    assert len(tracer.find("oracle.DepthSolver.adversary_path",
                           under=dtree)) == 1


def test_oracle_inputs_validate(tmp_path, campaign):
    table, poset = campaign.table, campaign.poset
    record = oracle_inputs.write_inputs(7, str(tmp_path))[0]
    with open(record["path"]) as fh:
        states = {e["orbit"]: e["state"] for e in json.load(fh)}
    oracle_inputs.validate(states, table, poset)
    top = f"{table.n}.0"
    with pytest.raises(oracle_inputs.InputError, match="free"):
        oracle_inputs.validate({top: "F"}, table, poset)
    with pytest.raises(oracle_inputs.InputError, match="FALSE"):
        oracle_inputs.validate(dict.fromkeys(states, "T"), table, poset)
