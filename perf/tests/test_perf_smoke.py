"""Every workload runs, fails nothing, and emits exactly what BENCHMARK.json declares."""

from __future__ import annotations

import re

import pytest

from perf import layers, workloads
from perf.run import against_untraced

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = sorted(workloads.WORKLOADS)


def test_benchmark_json_meets_the_contract(declared):
    assert set(declared) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert declared["paths"] == ["perf"]
    assert declared["run_seconds"] == workloads.DEFAULT_SECONDS
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    sections = ("workloads", "end_to_end", "per_layer")
    names = [entry["name"] for section in sections for entry in declared[section]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in declared["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    for entry in declared["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in declared["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
    setup = next(entry for entry in declared["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in declared["end_to_end"])


def test_declared_workloads_are_the_implemented_ones(declared):
    assert [(entry["name"], entry["why"]) for entry in declared["workloads"]] == [
        (workload.name, workload.why) for workload in workloads.WORKLOADS.values()
    ]


def test_declared_metrics_are_the_implemented_ones(declared):
    units = {entry["name"]: entry["unit"] for entry in declared["end_to_end"]}
    assert units == workloads.END_TO_END
    assert declared["per_layer"] == layers.declarations()


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name, untraced):
    run = untraced[name]
    assert run["failed"] == 0 and run["problems"] == []
    assert run["attempted"] >= 1
    assert set(run["end_to_end"]) == set(workloads.END_TO_END)
    assert "setup_s" in run["end_to_end"]
    for metric, value in run["end_to_end"].items():
        assert value > 0, metric
    assert "per_layer" not in run


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(name, untraced, traced):
    run, tracer = traced[name]
    assert run["failed"] == 0 and run["problems"] == []
    assert tracer.missing == []
    extra, moved = against_untraced(untraced[name], run)
    assert moved == []
    assert set(run["per_layer"]) | set(extra) == set(layers.UNITS)
    assert extra["trace.overhead_ratio"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_trace_attributes_the_timed_wall_to_layers(name, traced):
    run, _ = traced[name]
    per_layer = run["per_layer"]
    # At full size the share is above 0.9 (README); at N = 300 fixed per-phase
    # overheads weigh more.
    assert per_layer["perf.harness.attributed_share"] > 0.6
    if run["mode"] == "oracle":
        assert per_layer["simulation.faults.FaultPlane.decide.calls"] == 0
        assert per_layer["core.overlay.insert.samples"] > 0
    else:
        assert per_layer["simulation.network.send.calls"] > 0
        assert per_layer["simulation.protocol.join.samples"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_fault_plane_decides_only_where_it_is_attached(name, untraced):
    simulated = untraced[name]["simulated"]
    if workloads.WORKLOADS[name].loss:
        assert simulated["fault_decisions"] == simulated["messages"]
    else:
        # Attached by the crash injector, for the heal cycles only.
        assert simulated["fault_decisions"] < simulated["messages"]


def test_one_hull_vertex_departs_through_rebuild_where_the_workload_says_so(traced):
    for name, (run, _) in traced.items():
        expected = 0 if workloads.WORKLOADS[name].hull_departure is None else 1
        assert run["per_layer"]["geometry.delaunay.rebuild.calls"] == expected, name
