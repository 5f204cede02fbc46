"""Unit tests for VoroNetConfig."""

import math
from dataclasses import fields
from inspect import signature

import pytest

from repro.analysis.hops import sweep_overlay_sizes
from repro.baselines.chord import ChordRing
from repro.core.config import DEFAULT_N_MAX, VoroNetConfig
from repro.core.node import ObjectNode
from repro.core.overlay import VoroNet
from repro.core.routing import greedy_route, greedy_route_many, route_to_object
from repro.core.shards import RoutingTableCache
from repro.experiments.fig6_routes import run_fig6
from repro.experiments.fig7_slope import run_fig7
from repro.experiments.runner import build_parser
from repro.lint import LintConfig
from repro.serving.adapters import KleinbergServing
from repro.serving.harness import build_adapters, run_shootout
from repro.serving.observability import WindowTracker
from repro.serving.traffic import serve_closed_loop, serve_protocol_closed_loop
from repro.simulation.faults import (FaultPlane, HeartbeatConfig,
                                     HeartbeatDetector, SplitSpec)
from repro.simulation.merge import PartitionRuntime
from repro.simulation.metrics import MetricsRegistry
from repro.simulation.network import Network
from repro.simulation.protocol import ProtocolSimulator
from repro.simulation.scenario import (Scenario, measure_steady_state_liveness,
                                       run_merge_scenario)


class TestDefaults:
    def test_default_values(self):
        config = VoroNetConfig()
        assert config.n_max == DEFAULT_N_MAX
        assert config.num_long_links == 1
        assert config.maintain_close_neighbors
        assert not config.allow_overflow

    def test_effective_d_min_formula(self):
        config = VoroNetConfig(n_max=10_000)
        assert config.effective_d_min == pytest.approx(1.0 / math.sqrt(math.pi * 10_000))

    def test_explicit_d_min_wins(self):
        config = VoroNetConfig(n_max=10_000, d_min=0.05)
        assert config.effective_d_min == 0.05

    def test_d_min_shrinks_with_n_max(self):
        small = VoroNetConfig(n_max=100).effective_d_min
        large = VoroNetConfig(n_max=100_000).effective_d_min
        assert large < small


class TestValidation:
    @pytest.mark.parametrize("n_max", [0, -1])
    def test_invalid_n_max(self, n_max):
        with pytest.raises(ValueError):
            VoroNetConfig(n_max=n_max)

    def test_invalid_num_long_links(self):
        with pytest.raises(ValueError):
            VoroNetConfig(num_long_links=-1)

    @pytest.mark.parametrize("d_min", [0.0, -0.1, 2.0])
    def test_invalid_d_min(self, d_min):
        with pytest.raises(ValueError):
            VoroNetConfig(d_min=d_min)

    def test_zero_long_links_allowed(self):
        assert VoroNetConfig(num_long_links=0).num_long_links == 0

    def test_frozen(self):
        config = VoroNetConfig()
        with pytest.raises(Exception):
            config.n_max = 5  # type: ignore[misc]


def test_option_budget():
    """The exact knob sets: a new option must be a deliberate, reviewed diff."""
    assert {f.name for f in fields(VoroNetConfig)} == {
        "n_max", "num_long_links", "d_min", "maintain_close_neighbors",
        "allow_overflow", "track_paths", "seed"}

    def parameters(function):
        return [name for name in signature(function).parameters
                if name != "self"]

    # The message-level simulator: timeouts, retries and the one-hop
    # latency are module constants, and what a run did is counted, not
    # traced; the fault plane loses messages but never delays them.
    assert parameters(ProtocolSimulator.__init__) == [
        "config", "seed", "faults"]
    assert parameters(Network.__init__) == ["engine", "faults"]
    assert parameters(FaultPlane.__init__) == ["seed", "loss_probability"]

    # The staged fault-experiment pipeline (21 settable values in all).
    assert parameters(Scenario.__init__) == [
        "num_objects", "seed", "churn_events", "events"]
    assert parameters(Scenario.build) == []
    assert parameters(Scenario.churn) == []
    assert parameters(Scenario.crash) == ["fraction"]
    assert parameters(Scenario.detect) == ["until", "max_rounds"]
    assert parameters(Scenario.heal) == [
        "max_cycles", "max_detection_rounds", "max_repair_rounds",
        "loss_probability"]
    assert parameters(run_merge_scenario) == [
        "num_objects", "seed", "num_sides", "side_fractions", "cycles",
        "inserts_per_side", "queries_per_side", "degraded_queries_per_side"]
    assert parameters(measure_steady_state_liveness) == [
        "simulator", "rounds", "queries_per_round"]
    assert parameters(HeartbeatDetector.__init__) == ["simulator", "config"]
    assert {f.name for f in fields(HeartbeatConfig)} == {
        "miss_threshold", "sample_fraction"}
    # One liveness policy: the default is what perf/systems.py passes.
    assert HeartbeatConfig() == HeartbeatConfig(
        interval=8.0, miss_threshold=2, piggyback=True, sample_fraction=0.25)
    with pytest.raises(ValueError):
        HeartbeatConfig(piggyback=False)

    # A split is enforced at send time and nowhere else, and a batch is
    # chunked by the module constant: neither knob had a setter in a record.
    assert parameters(SplitSpec.__init__) == ["sides", "start", "end"]
    assert parameters(FaultPlane.split) == ["sides", "start", "end"]
    assert parameters(PartitionRuntime.open_split) == ["sides"]
    assert parameters(ProtocolSimulator.bulk_join) == ["positions"]

    # The serving drivers take what a record sets (a hop costs LATENCY,
    # the estimators keep QUANTILE_BUFFER samples), and the one sink left
    # on the simulator counts (a histogram nobody reads is not state to
    # keep for the life of a run).
    assert parameters(serve_closed_loop) == [
        "adapter", "schedule", "workload", "concurrency", "window"]
    assert parameters(serve_protocol_closed_loop) == [
        "simulator", "id_map", "schedule", "workload",
        "concurrency", "window", "record_paths"]
    assert parameters(run_shootout) == [
        "population", "queries", "seed", "workloads", "systems", "zipf_alpha",
        "concurrency", "window", "keep_windows", "clock"]
    assert parameters(build_adapters) == ["population", "seed", "systems"]
    assert parameters(KleinbergServing.__init__) == [
        "population", "seed", "long_links_per_node", "track_paths"]
    with pytest.raises(TypeError):
        WindowTracker()  # the window width is the caller's, no default
    assert {name for name in vars(MetricsRegistry)
            if not name.startswith("_")} == {"increment", "counter", "counters"}
    # One way to add a node to the Chord baseline.
    assert {name for name in vars(ChordRing) if "join" in name} == {"join"}

    # simlint: what a contract rule looks for is part of the rule.
    assert {f.name for f in fields(LintConfig)} == {
        "paths", "select", "determinism_paths", "slots_paths"}

    # The evaluation side: one runner, no environment variables.
    assert {action.dest for action in build_parser()._actions} == {
        "help", "experiment", "scale", "seed", "output"}
    # Figs. 6 and 7 have one sweep, which routes every pair on both planes:
    # no switch picks a plane.
    assert parameters(run_fig6) == ["scale", "seed"]
    assert parameters(run_fig7) == ["scale", "seed", "sweep"]
    assert parameters(sweep_overlay_sizes) == [
        "positions", "checkpoints", "rng", "num_pairs", "overlay_factory"]

    # The routing cache is the member ids plus one table dict (and, once a
    # batch was routed, its one id arena with the two logs) and nothing
    # more: anything else it is to own must arrive with a reader, as a
    # reviewed diff.  (``sync`` is the id arena's — the batch router's
    # index of the scan-block tables — one reader.)
    assert {name for name in vars(RoutingTableCache)
            if not name.startswith("_")} == {
        "tables", "insert", "bulk_insert", "discard", "cache_table",
        "bump_object_ids", "drop_all", "sync"}
    assert RoutingTableCache.__slots__ == (
        "_members", "tables", "_arena", "_dropped", "_cached")
    assert RoutingTableCache().tables == {}
    assert parameters(RoutingTableCache.cache_table) == ["object_id", "entry"]
    assert parameters(RoutingTableCache.sync) == ["rows"]

    # An overlay routes on one view, ``vn ∪ cn ∪ LRn``: the Delaunay-only
    # comparison is an overlay built with ``num_long_links=0``, not a
    # switch on the routers.
    assert parameters(greedy_route) == ["overlay", "source", "target", "max_hops"]
    assert parameters(greedy_route_many) == ["overlay", "sources", "targets"]
    assert parameters(route_to_object) == ["overlay", "source", "destination", "max_hops"]
    assert parameters(VoroNet.route) == ["source", "target"]
    assert parameters(VoroNet.route_many) == ["pairs", "missing"]
    assert parameters(VoroNet.routing_table) == ["object_id"]
    assert parameters(VoroNet._routing_entry) == ["object_id"]
    assert parameters(VoroNet.insert) == ["position", "introducer"]
    assert {f.name for f in fields(ObjectNode)} == {
        "object_id", "position", "long_links", "back_links", "close_neighbors"}
