"""Traffic drivers: determinism, the closed loop, churn-time misses."""

import pytest

from repro.serving.adapters import (ChordServing, KleinbergServing,
                                    VoroNetServing)
from repro.serving.traffic import build_schedule, serve_closed_loop
from repro.utils.rng import RandomSource
from repro.workloads.samplers import UniformTargets, ZipfTargets


def _positions(count, seed=0):
    rng = RandomSource(seed)
    return [tuple(p) for p in rng.generator.uniform(0.02, 0.98, (count, 2))]


@pytest.fixture(scope="module")
def voronet():
    return VoroNetServing(_positions(200), seed=3, track_paths=True)


class TestSchedule:
    def test_deterministic(self):
        one = build_schedule(UniformTargets(100, seed=1), 500, seed=2)
        two = build_schedule(UniformTargets(100, seed=1), 500, seed=2)
        assert one.pairs() == two.pairs()
        assert len(one) == 500

    def test_length_mismatch_rejected(self):
        import numpy as np
        from repro.serving.traffic import Schedule
        with pytest.raises(ValueError):
            Schedule(np.arange(3), np.arange(4))


class TestClosedLoop:
    def test_report_shape_and_determinism(self, voronet):
        schedule = build_schedule(UniformTargets(200, seed=5), 800, seed=6)
        reports = [serve_closed_loop(voronet, schedule, "uniform",
                                     concurrency=8)
                   for _ in range(2)]
        assert reports[0] == reports[1]
        report = reports[0]
        assert report["queries"] == 800
        assert report["misses"] == 0
        assert report["success_rate"] == 1.0
        assert report["hops"]["p50"] <= report["hops"]["p99"]
        assert report["throughput_qps"] > 0
        # closed loop: duration ≈ total hop time / concurrency
        expected = report["hops"]["mean"] * 800 / 8
        assert report["virtual_duration"] == pytest.approx(expected, rel=0.05)

    def test_more_workers_more_throughput(self, voronet):
        schedule = build_schedule(UniformTargets(200, seed=5), 600, seed=6)
        slow = serve_closed_loop(voronet, schedule, "uniform", concurrency=2)
        fast = serve_closed_loop(voronet, schedule, "uniform", concurrency=16)
        assert fast["throughput_qps"] > 3 * slow["throughput_qps"]

    def test_load_tracker_sees_paths(self, voronet):
        schedule = build_schedule(UniformTargets(200, seed=7), 400, seed=8)
        report = serve_closed_loop(voronet, schedule, "uniform", concurrency=4)
        # Every served query contributes its full path (source..owner).
        assert report["load"]["total"] >= report["served"]
        assert 0.0 <= report["load"]["gini"] < 1.0

    def test_skew_concentrates_load(self):
        adapter = VoroNetServing(_positions(300, seed=2), seed=2,
                                 track_paths=True)
        uniform = build_schedule(UniformTargets(300, seed=1), 1500, seed=9)
        skewed = build_schedule(ZipfTargets(300, alpha=1.4, seed=1), 1500,
                                seed=9)
        report_u = serve_closed_loop(adapter, uniform, "uniform", concurrency=8)
        report_z = serve_closed_loop(adapter, skewed, "zipf", concurrency=8)
        assert report_z["load"]["gini"] > report_u["load"]["gini"]

    def test_windows_and_metrics(self, voronet):
        schedule = build_schedule(UniformTargets(200, seed=5), 500, seed=6)
        report = serve_closed_loop(voronet, schedule, "uniform", concurrency=8,
                                   window=100.0)
        assert len(report["windows"]) >= 2
        assert sum(row["queries"] for row in report["windows"]) == 500


class TestChurnDuringTraffic:
    def test_turnover_churn_yields_defined_misses(self):
        adapter = VoroNetServing(_positions(250, seed=6), seed=6)
        schedule = build_schedule(UniformTargets(250, seed=2), 2000, seed=3)
        # Objects depart after the schedule was sampled (what perf/'s churn
        # phases do to the adapter): the index map keeps the departed ids.
        for object_id in adapter.ids[::10]:
            adapter.overlay.remove(object_id)
        report = serve_closed_loop(adapter, schedule, "uniform", concurrency=8)
        # Some scheduled targets departed: they must surface as defined
        # misses, and the run must not crash.
        assert report["misses"] > 0
        assert report["served"] + report["misses"] == 2000
        assert report["success_rate"] < 1.0
        assert adapter.overlay.stats.query_misses == report["misses"]


class TestBaselineAdapters:
    def test_kleinberg_requires_square(self):
        with pytest.raises(ValueError):
            KleinbergServing(150)

    def test_kleinberg_paths_are_node_ids(self):
        adapter = KleinbergServing(100, seed=3, track_paths=True)
        outcome = adapter.route_index(0, 99)
        assert outcome.success
        assert outcome.path[0] == 0
        assert outcome.path[-1] == 99
        assert len(outcome.path) == outcome.hops + 1

    def test_chord_lookup_resolves_target(self):
        adapter = ChordServing(64, track_paths=True)
        outcome = adapter.route_index(5, 40)
        assert outcome.success
        assert outcome.path[0] == adapter.ids[5]
        assert outcome.path[-1] == adapter.ids[40]
        assert len(outcome.path) == outcome.hops + 1
