"""Shoot-out harness and the oracle-vs-protocol twin-parity guarantee."""

import numpy as np
import pytest

from repro.serving.adapters import VoroNetServing
from repro.serving.harness import (make_sampler, run_protocol_serving,
                                   run_shootout, twin_parity)
from repro.serving.traffic import Schedule, build_schedule, serve_closed_loop
from repro.simulation.engine import LATENCY
from repro.simulation.protocol import ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects
from repro.workloads.samplers import UniformTargets, ZipfTargets


class TestTwinParity:
    """Acceptance criterion: oracle-mode and protocol-mode serving produce
    identical hop counts on the same seed and workload at small scale."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_hop_parity_under_contention(self, seed):
        result = twin_parity(120, 240, seed=seed, concurrency=0)
        assert result["parity"]
        assert result["hop_mismatches"] == 0
        assert result["oracle_total_hops"] == result["protocol_total_hops"]

    def test_hop_parity_closed_loop(self):
        result = twin_parity(100, 200, seed=3, concurrency=6)
        assert result["parity"]
        assert result["hop_mismatches"] == 0

    def test_both_planes_price_a_hop_with_the_one_constant(self):
        """``twin_parity``'s setup, every query injected before the engine
        runs: a protocol query completes ``LATENCY`` per forward plus one
        for the answer leg (none when the source owns the target), and the
        oracle driver charges ``LATENCY`` per hop on the same schedule."""
        population, seed = 120, 5
        positions = generate_objects(UniformDistribution(), population,
                                     RandomSource(seed))
        adapter = VoroNetServing(positions, seed=seed)
        simulator = ProtocolSimulator(adapter.config)
        ids = simulator.bulk_join(positions).object_ids
        sampled = build_schedule(UniformTargets(population, seed=seed + 7),
                                 240, seed=seed + 8)
        # Three queries a source answers itself: no forward, no answer leg.
        schedule = Schedule(np.append(sampled.sources, [0, 1, 2]),
                            np.append(sampled.targets, [0, 1, 2]))
        pairs = schedule.pairs()

        t0 = simulator.engine.now
        for k, (s, t) in enumerate(pairs):
            simulator.start_query(simulator.nodes[ids[t]].position,
                                  start=ids[s], query_id=k)
        simulator.engine.run()
        answers = [simulator.query_answers[k] for k in range(len(pairs))]
        hops = [answer["hops"] for answer in answers]
        assert hops.count(0) >= 3 and max(hops) > 1
        for answer in answers:
            forwards = answer["hops"]
            assert answer["completed_at"] - t0 == \
                (forwards + (forwards > 0)) * LATENCY

        # One worker per query, all starting at 0: a query completes at its
        # latency, so a window one LATENCY wide holds exactly the queries of
        # one hop count, and its mean latency is that count times LATENCY.
        report = serve_closed_loop(adapter, schedule, "uniform",
                                   concurrency=len(pairs), window=LATENCY)
        assert [adapter.route_index(s, t).hops for s, t in pairs] == hops
        assert report["virtual_duration"] == max(hops) * LATENCY
        rows = [row for row in report["windows"] if row["queries"]]
        assert sum(row["queries"] for row in rows) == len(pairs)
        for row in rows:
            assert row["mean_latency"] == row["start"] == \
                row["mean_hops"] * LATENCY


class TestSamplerFactory:
    def test_known_workloads(self):
        assert isinstance(make_sampler("uniform", 64), UniformTargets)
        assert isinstance(make_sampler("zipf", 64), ZipfTargets)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            make_sampler("bogus", 64)


class TestShootout:
    @pytest.fixture(scope="class")
    def record(self):
        return run_shootout(144, 600, seed=4, workloads=("uniform", "zipf"),
                            concurrency=6)

    def test_record_structure(self, record):
        assert record["population"] == 144
        assert record["queries_per_workload"] == 600
        assert set(record["systems"]) == {"voronet", "kleinberg", "chord"}
        for system, by_workload in record["systems"].items():
            assert set(by_workload) == {"uniform", "zipf"}, system
            for report in by_workload.values():
                assert report["queries"] == 600
                assert report["success_rate"] == 1.0
                assert report["hops"]["p50"] <= report["hops"]["p99"]
                assert report["throughput_qps"] > 0
                assert report["load"]["gini"] >= 0

    def test_skew_raises_imbalance(self, record):
        for system, by_workload in record["systems"].items():
            assert (by_workload["zipf"]["load"]["max_mean"]
                    > by_workload["uniform"]["load"]["max_mean"]), system

    def test_deterministic_without_clock(self, record):
        again = run_shootout(144, 600, seed=4, workloads=("uniform", "zipf"),
                             concurrency=6)
        assert again == record

    def test_wall_clock_section_optional(self):
        ticks = iter(range(1000))
        record = run_shootout(64, 100, seed=1, workloads=("uniform",),
                              systems=("chord",),
                              clock=lambda: float(next(ticks)))
        report = record["systems"]["chord"]["uniform"]
        assert report["wall_seconds"] > 0
        assert report["wall_qps"] > 0


class TestProtocolServing:
    def test_protocol_record(self):
        report = run_protocol_serving(90, 180, seed=6, concurrency=5)
        assert report["system"] == "voronet-protocol"
        assert report["mode"] == "closed-protocol"
        assert report["queries"] == 180
        assert report["success_rate"] == 1.0
        assert report["concurrency"] == 5
        # Answer delivery adds at least one unit beyond the query hops.
        assert report["latency"]["p50"] > report["hops"]["p50"]
