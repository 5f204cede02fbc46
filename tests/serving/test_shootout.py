"""Shoot-out harness and the oracle-vs-protocol twin-parity guarantee."""

import pytest

from repro.serving.harness import (make_sampler, run_protocol_serving,
                                   run_shootout, twin_parity)
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
