"""Adaptive probe backoff: idle liveness cost shrinks, detection survives.

SWIM-style stride doubling on the tail edges (long links, back links,
sampled extras): an edge whose probe was answered is next probed after a
doubled stride, up to ``max_stride``; any miss snaps the stride back to 1.
The always-probed core (voronoi ∪ close) keeps the paper's O(voronoi
degree) per-node idle cost; the tail amortizes to ``tail/max_stride``.
"""

import pytest

from repro.core import VoroNetConfig
from repro.simulation.faults import (FaultPlane, HeartbeatConfig,
                                     HeartbeatDetector,
                                     ProtocolCrashInjector, RepairProtocol)
from repro.simulation.protocol import ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects


def build_simulator(count=150, seed=77, num_long_links=2, loss=0.0):
    config = VoroNetConfig(n_max=4 * count, num_long_links=num_long_links,
                           seed=seed)
    simulator = ProtocolSimulator(config, seed=seed,
                                  faults=FaultPlane(seed=seed + 1,
                                                    loss_probability=loss))
    positions = generate_objects(UniformDistribution(), count,
                                 RandomSource(seed))
    simulator.bulk_join(positions)
    return simulator


def pings(simulator):
    return simulator.network.sent_by_kind.get("PING", 0)


class TestConfig:
    def test_max_stride_validation(self):
        with pytest.raises(ValueError):
            HeartbeatConfig(adaptive_backoff=True, max_stride=0)
        assert HeartbeatConfig(adaptive_backoff=True).max_stride == 8

    def test_off_by_default(self):
        assert not HeartbeatConfig().adaptive_backoff


class TestParityWhenDisabled:
    def test_disabled_config_matches_legacy_full_probe(self):
        """With the knob off the detector sends exactly the default
        full-probe traffic — same counters on twin overlays."""
        counters = []
        for adaptive in (False, None):
            simulator = build_simulator(count=80, seed=21)
            if adaptive is None:
                detector = HeartbeatDetector(simulator)
            else:
                detector = HeartbeatDetector(simulator, config=HeartbeatConfig(
                    interval=8.0, miss_threshold=2, adaptive_backoff=False))
            detector.run_rounds(3)
            counters.append(simulator.network.snapshot_counters())
        assert counters[0] == counters[1]

    def test_convergence_unchanged_when_disabled(self):
        """Detection + repair outcome is identical with the knob off."""
        reports = []
        for config in (HeartbeatConfig(miss_threshold=3),
                       HeartbeatConfig(miss_threshold=3,
                                       adaptive_backoff=False)):
            simulator = build_simulator(count=100, seed=33)
            injector = ProtocolCrashInjector(simulator, rng=RandomSource(3))
            injector.crash_random(10)
            detector = HeartbeatDetector(simulator, config=config)
            detector.run_rounds(4)
            report = RepairProtocol(simulator, detector=detector).repair()
            assert report.converged
            reports.append((sorted(detector.suspected()), report.rounds))
        assert reports[0] == reports[1]


class TestIdleCost:
    def test_steady_state_approaches_core_degree(self):
        """After the strides saturate, an idle round probes little more
        than the voronoi ∪ close core: the tail contributes ~1/max_stride
        of its edges per round."""
        config = HeartbeatConfig(adaptive_backoff=True, max_stride=8)
        simulator = build_simulator(count=150, seed=77)
        detector = HeartbeatDetector(simulator, config=config)
        per_round = []
        for _ in range(12):
            before = pings(simulator)
            detector.run_round()
            per_round.append(pings(simulator) - before)
        full = per_round[0]            # round 1 probes every monitored edge
        tail = full - min(per_round)   # tail edges = full - core-only rounds
        assert tail > 0
        # Strides saturate within ceil(log2(max_stride)) answered probes;
        # from then on each round costs at most core + tail/max_stride.
        steady = per_round[8:]
        assert max(steady) <= full - tail + tail / config.max_stride
        assert sum(per_round) < 12 * full
        assert detector.suspected() == {}

    def test_no_false_suspicion_from_backoff(self):
        simulator = build_simulator(count=100, seed=5)
        detector = HeartbeatDetector(simulator, config=HeartbeatConfig(
            adaptive_backoff=True, miss_threshold=2))
        assert detector.run_rounds(10) == []
        assert detector.suspected() == {}


class TestDetectionUnderBackoff:
    def test_crash_after_warmup_still_detected(self):
        """The dangerous window: strides are saturated (tail probed every
        8 rounds), then a peer crashes.  The first unanswered probe resets
        the edge's stride to 1, so the remaining misses accrue every round
        and detection lands within max_stride + miss_threshold rounds."""
        config = HeartbeatConfig(adaptive_backoff=True, max_stride=8,
                                 miss_threshold=3)
        simulator = build_simulator(count=100, seed=13)
        detector = HeartbeatDetector(simulator, config=config)
        detector.run_rounds(10)  # saturate the strides while healthy
        assert detector.suspected() == {}
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(4))
        victims = set(injector.crash_random(8))
        budget = config.max_stride + config.miss_threshold + 1
        detector.run_rounds(budget)
        for node in simulator.nodes.values():
            for peer in node.monitored_peers():
                if peer in victims:
                    assert peer in node.suspects
        report = RepairProtocol(simulator, detector=detector).repair()
        assert report.converged
        assert injector.assess_damage().total_stale_entries == 0
        assert simulator.verify_views() == []

    def test_missed_edge_reprobed_every_round(self):
        """Once a probe goes unanswered the edge must not back off again
        until it is heard from: each subsequent round probes it."""
        config = HeartbeatConfig(adaptive_backoff=True, max_stride=8,
                                 miss_threshold=4)
        simulator = build_simulator(count=60, seed=9)
        detector = HeartbeatDetector(simulator, config=config)
        detector.run_rounds(10)
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(2))
        victim = injector.crash_random(1)[0]
        # Find a live prober holding victim as a *tail* (non-core) edge if
        # any exists; all probers of the victim must converge to miss
        # accrual every round regardless.
        detector.run_rounds(config.max_stride)  # everyone has missed once
        misses_before = {
            object_id: node.missed_heartbeats.get(victim, 0)
            for object_id, node in simulator.nodes.items()}
        detector.run_round()
        accruing = 0
        for object_id, node in simulator.nodes.items():
            before = misses_before[object_id]
            if (victim in node.monitored_peers() and before > 0
                    and victim not in node.suspects):
                assert node.missed_heartbeats.get(victim, 0) == before + 1
                accruing += 1
        # At least someone was still below the threshold and re-probed.
        assert accruing > 0 or any(
            victim in node.suspects for node in simulator.nodes.values())
