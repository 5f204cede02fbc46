"""The heartbeat detector against ``tests/reference_detector.py``.

Nodes keep no probe stamps: a ``PING`` handler reads the probes of the
round in flight from the simulator (``heartbeat_probes``), which the
detector publishes at its send phase and releases at its sweep.  Every
round of a random schedule — membership churn, crashes, queries, repair
sessions and a second detector between the rounds, under loss or not —
must probe exactly the peers the reference's per-edge freshness marks
select, and every ``PING`` must be answered exactly when the reference's
per-node stamps say its ``PONG`` is not suppressed (~5 s).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import VoroNetConfig
from repro.simulation.faults import (FaultPlane, HeartbeatConfig, HeartbeatDetector,
                                     ProtocolCrashInjector, RepairProtocol)
from repro.simulation.protocol import NO_ENTRIES, ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects

from reference_detector import ReferenceCheck

#: What may happen between two rounds of the detector under test.
BETWEEN_ROUNDS = ("round", "join", "leave", "crash", "query", "repair", "second")


@settings(max_examples=100, deadline=None)
# Nodes 28 and 31 exchange messages while 31 joins, before round 4, but
# the edge 28 ↔ 31 enters their probe plans only with the leaves before
# round 5: the marks never saw that contact, while a window over
# ``last_contact`` would skip the edge's first probe.
@example(count=30, loss=0.0, miss_threshold=2, sample_fraction=0.25, seed=131,
         schedule=["round", "round", "join", "leave"])
@given(count=st.integers(30, 200),
       loss=st.sampled_from((0.0, 0.1)),
       miss_threshold=st.integers(1, 3),
       sample_fraction=st.sampled_from((0.25, 1.0)),
       seed=st.integers(0, 2**16),
       schedule=st.lists(st.sampled_from(BETWEEN_ROUNDS), min_size=4, max_size=12))
def test_rounds_probe_and_answer_as_the_reference_says(
        count, loss, miss_threshold, sample_fraction, seed, schedule):
    with pytest.MonkeyPatch.context() as monkeypatch:
        check = ReferenceCheck()
        check.install(monkeypatch)
        simulator = ProtocolSimulator(
            VoroNetConfig(n_max=4 * count, num_long_links=2, seed=seed), seed=seed,
            faults=FaultPlane(seed=seed + 1))
        simulator.bulk_join(generate_objects(UniformDistribution(), count,
                                             RandomSource(seed)))
        simulator.faults.set_loss(loss)
        detector = HeartbeatDetector(simulator, config=HeartbeatConfig(
            miss_threshold=miss_threshold, sample_fraction=sample_fraction))
        second = None
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(seed + 2))
        rng = RandomSource(seed + 3)
        detector.run_round()
        for step in schedule:
            if step == "join":
                for _ in range(3):
                    simulator.join(rng.random_point())
            elif step == "leave":
                for _ in range(3):
                    live = sorted(simulator.nodes)
                    simulator.leave(live[rng.integer(0, len(live))])
            elif step == "crash":
                injector.crash_random(2)
            elif step == "query":
                for _ in range(5):
                    simulator.query(rng.random_point())
            elif step == "repair":
                RepairProtocol(simulator, detector=detector, max_rounds=4).repair()
            elif step == "second":
                if second is None:
                    second = HeartbeatDetector(simulator)
                second.run_round()
            detector.run_round()
            assert simulator.heartbeat_probes is NO_ENTRIES
        assert len(check.rounds) == 1 + len(schedule) + schedule.count("second")
        assert check.pings
