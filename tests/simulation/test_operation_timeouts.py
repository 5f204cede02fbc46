"""Tests of the crash-at-any-message protocol hardening.

Covers the engine-level ``Watchdog`` (progress-aware timeout events that
cancel cleanly and replay identically), ``Network.at_message`` crash
triggers, the retry contracts (``OPERATION_TIMEOUT``,
``OPERATION_RETRIES``, ``OPERATION_BACKOFF``) on joins, close
discovery and long-link search, idempotency of duplicate retries, and the
satellite fix: an operation whose only state-holder crashes surfaces as a
``timed_out`` outcome on ``JoinReport``/``LeaveReport`` instead of
wedging or silently "completing".
"""

import pytest

from repro.core import VoroNetConfig
from repro.simulation.engine import SimulationEngine, Watchdog
from repro.simulation import protocol
from repro.simulation.faults import (FaultPlane, HeartbeatDetector,
                                     ProtocolCrashInjector, RepairProtocol)
from repro.simulation.network import KIND
from repro.simulation.protocol import ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects


def build_simulator(count=30, seed=11, num_long_links=1):
    config = VoroNetConfig(n_max=4 * count + 64,
                           num_long_links=num_long_links, seed=seed)
    simulator = ProtocolSimulator(config, seed=seed,
                                  faults=FaultPlane(seed=seed + 1))
    positions = generate_objects(UniformDistribution(), count,
                                 RandomSource(seed + 3))
    simulator.bulk_join(positions)
    return simulator


# ----------------------------------------------------------------------
# Watchdog
# ----------------------------------------------------------------------
class TestWatchdog:
    def test_fires_after_timeout_without_progress(self):
        engine = SimulationEngine()
        fired = []
        dog = Watchdog(engine, 5.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [5.0]
        assert dog.fired == 1
        assert not dog.active

    def test_poke_defers_expiry_to_last_progress_plus_timeout(self):
        engine = SimulationEngine()
        fired = []
        dog = Watchdog(engine, 5.0, lambda: fired.append(engine.now))
        engine.schedule(3.0, dog.poke)
        engine.schedule(4.0, dog.poke)
        engine.run()
        # Last progress at t=4, so the quiet window expires at t=9.
        assert fired == [9.0]

    def test_cancel_suppresses_expiry_and_keeps_quiescence_exact(self):
        engine = SimulationEngine()
        fired = []
        dog = Watchdog(engine, 5.0, lambda: fired.append(True))
        assert not engine.quiescent
        dog.cancel()
        assert engine.quiescent
        engine.run()
        assert fired == []
        assert not dog.active
        dog.cancel()  # idempotent

    def test_rearm_restarts_with_new_timeout(self):
        engine = SimulationEngine()
        fired = []
        dog = Watchdog(engine, 5.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [5.0]
        dog.rearm(2.0)
        assert dog.active
        engine.run()
        assert fired == [5.0, 7.0]
        assert dog.timeout == 2.0

    def test_validation(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            Watchdog(engine, 0.0, lambda: None)
        dog = Watchdog(engine, 1.0, lambda: None)
        with pytest.raises(ValueError):
            dog.rearm(-1.0)

    def test_fault_free_schedule_identical_with_and_without_cancel(self):
        """Arming and cancelling a watchdog must not perturb the clock."""
        plain = SimulationEngine()
        plain.schedule(1.0, lambda: None)
        plain.run()
        guarded = SimulationEngine()
        guarded.schedule(1.0, lambda: None)
        dog = Watchdog(guarded, 9.0, lambda: (_ for _ in ()).throw(
            AssertionError("must never fire")))
        dog.cancel()
        guarded.run()
        assert guarded.now == plain.now
        assert guarded.quiescent


# ----------------------------------------------------------------------
# Network.at_message
# ----------------------------------------------------------------------
class TestAtMessage:
    def test_index_validation(self):
        simulator = ProtocolSimulator(VoroNetConfig(n_max=32, seed=1), seed=1)
        with pytest.raises(ValueError):
            simulator.network.at_message(0, lambda message: None)

    def test_trigger_fires_exactly_once_at_the_indexed_message(self):
        simulator = build_simulator(count=10, seed=5)
        seen = []
        index = simulator.network.messages_sent + 3
        simulator.network.at_message(index, lambda message: seen.append(
            (simulator.network.messages_sent, message[KIND])))
        simulator.join((0.31, 0.62))
        simulator.join((0.62, 0.31))
        assert seen == [(index, seen[0][1])]

    def test_multiple_triggers_on_one_index_all_fire(self):
        simulator = build_simulator(count=10, seed=5)
        seen = []
        index = simulator.network.messages_sent + 1
        simulator.network.at_message(index, lambda message: seen.append("a"))
        simulator.network.at_message(index, lambda message: seen.append("b"))
        simulator.join((0.41, 0.59))
        assert seen == ["a", "b"]


# ----------------------------------------------------------------------
# the retry budget
# ----------------------------------------------------------------------
class TestTimeoutPolicy:
    def test_defaults_enabled(self):
        """The budget retries, and tracked operations are armed."""
        assert protocol.OPERATION_RETRIES >= 1
        simulator = build_simulator(count=4, seed=2)
        key = ("join", 99)
        simulator.start_operation(key, lambda: False)
        assert simulator.pending_operations() == [key]
        simulator.finish_operation(key)
        assert simulator.engine.quiescent


# ----------------------------------------------------------------------
# operation outcomes under mid-conversation crashes
# ----------------------------------------------------------------------
class TestOperationOutcomes:
    def test_fault_free_join_and_leave_complete(self):
        simulator = build_simulator(count=12, seed=9)
        join = simulator.join((0.123, 0.456))
        assert join.outcome == "completed"
        leave = simulator.leave(join.object_id)
        assert leave.outcome == "completed"
        assert simulator.pending_operations() == []
        assert simulator.metrics.counter("operation_timeouts") == 0

    def test_join_times_out_when_every_starter_crashes_mid_walk(self):
        """Satellite fix: the starter-state holders die, the caller hears.

        The joiner's ADD_OBJECT is forced onto a real routing walk (the
        introducer is across the square from the target), and the instant
        its first hop is counted every node but the joiner crashes — the
        only copies of the pending join's starter state are gone, and no
        retry can ever carve the region.  The watchdog must exhaust its
        retries and surface ``timed_out`` — tearing the never-carved
        joiner back down — rather than leaking the operation.
        """
        config = VoroNetConfig(n_max=32, seed=2)
        simulator = ProtocolSimulator(config, seed=2,
                                      faults=FaultPlane(seed=3))
        far = simulator.join((0.1, 0.1))
        simulator.join((0.85, 0.85))
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(4))
        joiner_id = simulator._next_id

        def kill_all_survivors(_message):
            for object_id in sorted(simulator.nodes):
                if object_id != joiner_id:
                    injector.crash(object_id)

        simulator.network.at_message(
            simulator.network.messages_sent + 1, kill_all_survivors)
        report = simulator.join((0.8, 0.8), introducer=far.object_id)
        assert report.object_id == joiner_id
        assert report.outcome == "timed_out"
        assert report.object_id not in simulator.nodes
        assert simulator.pending_operations() == []
        assert simulator.metrics.counter("operation_timeouts") >= 1
        assert simulator.metrics.counter("operation_failures") >= 1

    def test_join_completes_by_self_carve_when_introducer_dies_after_carve(self):
        """A joiner whose region was already carved self-heals on retry.

        With a single introducer the ADD_OBJECT is a local hand-off, so
        the first *counted* message is the CREATE_OBJECT answer; crashing
        the introducer there loses the snapshot but not the carve — the
        retry rediscovers the joiner's own region through the locate grid
        and completes the bootstrap instead of timing out.
        """
        config = VoroNetConfig(n_max=32, seed=2)
        simulator = ProtocolSimulator(config, seed=2,
                                      faults=FaultPlane(seed=3))
        first = simulator.join((0.25, 0.25))
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(4))
        simulator.network.at_message(
            simulator.network.messages_sent + 1,
            lambda message: injector.crash(first.object_id))
        report = simulator.join((0.75, 0.75))
        assert report.outcome == "completed"
        assert report.object_id in simulator.nodes
        assert simulator.pending_operations() == []
        assert simulator.metrics.counter("operation_timeouts") >= 1
        assert simulator.verify_views() == []

    def test_join_retries_through_crashed_carrier_and_completes(self):
        """With survivors left, a crashed walk retries to completion."""
        simulator = build_simulator(count=20, seed=13)
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(14))
        victims = sorted(simulator.nodes)

        def crash_one(_message):
            live = sorted(simulator.nodes)
            if len(live) > 4:
                injector.crash(victims[0] if victims[0] in simulator.nodes
                               else live[0])

        simulator.network.at_message(
            simulator.network.messages_sent + 1, crash_one)
        report = simulator.join((0.515, 0.485))
        assert report.outcome in ("completed", "timed_out")
        assert simulator.pending_operations() == []
        if report.outcome == "completed":
            assert report.object_id in simulator.nodes

    def test_leave_reports_timed_out_when_leaver_crashes_mid_handover(self):
        simulator = build_simulator(count=15, seed=21)
        victim = sorted(simulator.nodes)[3]
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(22))
        simulator.network.at_message(
            simulator.network.messages_sent + 1,
            lambda message: injector.crash(victim))
        report = simulator.leave(victim)
        assert report.outcome == "timed_out"
        assert victim not in simulator.nodes
        # The survivors must be repairable back to clean views.
        HeartbeatDetector(simulator).run_rounds(3)
        repair = RepairProtocol(simulator).repair()
        assert repair.converged
        assert simulator.verify_views() == []

    def test_crash_guard_handles_victim_not_in_kernel(self):
        """Crashing a mid-join attachment (no kernel vertex) must not raise."""
        config = VoroNetConfig(n_max=32, seed=6)
        simulator = ProtocolSimulator(config, seed=6,
                                      faults=FaultPlane(seed=7))
        simulator.join((0.3, 0.3))
        second = simulator.join((0.7, 0.7))
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(8))
        # Attach a node by hand without carving it (the state a joiner is
        # in while its ADD_OBJECT still walks), then crash it.
        object_id = simulator._next_id
        simulator._next_id += 1
        simulator._attach_node(object_id, (0.9, 0.1))
        injector.crash(object_id)
        assert object_id not in simulator.nodes
        assert second.object_id in simulator.nodes


# ----------------------------------------------------------------------
# idempotency of duplicate retries
# ----------------------------------------------------------------------
class TestIdempotency:
    def test_duplicate_carve_only_resends_snapshot(self):
        simulator = build_simulator(count=12, seed=41)
        report = simulator.join((0.345, 0.678))
        node = simulator.nodes[report.object_id]
        version_before = simulator.kernel.version
        view_before = dict(node.voronoi)
        owner_id = sorted(oid for oid in simulator.nodes
                          if oid != report.object_id)[0]
        simulator.complete_insertion(owner=simulator.nodes[owner_id],
                                     new_id=report.object_id,
                                     position=node.position, routing_hops=0)
        simulator.engine.run()
        assert simulator.metrics.counter("duplicate_carves") == 1
        assert simulator.kernel.version == version_before
        assert dict(simulator.nodes[report.object_id].voronoi) == view_before

    def test_duplicate_create_object_does_not_restart_phases(self):
        simulator = build_simulator(count=12, seed=43)
        report = simulator.join((0.432, 0.567))
        node = simulator.nodes[report.object_id]
        links_before = len(node.long_links)
        sender = simulator.nodes[sorted(simulator.nodes)[0]]
        view = simulator.kernel_view(report.object_id)
        simulator.send(sender, report.object_id, "CREATE_OBJECT",
                       (view, simulator.kernel.version, False))
        simulator.engine.run()
        assert len(simulator.nodes[report.object_id].long_links) == links_before
        assert simulator.pending_operations() == []
        assert simulator.verify_views() == []
