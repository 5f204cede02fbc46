"""Every door an object can leave the overlay through.

**Hull departures** (the first two tests): a convex-hull object departs by
graceful leave or by crash, in oracle and in protocol mode.  Each ends in
``DelaunayTriangulation.remove`` of a vertex whose star touches the
infinite vertex, which rebuilds the whole tessellation from the remaining
points — in Morton order, so every surviving vertex's ``star_ring`` comes
back rotated.  Each door must pay exactly one rebuild (``rebuild_count``,
surfaced as ``OverlayStats.kernel_rebuilds`` / the ``kernel_rebuilds``
metric), leave the overlay consistent, and leave routing — warmed before
the departure, so served from whatever the caches kept — equal to the
uncached reference routers hop for hop: cached tables must not depend on
the order a kernel lists neighbours in.

**The remaining protocol-mode doors** (the last test): a join that fails
before its carve, a duplicate-coordinate join, a ``bulk_join`` member
crashed mid-batch and the loser of a merge-heal coordinate conflict all
end in the simulator's one node teardown.  After each, the membership
check inside ``verify_views()`` — ``nodes`` ≡ kernel ≡ locate grid ≡
handler table, no operation owned by a non-member — must be empty and no
operation may be left pending.
"""

import numpy as np
import pytest

from repro.core import VoroNet, VoroNetConfig
from repro.simulation.failures import CrashInjector
from repro.simulation.faults import (
    FaultPlane,
    HeartbeatConfig,
    HeartbeatDetector,
    ProtocolCrashInjector,
    RepairProtocol,
)
from repro.simulation.merge import PartitionRuntime
from repro.simulation import protocol
from repro.simulation.protocol import ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects

from reference_router import assert_routes_match_reference, reference_query_walk

OBJECTS = 400
SEED = 1407
ROUTES = 50


def positions():
    return generate_objects(UniformDistribution(), OBJECTS, RandomSource(SEED))


def hull_victim(kernel):
    return next(v for v in kernel.vertex_ids() if kernel.is_hull_vertex(v))


def oracle_pairs(overlay, rng):
    ids = overlay.object_ids()
    return [tuple(int(v) for v in rng.choice(ids, size=2, replace=False))
            for _ in range(ROUTES)]


def oracle_remove(overlay, victim):
    overlay.remove(victim)


def oracle_crash(overlay, victim):
    injector = CrashInjector(overlay, rng=RandomSource(1))
    injector.crash(victim)
    injector.repair()
    assert injector.assess_damage().total_stale_entries == 0


@pytest.mark.parametrize("depart", [oracle_remove, oracle_crash])
def test_oracle_hull_departure(depart):
    overlay = VoroNet(VoroNetConfig(n_max=4 * OBJECTS, seed=SEED))
    overlay.bulk_load(np.asarray(positions()))
    rng = np.random.default_rng(SEED)
    overlay.route_many(oracle_pairs(overlay, rng))  # warm the routing tables
    victim = hull_victim(overlay.triangulation)

    depart(overlay, victim)

    assert victim not in overlay.object_ids()
    assert overlay.triangulation.rebuild_count == 1
    assert overlay.stats.kernel_rebuilds == 1
    assert overlay.check_consistency() == []
    for result in overlay.route_many(oracle_pairs(overlay, rng)):
        assert result.success
        assert_routes_match_reference(overlay, result)


def protocol_leave(simulator, victim):
    assert simulator.leave(victim).outcome == "completed"


def heal_crashes(simulator):
    detector = HeartbeatDetector(simulator,
                                 config=HeartbeatConfig(miss_threshold=2))
    detector.run_rounds(2)
    assert RepairProtocol(simulator, detector=detector).repair().converged


def protocol_crash(simulator, victim):
    ProtocolCrashInjector(simulator, rng=RandomSource(1)).crash(victim)
    heal_crashes(simulator)


def protocol_queries(simulator, rng):
    """``ROUTES`` queries, each checked against a walk of the reference rule."""
    for point in rng.random((ROUTES, 2)):
        point = tuple(point)
        start = int(rng.choice(simulator.object_ids()))
        expected = reference_query_walk(simulator, start, point)
        answer = simulator.query(point, start=start)
        assert (answer.owner, answer.routing_hops) == expected


@pytest.mark.parametrize("depart", [protocol_leave, protocol_crash])
def test_protocol_hull_departure(depart):
    simulator = ProtocolSimulator(
        VoroNetConfig(n_max=4 * OBJECTS, num_long_links=1, seed=SEED),
        seed=SEED, faults=FaultPlane(seed=SEED + 1))
    simulator.bulk_join(positions())
    rng = np.random.default_rng(SEED)
    protocol_queries(simulator, rng)  # warm the per-node routing blocks
    victim = hull_victim(simulator.kernel)

    depart(simulator, victim)

    assert victim not in simulator.nodes
    assert simulator.kernel.rebuild_count == 1
    assert simulator.metrics.counter("kernel_rebuilds") == 1
    assert simulator.verify_views() == []
    protocol_queries(simulator, rng)


def failed_join(simulator):
    """The ADD_OBJECT walk is lost and the retry budget is zero: the
    never-carved joiner is torn back down."""
    simulator.faults.set_loss(1.0)
    far = min(simulator.nodes,
              key=lambda oid: sum(simulator.nodes[oid].position))
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(protocol, "OPERATION_RETRIES", 0)
        report = simulator.join((0.97, 0.97), introducer=far)
    simulator.faults.set_loss(0.0)
    assert report.outcome == "timed_out"
    return report.object_id


def duplicate_coordinate_join(simulator):
    taken = simulator.nodes[min(simulator.nodes)].position
    report = simulator.join(taken)
    assert report.outcome == "rejected"
    return report.object_id


def bulk_member_crashed_mid_batch(simulator):
    injector = ProtocolCrashInjector(simulator, rng=RandomSource(1))
    batch = generate_objects(UniformDistribution(), 24, RandomSource(SEED + 9))
    victim = simulator._next_id + 5
    simulator.network.at_message(simulator.network.messages_sent + 1,
                                 lambda _message: injector.crash(victim))
    report = simulator.bulk_join(batch)
    assert report.timed_out == (victim,)
    heal_crashes(simulator)
    return victim


def merge_heal_coordinate_conflict(simulator):
    runtime = PartitionRuntime(simulator)
    live = sorted(simulator.nodes)
    runtime.open_split([live[: len(live) // 2], live[len(live) // 2:]])
    detector = HeartbeatDetector(simulator)
    detector.run_rounds(8)
    for index in range(runtime.num_sides):
        with runtime.side(index):
            RepairProtocol(simulator, detector=detector,
                           scope=runtime.side_members(index)).repair()
    winner, loser = (runtime.side_join(side, (0.4321, 0.5678)).object_id
                     for side in (0, 1))
    summary = runtime.heal()
    assert summary.coordinate_conflicts == 1
    assert winner in simulator.nodes
    assert RepairProtocol(simulator, detector=detector).repair().converged
    return loser


@pytest.mark.parametrize("door", [
    failed_join, duplicate_coordinate_join, bulk_member_crashed_mid_batch,
    merge_heal_coordinate_conflict])
def test_protocol_membership_door(door):
    simulator = ProtocolSimulator(
        VoroNetConfig(n_max=4 * OBJECTS, num_long_links=1, seed=SEED),
        seed=SEED, faults=FaultPlane(seed=SEED + 1))
    simulator.bulk_join(positions()[:60])

    departed = door(simulator)

    assert departed not in simulator.nodes
    assert simulator.pending_operations() == []
    assert simulator.verify_views() == []
