"""Tests of the partition-merge subsystem.

Covers the k-way ``SplitSpec`` (side tracking, explicit and clock-expired
heals, the pinned in-flight semantics of both ``deliver`` and ``cut``
windows), the partition damage census, the split-brain runtime (per-side
service, published-id collisions, the deterministic union rebuild), the
heal settled by the standing repair protocol (with and without per-side
stabilisation, under loss), the full harness scenario matrix (2-way,
asymmetric, k-way, flapping), and a Hypothesis property pinning post-heal
views byte-identical to a never-split oracle overlay built from the
union population.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.delaunay import DelaunayTriangulation
from repro.geometry.point import distance
from repro.simulation.engine import LATENCY, SimulationEngine
from repro.simulation.failures import assess_partition_damage
from repro.simulation.faults import (FaultPlane, HeartbeatDetector,
                                     RepairProtocol)
from repro.simulation.merge import PartitionRuntime
from repro.simulation.scenario import run_merge_scenario
from repro.simulation.network import Network
from repro.simulation.protocol import ProtocolSimulator
from repro.core.config import VoroNetConfig
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects


def build_simulator(count=40, seed=7, num_long_links=1, capacity_slack=16):
    config = VoroNetConfig(n_max=4 * (count + capacity_slack),
                           num_long_links=num_long_links, seed=seed)
    simulator = ProtocolSimulator(config, seed=seed,
                                  faults=FaultPlane(seed=seed + 1))
    positions = generate_objects(UniformDistribution(), count,
                                 RandomSource(seed + 3))
    simulator.bulk_join(positions)
    return simulator


def split_halves(simulator):
    return split_ways(simulator, 2)


def split_ways(simulator, ways):
    live = sorted(simulator.nodes)
    return [live[side * len(live) // ways:(side + 1) * len(live) // ways]
            for side in range(ways)]


def stabilize_sides(simulator, runtime):
    """Detect the cut and repair each side against its own fork.

    Split-era joins need this first: an introducer whose view still
    references the far side would wedge the carve on dropped messages
    (the harness always stabilises before inserting; these unit tests
    mirror it).
    """
    detector = HeartbeatDetector(simulator)
    for _ in range(8):
        detector.run_round()
    for index in range(runtime.num_sides):
        with runtime.side(index):
            RepairProtocol(simulator, detector=detector,
                           scope=runtime.side_members(index)).repair()


# ----------------------------------------------------------------------
# SplitSpec
# ----------------------------------------------------------------------
class TestSplitSpec:
    def test_validation(self):
        plane = FaultPlane(seed=1)
        with pytest.raises(ValueError):
            plane.split([[1, 2]], start=0.0)               # one side only
        with pytest.raises(ValueError):
            plane.split([[1], [1, 2]], start=0.0)          # id on two sides
        with pytest.raises(ValueError):
            plane.split([[1], [2]], start=5.0, end=1.0)    # ends before start

    def test_side_tracking_and_assignment(self):
        plane = FaultPlane(seed=2)
        spec = plane.split([[1, 2], [3, 4]], start=0.0)
        assert spec.side_of(1) == 0 and spec.side_of(4) == 1
        assert spec.side_of(99) is None
        assert spec.separates(1, 3) and not spec.separates(1, 2)
        # Unassigned ids are never cut — a joiner not yet claimed by a
        # side must not be silently isolated.
        assert not spec.separates(1, 99)
        spec.assign(99, 1)
        assert spec.side_of(99) == 1 and spec.separates(1, 99)

    def test_cross_side_messages_dropped_as_partition(self):
        plane = FaultPlane(seed=3)
        plane.split([[1, 2], [3, 4]], start=0.0, end=10.0)
        crossing = (1, 3)
        internal = (3, 4)
        assert not plane.decide(*crossing, 5.0).deliver
        assert plane.decide(*internal, 5.0).deliver
        assert plane.decide(*crossing, 10.0).deliver        # half-open end
        assert plane.drops_by_reason["partition"] == 1

    def test_explicit_heal_closes_every_window(self):
        plane = FaultPlane(seed=4)
        spec = plane.split([[1], [2]], start=0.0)
        assert plane.heal_partitions() == 1
        assert not spec.active(1.0)
        # Nothing left: a second heal is a no-op.
        assert plane.heal_partitions() == 0

    def test_clock_expired_window_is_passive(self):
        """A window that lapses on the clock is pruned, not healed."""
        plane = FaultPlane(seed=5)
        plane.split([[1], [2]], start=0.0, end=10.0)
        crossing = (1, 2)
        assert plane.decide(*crossing, 20.0).deliver        # expired; pruned
        assert plane.heal_partitions() == 0


# ----------------------------------------------------------------------
# in-flight semantics (the audited pre-split-send edge case)
# ----------------------------------------------------------------------
class TestSplitInFlightSemantics:
    """Messages sent before a window opens but delivered inside it.

    The fault decision is made at send time only: a packet on the wire
    when the cut lands still arrives.
    """

    def test_default_deliver_keeps_send_time_rule(self):
        engine = SimulationEngine()
        plane = FaultPlane(seed=6)
        network = Network(engine, faults=plane)
        delivered = []
        network.register(1, delivered.append)
        network.register(2, delivered.append)
        plane.split([[1], [2]], start=0.5 * LATENCY, end=20.0)
        # Sent at t=0 (before the window), delivered at t=LATENCY (inside it).
        network.send(1, 2, "X")
        engine.run()
        assert len(delivered) == 1
        assert network.messages_lost == 0


# ----------------------------------------------------------------------
# partition damage census
# ----------------------------------------------------------------------
class TestPartitionDamage:
    def test_census_counts_only_cross_side_references(self):
        simulator = build_simulator(count=40, seed=21)
        plane = simulator.faults
        sides = split_halves(simulator)
        spec = plane.split(sides, start=simulator.engine.now)
        report = assess_partition_damage(simulator.nodes, spec.sides)
        assert report.sides == 2
        assert report.total_cross_references > 0
        assert report.cross_voronoi_entries > 0
        assert report.boundary_objects > 0
        # Recount boundary objects directly from the views: every counted
        # object genuinely holds a cross-side reference.
        boundary = 0
        for object_id in sorted(simulator.nodes):
            node = simulator.nodes[object_id]
            own = spec.side_of(object_id)
            refs = (set(node.voronoi) - {object_id}) | set(node.close)
            refs |= {neighbor for _target, neighbor, _position in node.long_links}
            refs |= {source for source, _index in node.back_links}
            if any(spec.side_of(peer) not in (None, own) for peer in refs):
                boundary += 1
        assert boundary == report.boundary_objects

    def test_unassigned_ids_never_counted(self):
        simulator = build_simulator(count=20, seed=22)
        report = assess_partition_damage(simulator.nodes, [])
        assert report.total_cross_references == 0
        assert report.boundary_objects == 0


# ----------------------------------------------------------------------
# PartitionRuntime
# ----------------------------------------------------------------------
class TestPartitionRuntime:
    def test_open_split_requires_full_partition_of_population(self):
        simulator = build_simulator(count=20, seed=23)
        runtime = PartitionRuntime(simulator)
        live = sorted(simulator.nodes)
        with pytest.raises(ValueError):
            runtime.open_split([live[:5], live[6:]])       # one id missing
        runtime.open_split([live[:10], live[10:]])
        with pytest.raises(RuntimeError):
            runtime.open_split([live[:10], live[10:]])     # already open

    def test_attached_fault_plane_is_seeded_from_the_config(self):
        simulator = ProtocolSimulator(VoroNetConfig(n_max=64, seed=19))
        runtime = PartitionRuntime(simulator)
        assert runtime.faults is simulator.faults
        assert runtime.faults.seed == 19

    def test_fork_rebuilds_reach_the_kernel_rebuilds_metric(self):
        simulator = build_simulator(count=30, seed=23)
        runtime = PartitionRuntime(simulator)
        shared = simulator.kernel
        runtime.open_split(split_halves(simulator))
        # Each fork drops the other half, hull vertices included; the
        # shared kernel is untouched, so only the metric sees the cost.
        forks = [state.kernel for state in runtime._sides]
        assert sum(fork.rebuild_count for fork in forks) > 0
        assert shared.rebuild_count == 0
        assert (simulator.metrics.counter("kernel_rebuilds")
                == sum(fork.rebuild_count for fork in forks))

    def test_both_side_inserts_mint_colliding_published_ids(self):
        simulator = build_simulator(count=30, seed=24)
        runtime = PartitionRuntime(simulator)
        runtime.open_split(split_halves(simulator))
        stabilize_sides(simulator, runtime)
        rng = RandomSource(99)
        a = runtime.side_join(0, rng.random_point())
        b = runtime.side_join(1, rng.random_point())
        assert a.outcome == "completed" and b.outcome == "completed"
        # Distinct objects, same side-local published identity.
        assert a.object_id != b.object_id
        assert (simulator.nodes[a.object_id].published_id
                == simulator.nodes[b.object_id].published_id)

    def test_heal_resolves_collisions_lowest_id_wins(self):
        simulator = build_simulator(count=30, seed=25)
        runtime = PartitionRuntime(simulator)
        runtime.open_split(split_halves(simulator))
        stabilize_sides(simulator, runtime)
        rng = RandomSource(100)
        reports = [runtime.side_join(side, rng.random_point())
                   for side in (0, 1) for _ in range(2)]
        ids = [r.object_id for r in reports if r.outcome == "completed"]
        summary = runtime.heal()
        assert summary.id_collisions_resolved >= 1
        published = [simulator.nodes[i].published_id
                     for i in ids if i in simulator.nodes]
        assert len(published) == len(set(published))       # all unique now
        # The winner of each collision is the lowest object id: it kept
        # the original side-local identity (below the healed allocator's
        # fresh range); losers re-published above it.
        winner = min(ids)
        assert simulator.nodes[winner].published_id < min(
            p for i, p in zip(ids, published) if i != winner)

    def test_heal_unions_kernel_and_dominates_side_versions(self):
        simulator = build_simulator(count=30, seed=26)
        runtime = PartitionRuntime(simulator)
        runtime.open_split(split_halves(simulator))
        stabilize_sides(simulator, runtime)
        rng = RandomSource(101)
        runtime.side_join(0, rng.random_point())
        runtime.side_join(1, rng.random_point())
        summary = runtime.heal()
        assert summary.union_inserts >= 2
        assert sorted(simulator.kernel.vertex_ids()) == sorted(simulator.nodes)
        assert summary.union_version > max(summary.side_versions)

    def test_side_queries_serve_from_forked_tessellation(self):
        simulator = build_simulator(count=30, seed=27)
        runtime = PartitionRuntime(simulator)
        sides = split_halves(simulator)
        runtime.open_split(sides)
        # A target owned (globally) by side 1 still gets *an* answer from
        # side 0's fork after per-side stabilisation is not required for
        # this to terminate: the walk either answers or dies at the cut.
        owner = runtime.side_query(0, (0.5, 0.5))
        assert owner is None or owner in simulator.nodes


# ----------------------------------------------------------------------
# harness scenario matrix
# ----------------------------------------------------------------------
def run_harness(**kwargs):
    defaults = dict(num_objects=40, seed=31, queries_per_side=4,
                    degraded_queries_per_side=2)
    defaults.update(kwargs)
    return run_merge_scenario(**defaults)


class TestMergeHarness:
    def test_two_way_split_heals_to_oracle_parity(self):
        report = run_harness(seed=31)
        assert report.converged
        assert report.final_verify_problems == 0
        assert report.oracle_view_parity
        assert report.routing_parity_mismatches == 0
        merge = report.cycle_reports[0]
        assert merge.id_collisions_resolved >= 1
        assert merge.time_to_converge > 0

    def test_availability_split_degrades_then_recovers(self):
        report = run_harness(seed=32, queries_per_side=8,
                             degraded_queries_per_side=8)
        availability = report.availability
        # Stable phase: every side serves from its own consistent fork.
        assert availability["stable_success_rate"] == 1.0
        # Degraded phase: some walks died crossing the cut.
        assert availability["degraded_success_rate"] < 1.0
        assert availability["time_to_converge_max"] > 0
        assert set(availability["sides"]) == {"0", "1"}

    def test_asymmetric_sides(self):
        report = run_harness(seed=33, num_objects=60,
                             side_fractions=(0.8, 0.2))
        assert report.converged and report.oracle_view_parity
        assert all(d.sides == 2 for d in report.damage_reports)

    def test_three_way_split(self):
        report = run_harness(seed=34, num_objects=60, num_sides=3)
        assert report.converged and report.oracle_view_parity
        assert report.routing_parity_mismatches == 0

    def test_flapping_partitions_stay_convergent(self):
        report = run_harness(seed=35, num_objects=50, cycles=3)
        assert report.converged
        assert len(report.cycle_reports) == 3
        assert all(c.converged for c in report.cycle_reports)
        assert report.oracle_view_parity

    def test_reproducible_from_seed(self):
        a = run_harness(seed=36)
        b = run_harness(seed=36)
        assert a.messages == b.messages
        assert a.availability == b.availability
        assert [c.rounds for c in a.cycle_reports] == \
               [c.rounds for c in b.cycle_reports]

    def test_validation(self):
        with pytest.raises(ValueError):
            run_merge_scenario(num_sides=1)
        with pytest.raises(ValueError):
            run_merge_scenario(num_sides=2, side_fractions=(1.0,))
        with pytest.raises(ValueError):
            run_merge_scenario(num_objects=10, num_sides=2)


def assert_never_split_parity(simulator):
    """Clean views, each equal to what a never-split overlay holds: the
    star in a tessellation built from the union, and every live peer
    inside the ``d_min`` disc as a close neighbour."""
    assert simulator.verify_views() == []
    nodes = simulator.nodes
    oracle = DelaunayTriangulation()
    for object_id in sorted(nodes):
        oracle.insert(nodes[object_id].position, vertex_id=object_id)
    d_min = simulator.config.effective_d_min
    for object_id, node in nodes.items():
        assert set(node.voronoi) == set(oracle.neighbors(object_id))
        assert set(node.close) == {
            peer for peer in nodes if peer != object_id
            and distance(nodes[peer].position, node.position) <= d_min}


class TestHealThenRepair:
    """A heal is the union rebuild plus one standing ``repair()``."""

    def test_unstabilised_heal_converges_in_one_repair(self):
        simulator = build_simulator(count=30, seed=42)
        runtime = PartitionRuntime(simulator)
        runtime.open_split(split_halves(simulator))
        runtime.heal()
        assert RepairProtocol(simulator).repair().converged
        assert_never_split_parity(simulator)

    @pytest.mark.parametrize("ways", [2, 3])
    @pytest.mark.parametrize("seed", [51, 52, 53])
    def test_lossy_heal_converges_to_never_split_parity(self, seed, ways):
        simulator = build_simulator(count=45, seed=seed)
        runtime = PartitionRuntime(simulator)
        runtime.open_split(split_ways(simulator, ways))
        stabilize_sides(simulator, runtime)
        rng = RandomSource(seed + 100)
        for side in range(ways):
            runtime.side_join(side, rng.random_point())
        runtime.heal()
        lost = simulator.network.messages_lost
        simulator.faults.set_loss(0.05)
        repair = RepairProtocol(simulator).repair()
        simulator.faults.set_loss(0.0)
        assert repair.converged
        assert simulator.network.messages_lost > lost
        assert_never_split_parity(simulator)


# ----------------------------------------------------------------------
# Hypothesis: merge convergence equals the never-split oracle
# ----------------------------------------------------------------------
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**16),
       num_sides=st.sampled_from([2, 3]),
       heavy=st.floats(0.3, 0.7),
       inserts=st.integers(1, 3))
def test_merge_matches_never_split_oracle(seed, num_sides, heavy, inserts):
    """Random splits + random both-side inserts heal to the union oracle.

    The oracle is a fresh tessellation built directly from the union of
    survivors and split-era joiners; the merged overlay's per-node views
    must equal the oracle neighbourhoods exactly.
    """
    fractions = None
    if num_sides == 2:
        fractions = (heavy, 1.0 - heavy)
    report = run_harness(seed=seed, num_objects=45, num_sides=num_sides,
                         side_fractions=fractions,
                         inserts_per_side=inserts,
                         queries_per_side=2, degraded_queries_per_side=1)
    assert report.converged
    assert report.oracle_view_parity
    assert report.routing_parity_mismatches == 0
