"""Cross-validation of the two execution modes.

The oracle-mode overlay (:class:`repro.core.overlay.VoroNet`) and the
message-level protocol simulator
(:class:`repro.simulation.protocol.ProtocolSimulator`) implement the same
protocol at two abstraction levels.  Feeding both the same object positions
must produce the same neighbour *structure* (the Voronoi adjacency and
close-neighbour sets are deterministic functions of the positions), and
both must route to the same owners.
"""

import pytest

from repro.core import VoroNet, VoroNetConfig
from repro.geometry.point import distance_sq
from repro.simulation.protocol import ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects


@pytest.fixture(scope="module")
def join_reports():
    """The protocol-mode ``JoinReport`` of every join ``both_modes`` ran."""
    return []


@pytest.fixture(scope="module")
def both_modes(join_reports):
    config = VoroNetConfig(n_max=300, seed=77)
    positions = generate_objects(UniformDistribution(), 120, RandomSource(77))
    oracle = VoroNet(config)
    oracle_ids = [oracle.insert(p) for p in positions]
    protocol = ProtocolSimulator(config, seed=77)
    join_reports.extend(protocol.join(p) for p in positions)
    protocol_ids = [report.object_id for report in join_reports]
    return oracle, oracle_ids, protocol, protocol_ids, positions


class TestStructuralEquivalence:
    def test_same_membership(self, both_modes):
        oracle, oracle_ids, protocol, protocol_ids, _ = both_modes
        assert len(oracle) == len(protocol)

    def test_same_voronoi_adjacency(self, both_modes):
        oracle, oracle_ids, protocol, protocol_ids, positions = both_modes
        # Both assign ids in insertion order, so index i maps to the same object.
        oracle_index = {oid: i for i, oid in enumerate(oracle_ids)}
        protocol_index = {oid: i for i, oid in enumerate(protocol_ids)}
        for i in range(len(positions)):
            oracle_nb = {oracle_index[n]
                         for n in oracle.voronoi_neighbors(oracle_ids[i])}
            protocol_nb = {protocol_index[n]
                           for n in protocol.kernel.neighbors(protocol_ids[i])}
            assert oracle_nb == protocol_nb

    def test_same_close_neighbor_sets(self, both_modes):
        oracle, oracle_ids, protocol, protocol_ids, positions = both_modes
        oracle_index = {oid: i for i, oid in enumerate(oracle_ids)}
        protocol_index = {oid: i for i, oid in enumerate(protocol_ids)}
        for i in range(len(positions)):
            oracle_close = {oracle_index[n]
                            for n in oracle.node(oracle_ids[i]).close_neighbors}
            protocol_close = {protocol_index[n]
                              for n in protocol.node(protocol_ids[i]).close}
            assert oracle_close == protocol_close

    def test_both_modes_internally_consistent(self, both_modes):
        oracle, _, protocol, _, _ = both_modes
        assert oracle.check_consistency() == []
        assert protocol.verify_views() == []


class TestBehaviouralEquivalence:
    def test_same_lookup_owner(self, both_modes):
        oracle, oracle_ids, protocol, protocol_ids, _ = both_modes
        oracle_index = {oid: i for i, oid in enumerate(oracle_ids)}
        protocol_index = {oid: i for i, oid in enumerate(protocol_ids)}
        rng = RandomSource(5)
        for _ in range(20):
            point = rng.random_point()
            oracle_owner = oracle_index[oracle.owner_of(point)]
            protocol_owner = protocol_index[protocol.query(point).owner]
            assert oracle_owner == protocol_owner

    def test_comparable_maintenance_costs(self, both_modes, join_reports):
        """Join message costs of the two executions are the same order of
        magnitude (both are routing + O(1))."""
        oracle, _, _, _, _ = both_modes
        oracle_mean = oracle.stats.joins.mean_messages
        protocol_mean = (sum(report.messages for report in join_reports)
                         / len(join_reports))
        assert protocol_mean < 6 * max(oracle_mean, 1.0)
        assert oracle_mean < 6 * max(protocol_mean, 1.0)

    def test_leaves_keep_modes_consistent(self, both_modes):
        oracle, oracle_ids, protocol, protocol_ids, positions = both_modes
        # Remove the same five objects (by insertion index) in both modes.
        for index in (3, 17, 44, 80, 101):
            oracle.remove(oracle_ids[index])
            protocol.leave(protocol_ids[index])
        assert oracle.check_consistency() == []
        assert protocol.verify_views() == []
        assert len(oracle) == len(protocol)


@pytest.fixture(scope="module")
def both_bulk_modes():
    """The same batch through ``VoroNet.bulk_load`` and the message-level
    ``ProtocolSimulator.bulk_join``, with identical seeds.

    Neither mode consumes its RNG before the vectorised Choose-LRT draw,
    so the two executions see byte-identical long-link targets — the
    parity checks below can pin long links exactly, not just their counts.
    """
    config = VoroNetConfig(n_max=1000, num_long_links=2, seed=424)
    positions = generate_objects(UniformDistribution(), 350, RandomSource(424))
    oracle = VoroNet(config)
    oracle_ids = oracle.bulk_load(positions)
    protocol = ProtocolSimulator(config, seed=424)
    report = protocol.bulk_join(positions)
    return oracle, oracle_ids, protocol, report, positions


class TestBulkJoinParity:
    def test_ids_assigned_in_input_order(self, both_bulk_modes):
        oracle, oracle_ids, protocol, report, positions = both_bulk_modes
        assert report.object_ids == oracle_ids
        assert len(protocol) == len(positions)

    def test_same_voronoi_views(self, both_bulk_modes):
        oracle, oracle_ids, protocol, report, _ = both_bulk_modes
        for oracle_id, protocol_id in zip(oracle_ids, report.object_ids):
            assert set(oracle.voronoi_neighbors(oracle_id)) == \
                set(protocol.node(protocol_id).voronoi)

    def test_same_close_neighbor_sets(self, both_bulk_modes):
        oracle, oracle_ids, protocol, report, _ = both_bulk_modes
        for oracle_id, protocol_id in zip(oracle_ids, report.object_ids):
            assert set(oracle.node(oracle_id).close_neighbors) == \
                set(protocol.node(protocol_id).close)

    def test_same_long_links(self, both_bulk_modes):
        """Out-degrees match the configuration and, with identical seeds,
        the whole link records match the oracle draw exactly: targets,
        endpoints and the endpoints' positions."""
        oracle, oracle_ids, protocol, report, _ = both_bulk_modes
        k = oracle.config.num_long_links
        for oracle_id, protocol_id in zip(oracle_ids, report.object_ids):
            oracle_links = oracle.node(oracle_id).long_links
            protocol_links = protocol.node(protocol_id).long_links
            assert len(protocol_links) == k
            assert oracle_links == protocol_links

    def test_both_bulk_modes_internally_consistent(self, both_bulk_modes):
        oracle, _, protocol, _, _ = both_bulk_modes
        assert oracle.check_consistency() == []
        assert protocol.verify_views() == []

    def test_same_query_owner(self, both_bulk_modes):
        oracle, _, protocol, _, _ = both_bulk_modes
        rng = RandomSource(11)
        for _ in range(20):
            point = rng.random_point()
            assert oracle.owner_of(point) == protocol.query(point).owner

    def test_equal_float_minima_go_to_the_lowest_id_on_both_planes(self):
        """Objects 0 and 1 are exactly as far from the target as each other,
        and both clearly nearer than objects 2 and 4, whose views list 1
        first.  The descent rule hops to the lowest of equal minima: the
        oracle's tables are in id order, and a node's routing block must be
        too, or its query answers 1 where the oracle answers 0."""
        positions = [(0.5, 0.6), (0.6, 0.5), (0.703, 0.944), (0.127, 0.865), (0.653, 0.274)]
        target = (0.5, 0.5)
        config = VoroNetConfig(n_max=64, num_long_links=0, seed=1202)
        oracle = VoroNet(config)
        assert oracle.bulk_load(positions) == [0, 1, 2, 3, 4]
        protocol = ProtocolSimulator(config)
        protocol.bulk_join(positions)
        assert distance_sq(positions[0], target) == distance_sq(positions[1], target)
        for holder in (2, 4):
            ahead = list(protocol.node(holder).routing_candidates())
            assert ahead.index(1) < ahead.index(0)
        answers = [(result.owner, result.hops)
                   for result in (oracle.route(source, target) for source in range(5))]
        assert answers == [(0, 0), (1, 0), (0, 1), (0, 1), (0, 1)]
        assert [(report.owner, report.routing_hops)
                for report in (protocol.query(target, start=source) for source in range(5))] \
            == answers

    def test_bulk_into_populated_overlay_stays_consistent(self):
        """bulk_join after sequential joins settles pre-existing back
        registrations (the hand-over phase) and keeps every view clean."""
        config = VoroNetConfig(n_max=1000, num_long_links=2, seed=99)
        positions = generate_objects(UniformDistribution(), 220, RandomSource(99))
        protocol = ProtocolSimulator(config, seed=99)
        for position in positions[:70]:
            protocol.join(position)
        report = protocol.bulk_join(positions[70:])
        assert len(protocol) == len(positions)
        assert "handover" in report.phase_messages
        assert protocol.verify_views() == []
        # The structure is position-determined: the kernel adjacency must
        # match an oracle fed the same positions (long links excepted —
        # the RNG consumption order differs across modes here).
        oracle = VoroNet(config)
        oracle_ids = [oracle.insert(p) for p in positions[:70]]
        oracle_ids += oracle.bulk_load(positions[70:])
        # Both modes number objects identically (sequential then batch).
        assert sorted(protocol.object_ids()) == oracle_ids
        for object_id in oracle_ids:
            assert set(oracle.voronoi_neighbors(object_id)) == \
                set(protocol.node(object_id).voronoi)
            assert set(oracle.node(object_id).close_neighbors) == \
                set(protocol.node(object_id).close)



class TestCheckerParity:
    """``check_consistency()`` and ``verify_views()`` see the same pairwise
    violations: the twins of ``both_bulk_modes`` hold identical ids, close
    sets and long links, so one seeded defect is planted in both and each
    plane's checker must name it, in the same family."""

    @staticmethod
    def seed_defect(case, oracle, protocol):
        """Plant ``case`` in both planes; returns ``(problem, undo)``."""
        source = next(object_id for object_id in oracle.object_ids()
                      if oracle.node(object_id).long_link_neighbors()[0] != object_id)
        target, neighbor, _position = oracle.node(source).long_links[0]

        def host(holder, hosted):
            """Whether ``holder`` hosts the registration of ``source``'s link 0."""
            # A protocol node's view may be the shared read-only empty
            # mapping, so the defect is planted in a copy of it.
            back_links = dict(protocol.node(holder).back_links)
            if hosted:
                oracle.node(holder).add_back_link(source, 0, target)
                back_links[(source, 0)] = target
            else:
                oracle.node(holder).remove_back_link(source, 0)
                del back_links[(source, 0)]
            protocol.node(holder).back_links = back_links

        if case == "missing registration":
            host(neighbor, False)
            return (f"{source}: long link 0 missing back registration at "
                    f"{neighbor}", lambda: host(neighbor, True))
        if case == "orphan registration":
            holder = next(object_id for object_id in oracle.object_ids()
                          if object_id not in (source, neighbor))
            host(holder, True)
            return (f"{holder}: back link from {source}#0 does not match the "
                    f"source's long link", lambda: host(holder, False))
        holder = next(object_id for object_id in oracle.object_ids()
                      if oracle.node(object_id).close_neighbors)
        peer = min(oracle.node(holder).close_neighbors)
        oracle.node(holder).discard_close_neighbor(peer)
        close = dict(protocol.node(holder).close)
        position = close.pop(peer)
        protocol.node(holder).close = close

        def undo():
            oracle.node(holder).add_close_neighbor(peer)
            protocol.node(holder).close = {**protocol.node(holder).close, peer: position}
        return f"close-neighbour relation {peer} → {holder} not symmetric", undo

    @pytest.mark.parametrize("case", ["missing registration",
                                      "orphan registration",
                                      "one-sided close pair"])
    def test_a_seeded_defect_is_named_by_both_checkers(self, both_bulk_modes, case):
        oracle, _, protocol, _, _ = both_bulk_modes
        problem, undo = self.seed_defect(case, oracle, protocol)
        try:
            assert oracle.check_consistency() == [problem]
            assert protocol.verify_views() == [problem]
        finally:
            undo()
        assert oracle.check_consistency() == []
        assert protocol.verify_views() == []
