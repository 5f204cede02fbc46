"""Unit and integration tests for the message-level VoroNet protocol."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VoroNetConfig
from repro.geometry.point import distance
from repro.simulation import protocol
from repro.simulation.faults import FaultPlane
from repro.simulation.protocol import ProtocolSimulator
from repro.utils.rng import RandomSource


@pytest.fixture
def simulator(numpy_rng):
    sim = ProtocolSimulator(VoroNetConfig(n_max=300, seed=5), seed=5)
    for p in numpy_rng.random((80, 2)):
        sim.join(tuple(p))
    return sim


class TestMessageDispatch:
    def test_unknown_message_kind_raises(self, simulator):
        node = simulator.node(simulator.object_ids()[0])
        with pytest.raises(ValueError, match="unknown message kind"):
            node.handle((1, node.object_id, "NO_SUCH_KIND", ()))

    def test_dispatch_table_resolves_kinds_once(self, simulator):
        from repro.simulation.protocol import ProtocolNode

        # The fixture's joins exercised the protocol: the per-kind cache
        # holds resolved handlers shared across nodes.
        assert "ADD_OBJECT" in ProtocolNode._DISPATCH
        assert ProtocolNode._DISPATCH["ADD_OBJECT"] is ProtocolNode._on_add_object


class TestJoins:
    def test_first_join_costs_no_messages(self):
        sim = ProtocolSimulator(VoroNetConfig(n_max=16, seed=1), seed=1)
        report = sim.join((0.5, 0.5))
        assert report.messages == 0
        assert report.routing_hops == 0

    def test_joins_grow_membership(self, simulator):
        assert len(simulator) == 80

    def test_local_views_match_kernel(self, simulator):
        assert simulator.verify_views() == []

    def test_join_message_cost_is_local(self, simulator, numpy_rng):
        """Joins cost routing + O(1) maintenance messages, far below overlay size."""
        reports = [simulator.join(tuple(p)) for p in numpy_rng.random((20, 2))]
        mean_messages = np.mean([r.messages for r in reports])
        assert mean_messages < len(simulator) / 2

    def test_join_with_explicit_introducer(self, simulator):
        introducer = simulator.object_ids()[0]
        report = simulator.join((0.123, 0.456), introducer=introducer)
        assert report.object_id in simulator.object_ids()
        assert simulator.verify_views() == []

    def test_random_introducer_is_the_list_based_draw(self, monkeypatch):
        """The introducer is drawn by walking ``nodes`` to a random index,
        not by listing the other members: the joiner is the last key when
        the draw is made, so the walk lands where the list indexed — the
        same index from the same stream, over 200 joins between leaves."""
        sim = ProtocolSimulator(VoroNetConfig(n_max=400, seed=9), seed=9)
        draws, introducers = [], []
        integer, send = RandomSource.integer, sim.send

        def spy_integer(source, low, high):
            value = integer(source, low, high)
            if source is sim.rng:
                draws.append((low, high, value))
            return value

        def spy_send(sender, recipient, kind, payload):
            if kind == "ADD_OBJECT":
                _position, new_id, _bulk, hops = payload
                if hops == 0:
                    assert next(reversed(sim.nodes)) == new_id
                    introducers.append(recipient)
            send(sender, recipient, kind, payload)

        monkeypatch.setattr(RandomSource, "integer", spy_integer)
        monkeypatch.setattr(sim, "send", spy_send)
        positions = np.random.default_rng(9).random((201, 2))
        sim.join(tuple(positions[0]))
        expected = []
        for count, position in enumerate(positions[1:]):
            if count % 7 == 6:  # holes, so key order is not id order
                sim.leave(sim.object_ids()[count % len(sim)])
            others = list(sim.nodes)
            del draws[:]
            sim.join(tuple(position))
            low, high, index = draws[0]  # the join's first draw
            assert (low, high) == (0, len(others))
            expected.append(others[index])
        assert introducers == expected and len(expected) == 200

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["join", "leave", "crash", "bulk",
                                               "duplicate"]),
                              st.integers(min_value=0, max_value=10**6)),
                    min_size=1, max_size=30))
    def test_the_kth_member_is_the_kth_key_of_the_node_table(self, operations):
        """The introducer index answers what walking ``nodes`` did —
        ``next(islice(nodes, k, None))`` for every k — through joins,
        refused joins, leaves, crashes and bulk joins."""
        from repro.simulation.faults import ProtocolCrashInjector

        sim = ProtocolSimulator(VoroNetConfig(n_max=64, seed=13), seed=13)
        injector = ProtocolCrashInjector(sim, RandomSource(13))
        rng = np.random.default_rng(13)
        for kind, token in operations:
            ids = sim.object_ids()
            if kind == "join" or (kind == "duplicate" and not ids):
                sim.join(tuple(rng.random(2)))
            elif kind == "duplicate":
                sim.join(sim.nodes[ids[token % len(ids)]].position)  # refused
            elif kind == "bulk":
                sim.bulk_join([tuple(p) for p in rng.random((1 + token % 5, 2))])
            elif len(ids) > 1:
                victim = ids[token % len(ids)]
                if kind == "leave":
                    sim.leave(victim)
                else:
                    injector.crash(victim)
            nodes = sim.nodes
            assert [sim._member_order.kth(k) for k in range(len(nodes))] == \
                [next(itertools.islice(nodes, k, None)) for k in range(len(nodes))]

    def test_every_object_has_configured_long_links(self, simulator):
        for oid in simulator.object_ids():
            node = simulator.node(oid)
            assert len(node.long_links) <= simulator.config.num_long_links
        with_links = sum(1 for oid in simulator.object_ids()
                         if len(simulator.node(oid).long_links) ==
                         simulator.config.num_long_links)
        assert with_links >= len(simulator) - 1  # the very first object has none

    def test_close_neighbors_are_symmetric(self, simulator):
        for oid in simulator.object_ids():
            for close_id in simulator.node(oid).close:
                assert oid in simulator.node(close_id).close


class TestBulkJoins:
    def test_bulk_join_builds_consistent_views(self, numpy_rng):
        sim = ProtocolSimulator(VoroNetConfig(n_max=600, seed=6), seed=6)
        positions = [tuple(p) for p in numpy_rng.random((150, 2))]
        report = sim.bulk_join(positions)
        assert len(sim) == 150
        assert report.object_ids == list(range(150))
        assert sim.verify_views() == []

    def test_bulk_join_counts_messages_by_phase(self, numpy_rng):
        sim = ProtocolSimulator(VoroNetConfig(n_max=600, seed=6), seed=6)
        report = sim.bulk_join([tuple(p) for p in numpy_rng.random((60, 2))])
        assert report.messages > 0
        assert sum(report.phase_messages.values()) == report.messages
        for phase in ("carve", "views", "close", "long_links"):
            assert phase in report.phase_messages
        assert sim.metrics.counter("joins") == 60

    def test_empty_batch_is_a_noop(self):
        sim = ProtocolSimulator(VoroNetConfig(n_max=64, seed=6), seed=6)
        report = sim.bulk_join([])
        assert report.object_ids == []
        assert report.messages == 0
        assert len(sim) == 0

    def test_duplicate_positions_are_rejected_up_front(self):
        sim = ProtocolSimulator(VoroNetConfig(n_max=64, seed=6), seed=6)
        sim.join((0.5, 0.5))
        with pytest.raises(ValueError):
            sim.bulk_join([(0.25, 0.25), (0.5, 0.5)])
        with pytest.raises(ValueError):
            sim.bulk_join([(0.25, 0.25), (0.25, 0.25)])
        # Nothing was mutated: only the sequential join is published.
        assert len(sim) == 1
        assert sim.verify_views() == []

    def test_bulk_join_requires_quiescent_engine(self):
        sim = ProtocolSimulator(VoroNetConfig(n_max=64, seed=6), seed=6)
        sim.engine.schedule(5.0, lambda: None)
        with pytest.raises(ValueError):
            sim.bulk_join([(0.25, 0.25)])

    def test_sequential_operations_after_bulk_join(self, numpy_rng):
        sim = ProtocolSimulator(VoroNetConfig(n_max=600, seed=6), seed=6)
        ids = sim.bulk_join([tuple(p) for p in numpy_rng.random((80, 2))]).object_ids
        report = sim.join((0.512, 0.488))
        assert report.messages > 0
        sim.leave(ids[10])
        assert sim.query((0.5, 0.5)).owner in sim.object_ids()
        assert sim.verify_views() == []

    def test_small_chunks_give_identical_structure(self, numpy_rng, monkeypatch):
        positions = [tuple(p) for p in numpy_rng.random((60, 2))]
        default = ProtocolSimulator(VoroNetConfig(n_max=300, seed=6), seed=6)
        default.bulk_join(positions)
        monkeypatch.setattr(protocol, "DEFAULT_BULK_CHUNK", 7)
        small = ProtocolSimulator(VoroNetConfig(n_max=300, seed=6), seed=6)
        small.bulk_join(positions)
        for oid in default.object_ids():
            assert set(small.node(oid).voronoi) == set(default.node(oid).voronoi)
            assert set(small.node(oid).close) == set(default.node(oid).close)
        assert small.verify_views() == []


class TestLeaves:
    def test_leave_removes_object(self, simulator):
        victim = simulator.object_ids()[10]
        simulator.leave(victim)
        assert victim not in simulator.object_ids()

    def test_views_consistent_after_leaves(self, simulator, numpy_rng):
        victims = numpy_rng.choice(simulator.object_ids(), size=25, replace=False)
        for victim in victims:
            simulator.leave(int(victim))
        assert simulator.verify_views() == []

    def test_leave_message_cost_is_constant_like(self, simulator, numpy_rng):
        victims = numpy_rng.choice(simulator.object_ids(), size=20, replace=False)
        reports = [simulator.leave(int(v)) for v in victims]
        assert np.mean([r.messages for r in reports]) < 40

    def test_leave_unknown_raises(self, simulator):
        with pytest.raises(KeyError):
            simulator.leave(10_000)

    def test_long_links_survive_endpoint_departure(self, simulator):
        """When a long-link endpoint leaves, the link is re-delegated to the
        object now owning the target point."""
        # Find an object that is the endpoint of someone's long link.
        endpoint = None
        for oid in simulator.object_ids():
            if simulator.node(oid).back_links:
                endpoint = oid
                break
        assert endpoint is not None
        sources = [source for (source, _idx) in simulator.node(endpoint).back_links]
        simulator.leave(endpoint)
        for source in sources:
            if source not in simulator.object_ids():
                continue
            for _target, neighbor, _position in simulator.node(source).long_links:
                assert neighbor != endpoint
        assert simulator.verify_views() == []


class TestQueries:
    def test_query_reaches_true_owner(self, simulator, numpy_rng):
        for _ in range(15):
            target = tuple(numpy_rng.random(2))
            report = simulator.query(target)
            nearest = min(simulator.object_ids(),
                          key=lambda i: distance(simulator.node(i).position, target))
            assert distance(simulator.node(report.owner).position, target) == \
                pytest.approx(distance(simulator.node(nearest).position, target))

    def test_query_messages_include_answer(self, simulator):
        report = simulator.query((0.3, 0.3))
        assert report.messages >= report.routing_hops

    def test_query_on_empty_simulator_raises(self):
        with pytest.raises(RuntimeError):
            ProtocolSimulator(seed=1).query((0.5, 0.5))

    def test_query_with_explicit_start(self, simulator):
        start = simulator.object_ids()[3]
        report = simulator.query((0.9, 0.1), start=start)
        assert report.owner in simulator.object_ids()

    def test_an_unanswered_query_reports_no_owner(self, simulator):
        """A walk lost to the fault plane has no answer: the report says so
        instead of naming the start node, and keeps no answer behind."""
        start = min(simulator.object_ids(),
                    key=lambda i: distance(simulator.node(i).position, (0.1, 0.1)))
        simulator.network.faults = FaultPlane(seed=1, loss_probability=1.0)
        report = simulator.query((0.9, 0.9), start=start)
        assert (report.owner, report.routing_hops) == (None, 0)
        assert report.messages == 1
        assert simulator.query_answers == {}

    def test_a_query_keeps_no_answer_behind(self, simulator):
        simulator.query((0.3, 0.3))
        assert simulator.query_answers == {}


class TestViewSizeAndTrace:
    def test_mean_view_size_is_small(self, simulator):
        assert simulator.mean_view_size() < 20

    def test_mean_view_size_empty(self):
        assert ProtocolSimulator(seed=1).mean_view_size() == 0.0

    def test_duplicate_position_join_is_refused(self):
        sim = ProtocolSimulator(VoroNetConfig(n_max=64, seed=3), seed=3)
        sim.join((0.5, 0.5))
        sim.join((0.25, 0.75))
        sim.join((0.75, 0.25))
        before = len(sim)
        sim.join((0.5, 0.5))
        assert len(sim) == before
