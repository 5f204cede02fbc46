"""Tests of the per-node routing-candidate cache of the protocol simulator.

The protocol-level mirror of :mod:`tests.core.test_routing_cache`:

* a Hypothesis *stateful* machine interleaving joins, bulk joins, leaves
  and queries, asserting after every step that each node's cached flat
  block equals its freshly assembled candidate dict, that every node
  forwards like ``reference_next_hop`` (``tests/reference_router.py``)
  and that view epochs never move backwards;
* a simulator churned through joins, bulk joins and leaves whose query
  owners and hop counts equal a walk of the reference next-hop rule;
* direct checks of the epoch/invalidation contract (`touch_view` on every
  view-mutating handler), which the heartbeat detector's cached probe
  plans ride on too: ``verify_views()`` compares each with its fresh
  derivation, after every rule of the machine.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import VoroNetConfig
from repro.simulation.protocol import ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects

from reference_router import reference_next_hop, reference_query_walk


def triples(block):
    """The ``(id, x, y)`` candidates of a flat routing block."""
    it = iter(block)
    return list(zip(it, it, it))


def assert_blocks_match_candidates(simulator):
    """Every cached block equals the fresh candidate dict of its node."""
    for object_id in simulator.object_ids():
        node = simulator.node(object_id)
        candidates = node.routing_candidates()
        block = node.routing_block()
        assert len(block) % 3 == 0
        assert {neighbor for neighbor, _x, _y in triples(block)} == set(candidates)
        for neighbor, x, y in triples(block):
            assert (x, y) == candidates[neighbor]


class NodeRoutingCacheMachine(RuleBasedStateMachine):
    """Arbitrary interleavings of protocol operations never leave a cached
    routing block out of sync with the node's fresh candidate view."""

    def __init__(self):
        super().__init__()
        self.simulator = ProtocolSimulator(
            VoroNetConfig(n_max=64, allow_overflow=True, num_long_links=2,
                          seed=1203), seed=1203)
        self.epochs = {}

    def _pick(self, token):
        ids = self.simulator.object_ids()
        return ids[token % len(ids)]

    @rule(x=st.floats(0.01, 0.99), y=st.floats(0.01, 0.99))
    def join_object(self, x, y):
        self.simulator.join((x, y))

    @rule(xs=st.lists(st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
                      min_size=1, max_size=4))
    def bulk_join_batch(self, xs):
        try:
            self.simulator.bulk_join(xs)
        except ValueError:
            pass  # duplicate position in the batch

    @precondition(lambda self: len(self.simulator) > 1)
    @rule(token=st.integers(min_value=0))
    def leave_object(self, token):
        victim = self._pick(token)
        self.simulator.leave(victim)
        self.epochs.pop(victim, None)

    @precondition(lambda self: len(self.simulator) > 0)
    @rule(x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0))
    def query_point(self, x, y):
        report = self.simulator.query((x, y))
        assert report.owner in self.simulator.object_ids()

    @invariant()
    def view_epochs_are_monotone(self):
        for object_id in self.simulator.object_ids():
            epoch = self.simulator.node(object_id).view_epoch
            assert epoch >= self.epochs.get(object_id, 0)
            self.epochs[object_id] = epoch

    @invariant()
    def blocks_equal_fresh_candidates(self):
        assert_blocks_match_candidates(self.simulator)

    @invariant()
    def cached_probe_plans_are_valid(self):
        """``verify_views()`` compares every probe plan cached at its
        node's current epoch with the fresh derivation; warming them all
        here hands the next rule a full set of cached plans to get wrong."""
        assert self.simulator.verify_views() == []
        for object_id in self.simulator.object_ids():
            self.simulator.node(object_id).probe_plan()

    @invariant()
    def next_hops_equal_reference(self):
        for object_id in self.simulator.object_ids():
            node = self.simulator.node(object_id)
            for target in ((0.5, 0.5), (0.1, 0.9)):
                assert node.greedy_next_hop(target) == \
                    reference_next_hop(node, target)


TestNodeRoutingCacheStateful = NodeRoutingCacheMachine.TestCase
TestNodeRoutingCacheStateful.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None)


class TestCacheParity:
    def test_identical_answers_through_churn(self):
        """After joins, bulk joins and leaves, queries answer like a walk of
        the reference next-hop rule over the nodes' fresh candidates."""
        simulator = ProtocolSimulator(VoroNetConfig(
            n_max=2000, num_long_links=2, seed=505), seed=505)
        positions = generate_objects(UniformDistribution(), 260, RandomSource(505))
        simulator.bulk_join(positions[:200])
        probe_rng = np.random.default_rng(606)
        for burst in (positions[200:230], positions[230:]):
            for position in burst:
                simulator.join(position)
            ids = simulator.object_ids()
            for victim in probe_rng.choice(ids, size=15, replace=False):
                simulator.leave(int(victim))

            for point in probe_rng.random((20, 2)):
                point = tuple(point)
                start = int(probe_rng.choice(simulator.object_ids()))
                expected = reference_query_walk(simulator, start, point)
                answer = simulator.query(point, start=start)
                assert (answer.owner, answer.routing_hops) == expected

        assert simulator.verify_views() == []
        assert_blocks_match_candidates(simulator)


class TestEpochContract:
    def test_handlers_bump_the_epoch(self):
        simulator = ProtocolSimulator(
            VoroNetConfig(n_max=64, seed=9), seed=9)
        simulator.bulk_join([(0.1, 0.1), (0.9, 0.1), (0.5, 0.9), (0.5, 0.4)])
        epochs = {oid: simulator.node(oid).view_epoch
                  for oid in simulator.object_ids()}
        report = simulator.join((0.52, 0.42))
        # The join touched its region owner's neighbourhood: at least one
        # pre-existing node must have seen its view (and epoch) move.
        assert any(simulator.node(oid).view_epoch > epochs[oid]
                   for oid in epochs if oid in simulator.nodes)
        # ... and the joining node built its view from scratch.
        assert simulator.node(report.object_id).view_epoch > 0

    def test_stale_block_is_rebuilt_after_leave(self):
        simulator = ProtocolSimulator(
            VoroNetConfig(n_max=64, seed=10), seed=10)
        ids = simulator.bulk_join(
            [(0.1, 0.1), (0.9, 0.1), (0.5, 0.9), (0.5, 0.4)]).object_ids
        survivor = ids[0]
        simulator.node(survivor).routing_block()  # warm the cache
        simulator.leave(ids[3])
        block_ids = {neighbor for neighbor, _x, _y
                     in triples(simulator.node(survivor).routing_block())}
        assert ids[3] not in block_ids
        assert_blocks_match_candidates(simulator)

    def test_verify_views_names_a_probe_plan_made_stale(self):
        """A cached plan is a valid plan, and the program says so itself:
        a view edited behind the epoch's back is reported by name."""
        simulator = ProtocolSimulator(
            VoroNetConfig(n_max=400, num_long_links=1, seed=11), seed=11)
        simulator.bulk_join(
            generate_objects(UniformDistribution(), 60, RandomSource(11)))
        for object_id in simulator.object_ids():
            simulator.node(object_id).probe_plan()
        assert simulator.verify_views() == []
        node = simulator.node(simulator.object_ids()[0])
        stranger = next(object_id for object_id in simulator.object_ids()
                        if object_id != node.object_id
                        and object_id not in node.monitored_peers())
        node.back_links = {**node.back_links, (stranger, 0): node.position}  # no touch_view()
        # The planted registration is also an orphan (the stranger's link
        # points elsewhere), which the shared view checker names first.
        orphan = (f"{node.object_id}: back link from {stranger}#0 does not "
                  f"match the source's long link")
        stale_plan, = simulator.probe_plan_report()
        assert stale_plan.startswith(
            f"{node.object_id}: cached probe plan is stale")
        assert simulator.verify_views() == [orphan, stale_plan]
        node.touch_view()
        assert simulator.verify_views() == [orphan]
        peers, sampled = node.probe_plan()
        assert stranger in peers and stranger in sampled
