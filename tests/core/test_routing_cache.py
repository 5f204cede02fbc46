"""Tests of the epoch-cached flat routing tables.

Three layers of protection for the routing hot path:

* a Hypothesis *stateful* machine interleaving inserts, removes, bulk
  loads, crash+repair and long-link churn, asserting after every step
  that each cached table equals a freshly assembled view (the
  module-level contract of :mod:`repro.core.overlay`) and that routes
  match the per-hop reference router of ``tests/reference_router.py``;
* a churn stress test at N≈500 keeping ``owner_of`` / ``lookup`` /
  ``route`` answers identical to the reference router through alternating
  insert/remove/crash/link-reset bursts (locate-grid and table
  invalidation under churn);
* direct parity regressions for ``route`` / ``route_many`` /
  ``lookup_many``, cold against warm passes, and the Algorithm 5 stopping
  rule;
* a clustered overlay whose tables straddle ``VECTOR_SCAN_THRESHOLD`` — the
  size at which an entry holds arrays instead of a scan block — kept
  hop-for-hop equal to the reference router through churn.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import VoroNet, VoroNetConfig
from repro.core.errors import DuplicateObjectError, ObjectNotFoundError
from repro.geometry.locate_grid import VECTOR_SCAN_THRESHOLD
from repro.core.routing import route_with_stopping_rule
from repro.simulation.failures import CrashInjector
from repro.utils.rng import RandomSource
from repro.workloads.generators import generate_routing_pairs

from reference_router import assert_routes_match_reference, reference_greedy_route


def many_shard_config(n_max, **fields):
    """A config with ``n_max``'s close-neighbour radius but 64 shards.

    With the few shards a small ``n_max`` derives, almost every targeted
    invalidation also bumps the shard of its neighbours, which would mask
    a missing invalidation call elsewhere.
    """
    return VoroNetConfig(n_max=32768,
                         d_min=VoroNetConfig(n_max=n_max).effective_d_min,
                         **fields)


def fresh_routing_sets(overlay, object_id):
    """Ground truth: forwarding candidates assembled from a fresh view."""
    view = overlay.neighbor_view(object_id)
    with_links = view.routing_neighbors
    delaunay_only = set(view.voronoi) | set(view.close)
    delaunay_only.discard(object_id)
    return with_links, delaunay_only


def assert_tables_match_views(overlay):
    """Every cached table equals the freshly assembled view of its object."""
    for object_id in overlay.object_ids():
        with_links, delaunay_only = fresh_routing_sets(overlay, object_id)
        for use_long_links, expected in ((True, with_links),
                                         (False, delaunay_only)):
            ids, positions = overlay.routing_table(object_id, use_long_links)
            assert set(int(i) for i in ids) == expected
            assert positions.shape == (len(ids), 2)
            for row, candidate in enumerate(ids):
                assert tuple(positions[row]) == \
                    overlay.position_of(int(candidate))


class RoutingCacheMachine(RuleBasedStateMachine):
    """Arbitrary interleavings of topology mutations never leave a cached
    routing table out of sync with the fresh ``NeighborView``."""

    def __init__(self):
        super().__init__()
        self.overlay = VoroNet(many_shard_config(
            64, num_long_links=2, seed=1202))
        self.injector = CrashInjector(self.overlay, RandomSource(1203))
        self.last_epoch = self.overlay.topology_epoch

    def _pick(self, token):
        ids = self.overlay.object_ids()
        return ids[token % len(ids)]

    @rule(x=st.floats(0.01, 0.99), y=st.floats(0.01, 0.99))
    def insert_object(self, x, y):
        try:
            self.overlay.insert((x, y))
        except DuplicateObjectError:
            pass

    @rule(xs=st.lists(st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
                      min_size=1, max_size=4))
    def bulk_load_batch(self, xs):
        try:
            self.overlay.bulk_load(xs)
        except DuplicateObjectError:
            pass

    @precondition(lambda self: len(self.overlay) > 1)
    @rule(token=st.integers(min_value=0))
    def remove_object(self, token):
        self.overlay.remove(self._pick(token))

    @precondition(lambda self: len(self.overlay) > 0)
    @rule(token=st.integers(min_value=0))
    def churn_long_links(self, token):
        self.overlay.reset_long_links(self._pick(token))

    @precondition(lambda self: len(self.overlay) > 3)
    @rule(token=st.integers(min_value=0))
    def crash_and_repair(self, token):
        self.injector.crash(self._pick(token))
        self.injector.repair()

    @invariant()
    def epoch_is_monotone(self):
        epoch = self.overlay.topology_epoch
        assert epoch >= self.last_epoch
        self.last_epoch = epoch

    @invariant()
    def tables_equal_fresh_views(self):
        assert_tables_match_views(self.overlay)

    @invariant()
    def routes_equal_reference(self):
        ids = self.overlay.object_ids()
        for source in ids[:1] + ids[-1:]:
            for target in ((0.5, 0.5), self.overlay.position_of(ids[len(ids) // 2])):
                for use_long_links in (True, False):
                    assert_routes_match_reference(
                        self.overlay,
                        self.overlay.route(source, target,
                                           use_long_links=use_long_links),
                        use_long_links)


TestRoutingCacheStateful = RoutingCacheMachine.TestCase
TestRoutingCacheStateful.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None)


class TestChurnStress:
    def test_churn_bursts_keep_answers_identical(self):
        """Alternating insert/remove/crash/link-churn bursts at N≈500:
        owner_of, lookup and route answer like the reference router, and
        the locate grid stays exactly in sync."""
        overlay = VoroNet(many_shard_config(2000, seed=501))
        pool = np.random.default_rng(501)
        overlay.bulk_load([tuple(p) for p in pool.random((500, 2))])
        injector = CrashInjector(overlay, RandomSource(502))

        probe_rng = np.random.default_rng(777)
        for burst in range(3):
            ids = overlay.object_ids()
            doomed = probe_rng.choice(ids, size=44, replace=False)
            for object_id in doomed[:40]:
                overlay.remove(int(object_id))
            for object_id in doomed[40:]:
                injector.crash(int(object_id))
            injector.repair()
            for point in pool.random((40, 2)):
                overlay.insert(tuple(point))
            ids = overlay.object_ids()
            for object_id in probe_rng.choice(ids, size=10, replace=False):
                overlay.reset_long_links(int(object_id))

            # The locate grid is exactly in sync with the membership …
            ids = overlay.object_ids()
            assert all(oid in overlay.locate_index for oid in ids)
            assert len(overlay.locate_index) == len(overlay)
            # … and every answer equals the reference router's.
            for point in probe_rng.random((30, 2)):
                lookup = overlay.lookup(tuple(point))
                assert_routes_match_reference(overlay, lookup)
                assert lookup.owner == overlay.owner_of(tuple(point))
            for a, b in [probe_rng.choice(ids, size=2, replace=False)
                         for _ in range(30)]:
                assert_routes_match_reference(overlay,
                                              overlay.route(int(a), int(b)))

        assert overlay.check_consistency() == []
        assert_tables_match_views(overlay)


class TestCacheParity:
    @pytest.fixture(scope="class")
    def overlay(self):
        overlay = VoroNet(VoroNetConfig(n_max=2000, num_long_links=2, seed=88))
        for point in np.random.default_rng(88).random((150, 2)):
            overlay.insert(tuple(point))
        return overlay

    @pytest.mark.parametrize("use_long_links", [True, False])
    def test_route_parity(self, overlay, use_long_links):
        ids = overlay.object_ids()
        rng = np.random.default_rng(5)
        for a, b in [rng.choice(ids, size=2, replace=False) for _ in range(40)]:
            assert_routes_match_reference(
                overlay,
                overlay.route(int(a), int(b), use_long_links=use_long_links),
                use_long_links)

    @pytest.mark.parametrize("use_long_links", [True, False])
    def test_route_many_parity(self, overlay, use_long_links):
        pairs = list(generate_routing_pairs(
            overlay.object_ids(), 60, RandomSource(6)))
        for result in overlay.route_many(pairs, use_long_links=use_long_links):
            assert_routes_match_reference(overlay, result, use_long_links)

    def test_warm_pass_repeats_the_cold_pass(self):
        """Routing a batch twice: the second pass builds no table and
        returns the first pass's owners and hop counts."""
        overlay = VoroNet(VoroNetConfig(n_max=2000, seed=89))
        overlay.bulk_load(np.random.default_rng(89).random((500, 2)))
        pairs = list(generate_routing_pairs(
            overlay.object_ids(), 200, RandomSource(9)))
        cold = overlay.route_many(pairs)
        built = overlay.stats.routing_table_rebuilds
        assert built > 0
        warm = overlay.route_many(pairs)
        assert overlay.stats.routing_table_rebuilds == built
        assert all(result.success for result in warm)
        assert ([(r.owner, r.hops) for r in warm]
                == [(r.owner, r.hops) for r in cold])

    def test_lookup_many_parity(self, overlay):
        points = [tuple(p) for p in np.random.default_rng(7).random((60, 2))]
        for result in overlay.lookup_many(points):
            assert_routes_match_reference(overlay, result)

    def test_stopping_rule_parity(self, overlay):
        """The Algorithm 5 stopping rule walks a prefix of the reference path."""
        ids = overlay.object_ids()
        rng = np.random.default_rng(8)
        for _ in range(40):
            source = int(rng.choice(ids))
            target = tuple(rng.random(2))
            early = route_with_stopping_rule(overlay, source, target)
            path = reference_greedy_route(overlay, source, target)
            assert early.hops < len(path)
            assert early.owner == path[early.hops]


class TestEpochContract:
    def test_epoch_bumps_on_every_mutation_kind(self):
        overlay = VoroNet(VoroNetConfig(n_max=64, seed=9))
        epoch = overlay.topology_epoch
        a = overlay.insert((0.2, 0.2))
        assert overlay.topology_epoch > epoch

        epoch = overlay.topology_epoch
        overlay.bulk_load([(0.7, 0.3), (0.4, 0.8), (0.6, 0.6)])
        assert overlay.topology_epoch > epoch

        epoch = overlay.topology_epoch
        overlay.reset_long_links(a)
        assert overlay.topology_epoch > epoch

        epoch = overlay.topology_epoch
        overlay.remove(a)
        assert overlay.topology_epoch > epoch

        epoch = overlay.topology_epoch
        overlay.invalidate_routing_tables()
        assert overlay.topology_epoch == epoch + 1

    def test_stale_table_rebuilt_after_direct_view_mutation(self):
        """External node mutations must call invalidate_routing_tables —
        after which the table reflects the new state."""
        overlay = VoroNet(VoroNetConfig(n_max=64, seed=10))
        ids = overlay.bulk_load([(0.1, 0.1), (0.9, 0.1), (0.5, 0.9), (0.5, 0.4)])
        overlay.routing_table(ids[0])  # warm the cache
        overlay.node(ids[0]).add_close_neighbor(ids[2])
        overlay.node(ids[2]).add_close_neighbor(ids[0])
        overlay.invalidate_routing_tables()
        table_ids, _ = overlay.routing_table(ids[0])
        assert ids[2] in set(int(i) for i in table_ids)

    def test_removed_object_leaves_no_table_behind(self):
        overlay = VoroNet(VoroNetConfig(n_max=64, seed=11))
        ids = overlay.bulk_load([(0.1, 0.1), (0.9, 0.1), (0.5, 0.9), (0.5, 0.4)])
        for object_id in ids:
            overlay.routing_table(object_id)
        overlay.remove(ids[0])
        assert not any(ids[0] in variant
                       for variant in overlay._routing_tables.values())
        assert_tables_match_views(overlay)


class TestTableForms:
    """A table is held as a scan block or as arrays, by size; both route alike."""

    CLIQUE = 47  # every member sees the other 46, a few vn and its long links

    @pytest.fixture
    def clustered(self):
        """60 spread objects and a clique well inside one ``d_min`` disc."""
        config = many_shard_config(64, num_long_links=2, seed=41, track_paths=True)
        overlay = VoroNet(config)
        rng = np.random.default_rng(41)
        spread = [tuple(p) for p in rng.random((60, 2))]
        corner = np.array([0.4, 0.6])
        side = config.effective_d_min / 4
        clique = [tuple(corner + side * p) for p in rng.random((self.CLIQUE + 8, 2))]
        overlay.bulk_load(spread + clique[:self.CLIQUE])
        return overlay, clique[self.CLIQUE:], rng

    @staticmethod
    def _table_sizes(overlay):
        return {len(overlay.routing_table(object_id, use_long_links)[0])
                for object_id in overlay.object_ids() for use_long_links in (True, False)}

    @staticmethod
    def _assert_paths_match_reference(overlay, rng):
        ids = overlay.object_ids()
        for use_long_links in (True, False):
            pairs = [(int(a), int(b)) for a, b in rng.choice(ids, size=(12, 2))]
            for result in overlay.route_many(pairs, use_long_links=use_long_links):
                assert result.path == reference_greedy_route(
                    overlay, result.source, result.target, use_long_links)

    def test_tables_straddling_the_threshold_route_like_the_reference(self, clustered):
        overlay, spare, rng = clustered
        assert VECTOR_SCAN_THRESHOLD == 48  # the sizes below are built around it
        clique = overlay.object_ids()[60:]
        seen = set()
        # Grow the clique past the threshold one join at a time, churn long
        # links of members on both sides of it, then shrink it back below.
        steps = [("insert", point) for point in spare]
        steps += [("remove", None)] * (len(spare) + 3)
        for action, point in steps:
            if action == "insert":
                clique.append(overlay.insert(point))
            else:
                overlay.remove(clique.pop(int(rng.integers(len(clique)))))
            for object_id in rng.choice(clique, size=3, replace=False).tolist():
                overlay.reset_long_links(object_id)
            seen |= self._table_sizes(overlay)
            assert_tables_match_views(overlay)
            self._assert_paths_match_reference(overlay, rng)
        assert {47, 48, 49} <= seen
        assert overlay.check_consistency() == []

    def test_routing_table_arrays_are_equal_from_either_form(self, clustered):
        overlay, spare, _ = clustered
        for point in spare[:4]:
            overlay.insert(point)
        forms = {True: 0, False: 0}
        for object_id in overlay.object_ids():
            entry = overlay._routing_entry(object_id, True)
            holds_arrays = entry[3] is None
            assert holds_arrays == (entry[1] is not None) == (entry[2] is not None)
            forms[holds_arrays] += 1
            ids, positions = overlay.routing_table(object_id)
            assert holds_arrays == (len(ids) >= VECTOR_SCAN_THRESHOLD)
            assert ids.dtype == np.int64 and positions.dtype == np.float64
            assert positions.shape == (len(ids), 2)
            assert ids.tolist() == sorted(overlay.neighbor_view(object_id).routing_neighbors)
            assert positions.tolist() == [list(overlay.position_of(i)) for i in ids.tolist()]
        assert forms[True] and forms[False]

    @pytest.mark.parametrize("members", [40, 56])
    def test_crashed_candidate_fails_the_build_in_either_form(self, members):
        """Crash damage surfaces as ``ObjectNotFoundError`` naming the victim
        until ``repair()``, from a scan block and from an array table alike."""
        config = many_shard_config(64, num_long_links=1, seed=43)
        overlay = VoroNet(config)
        rng = np.random.default_rng(43)
        side = config.effective_d_min / 4
        overlay.bulk_load([tuple(p) for p in rng.random((30, 2))]
                          + [tuple(0.5 + side * p) for p in rng.random((members, 2))])
        witness, victim = overlay.object_ids()[-2:]
        size = len(overlay.routing_table(witness)[0])
        assert (size >= VECTOR_SCAN_THRESHOLD) == (members == 56)
        injector = CrashInjector(overlay, RandomSource(44))
        injector.crash(victim)
        for attempt in (lambda: overlay.routing_table(witness),
                        lambda: overlay.route(witness, (0.1, 0.1))):
            with pytest.raises(ObjectNotFoundError) as raised:
                attempt()
            assert raised.value.object_id == victim
        injector.repair()
        assert len(overlay.routing_table(witness)[0]) == size - 1
        assert_routes_match_reference(overlay, overlay.route(witness, (0.1, 0.1)))
        assert overlay.check_consistency() == []
