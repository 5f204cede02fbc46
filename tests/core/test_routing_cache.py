"""Tests of the cached flat routing tables: a cached table is a valid table.

Layers of protection for the routing hot path:

* a Hypothesis *stateful* machine interleaving inserts, removes, bulk
  loads, crash+repair and long-link churn, on a uniform overlay and on one
  holding a clique above ``VECTOR_SCAN_THRESHOLD`` — each beside its
  zero-link twin (the same objects joined with ``num_long_links=0``: the
  Delaunay-only overlay), kept in step — asserting after every rule that
  the program's own check (``VoroNet.routing_cache_report``:
  each cached table equals a freshly assembled view, the module-level
  contract of :mod:`repro.core.overlay`, and the id arena is the index of
  the scan-block tables) is clean with every table cached, that routes
  match the per-hop reference router of ``tests/reference_router.py``, and
  that every object routed to every (past 20 objects: to some) other as
  one batch — through the frontier router, so every interleaving exercises
  ``RoutingTableCache.sync`` — matches it path for path;
* a churn stress test at N≈500, uniform and clustered, running that check
  after every operation and keeping ``owner_of`` / ``lookup`` / ``route``
  answers identical to the reference router through alternating
  insert/remove/crash/link-reset bursts;
* **exactness**: an insert, a remove and a long-link reset on a warm
  overlay rebuild the tables of exactly the ids the operation handed to
  ``invalidate_routing_tables`` and leave every other entry the same
  object; between a crash and its repair only the survivors that still
  name the victim fail to build;
* direct parity regressions for ``route`` / ``route_many`` / ``lookup``
  (with long links and on the zero-link twin) and cold against warm
  passes;
* a clustered overlay whose tables straddle ``VECTOR_SCAN_THRESHOLD`` — the
  size at which an entry holds arrays instead of a scan block — kept
  hop-for-hop equal to the reference router through churn.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import VoroNet, VoroNetConfig, routing
from repro.core.errors import DuplicateObjectError, ObjectNotFoundError
from repro.geometry.locate_grid import VECTOR_SCAN_THRESHOLD
from repro.simulation.failures import CrashInjector
from repro.utils.rng import RandomSource
from repro.workloads.generators import generate_routing_pairs

from reference_router import (assert_routes_match_reference, reference_greedy_route,
                              reference_paths_to, zero_link_twin)


def small_d_min_config(n_max, **fields):
    """``n_max``'s (large) close-neighbour radius without its size cap."""
    return VoroNetConfig(n_max=n_max, allow_overflow=True, **fields)


def clique_points(config, rng, members):
    """``members`` points well inside one ``d_min`` disc: each sees the rest."""
    side = config.effective_d_min / 4
    return [tuple(np.array([0.4, 0.6]) + side * p) for p in rng.random((members, 2))]


def warm_entries(overlay):
    """Cache every table; ``id → entry``."""
    return {object_id: overlay._routing_entry(object_id) for object_id in overlay.object_ids()}


def assert_tables_match_views(overlay):
    """With every table cached, the program's own check finds none stale.

    A table already cached is returned as it is, so one a mutation should
    have dropped and did not is still there to be compared.
    """
    warm_entries(overlay)
    assert overlay.routing_cache_report() == []


def named_by(overlay, operation):
    """Run ``operation``; the ids it handed to ``invalidate_routing_tables``."""
    named = set()
    invalidate = overlay.invalidate_routing_tables

    def spy(object_ids=None):
        assert object_ids is not None, "churn must not invalidate overlay-wide"
        object_ids = list(object_ids)
        named.update(object_ids)
        invalidate(object_ids)

    overlay.invalidate_routing_tables = spy
    try:
        operation()
    finally:
        del overlay.invalidate_routing_tables
    return named


class RoutingCacheMachine(RuleBasedStateMachine):
    """Arbitrary interleavings of topology mutations never leave a cached
    routing table out of sync with the fresh ``NeighborView`` — on an
    overlay with long links and on its zero-link twin, which every rule
    mutates alike (the same objects under the same ids)."""

    #: Size of the clique loaded first (so low removal tokens shrink it
    #: through the threshold); 0 leaves the overlay uniform.
    CLIQUE = 0

    def __init__(self):
        super().__init__()
        self.overlays = []
        self.injectors = []
        for num_long_links in (2, 0):
            config = small_d_min_config(64, num_long_links=num_long_links, seed=1202,
                                        track_paths=True)
            overlay = VoroNet(config)
            if self.CLIQUE:
                overlay.bulk_load(clique_points(
                    config, np.random.default_rng(1204), self.CLIQUE))
            self.overlays.append(overlay)
            self.injectors.append(CrashInjector(overlay, RandomSource(1203)))
        self.overlay = self.overlays[0]

    def _pick(self, token):
        ids = self.overlay.object_ids()
        return ids[token % len(ids)]

    @rule(x=st.floats(0.01, 0.99), y=st.floats(0.01, 0.99))
    def insert_object(self, x, y):
        for overlay in self.overlays:
            try:
                overlay.insert((x, y))
            except DuplicateObjectError:
                pass

    @rule(xs=st.lists(st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
                      min_size=1, max_size=4))
    def bulk_load_batch(self, xs):
        for overlay in self.overlays:
            try:
                overlay.bulk_load(xs)
            except DuplicateObjectError:
                pass

    @precondition(lambda self: len(self.overlay) > 1)
    @rule(token=st.integers(min_value=0))
    def remove_object(self, token):
        victim = self._pick(token)
        for overlay in self.overlays:
            overlay.remove(victim)

    @precondition(lambda self: len(self.overlay) > 0)
    @rule(token=st.integers(min_value=0))
    def churn_long_links(self, token):
        object_id = self._pick(token)
        for overlay in self.overlays:
            overlay.reset_long_links(object_id)

    @precondition(lambda self: len(self.overlay) > 3)
    @rule(token=st.integers(min_value=0))
    def crash_and_repair(self, token):
        victim = self._pick(token)
        for injector in self.injectors:
            injector.crash(victim)
            injector.repair()

    @invariant()
    def twins_hold_the_same_objects(self):
        assert self.overlays[0].positions() == self.overlays[1].positions()

    @invariant()
    def tables_equal_fresh_views(self):
        for overlay in self.overlays:
            assert_tables_match_views(overlay)

    @invariant()
    def routes_equal_reference(self):
        ids = self.overlay.object_ids()
        for source in ids[:1] + ids[-1:]:
            for target in ((0.5, 0.5), self.overlay.position_of(ids[len(ids) // 2])):
                for overlay in self.overlays:
                    assert_routes_match_reference(overlay, overlay.route(source, target))

    @invariant()
    def batches_equal_reference(self):
        """All pairs as one batch (past 20 objects: every object to as many
        targets, spread over the ids, as keep it near 400 pairs), every hop
        a frontier step — the threshold patched to 1, so only array-form
        tables send a route to the scalar loop: the reference's paths, and
        nothing left inconsistent."""
        ids = self.overlay.object_ids()
        targets = ids[::max(1, len(ids) * len(ids) // 400)]
        pairs = [(source, target) for source in ids for target in targets]
        with mock.patch.object(routing, "VECTOR_SCAN_THRESHOLD", 1):
            for overlay in self.overlays:
                reference = reference_paths_to(overlay, targets)
                results = overlay.route_many(pairs)
                assert [result.path for result in results] \
                    == [reference[pair] for pair in pairs]
                assert all(result.success for result in results)
        for overlay in self.overlays:
            assert overlay.check_consistency() == []


class ClusteredRoutingCacheMachine(RoutingCacheMachine):
    """The same interleavings where tables are held as arrays."""

    CLIQUE = VECTOR_SCAN_THRESHOLD + 6


TestRoutingCacheStateful = RoutingCacheMachine.TestCase
TestRoutingCacheStateful.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None)
TestClusteredRoutingCacheStateful = ClusteredRoutingCacheMachine.TestCase
TestClusteredRoutingCacheStateful.settings = settings(
    max_examples=8, stateful_step_count=25, deadline=None)


class TestChurnStress:
    def test_churn_bursts_keep_answers_identical(self):
        self._churn_bursts(clique=0)

    def test_clustered_churn_bursts_keep_answers_identical(self):
        """… with a fifth of the objects in one clique: array-form tables."""
        self._churn_bursts(clique=2 * VECTOR_SCAN_THRESHOLD)

    @staticmethod
    def _churn_bursts(clique):
        """Alternating insert/remove/crash/link-churn bursts at N≈500: no
        operation leaves a stale table cached, owner_of, lookup and route
        answer like the reference router, and the locate grid stays
        exactly in sync."""
        config = VoroNetConfig(n_max=2000, seed=501)
        overlay = VoroNet(config)
        pool = np.random.default_rng(501)
        overlay.bulk_load([tuple(p) for p in pool.random((500 - clique, 2))]
                          + clique_points(config, pool, clique))
        injector = CrashInjector(overlay, RandomSource(502))

        probe_rng = np.random.default_rng(777)
        for burst in range(3):
            ids = overlay.object_ids()
            doomed = probe_rng.choice(ids, size=44, replace=False)
            for object_id in doomed[:40]:
                overlay.remove(int(object_id))
                assert_tables_match_views(overlay)
            for object_id in doomed[40:]:
                injector.crash(int(object_id))
            injector.repair()
            assert_tables_match_views(overlay)
            for point in pool.random((40, 2)):
                overlay.insert(tuple(point))
                assert_tables_match_views(overlay)
            ids = overlay.object_ids()
            for object_id in probe_rng.choice(ids, size=10, replace=False):
                overlay.reset_long_links(int(object_id))
                assert_tables_match_views(overlay)

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


class TestCacheParity:
    @pytest.fixture(scope="class")
    def overlay(self):
        overlay = VoroNet(VoroNetConfig(n_max=2000, num_long_links=2, seed=88))
        for point in np.random.default_rng(88).random((150, 2)):
            overlay.insert(tuple(point))
        return overlay

    @pytest.fixture(scope="class")
    def overlays(self, overlay):
        """By ``long_links``: the overlay, and its zero-link twin."""
        return {True: overlay, False: zero_link_twin(overlay)}

    @pytest.mark.parametrize("long_links", [True, False])
    def test_route_parity(self, overlays, long_links):
        overlay = overlays[long_links]
        ids = overlay.object_ids()
        rng = np.random.default_rng(5)
        for a, b in [rng.choice(ids, size=2, replace=False) for _ in range(40)]:
            assert_routes_match_reference(overlay, overlay.route(int(a), int(b)))

    @pytest.mark.parametrize("long_links", [True, False])
    def test_route_many_parity(self, overlays, long_links):
        overlay = overlays[long_links]
        pairs = list(generate_routing_pairs(
            overlay.object_ids(), 60, RandomSource(6)))
        for result in overlay.route_many(pairs):
            assert_routes_match_reference(overlay, result)

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
        for point in points:
            assert_routes_match_reference(overlay, overlay.lookup(point))


class TestEpochContract:
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

    @pytest.mark.parametrize("named", [(), (0,), (1,)])
    def test_check_consistency_reports_a_stale_table(self, named):
        """Presence is validity, so an invalidation that leaves out an
        object whose view changed is a reported inconsistency."""
        overlay = VoroNet(VoroNetConfig(n_max=64, seed=10))
        ids = overlay.bulk_load([tuple(p) for p in np.random.default_rng(10).random((30, 2))])
        assert_tables_match_views(overlay)
        a = ids[0]
        b = next(i for i in ids[1:] if i not in overlay.neighbor_view(a).routing_neighbors)
        overlay.node(a).add_close_neighbor(b)
        overlay.node(b).add_close_neighbor(a)
        overlay.invalidate_routing_tables([(a, b)[i] for i in named])
        left_out = {a, b} - {(a, b)[i] for i in named}
        stale = [problem for problem in overlay.check_consistency()
                 if "is stale" in problem]
        assert sorted(int(problem.split(":")[0]) for problem in stale) == sorted(left_out)
        overlay.invalidate_routing_tables(left_out)
        assert overlay.routing_cache_report() == []

    def test_removed_object_leaves_no_table_behind(self):
        overlay = VoroNet(VoroNetConfig(n_max=64, seed=11))
        ids = overlay.bulk_load([(0.1, 0.1), (0.9, 0.1), (0.5, 0.9), (0.5, 0.4)])
        for object_id in ids:
            overlay.routing_table(object_id)
        overlay.remove(ids[0])
        assert ids[0] not in overlay.routing_cache.tables
        assert_tables_match_views(overlay)

    def test_dangling_long_link_is_reported_not_raised(self):
        """A crash hands nothing over, so it cannot name the sources
        pointing at the victim: had it not dropped every table, theirs
        would keep naming the departed object."""
        overlay = VoroNet(VoroNetConfig(n_max=256, seed=12))
        ids = overlay.bulk_load([tuple(p) for p in np.random.default_rng(12).random((80, 2))])
        for object_id in ids:
            overlay.routing_table(object_id)
        source, victim = next(
            (object_id, neighbor) for object_id in ids
            for neighbor in overlay.node(object_id).long_link_neighbors()
            if object_id not in overlay.neighbor_view(neighbor).routing_neighbors
            and object_id != neighbor
            # (a hull departure would drop every table, this one included)
            and not overlay.triangulation.is_hull_vertex(neighbor))
        with mock.patch.object(VoroNet, "invalidate_routing_tables"):
            CrashInjector(overlay, RandomSource(12)).crash(victim)
        problems = overlay.check_consistency()
        assert f"{source}: cached routing table names non-member {victim}" in problems
        assert f"{source}: long link 0 points at departed {victim}" in problems


class TestExactInvalidation:
    """A mutation drops exactly the tables it names."""

    @pytest.fixture(scope="class")
    def overlay(self):
        overlay = VoroNet(VoroNetConfig(n_max=2048, num_long_links=2, seed=600))
        overlay.bulk_load(np.random.default_rng(600).random((2000, 2)))
        return overlay

    @pytest.mark.parametrize("operation", ["insert", "remove", "reset_long_links"])
    def test_rebuilds_are_the_ids_the_operation_named(self, overlay, operation):
        before = warm_entries(overlay)
        argument = (0.31, 0.62) if operation == "insert" else overlay.object_ids()[700]
        stats = overlay.stats
        built = stats.routing_table_rebuilds
        result = []
        named = named_by(overlay, lambda: result.append(getattr(overlay, operation)(argument)))
        if operation == "remove":
            assert stats.routing_table_rebuilds == built  # a leave routes nowhere
        named_live = {object_id for object_id in named if object_id in overlay}
        # O(1) views: the star, the close set, a few long-link sources.
        assert 0 < len(named_live) < 40
        if operation == "insert":
            assert result[0] in named_live

        # A named table the operation's own routes rebuilt after the drop
        # is already back; every other named one is built now, once, and
        # nothing else is.
        tables = overlay.routing_cache.tables
        missing = sum(object_id not in tables for object_id in named_live)
        built = stats.routing_table_rebuilds
        after = warm_entries(overlay)
        assert stats.routing_table_rebuilds - built == missing > 0
        changed = {key for key, entry in after.items() if entry is not before.get(key)}
        assert changed == named_live
        assert overlay.routing_cache_report() == []


    def test_kernel_rebuild_on_cocircular_points_leaves_no_stale_table(self):
        """The one mutation that is not local: a hull departure rebuilds the
        kernel, which on a lattice may pick the other diagonal of squares
        nowhere near the departed corner — so it drops every table."""
        overlay = VoroNet(VoroNetConfig(n_max=256, seed=620))
        lattice = [((i + 0.5) / 10, (j + 0.5) / 10) for i in range(10) for j in range(10)]
        np.random.default_rng(620).shuffle(lattice)
        ids = [overlay.insert(tuple(point)) for point in lattice]
        warm_entries(overlay)
        corner = min(ids, key=lambda object_id: sum(overlay.position_of(object_id)))
        overlay.remove(corner)
        assert overlay.stats.kernel_rebuilds == 1
        assert_tables_match_views(overlay)


def corner_overlay():
    """Filler grid plus dense corner clusters A (0.1,0.1) and B (0.9,0.9).

    The filler keeps Delaunay adjacency local, so churn inside cluster A
    cannot touch cluster B's forwarding candidates; ``num_long_links=0``
    removes the one link type whose invalidation legitimately crosses the
    square.  Every table is warm on return.
    """
    overlay = VoroNet(VoroNetConfig(n_max=512, num_long_links=0, seed=77))
    filler = [((i + 0.5) / 12, (j + 0.5) / 12)
              for i in range(12) for j in range(12)]
    rng = np.random.default_rng(77)
    cluster_a = [(0.08 + 0.04 * x, 0.08 + 0.04 * y) for x, y in rng.random((15, 2))]
    cluster_b = [(0.88 + 0.04 * x, 0.88 + 0.04 * y) for x, y in rng.random((15, 2))]
    overlay.bulk_load(filler + cluster_a)
    b_ids = overlay.bulk_load(cluster_b)
    for object_id in overlay.object_ids():
        overlay.routing_table(object_id)
    return overlay, b_ids


class TestTargetedInvalidation:
    """Locality, seen from the tables: churn drops what is next to it."""

    def test_distant_churn_leaves_tables_warm(self):
        overlay, b_ids = corner_overlay()
        kept = {object_id: overlay._routing_entry(object_id) for object_id in b_ids}
        overlay.remove(overlay.insert((0.1, 0.12)))  # inside cluster A, far from B
        before = overlay.stats.routing_table_rebuilds
        for object_id in b_ids:
            assert overlay._routing_entry(object_id) is kept[object_id]
        assert overlay.stats.routing_table_rebuilds == before

    def test_insert_and_remove_rebuild_only_named_ids(self):
        overlay, _ = corner_overlay()
        ids = overlay.object_ids()
        kept = {object_id: overlay._routing_entry(object_id) for object_id in ids}
        named = named_by(overlay, lambda: overlay.remove(overlay.insert((0.1, 0.12))))
        named &= set(ids)
        assert 0 < len(named) < 40
        before = overlay.stats.routing_table_rebuilds
        rebuilt = {object_id for object_id in ids
                   if overlay._routing_entry(object_id) is not kept[object_id]}
        assert rebuilt == named
        assert overlay.stats.routing_table_rebuilds == before + len(named)
        assert overlay.routing_cache_report() == []

    def test_nearby_churn_drops_the_tables_it_names(self):
        """Sanity check that the targeted drop is not simply never firing:
        churn next to cluster B must rebuild some of B's tables."""
        overlay, b_ids = corner_overlay()
        overlay.remove(overlay.insert((0.9, 0.91)))
        before = overlay.stats.routing_table_rebuilds
        for object_id in b_ids:
            overlay.routing_table(object_id)
        assert 0 < overlay.stats.routing_table_rebuilds - before < len(b_ids)


class TestCrashWindow:
    def test_only_survivors_naming_the_victim_fail_until_repair(self):
        """A crash drops the tables it made wrong and hands nothing over:
        until the repair, a survivor whose view still names the victim
        cannot build its table; every other survivor's builds and is valid."""
        overlay = VoroNet(VoroNetConfig(n_max=1024, num_long_links=2, seed=610))
        overlay.bulk_load(np.random.default_rng(610).random((400, 2)))
        victim = overlay.object_ids()[123]
        naming = {node.object_id for node in overlay.nodes()
                  if node.object_id != victim
                  and (victim in node.close_neighbors
                       or victim in node.long_link_neighbors())}
        assert naming
        warm_entries(overlay)
        injector = CrashInjector(overlay, RandomSource(611))
        injector.crash(victim)
        assert not naming & overlay.routing_cache.tables.keys()
        assert overlay.routing_cache_report() == []
        for object_id in overlay.object_ids():
            if object_id in naming:
                with pytest.raises(ObjectNotFoundError) as raised:
                    overlay.routing_table(object_id)
                assert raised.value.object_id == victim
            else:
                overlay.routing_table(object_id)
        assert overlay.routing_cache_report() == []
        assert len(overlay.routing_cache.tables) == len(overlay) - len(naming)
        injector.repair()
        assert_tables_match_views(overlay)
        assert overlay.check_consistency() == []


    @pytest.mark.parametrize("members", [40, 56])
    def test_crashed_candidate_fails_the_batch_in_either_form(self, members):
        """A batch standing on a survivor that names the victim fails with
        ``ObjectNotFoundError`` naming it until ``repair()`` — from the
        frontier when the table would be a scan block, from the scalar
        loop it leaves for when it would be arrays — and records nothing."""
        config = small_d_min_config(64, num_long_links=1, seed=43)
        overlay = VoroNet(config)
        rng = np.random.default_rng(43)
        side = config.effective_d_min / 4
        overlay.bulk_load([tuple(p) for p in rng.random((30, 2))]
                          + [tuple(0.5 + side * p) for p in rng.random((members, 2))])
        witness, victim = overlay.object_ids()[-2:]
        size = len(overlay.routing_table(witness)[0])
        assert (size >= VECTOR_SCAN_THRESHOLD) == (members == 56)
        pairs = [(source, (0.1, 0.1)) for source in overlay.object_ids()[:-1]]
        assert len(pairs) >= VECTOR_SCAN_THRESHOLD
        overlay.route_many(pairs)
        recorded = overlay.stats.routes.count
        injector = CrashInjector(overlay, RandomSource(44))
        injector.crash(victim)
        with pytest.raises(ObjectNotFoundError) as raised:
            overlay.route_many(pairs)
        assert raised.value.object_id == victim
        assert overlay.stats.routes.count == recorded
        injector.repair()
        for result in overlay.route_many(pairs):
            assert_routes_match_reference(overlay, result)
        assert overlay.check_consistency() == []

    def test_a_table_naming_a_departed_object_never_reaches_the_arithmetic(self):
        """A crash that kept the tables of the sources pointing at the
        victim (its overlay-wide invalidation is patched out).  The scalar
        loop scans the block's stale position; the frontier gathers by id
        and would read the departed object's ``NaN`` row — it raises the
        overlay's lookup error instead."""
        overlay = VoroNet(VoroNetConfig(n_max=256, seed=12))
        ids = overlay.bulk_load([tuple(p) for p in np.random.default_rng(12).random((80, 2))])
        warm_entries(overlay)
        source, victim = next(
            (object_id, neighbor) for object_id in ids
            for neighbor in overlay.node(object_id).long_link_neighbors()
            if object_id not in overlay.neighbor_view(neighbor).routing_neighbors
            and object_id != neighbor
            and not overlay.triangulation.is_hull_vertex(neighbor))
        with mock.patch.object(VoroNet, "invalidate_routing_tables"):
            CrashInjector(overlay, RandomSource(12)).crash(victim)
        with pytest.raises(ObjectNotFoundError) as raised:
            overlay.route_many([(source, (0.5, 0.5))] * VECTOR_SCAN_THRESHOLD)
        assert raised.value.object_id == victim


class TestTableForms:
    """A table is held as a scan block or as arrays, by size; both route alike."""

    CLIQUE = 47  # every member sees the other 46, a few vn and its long links

    @pytest.fixture
    def clustered(self):
        """60 spread objects and a clique well inside one ``d_min`` disc,
        with two long links each and — the same objects — with none."""
        rng = np.random.default_rng(41)
        overlays = []
        for num_long_links in (2, 0):
            config = small_d_min_config(64, num_long_links=num_long_links, seed=41,
                                        track_paths=True)
            if not overlays:
                spread = [tuple(p) for p in rng.random((60, 2))]
                clique = clique_points(config, rng, self.CLIQUE + 8)
            overlays.append(VoroNet(config))
            overlays[-1].bulk_load(spread + clique[:self.CLIQUE])
        return overlays, clique[self.CLIQUE:], rng

    @staticmethod
    def _table_sizes(overlay):
        return {len(overlay.routing_table(object_id)[0]) for object_id in overlay.object_ids()}

    @staticmethod
    def _assert_paths_match_reference(overlay, rng):
        ids = overlay.object_ids()
        pairs = [(int(a), int(b)) for a, b in rng.choice(ids, size=(12, 2))]
        for result in overlay.route_many(pairs):
            assert result.path == reference_greedy_route(overlay, result.source, result.target)

    def test_tables_straddling_the_threshold_route_like_the_reference(self, clustered):
        overlays, spare, rng = clustered
        assert VECTOR_SCAN_THRESHOLD == 48  # the sizes below are built around it
        clique = overlays[0].object_ids()[60:]
        seen = set()
        # Grow the clique past the threshold one join at a time, churn long
        # links of members on both sides of it, then shrink it back below.
        steps = [("insert", point) for point in spare]
        steps += [("remove", None)] * (len(spare) + 3)
        for action, point in steps:
            if action == "insert":
                clique.append(overlays[0].insert(point))
                assert overlays[1].insert(point) == clique[-1]
            else:
                victim = clique.pop(int(rng.integers(len(clique))))
                for overlay in overlays:
                    overlay.remove(victim)
            for object_id in rng.choice(clique, size=3, replace=False).tolist():
                for overlay in overlays:
                    overlay.reset_long_links(object_id)
            for overlay in overlays:
                seen |= self._table_sizes(overlay)
                assert_tables_match_views(overlay)
                self._assert_paths_match_reference(overlay, rng)
        assert {47, 48, 49} <= seen
        for overlay in overlays:
            assert overlay.check_consistency() == []

    def test_routing_table_arrays_are_equal_from_either_form(self, clustered):
        (overlay, _bare), spare, _ = clustered
        for point in spare[:4]:
            overlay.insert(point)
        forms = {True: 0, False: 0}
        for object_id in overlay.object_ids():
            entry = overlay._routing_entry(object_id)
            assert len(entry) == 3  # ids, positions, block: nothing to validate against
            holds_arrays = entry[2] is None
            assert holds_arrays == (entry[0] is not None) == (entry[1] is not None)
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
        config = small_d_min_config(64, num_long_links=1, seed=43)
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
