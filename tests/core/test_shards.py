"""Tests of the routing-table cache (``repro.core.shards``).

Three layers (the overlay-level contract — which tables a mutation drops —
is ``tests/core/test_routing_cache.py``'s):

* unit tests of :class:`RoutingTableCache` — membership, the targeted drop,
  the drop-all, and the two guarantees the overlay leans on (``discard``
  leaves no table behind; a table cannot be cached for a non-member);
* **a cached row is a valid row** — after ``sync()`` the id arena is the
  index of the scan-block tables, whatever was cached and dropped in
  between, and ``arena_report`` names a row made stale on purpose;
* **cached vs reference equivalence** — an overlay answers like the per-hop
  reference router of ``tests/reference_router.py`` (owners, hops) through
  churn spread over the whole square: the cache changes *when tables are
  rebuilt*, never what they contain.
"""

import numpy as np
import pytest

from repro.core import VoroNet, VoroNetConfig, shards
from repro.core.shards import (ARRAY_FORM, NO_ROW, RoutingTableCache, ShardedNodeStore,
                               arena_report)

from reference_router import assert_routes_match_reference

TABLE = (None, None, [])


def test_the_benchmark_wraps_the_cache_under_its_frozen_name():
    assert ShardedNodeStore is RoutingTableCache


class TestStoreMembership:
    def test_insert_discard_roundtrip(self):
        cache = RoutingTableCache()
        cache.insert(7)
        assert 7 in cache and len(cache) == 1
        cache.cache_table(7, TABLE)
        cache.discard(7)
        assert 7 not in cache and len(cache) == 0
        assert cache.tables == {}
        cache.discard(7)  # absent: a no-op

    def test_duplicate_insert_rejected(self):
        cache = RoutingTableCache()
        cache.insert(1)
        with pytest.raises(ValueError):
            cache.insert(1)

    def test_bulk_insert_matches_sequential(self):
        bulk = RoutingTableCache()
        bulk.bulk_insert(range(200))
        sequential = RoutingTableCache()
        for object_id in range(200):
            sequential.insert(object_id)
        assert len(bulk) == len(sequential) == 200
        assert all(object_id in bulk and object_id in sequential
                   for object_id in range(200))
        assert 200 not in bulk

    def test_table_cannot_be_cached_for_a_non_member(self):
        cache = RoutingTableCache()
        cache.insert(1)
        with pytest.raises(KeyError):
            cache.cache_table(2, TABLE)
        cache.discard(1)
        with pytest.raises(KeyError):
            cache.cache_table(1, TABLE)
        assert cache.tables == {}


class TestDrops:
    @pytest.fixture
    def warm(self):
        cache = RoutingTableCache()
        cache.bulk_insert(range(6))
        for object_id in range(6):
            cache.cache_table(object_id, (object_id,))
        return cache

    def test_targeted_drop_forgets_exactly_the_named_tables(self, warm):
        kept = dict(warm.tables)
        # Repeats, ids without a table and ids never stored are all fine.
        warm.bump_object_ids(iter([1, 4, 4, 99]))
        warm.bump_object_ids([1])
        assert sorted(warm.tables) == [0, 2, 3, 5]
        assert all(warm.tables[i] is kept[i] for i in warm.tables)
        assert len(warm) == 6  # the members stay; only their tables go

    def test_drop_all_empties_in_place(self, warm):
        """Hot loops hoist the table dict across a whole route."""
        hoisted = warm.tables
        warm.drop_all()
        assert warm.tables is hoisted and hoisted == {}
        warm.cache_table(3, TABLE)
        assert hoisted == {3: TABLE}


def block(*ids):
    """A scan-block table of ``ids`` (positions are the column's, not the arena's)."""
    return (None, None, [(cid, 0.0, 0.0) for cid in ids])


def arrays(*ids):
    """An array-form table of ``ids``."""
    return (np.array(ids), np.zeros((len(ids), 2)), None)


def rows_of(cache):
    """``sync()`` read back: ``id → candidate ids`` (or ``ARRAY_FORM``) per row."""
    start, length, ids = cache.sync()
    return {object_id: ARRAY_FORM if start[object_id] == ARRAY_FORM
            else ids[start[object_id]:start[object_id] + length[object_id]].tolist()
            for object_id in np.flatnonzero(start != NO_ROW).tolist()}


class TestArena:
    """A cached row is a valid row."""

    @pytest.fixture
    def cache(self):
        cache = RoutingTableCache()
        cache.bulk_insert(range(40))
        return cache

    def test_sync_indexes_what_is_cached_when_it_runs(self, cache):
        cache.cache_table(3, block(1, 2, 5))
        assert rows_of(cache) == {3: [1, 2, 5]}  # first use: the dict as it stands
        cache.cache_table(7, block())
        cache.cache_table(8, arrays(*range(10, 30)))
        cache.cache_table(30, block(3, 4))
        assert rows_of(cache) == {3: [1, 2, 5], 7: [], 8: ARRAY_FORM, 30: [3, 4]}
        start, length, _ids = cache.sync(100)
        assert len(start) >= 100 and len(length) >= 100 and (start[40:] == NO_ROW).all()
        assert arena_report(cache) == []

    def test_cached_dropped_and_recached_between_two_syncs(self, cache):
        """… ends with exactly the second table's row; dropped and not
        re-cached, with none."""
        cache.sync()
        first, second = block(1, 2), block(2, 3, 4)
        cache.cache_table(5, first)
        cache.cache_table(6, block(1))
        cache.bump_object_ids([5, 6])
        cache.cache_table(5, second)
        assert rows_of(cache) == {5: [2, 3, 4]}
        cache.discard(5)
        cache.cache_table(6, block(7))
        assert rows_of(cache) == {6: [7]}
        assert arena_report(cache) == []

    def test_drops_may_name_anything(self, cache):
        cache.cache_table(39, block(1))
        cache.sync()
        cache.bump_object_ids([-1, 10**9, 12, 12])
        assert rows_of(cache) == {39: [1]}

    def test_drop_all_leaves_no_row(self, cache):
        for object_id in range(10):
            cache.cache_table(object_id, block(object_id + 1))
        assert len(rows_of(cache)) == 10
        cache.drop_all()
        assert rows_of(cache) == {}
        cache.cache_table(2, block(3))
        assert rows_of(cache) == {2: [3]}

    def test_the_buffer_is_compacted_as_rows_come_and_go(self, cache):
        """Dropped rows leave holes; the live rows survive every regrowth."""
        for round_ in range(60):
            for object_id in range(40):
                cache.bump_object_ids([object_id])
                cache.cache_table(object_id, block(*range(round_, round_ + object_id % 30)))
            assert rows_of(cache) == {object_id: list(range(round_, round_ + object_id % 30))
                                      for object_id in range(40)}
            assert arena_report(cache) == []
        assert len(cache.sync()[2]) < 8 * sum(object_id % 30 for object_id in range(40))

    def test_a_log_that_outgrows_its_bound_forgets_the_arenas(self, cache, monkeypatch):
        """An overlay that stopped routing batches must not log forever:
        the next sync indexes the dict afresh."""
        monkeypatch.setattr(shards, "CHUNK_ELEMENTS", 16)
        cache.sync()
        for object_id in range(20):
            cache.cache_table(object_id, block(object_id))
        assert cache._arena is None and cache._cached == [] and cache._dropped == []
        for object_id in range(20, 30):  # no arena, nothing logged
            cache.cache_table(object_id, block(object_id))
        cache.bump_object_ids(range(5))
        assert cache._cached == [] and cache._dropped == []
        assert rows_of(cache) == {object_id: [object_id] for object_id in range(5, 30)}
        for _ in range(5):
            cache.bump_object_ids([31, 32, 33, 34])
        assert cache._arena is None
        assert rows_of(cache) == {object_id: [object_id] for object_id in range(5, 30)}

    def test_report_names_a_row_made_stale_on_purpose(self, cache):
        cache.cache_table(1, block(2, 3))
        cache.cache_table(2, block(1))
        cache.cache_table(3, arrays(*range(50)))
        assert arena_report(cache) == []
        # A row kept after bump_object_ids: the drop never reached the log.
        cache.bump_object_ids([1])
        del cache._dropped[:]
        assert arena_report(cache) == ["1: arena keeps a row for an id with no cached table"]
        cache.bump_object_ids([1])
        assert arena_report(cache) == []
        # A table cached behind the log's back, either form.
        cache.tables[4] = block(5)
        cache.tables[5] = arrays(*range(50))
        assert arena_report(cache) == ["4: arena has no row for the cached table",
                                       "5: arena does not mark the array-form table"]
        cache.bump_object_ids([4, 5])
        # A row that is not the table's ids; an offset out of bounds.
        start, _length, ids = cache.sync()
        ids[start[2]] = 7
        assert arena_report(cache) == ["2: arena row is not the cached table's ids"]
        start[2] = len(ids)
        assert arena_report(cache) == ["2: arena row reaches outside the buffer"]

    def test_check_consistency_names_a_stale_row(self):
        overlay = VoroNet(VoroNetConfig(n_max=256, seed=34))
        ids = overlay.bulk_load(np.random.default_rng(34).random((100, 2)))
        overlay.route_many([(a, b) for a in ids[:10] for b in ids[10:20]])
        assert overlay.check_consistency() == []
        cache = overlay.routing_cache
        victim = next(iter(cache.tables))
        overlay.invalidate_routing_tables([victim])
        del cache._dropped[:]
        assert overlay.check_consistency() == [
            f"{victim}: arena keeps a row for an id with no cached table"]


class TestShardedFlatEquivalence:
    """The cached answer against the uncached one (the class keeps the
    name it had when the comparison was also sharded against flat)."""

    def test_answers_identical_through_churn(self):
        """Owners and hops equal the reference router's through bulk load +
        churn bursts spread over the whole square."""
        overlay = VoroNet(VoroNetConfig(n_max=32768, num_long_links=1, seed=3100))
        pool = np.random.default_rng(31)
        overlay.bulk_load([tuple(p) for p in pool.random((300, 2))])

        probe = np.random.default_rng(32)
        for _ in range(2):
            ids = overlay.object_ids()
            for object_id in probe.choice(ids, size=20, replace=False):
                overlay.remove(int(object_id))
            for point in pool.random((20, 2)):
                overlay.insert(tuple(point))

            ids = overlay.object_ids()
            for point in probe.random((25, 2)):
                lookup = overlay.lookup(tuple(point))
                assert_routes_match_reference(overlay, lookup)
                assert lookup.owner == overlay.owner_of(tuple(point))
            for a, b in [probe.choice(ids, size=2, replace=False)
                         for _ in range(25)]:
                assert_routes_match_reference(overlay,
                                              overlay.route(int(a), int(b)))

        assert overlay.check_consistency() == []

    def test_store_tracks_membership_through_churn(self):
        overlay = VoroNet(VoroNetConfig(n_max=8192, seed=33))
        ids = overlay.bulk_load(
            [tuple(p) for p in np.random.default_rng(33).random((80, 2))])
        cache = overlay.routing_cache
        assert len(cache) == len(overlay)
        for object_id in overlay.object_ids():
            overlay.routing_table(object_id)
        for object_id in ids[:10]:
            overlay.remove(object_id)
            assert object_id not in cache
            assert object_id not in cache.tables
        newcomer = overlay.insert((0.5, 0.5))
        assert newcomer in cache
        assert len(cache) == len(overlay)
        assert all(object_id in cache for object_id in overlay.object_ids())
        assert overlay.check_consistency() == []
