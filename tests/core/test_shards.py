"""Tests of the routing-table cache (``repro.core.shards``).

Two layers (the overlay-level contract — which tables a mutation drops —
is ``tests/core/test_routing_cache.py``'s):

* unit tests of :class:`RoutingTableCache` — membership, the targeted drop,
  the drop-all, and the two guarantees the overlay leans on (``discard``
  leaves no table behind; a table cannot be cached for a non-member);
* **cached vs reference equivalence** — an overlay answers like the per-hop
  reference router of ``tests/reference_router.py`` (owners, hops) through
  churn spread over the whole square: the cache changes *when tables are
  rebuilt*, never what they contain.
"""

import numpy as np
import pytest

from repro.core import VoroNet, VoroNetConfig
from repro.core.shards import RoutingTableCache, ShardedNodeStore

from reference_router import assert_routes_match_reference

TABLE = (None, None, [])


def test_the_benchmark_wraps_the_cache_under_its_frozen_name():
    assert ShardedNodeStore is RoutingTableCache


class TestStoreMembership:
    def test_insert_discard_roundtrip(self):
        cache = RoutingTableCache()
        cache.insert(7)
        assert 7 in cache and len(cache) == 1
        for use_long_links in (True, False):
            cache.cache_table(7, use_long_links, TABLE)
        cache.discard(7)
        assert 7 not in cache and len(cache) == 0
        assert cache.tables == {True: {}, False: {}}
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
            cache.cache_table(2, True, TABLE)
        cache.discard(1)
        with pytest.raises(KeyError):
            cache.cache_table(1, False, TABLE)
        assert cache.tables == {True: {}, False: {}}


class TestDrops:
    @pytest.fixture
    def warm(self):
        cache = RoutingTableCache()
        cache.bulk_insert(range(6))
        for object_id in range(6):
            for use_long_links in (True, False):
                cache.cache_table(object_id, use_long_links, (object_id, use_long_links))
        return cache

    def test_targeted_drop_forgets_exactly_the_named_tables(self, warm):
        kept = {variant: dict(tables) for variant, tables in warm.tables.items()}
        # Repeats, ids without a table and ids never stored are all fine.
        warm.bump_object_ids(iter([1, 4, 4, 99]))
        warm.bump_object_ids([1])
        for use_long_links in (True, False):
            tables = warm.tables[use_long_links]
            assert sorted(tables) == [0, 2, 3, 5]
            assert all(tables[i] is kept[use_long_links][i] for i in tables)
        assert len(warm) == 6  # the members stay; only their tables go

    def test_drop_all_empties_in_place(self, warm):
        """Hot loops hoist one of the table dicts across a whole route."""
        hoisted = warm.tables[True], warm.tables[False]
        warm.drop_all()
        assert warm.tables[True] is hoisted[0] and warm.tables[False] is hoisted[1]
        assert hoisted == ({}, {})
        warm.cache_table(3, True, TABLE)
        assert hoisted[0] == {3: TABLE}


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
            assert object_id not in cache.tables[True]
        newcomer = overlay.insert((0.5, 0.5))
        assert newcomer in cache
        assert len(cache) == len(overlay)
        assert all(object_id in cache for object_id in overlay.object_ids())
        assert overlay.check_consistency() == []
