"""Tests of the Morton shard map and its per-shard epochs.

Four layers:

* unit tests of :class:`ShardedNodeStore` (Morton codes, id → shard
  membership, epoch bump semantics);
* **sharded vs reference equivalence** — a 64-shard overlay answers like
  the per-hop reference router of ``tests/reference_router.py`` (owners,
  hops) through churn that crosses shard boundaries: sharding changes
  *when tables rebuild*, never what they contain;
* **per-shard invalidation** — churn inside one shard leaves warm tables
  of a distant shard untouched (``routing_table_rebuilds`` stays flat),
  while a single-shard overlay rebuilds all of them;
* a Hypothesis suite hammering shard-*boundary* inserts/removes (points
  on and around the 2^level grid lines, where clamping and code
  assignment could disagree).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VoroNet, VoroNetConfig
from repro.core.shards import MAX_SHARD_LEVEL, ShardedNodeStore, morton_shard_codes

from reference_router import assert_routes_match_reference


class TestMortonCodes:
    def test_level_zero_is_single_shard(self):
        store = ShardedNodeStore(0)
        assert store.num_shards == 1
        assert store.shard_of_point(0.0, 0.0) == 0
        assert store.shard_of_point(1.0, 1.0) == 0
        points = np.random.default_rng(1).random((50, 2))
        assert np.all(morton_shard_codes(points, 0) == 0)

    def test_z_order_of_level_one_quadrants(self):
        store = ShardedNodeStore(1)
        # Z-order: (x<.5,y<.5)=0, (x>=.5,y<.5)=1, (x<.5,y>=.5)=2, else 3.
        assert store.shard_of_point(0.1, 0.1) == 0
        assert store.shard_of_point(0.9, 0.1) == 1
        assert store.shard_of_point(0.1, 0.9) == 2
        assert store.shard_of_point(0.9, 0.9) == 3

    @pytest.mark.parametrize("level", [1, 2, 4, 7, MAX_SHARD_LEVEL])
    def test_vectorised_codes_match_scalar(self, level):
        store = ShardedNodeStore(level)
        rng = np.random.default_rng(level)
        points = rng.random((500, 2))
        codes = morton_shard_codes(points, level)
        assert codes.min() >= 0 and codes.max() < store.num_shards
        for point, code in zip(points, codes):
            assert store.shard_of_point(point[0], point[1]) == code

    def test_boundary_points_clamp_into_grid(self):
        level = 3
        store = ShardedNodeStore(level)
        side = 1 << level
        edges = [0.0, 1.0, 1.0 / side, 0.5, (side - 1) / side]
        points = np.array([(x, y) for x in edges for y in edges])
        codes = morton_shard_codes(points, level)
        assert codes.min() >= 0 and codes.max() < store.num_shards
        for point, code in zip(points, codes):
            assert store.shard_of_point(point[0], point[1]) == code

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            ShardedNodeStore(-1)
        with pytest.raises(ValueError):
            ShardedNodeStore(MAX_SHARD_LEVEL + 1)


class TestStoreMembership:
    def test_insert_discard_roundtrip(self):
        store = ShardedNodeStore(2)
        shard = store.insert(7, (0.1, 0.1))
        assert 7 in store and len(store) == 1
        assert store.shard_of(7) == shard == store.shard_of_point(0.1, 0.1)
        assert store.discard(7) == shard
        assert 7 not in store and len(store) == 0
        assert store.discard(7) is None

    def test_duplicate_insert_rejected(self):
        store = ShardedNodeStore(1)
        store.insert(1, (0.2, 0.2))
        with pytest.raises(ValueError):
            store.insert(1, (0.8, 0.8))

    def test_bulk_insert_matches_sequential(self):
        rng = np.random.default_rng(3)
        points = rng.random((200, 2))
        bulk = ShardedNodeStore(3)
        bulk.bulk_insert(list(range(200)), points)
        sequential = ShardedNodeStore(3)
        for object_id, point in enumerate(points):
            sequential.insert(object_id, tuple(point))
        assert len(bulk) == len(sequential) == 200
        for object_id in range(200):
            assert bulk.shard_of(object_id) == sequential.shard_of(object_id)


class TestEpochSemantics:
    def test_epoch_list_is_mutated_in_place(self):
        """Hot loops hoist `store.epochs` once; bumps must stay visible."""
        store = ShardedNodeStore(2)
        hoisted = store.epochs
        store.insert(1, (0.1, 0.1))
        store.bump_object_ids([1])
        assert hoisted is store.epochs
        assert hoisted[store.shard_of(1)] == 1
        store.bump_all()
        assert hoisted is store.epochs
        assert all(epoch >= 1 for epoch in hoisted)

    def test_targeted_bump_touches_only_holding_shards(self):
        store = ShardedNodeStore(1)
        store.insert(1, (0.1, 0.1))  # shard 0
        store.insert(2, (0.9, 0.9))  # shard 3
        assert store.bump_object_ids([1]) == 1
        assert store.epochs == [1, 0, 0, 0]
        # Absent ids are skipped; present ones bump their shard once each.
        assert store.bump_object_ids([2, 2, 99]) == 1
        assert store.epochs == [1, 0, 0, 1]

    def test_bump_all_touches_every_shard(self):
        store = ShardedNodeStore(1)
        store.bump_all()
        assert store.epochs == [1, 1, 1, 1]


class TestShardedFlatEquivalence:
    def test_answers_identical_through_churn(self):
        """Owners and hops equal the reference router's through bulk load +
        churn bursts spread over every shard."""
        # n_max = 64 · DEFAULT_SHARD_OCCUPANCY derives 64 shards.
        overlay = VoroNet(VoroNetConfig(n_max=32768, num_long_links=1, seed=3100))
        assert overlay.shard_store.num_shards == 64
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
        assert overlay.shard_store.num_shards == 16
        ids = overlay.bulk_load(
            [tuple(p) for p in np.random.default_rng(33).random((80, 2))])
        store = overlay.shard_store
        assert len(store) == len(overlay)
        for object_id in ids[:10]:
            overlay.remove(object_id)
            assert object_id not in store
        assert len(store) == len(overlay)
        for object_id in overlay.object_ids():
            assert store.shard_of(object_id) == store.shard_of_point(
                *overlay.position_of(object_id))


def _corner_overlay(n_max=4096):
    """Filler grid plus dense corner clusters A (0.1,0.1) and B (0.9,0.9).

    The default ``n_max`` derives 16 shards (level 2); ``n_max=512`` a
    single one.

    The filler keeps Delaunay adjacency local, so churn inside cluster A
    cannot touch cluster B's forwarding candidates; ``num_long_links=0``
    removes the one link type whose invalidation legitimately crosses the
    square.
    """
    overlay = VoroNet(VoroNetConfig(
        n_max=n_max, num_long_links=0, seed=77))
    filler = [((i + 0.5) / 12, (j + 0.5) / 12)
              for i in range(12) for j in range(12)]
    rng = np.random.default_rng(77)
    cluster_a = [(0.08 + 0.04 * x, 0.08 + 0.04 * y) for x, y in rng.random((15, 2))]
    cluster_b = [(0.88 + 0.04 * x, 0.88 + 0.04 * y) for x, y in rng.random((15, 2))]
    overlay.bulk_load(filler + cluster_a)
    b_ids = overlay.bulk_load(cluster_b)
    return overlay, b_ids


class TestPerShardInvalidation:
    def test_churn_in_one_shard_leaves_distant_tables_warm(self):
        overlay, b_ids = _corner_overlay()
        for object_id in b_ids:
            overlay.routing_table(object_id)
        # Insert + remove inside cluster A, far from every B shard.  (The
        # join itself may build tables along its route, so the counter is
        # read after the churn: only re-request rebuilds are measured.)
        victim = overlay.insert((0.1, 0.12))
        overlay.remove(victim)
        before = overlay.stats.routing_table_rebuilds
        for object_id in b_ids:
            overlay.routing_table(object_id)
        assert overlay.stats.routing_table_rebuilds == before

    def test_flat_baseline_rebuilds_everything(self):
        overlay, b_ids = _corner_overlay(n_max=512)
        assert overlay.shard_store.num_shards == 1
        for object_id in b_ids:
            overlay.routing_table(object_id)
        victim = overlay.insert((0.1, 0.12))
        overlay.remove(victim)
        before = overlay.stats.routing_table_rebuilds
        for object_id in b_ids:
            overlay.routing_table(object_id)
        # The single shard's epoch invalidated every warm table.
        assert overlay.stats.routing_table_rebuilds == before + len(b_ids)

    def test_churn_inside_shard_does_invalidate_it(self):
        """Sanity check that the targeted bump is not simply never firing:
        churn next to cluster B must rebuild B's tables."""
        overlay, b_ids = _corner_overlay()
        for object_id in b_ids:
            overlay.routing_table(object_id)
        victim = overlay.insert((0.9, 0.91))
        overlay.remove(victim)
        before = overlay.stats.routing_table_rebuilds
        for object_id in b_ids:
            overlay.routing_table(object_id)
        assert overlay.stats.routing_table_rebuilds > before


#: Coordinates on and around level-3 shard boundaries (grid pitch 1/8),
#: including the square's edges and exact grid lines.
_boundary_coord = st.one_of(
    st.sampled_from([0.0, 1.0, 0.125, 0.25, 0.5, 0.875]),
    st.builds(lambda k, e: min(max(k / 8 + e, 0.0), 1.0),
              st.integers(min_value=0, max_value=8),
              st.floats(min_value=-1e-9, max_value=1e-9)),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


class TestShardBoundaryHypothesis:
    @settings(max_examples=40, deadline=None)
    @given(points=st.lists(st.tuples(_boundary_coord, _boundary_coord),
                           min_size=1, max_size=40, unique=True),
           removals=st.lists(st.integers(min_value=0), max_size=20))
    def test_store_consistent_under_boundary_churn(self, points, removals):
        store = ShardedNodeStore(3)
        for object_id, point in enumerate(points):
            shard = store.insert(object_id, point)
            assert shard == store.shard_of_point(point[0], point[1])
        alive = dict(enumerate(points))
        for token in removals:
            if not alive:
                break
            object_id = sorted(alive)[token % len(alive)]
            assert store.discard(object_id) is not None
            del alive[object_id]
        assert len(store) == len(alive)
        for object_id, point in alive.items():
            assert store.shard_of(object_id) == \
                store.shard_of_point(point[0], point[1])
        assert all((object_id in store) == (object_id in alive)
                   for object_id in range(len(points)))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_overlay_boundary_inserts_keep_store_in_sync(self, seed):
        """Overlay-level churn with positions snapped near shard lines."""
        rng = np.random.default_rng(seed)
        snapped = np.round(rng.random((24, 2)) * 8) / 8
        jitter = (rng.random((24, 2)) - 0.5) * 1e-6
        # Clipping can fold two jittered corner points onto one position.
        points = np.unique(np.clip(snapped + jitter, 0.0, 1.0), axis=0)
        overlay = VoroNet(VoroNetConfig(
            n_max=32768, seed=seed, num_long_links=1))  # level 3
        ids = []
        for point in points:
            ids.append(overlay.insert(tuple(point)))
        for object_id in ids[: len(ids) // 2]:
            overlay.remove(object_id)
        assert overlay.check_consistency() == []
        store = overlay.shard_store
        assert len(store) == len(overlay)
        for object_id in overlay.object_ids():
            assert store.shard_of(object_id) == store.shard_of_point(
                *overlay.position_of(object_id))
