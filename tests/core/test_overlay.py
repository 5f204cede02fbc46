"""Unit tests for the VoroNet overlay (join, leave, views, ownership)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VoroNet, VoroNetConfig
from repro.core.errors import (
    DuplicateObjectError,
    EmptyOverlayError,
    ObjectNotFoundError,
    OverlayFullError,
)
from repro.geometry.point import distance
from repro.simulation.failures import CrashInjector
from repro.utils.rng import RandomSource


class TestInsertion:
    def test_insert_returns_distinct_ids(self, tiny_overlay):
        assert len(set(tiny_overlay.object_ids())) == 5

    def test_insert_outside_unit_square_rejected(self):
        overlay = VoroNet(n_max=10, seed=1)
        with pytest.raises(ValueError):
            overlay.insert((1.5, 0.5))

    def test_insert_duplicate_position_rejected(self):
        overlay = VoroNet(n_max=10, seed=1)
        overlay.insert((0.5, 0.5))
        with pytest.raises(DuplicateObjectError):
            overlay.insert((0.5, 0.5))

    def test_insert_with_unknown_introducer_rejected(self):
        overlay = VoroNet(n_max=10, seed=1)
        overlay.insert((0.5, 0.5))
        with pytest.raises(ObjectNotFoundError):
            overlay.insert((0.6, 0.6), introducer=77)

    def test_overlay_full(self):
        overlay = VoroNet(VoroNetConfig(n_max=3, seed=1))
        for p in [(0.1, 0.1), (0.6, 0.2), (0.4, 0.8)]:
            overlay.insert(p)
        with pytest.raises(OverlayFullError):
            overlay.insert((0.5, 0.5))

    def test_overflow_allowed_when_configured(self):
        overlay = VoroNet(VoroNetConfig(n_max=2, allow_overflow=True, seed=1))
        for p in [(0.1, 0.1), (0.6, 0.2), (0.4, 0.8)]:
            overlay.insert(p)
        assert len(overlay) == 3

    def test_each_object_gets_configured_number_of_long_links(self):
        overlay = VoroNet(VoroNetConfig(n_max=100, num_long_links=3, seed=2))
        for p in np.random.default_rng(0).random((30, 2)):
            overlay.insert(tuple(p))
        for oid in overlay.object_ids():
            assert len(overlay.node(oid).long_links) == 3

    def test_join_counts_routing_hops(self, small_overlay):
        assert small_overlay.stats.joins.count == 120
        assert small_overlay.stats.joins.mean_hops > 0

    def test_insert_many_returns_ids_in_order(self):
        overlay = VoroNet(n_max=50, seed=3)
        ids = overlay.insert_many([(0.1, 0.1), (0.5, 0.6), (0.9, 0.2)])
        assert ids == [0, 1, 2]

    def test_failed_insert_does_not_leak_auto_ids(self):
        """Regression: a failed duplicate insert must not burn the next id."""
        overlay = VoroNet(n_max=10, seed=1)
        assert overlay.insert((0.5, 0.5)) == 0
        with pytest.raises(DuplicateObjectError):
            overlay.insert((0.5, 0.5))
        assert overlay.insert((0.25, 0.75)) == 1

    def test_failed_explicit_id_insert_does_not_advance_next_id(self):
        """A failed insert after a departure issues nothing either: ids
        continue above the highest ever issued, the departed one unused."""
        overlay = VoroNet(n_max=10, seed=1)
        overlay.insert((0.5, 0.5))
        overlay.insert((0.25, 0.25))
        overlay.remove(1)
        with pytest.raises(DuplicateObjectError):
            overlay.insert((0.5, 0.5))
        assert overlay.insert((0.25, 0.75)) == 2


class TestRemoval:
    def test_remove_unknown_raises(self, tiny_overlay):
        with pytest.raises(ObjectNotFoundError):
            tiny_overlay.remove(999)

    def test_remove_shrinks_overlay(self, tiny_overlay):
        victim = tiny_overlay.object_ids()[0]
        tiny_overlay.remove(victim)
        assert victim not in tiny_overlay
        assert len(tiny_overlay) == 4

    def test_remove_all_objects(self, tiny_overlay):
        for oid in list(tiny_overlay.object_ids()):
            tiny_overlay.remove(oid)
        assert len(tiny_overlay) == 0

    def test_consistency_after_random_churn(self, small_overlay, numpy_rng):
        ids = small_overlay.object_ids()
        for victim in numpy_rng.choice(ids, size=40, replace=False):
            small_overlay.remove(int(victim))
        assert small_overlay.check_consistency() == []

    def test_long_links_redelegated_after_departure(self, small_overlay):
        """After any node leaves, every remaining long link must point at the
        current owner of its target point."""
        victim = small_overlay.object_ids()[10]
        small_overlay.remove(victim)
        for oid in small_overlay.object_ids():
            for target, neighbor, _position in small_overlay.node(oid).long_links:
                assert neighbor != victim
                assert small_overlay.owner_of(target) == neighbor


class TestViews:
    def test_voronoi_neighbors_symmetric(self, small_overlay):
        for oid in small_overlay.object_ids()[:40]:
            for nb in small_overlay.voronoi_neighbors(oid):
                assert oid in small_overlay.voronoi_neighbors(nb)

    def test_neighbor_view_contents(self, small_overlay):
        oid = small_overlay.object_ids()[5]
        view = small_overlay.neighbor_view(oid)
        assert view.object_id == oid
        assert set(view.voronoi) == set(small_overlay.voronoi_neighbors(oid))
        assert oid not in view.routing_neighbors

    def test_close_neighbors_within_d_min(self, numpy_rng):
        config = VoroNetConfig(n_max=64, seed=5)  # large d_min for small n_max
        overlay = VoroNet(config)
        for p in numpy_rng.random((60, 2)):
            overlay.insert(tuple(p))
        d_min = config.effective_d_min
        for oid in overlay.object_ids():
            for cn in overlay.node(oid).close_neighbors:
                assert distance(overlay.position_of(oid),
                                overlay.position_of(cn)) <= d_min + 1e-12

    def test_close_neighbors_complete(self, numpy_rng):
        """Every pair of objects within d_min must know each other (Lemma 1)."""
        config = VoroNetConfig(n_max=64, seed=5)
        overlay = VoroNet(config)
        positions = {}
        for p in numpy_rng.random((60, 2)):
            positions[overlay.insert(tuple(p))] = tuple(p)
        d_min = config.effective_d_min
        for a in positions:
            for b in positions:
                if a < b and distance(positions[a], positions[b]) <= d_min:
                    assert b in overlay.node(a).close_neighbors
                    assert a in overlay.node(b).close_neighbors

    def test_degree_histogram_sums_to_size(self, small_overlay):
        assert sum(small_overlay.degree_histogram().values()) == len(small_overlay)

    def test_view_sizes_are_bounded(self, small_overlay):
        sizes = small_overlay.view_sizes()
        assert np.mean(list(sizes.values())) < 20  # O(1) in practice

    def test_voronoi_cell_contains_site(self, small_overlay):
        oid = small_overlay.object_ids()[7]
        cell = small_overlay.voronoi_cell(oid)
        assert cell.contains(small_overlay.position_of(oid))


class TestOwnership:
    def test_owner_of_matches_nearest(self, small_overlay, numpy_rng):
        ids = small_overlay.object_ids()
        for _ in range(50):
            point = tuple(numpy_rng.random(2))
            owner = small_overlay.owner_of(point)
            nearest = min(ids, key=lambda i: distance(small_overlay.position_of(i), point))
            assert distance(small_overlay.position_of(owner), point) == pytest.approx(
                distance(small_overlay.position_of(nearest), point))

    def test_owner_of_empty_overlay_raises(self):
        with pytest.raises(EmptyOverlayError):
            VoroNet(n_max=4, seed=1).owner_of((0.5, 0.5))


class TestExportsAndStats:
    def test_stats_describe_lines(self, small_overlay):
        # 5 operation groups + routing_table_rebuilds + the two
        # operation-hardening counters (timeouts, retries) + kernel_rebuilds
        # + query_misses.
        lines = small_overlay.stats.describe()
        assert len(lines) == 10

    def test_routing_table_rebuilds_counted_per_dropped_table(self):
        """The rebuild counter counts builds: one per table asked for while
        it is not cached — never built, or dropped since."""
        overlay = VoroNet(n_max=128, seed=3)
        rng = np.random.default_rng(3)
        ids = [overlay.insert(tuple(rng.random(2))) for _ in range(20)]
        overlay.invalidate_routing_tables()
        overlay.stats.routing_table_rebuilds = 0
        for object_id in ids:
            overlay.routing_table(object_id)
        assert overlay.stats.routing_table_rebuilds == len(ids)
        # Cache hits: no further rebuilds.
        for object_id in ids:
            overlay.routing_table(object_id)
        assert overlay.stats.routing_table_rebuilds == len(ids)
        # A targeted invalidation drops the tables it names, once each …
        overlay.invalidate_routing_tables([ids[3], ids[7], ids[3]])
        for object_id in ids:
            overlay.routing_table(object_id)
        assert overlay.stats.routing_table_rebuilds == len(ids) + 2
        # … and a bare one every table; each re-read rebuilds.
        overlay.invalidate_routing_tables()
        for object_id in ids:
            overlay.routing_table(object_id)
        assert overlay.stats.routing_table_rebuilds == 2 * len(ids) + 2

    def test_random_object_id_is_member(self, small_overlay):
        assert small_overlay.random_object_id() in small_overlay

    def test_same_seed_gives_the_same_introducer_sequence(self, numpy_rng):
        """The introducer is the k-th key of the node table for one RNG draw
        k, with departures leaving holes in the id range."""
        points = [tuple(p) for p in numpy_rng.random((80, 2))]
        sampled, indexed = (VoroNet(n_max=400, seed=31) for _ in range(2))
        for overlay in (sampled, indexed):
            overlay.bulk_load(points[:60])
            for object_id in (0, 7, 8, 30, 59):
                overlay.remove(object_id)
        introducers = []
        for point in points[60:]:
            introducers.append(sampled.random_object_id())
            ids = indexed.object_ids()
            assert introducers[-1] == ids[indexed.rng.integer(0, len(ids))]
            for overlay in (sampled, indexed):
                overlay.insert(point)  # draws one more introducer each
        assert len(set(introducers)) > 10
        assert sampled.object_ids() == indexed.object_ids()
        assert sampled.stats.joins.total_hops == indexed.stats.joins.total_hops

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["insert", "remove", "bulk", "crash"]),
                              st.integers(min_value=0, max_value=10**6)),
                    min_size=1, max_size=40))
    def test_the_kth_member_is_the_kth_key_of_the_node_table(self, operations):
        """The introducer index answers what walking the node table did —
        ``next(islice(nodes, k, None))`` for every k — through inserts,
        removals, bulk loads and crashes."""
        overlay = VoroNet(VoroNetConfig(n_max=8, allow_overflow=True, seed=41))
        injector = CrashInjector(overlay, RandomSource(41))
        rng = np.random.default_rng(41)
        for kind, token in operations:
            ids = overlay.object_ids()
            if kind == "insert":
                overlay.insert(tuple(rng.random(2)))
            elif kind == "bulk":
                overlay.bulk_load([tuple(p) for p in rng.random((1 + token % 5, 2))])
            elif len(ids) > 1:
                victim = ids[token % len(ids)]
                if kind == "remove":
                    overlay.remove(victim)
                else:
                    injector.crash(victim)
                    injector.repair()
            nodes = overlay._nodes
            assert list(nodes) == sorted(nodes)  # ids are never reused
            assert [overlay._member_order.kth(k) for k in range(len(nodes))] == \
                [next(itertools.islice(nodes, k, None)) for k in range(len(nodes))]

    def test_random_object_id_empty_raises(self):
        with pytest.raises(EmptyOverlayError):
            VoroNet(n_max=4, seed=1).random_object_id()

    def test_config_keyword_shortcuts(self):
        overlay = VoroNet(n_max=77, num_long_links=2, seed=5)
        assert overlay.config.n_max == 77
        assert overlay.config.num_long_links == 2

    def test_config_and_kwargs_mutually_exclusive(self):
        with pytest.raises(ValueError):
            VoroNet(VoroNetConfig(), n_max=10)

    def test_positions_mapping(self, tiny_overlay):
        positions = tiny_overlay.positions()
        assert len(positions) == 5
        for oid, pos in positions.items():
            assert tiny_overlay.position_of(oid) == pos
