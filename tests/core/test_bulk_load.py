"""Bulk construction: structural equivalence with sequential joins.

The property at the heart of :meth:`VoroNet.bulk_load`: for any batch of
positions, the bulk fast path and ``N`` sequential routed joins produce the
same Voronoi adjacency (cross-checked against scipy) and the same
close-neighbour sets, and hinted point location agrees with unhinted
descent everywhere.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from bulk_load_digest import bulk_load_digest, loaded_overlay
from repro.core import VoroNet, VoroNetConfig
from repro.core.errors import DuplicateObjectError, OverlayFullError
from repro.core.neighbors import brute_force_close_neighbors
from repro.geometry.scipy_backend import adjacency_of, compare_with_scipy
from repro.utils.rng import RandomSource
from repro.workloads.distributions import PowerLawDistribution, UniformDistribution
from repro.workloads.generators import generate_objects


def _pair(count, seed, distribution=None, **config_kwargs):
    """Build the same overlay sequentially and in bulk."""
    distribution = distribution or UniformDistribution()
    positions = generate_objects(distribution, count, RandomSource(seed))
    config = VoroNetConfig(n_max=4 * count, seed=seed, **config_kwargs)
    sequential = VoroNet(config)
    sequential.insert_many(positions)
    bulk = VoroNet(config)
    bulk.bulk_load(positions)
    return sequential, bulk


class TestStructuralEquivalence:
    @pytest.mark.parametrize("count,seed", [(40, 1), (150, 2), (400, 3)])
    def test_same_voronoi_adjacency_and_scipy_agreement(self, count, seed):
        sequential, bulk = _pair(count, seed)
        assert bulk.object_ids() == sequential.object_ids()
        assert adjacency_of(bulk.triangulation) == adjacency_of(sequential.triangulation)
        assert compare_with_scipy(bulk.triangulation) == []

    @pytest.mark.parametrize("count,seed", [(150, 5), (300, 6)])
    def test_same_close_neighbor_sets(self, count, seed):
        sequential, bulk = _pair(count, seed)
        for oid in sequential.object_ids():
            assert bulk.node(oid).close_neighbors == \
                sequential.node(oid).close_neighbors

    def test_skewed_distribution(self):
        sequential, bulk = _pair(200, 7, distribution=PowerLawDistribution(alpha=2.0))
        assert adjacency_of(bulk.triangulation) == adjacency_of(sequential.triangulation)
        for oid in sequential.object_ids():
            assert bulk.node(oid).close_neighbors == \
                sequential.node(oid).close_neighbors

    @pytest.mark.parametrize("count,seed", [(60, 11), (250, 12)])
    def test_bulk_overlay_is_consistent(self, count, seed):
        _, bulk = _pair(count, seed)
        assert bulk.check_consistency() == []

    def test_long_links_per_object_and_ownership(self):
        _, bulk = _pair(120, 13, num_long_links=3)
        for oid in bulk.object_ids():
            links = bulk.node(oid).long_links
            assert len(links) == 3
            for target, neighbor, _position in links:
                assert bulk.owner_of(target) == neighbor
        assert bulk.check_consistency() == []


class TestIncrementalBulkLoad:
    def test_bulk_into_populated_overlay_stays_consistent(self):
        positions = generate_objects(UniformDistribution(), 240, RandomSource(21))
        overlay = VoroNet(VoroNetConfig(n_max=1000, seed=21))
        overlay.insert_many(positions[:120])
        ids = overlay.bulk_load(positions[120:])
        assert len(overlay) == 240
        assert ids == list(range(120, 240))
        assert overlay.check_consistency() == []
        assert compare_with_scipy(overlay.triangulation) == []

    def test_bulk_into_populated_clique_registers_both_directions(self):
        """Dense buckets take the batched radius query: batch members find
        each other on their own, pre-existing objects are told in reverse."""
        rng = np.random.default_rng(29)
        config = VoroNetConfig(n_max=1000, seed=29)
        clique = 0.3 + config.effective_d_min * rng.random((160, 2))
        points = np.vstack([clique, rng.random((80, 2))])
        positions = [tuple(p) for p in rng.permutation(points).tolist()]
        overlay = VoroNet(config)
        overlay.insert_many(positions[:100])
        overlay.bulk_load(positions[100:])
        sequential = VoroNet(config)
        sequential.insert_many(positions)
        table = overlay.positions()
        sizes = []
        for oid in overlay.object_ids():
            close = overlay.node(oid).close_neighbors
            assert close == brute_force_close_neighbors(table, oid, config.effective_d_min)
            assert close == sequential.node(oid).close_neighbors
            sizes.append(len(close))
        assert max(sizes) >= 100  # the clique really is one
        assert overlay.check_consistency() == []

    def test_existing_long_links_handed_over(self):
        """A bulk-loaded object stealing a long-link target gets the link."""
        positions = generate_objects(UniformDistribution(), 200, RandomSource(23))
        overlay = VoroNet(VoroNetConfig(n_max=800, seed=23))
        overlay.insert_many(positions[:100])
        overlay.bulk_load(positions[100:])
        for oid in overlay.object_ids():
            for target, neighbor, _position in overlay.node(oid).long_links:
                assert overlay.owner_of(target) == neighbor


class TestStateDigest:
    """The state a bulk load leaves, element for element and in every order
    (``tests/bulk_load_digest.py``), pinned to what the build left before
    close discovery, hint resolution and link installation ran as batch
    passes and the kernel filtered its predicates inline.  CI holds
    ``oracle_static``'s own 50 000-object build at seed 4242 the same way."""

    @pytest.mark.parametrize("alpha, seed, digest", [
        (0.0, 2000, "21ed3f47290ed5568bde654a9921df57367820d759bf3bfeef3dd2f85f65d3f2"),
        (2.0, 2001, "8c8b4a6ea353249d6648bd02b1de0913398994ccc94d1c815371397f8700e013"),
    ])
    def test_two_thousand_objects(self, alpha, seed, digest):
        assert bulk_load_digest(loaded_overlay(2000, seed, alpha)) == digest

    def test_the_digest_sees_orders(self):
        overlay = loaded_overlay(300, 5, 2.0)
        before = bulk_load_digest(overlay)
        node = next(node for node in overlay.nodes() if len(node.back_links) > 1)
        node.back_links = dict(reversed(list(node.back_links.items())))
        assert bulk_load_digest(overlay) != before


class TestBulkLoadGuards:
    def test_empty_batch(self):
        overlay = VoroNet(n_max=10, seed=1)
        assert overlay.bulk_load([]) == []
        assert len(overlay) == 0

    def test_ids_assigned_in_input_order(self):
        overlay = VoroNet(n_max=10, seed=1)
        assert overlay.bulk_load([(0.1, 0.1), (0.9, 0.9), (0.5, 0.2)]) == [0, 1, 2]

    def test_duplicate_within_batch_rejected_without_partial_state(self):
        overlay = VoroNet(n_max=10, seed=1)
        with pytest.raises(DuplicateObjectError):
            overlay.bulk_load([(0.1, 0.1), (0.5, 0.5), (0.5, 0.5)])
        assert len(overlay) == 0
        assert overlay.bulk_load([(0.1, 0.1), (0.5, 0.5)]) == [0, 1]

    def test_duplicate_of_existing_object_rejected(self):
        overlay = VoroNet(n_max=10, seed=1)
        overlay.insert((0.5, 0.5))
        with pytest.raises(DuplicateObjectError):
            overlay.bulk_load([(0.2, 0.2), (0.5, 0.5)])
        assert len(overlay) == 1

    def test_position_outside_unit_square_rejected(self):
        overlay = VoroNet(n_max=10, seed=1)
        with pytest.raises(ValueError):
            overlay.bulk_load([(0.2, 0.2), (1.4, 0.5)])
        assert len(overlay) == 0

    def test_capacity_enforced_up_front(self):
        overlay = VoroNet(VoroNetConfig(n_max=3, seed=1))
        with pytest.raises(OverlayFullError):
            overlay.bulk_load([(0.1, 0.1), (0.6, 0.2), (0.4, 0.8), (0.5, 0.5)])
        assert len(overlay) == 0

    def test_overflow_allowed_when_configured(self):
        overlay = VoroNet(VoroNetConfig(n_max=2, allow_overflow=True, seed=1))
        overlay.bulk_load([(0.1, 0.1), (0.6, 0.2), (0.4, 0.8)])
        assert len(overlay) == 3

    def test_numpy_array_input(self):
        overlay = VoroNet(n_max=50, seed=1)
        ids = overlay.bulk_load(np.random.default_rng(0).random((20, 2)))
        assert len(ids) == 20
        assert overlay.check_consistency() == []

    def test_join_stats_recorded_with_zero_hops(self):
        overlay = VoroNet(n_max=100, seed=1)
        overlay.bulk_load(np.random.default_rng(1).random((30, 2)))
        assert overlay.stats.joins.count == 30
        assert overlay.stats.joins.mean_hops == 0.0
        assert overlay.stats.joins.mean_messages > 0


class TestHintedPointLocation:
    """Grid-hinted and unhinted location/routing agree everywhere."""

    @pytest.fixture
    def overlay(self):
        positions = generate_objects(UniformDistribution(), 250, RandomSource(31))
        overlay = VoroNet(VoroNetConfig(n_max=1000, seed=31))
        overlay.bulk_load(positions)
        return overlay

    def test_owner_of_matches_unhinted_descent_and_kdtree(self, overlay, numpy_rng):
        ids = overlay.object_ids()
        tree = cKDTree([overlay.position_of(oid) for oid in ids])
        for _ in range(60):
            point = tuple(numpy_rng.random(2))
            hinted = overlay.owner_of(point)
            unhinted = overlay.triangulation.nearest_vertex(point, hint=None)
            assert hinted == unhinted == ids[tree.query(point)[1]]

    def test_lookup_owner_independent_of_entry_point(self, overlay, numpy_rng):
        starts = overlay.object_ids()[:5]
        for _ in range(20):
            point = tuple(numpy_rng.random(2))
            hinted_owner = overlay.lookup(point).owner  # grid-hinted entry
            for start in starts:
                assert overlay.lookup(point, start=start).owner == hinted_owner

    def test_route_many_matches_individual_routes(self, overlay):
        rng = RandomSource(35)
        ids = overlay.object_ids()
        pairs = [(ids[rng.integer(0, len(ids))], ids[rng.integer(0, len(ids))])
                 for _ in range(30)]
        batched = overlay.route_many(pairs)
        for (source, destination), result in zip(pairs, batched):
            single = overlay.route(source, destination)
            assert result.owner == single.owner
            assert result.hops == single.hops

    def test_lookup_many_matches_owner_of(self, overlay, numpy_rng):
        points = [tuple(p) for p in numpy_rng.random((25, 2))]
        assert [overlay.lookup(p).owner for p in points] == [overlay.owner_of(p) for p in points]

    def test_hinted_insert_same_structure_as_random_introducer(self, numpy_rng):
        """A grid-hinted introducer carves the same regions, just cheaper joins."""
        points = [tuple(p) for p in numpy_rng.random((80, 2))]
        plain = VoroNet(VoroNetConfig(n_max=320, seed=41))
        hinted = VoroNet(VoroNetConfig(n_max=320, seed=41))
        for p in points:
            plain.insert(p)
            hinted.insert(p, introducer=(hinted.query_entry_point(p)
                                         if len(hinted) else None))
        assert adjacency_of(hinted.triangulation) == adjacency_of(plain.triangulation)
        for oid in plain.object_ids():
            assert hinted.node(oid).close_neighbors == plain.node(oid).close_neighbors
        assert hinted.check_consistency() == []
        assert hinted.stats.joins.mean_hops <= plain.stats.joins.mean_hops
