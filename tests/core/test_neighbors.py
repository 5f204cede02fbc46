"""Unit tests for neighbour views and close-neighbour discovery (Lemma 1)."""

import numpy as np
import pytest

from repro.core import VoroNet, VoroNetConfig
from repro.core.errors import ObjectNotFoundError
from repro.core.neighbors import (
    NeighborView,
    brute_force_close_neighbors,
    compute_close_neighbors,
)
from repro.simulation.failures import CrashInjector
from repro.utils.rng import RandomSource


class TestNeighborView:
    def test_routing_neighbors_excludes_self_and_back_links(self):
        view = NeighborView(
            object_id=1,
            voronoi=frozenset({1, 2, 3}),
            close=frozenset({4}),
            long_range=frozenset({5}),
            back_long_range=frozenset({6}),
        )
        assert view.routing_neighbors == {2, 3, 4, 5}
        assert 6 not in view.routing_neighbors

    def test_size_counts_all_sets(self):
        view = NeighborView(
            object_id=1,
            voronoi=frozenset({2, 3}),
            close=frozenset({4}),
            long_range=frozenset({5}),
            back_long_range=frozenset({6, 7}),
        )
        assert view.size == 6

    def test_empty_view(self):
        view = NeighborView(object_id=9)
        assert view.routing_neighbors == set()
        assert view.size == 0


class TestCloseNeighborDiscovery:
    @pytest.fixture
    def dense_overlay(self):
        """An overlay whose d_min is large enough for plenty of close pairs.

        Every Lemma 1 candidate set here is small enough for the inline
        filter loop; ``TestCloseNeighborDiscoveryThroughTheColumn`` reruns
        the class where they are not.
        """
        return self._overlay(40, None)

    @staticmethod
    def _overlay(count, d_min):
        overlay = VoroNet(VoroNetConfig(n_max=40, d_min=d_min, seed=11, allow_overflow=True))
        for p in np.random.default_rng(11).random((count, 2)):
            overlay.insert(tuple(p))
        return overlay

    def test_discovery_matches_brute_force(self, dense_overlay):
        positions = dense_overlay.positions()
        d_min = dense_overlay.config.effective_d_min
        for oid in dense_overlay.object_ids():
            expected = brute_force_close_neighbors(positions, oid, d_min)
            assert dense_overlay.node(oid).close_neighbors == expected

    def test_compute_close_neighbors_lemma1(self, dense_overlay):
        """Recomputing via the Lemma 1 procedure matches the brute force."""
        positions = dense_overlay.positions()
        d_min = dense_overlay.config.effective_d_min
        for oid in dense_overlay.object_ids():
            computed = compute_close_neighbors(dense_overlay, oid)
            expected = brute_force_close_neighbors(positions, oid, d_min)
            assert computed == expected

    def test_departed_candidate_raises_like_a_lookup(self, dense_overlay):
        """Crash damage (a close entry naming a departed object) fails the
        filter with the overlay's lookup error on either path."""
        victim = dense_overlay.object_ids()[5]
        witness = next(iter(dense_overlay.node(victim).close_neighbors))
        joiner = next(n for n in dense_overlay.voronoi_neighbors(witness) if n != victim)
        CrashInjector(dense_overlay, RandomSource(1)).crash(victim)
        with pytest.raises(ObjectNotFoundError) as raised:
            compute_close_neighbors(dense_overlay, joiner)
        assert raised.value.object_id == victim

    def test_symmetry(self, dense_overlay):
        for oid in dense_overlay.object_ids():
            for cn in dense_overlay.node(oid).close_neighbors:
                assert oid in dense_overlay.node(cn).close_neighbors

    def test_ablation_disables_close_neighbors(self):
        overlay = VoroNet(VoroNetConfig(n_max=40, seed=3,
                                        maintain_close_neighbors=False))
        rng = np.random.default_rng(3)
        for p in rng.random((40, 2)):
            overlay.insert(tuple(p))
        assert all(not overlay.node(oid).close_neighbors
                   for oid in overlay.object_ids())

    def test_brute_force_excludes_self(self):
        positions = {0: (0.5, 0.5), 1: (0.50001, 0.5)}
        assert brute_force_close_neighbors(positions, 0, 0.1) == {1}


class TestCloseNeighborDiscoveryThroughTheColumn(TestCloseNeighborDiscovery):
    """The same suite with 300 objects and a 0.2 radius: nearly every Lemma 1
    candidate set is filtered through the locate grid's coordinate column."""

    @pytest.fixture
    def dense_overlay(self):
        return self._overlay(300, 0.2)
