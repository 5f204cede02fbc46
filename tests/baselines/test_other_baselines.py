"""Unit tests for the Delaunay-only, Kleinberg and random-graph baselines.

The Delaunay-only baseline is a VoroNet overlay built with
``num_long_links=0``.
"""

import numpy as np
import pytest

from repro.baselines.kleinberg import KleinbergGrid
from repro.core import VoroNet, VoroNetConfig
from repro.baselines.random_graph import RandomGraphOverlay
from repro.utils.rng import RandomSource


class TestDelaunayOnly:
    @pytest.fixture
    def baseline(self, numpy_rng):
        baseline = VoroNet(VoroNetConfig(n_max=400, num_long_links=0, seed=3))
        for p in numpy_rng.random((150, 2)):
            baseline.insert(tuple(p))
        return baseline

    def test_no_long_links(self, baseline):
        for oid in baseline.object_ids():
            assert baseline.node(oid).long_links == ()

    def test_routing_succeeds(self, baseline, numpy_rng):
        ids = baseline.object_ids()
        for _ in range(25):
            a, b = numpy_rng.choice(ids, size=2, replace=False)
            result = baseline.route(int(a), int(b))
            assert result.success and result.owner == int(b)

    def test_remove(self, baseline):
        victim = baseline.object_ids()[0]
        baseline.remove(victim)
        assert victim not in baseline.object_ids()
        assert len(baseline) == 149

    def test_routes_are_the_vn_cn_walk_of_a_linked_overlay(self, numpy_rng):
        """Building without long links *is* routing without them: pair for
        pair, the baseline's owner and hops are those of a greedy walk over
        ``vn ∪ cn`` — written out here, ties to the lowest id — on an
        overlay of the same positions that does hold long links."""
        from repro.geometry.point import distance_sq

        positions = [tuple(p) for p in numpy_rng.random((300, 2))]
        baseline = VoroNet(VoroNetConfig(n_max=400, num_long_links=0, seed=3))
        ids = [baseline.insert(p) for p in positions]
        linked = VoroNet(VoroNetConfig(n_max=400, num_long_links=2, seed=3))
        assert linked.bulk_load(positions) == ids
        assert all(len(linked.node(oid).long_links) == 2 for oid in ids)

        def walk(source, destination):
            target = linked.position_of(destination)
            current, hops = source, 0
            while True:
                view = linked.neighbor_view(current)
                best, best_d = None, distance_sq(linked.position_of(current), target)
                for candidate in sorted((view.voronoi | view.close) - {current}):
                    d = distance_sq(linked.position_of(candidate), target)
                    if d < best_d:
                        best, best_d = candidate, d
                if best is None:
                    return current, hops
                current, hops = best, hops + 1

        shorter = 0
        for a, b in numpy_rng.choice(ids, size=(300, 2)).tolist():
            result = baseline.route(a, b)
            assert (result.owner, result.hops) == walk(a, b)
            shorter += linked.route(a, b).hops < result.hops
        assert shorter > 100  # and the links the walk ignores do shorten routes

    def test_slower_than_voronet_on_average(self, numpy_rng):
        """The whole point of the long links: VoroNet beats Delaunay-only."""
        positions = [tuple(p) for p in numpy_rng.random((400, 2))]
        voronet = VoroNet(VoroNetConfig(n_max=500, seed=11))
        baseline = VoroNet(VoroNetConfig(n_max=500, num_long_links=0, seed=11))
        for p in positions:
            voronet.insert(p)
            baseline.insert(p)
        ids = voronet.object_ids()
        pairs = [tuple(numpy_rng.choice(ids, size=2, replace=False)) for _ in range(60)]
        voronet_hops = np.mean([voronet.route(int(a), int(b)).hops for a, b in pairs])
        baseline_hops = np.mean([baseline.route(int(a), int(b)).hops for a, b in pairs])
        assert voronet_hops < baseline_hops


class TestKleinbergBaseline:
    def test_size_and_positions(self):
        baseline = KleinbergGrid(8, rng=RandomSource(1))
        assert baseline.size == 64
        x, y = baseline.position_of(0)
        assert 0 < x < 1 and 0 < y < 1

    def test_route_between_objects(self):
        baseline = KleinbergGrid(10, rng=RandomSource(2))
        result = baseline.route(0, 99)
        assert result.target == divmod(99, 10) and result.hops > 0

    def test_mean_route_length(self):
        baseline = KleinbergGrid(10, rng=RandomSource(3))
        assert baseline.mean_route_length(50, RandomSource(3)) > 0


class TestRandomGraph:
    @pytest.fixture
    def positions(self, numpy_rng):
        return [tuple(p) for p in numpy_rng.random((250, 2))]

    def test_validation(self, positions):
        with pytest.raises(ValueError):
            RandomGraphOverlay(positions[:1])
        with pytest.raises(ValueError):
            RandomGraphOverlay(positions, links_per_node=0)

    def test_adjacency_symmetric(self, positions):
        graph = RandomGraphOverlay(positions, rng=RandomSource(1))
        for node in graph.object_ids():
            for nb in graph.neighbors(node):
                assert node in graph.neighbors(nb)

    def test_route_self_loop(self, positions):
        graph = RandomGraphOverlay(positions, rng=RandomSource(2))
        result = graph.route(3, 3)
        assert result.success and result.hops == 0

    def test_measure_reports_rates(self, positions):
        graph = RandomGraphOverlay(positions, rng=RandomSource(3))
        report = graph.measure(100, RandomSource(4))
        assert 0.0 <= report["success_rate"] <= 1.0

    def test_random_links_are_not_navigable(self, positions, numpy_rng):
        """Greedy routing over uniform random links fails far more often than
        over VoroNet (which never fails)."""
        graph = RandomGraphOverlay(positions, links_per_node=3,
                                   connect_nearest=False, rng=RandomSource(5))
        report = graph.measure(200, RandomSource(6))
        assert report["success_rate"] < 0.9
