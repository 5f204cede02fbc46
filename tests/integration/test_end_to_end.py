"""Integration tests exercising the public API end to end."""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro import VoroNet, VoroNetConfig, point_query, radius_query, range_query
from repro.analysis.degree import degree_summary
from repro.analysis.hops import measure_routing
from repro.geometry.bounding import BoundingBox
from repro.geometry.point import distance
from repro.utils.rng import RandomSource
from repro.workloads.distributions import PowerLawDistribution, UniformDistribution
from repro.workloads.generators import generate_objects, generate_routing_pairs


@pytest.fixture(scope="module", params=["uniform", "powerlaw-a5"])
def populated_overlay(request):
    """A 600-object overlay built from a paper workload distribution."""
    if request.param == "uniform":
        distribution = UniformDistribution()
    else:
        distribution = PowerLawDistribution(alpha=5.0)
    rng = RandomSource(101)
    positions = generate_objects(distribution, 600, rng)
    overlay = VoroNet(VoroNetConfig(n_max=1200, seed=101))
    overlay.insert_many(positions)
    return overlay


class TestConstructionAndStructure:
    def test_all_objects_published(self, populated_overlay):
        assert len(populated_overlay) == 600

    def test_consistency(self, populated_overlay):
        assert populated_overlay.check_consistency() == []

    def test_degree_centred_near_six(self, populated_overlay):
        """The Figure 5 claim holds regardless of the distribution."""
        summary = degree_summary(populated_overlay.degree_histogram())
        assert 5.0 <= summary.mean <= 6.0
        assert 4 <= summary.mode <= 7

    def test_view_sizes_remain_constant_like(self, populated_overlay):
        """The O(1)-view-size claim (Section 4.1) holds for near-uniform
        placements.  Under the extreme α=5 concentration, close-neighbour
        sets legitimately grow with the hot-spot population — exactly the
        caveat of Section 4.1 and the motivation for the dynamic-d_min
        perspective — so only the Voronoi/long/back components are bounded
        there."""
        sizes = list(populated_overlay.view_sizes().values())
        non_close_sizes = [
            len(populated_overlay.voronoi_neighbors(oid))
            + len(populated_overlay.node(oid).long_links)
            + len(populated_overlay.node(oid).back_links)
            for oid in populated_overlay.object_ids()
        ]
        assert np.mean(non_close_sizes) < 15
        assert np.percentile(non_close_sizes, 95) < 30
        if max(sizes) < 50:  # uniform case: the full view is O(1) too
            assert np.mean(sizes) < 15


class TestRouting:
    def test_random_pair_routing_always_succeeds(self, populated_overlay):
        rng = RandomSource(7)
        pairs = generate_routing_pairs(populated_overlay.object_ids(), 150, rng)
        for a, b in pairs:
            result = populated_overlay.route(a, b)
            assert result.success and result.owner == b

    def test_mean_hops_well_below_sqrt_n(self, populated_overlay):
        """Long links keep routes far shorter than the Θ(√N) Delaunay walk."""
        stats = measure_routing(populated_overlay, 150, RandomSource(8))
        assert stats.mean < math.sqrt(len(populated_overlay))

    def test_lookup_matches_kdtree_ground_truth(self, populated_overlay):
        ids = populated_overlay.object_ids()
        positions = [populated_overlay.position_of(i) for i in ids]
        tree = cKDTree(positions)
        rng = RandomSource(9)
        for _ in range(40):
            point = rng.random_point()
            owner = populated_overlay.lookup(point).owner
            expected = ids[tree.query(point)[1]]
            assert distance(populated_overlay.position_of(owner), point) == \
                pytest.approx(distance(populated_overlay.position_of(expected), point))


class TestQueries:
    def test_range_query_matches_kdtree(self, populated_overlay):
        ids = populated_overlay.object_ids()
        x, y = np.array([populated_overlay.position_of(i) for i in ids]).T
        box = BoundingBox(0.3, 0.35, 0.6, 0.62)
        result = range_query(populated_overlay, box)
        inside = (box.xmin <= x) & (x <= box.xmax) & (box.ymin <= y) & (y <= box.ymax)
        expected = sorted(ids[i] for i in np.flatnonzero(inside))
        assert result.matches == expected

    def test_radius_query_matches_kdtree(self, populated_overlay):
        ids = populated_overlay.object_ids()
        positions = [populated_overlay.position_of(i) for i in ids]
        tree = cKDTree(positions)
        result = radius_query(populated_overlay, (0.5, 0.5), 0.15)
        expected = sorted(ids[i] for i in tree.query_ball_point((0.5, 0.5), 0.15))
        assert result.matches == expected

    def test_point_query_owner(self, populated_overlay):
        result = point_query(populated_overlay, (0.21, 0.84))
        assert result.matches[0] == populated_overlay.owner_of((0.21, 0.84))


class TestChurn:
    def test_overlay_survives_heavy_churn(self):
        overlay = VoroNet(VoroNetConfig(n_max=600, seed=55))
        rng = RandomSource(55)
        alive = []
        for _ in range(400):
            if len(alive) > 16 and rng.uniform() < 0.4:
                overlay.remove(alive.pop(rng.integer(0, len(alive))))
            else:
                alive.append(overlay.insert(rng.random_point()))
        assert sorted(alive) == sorted(overlay.object_ids())
        assert overlay.check_consistency() == []
        rng = RandomSource(57)
        ids = overlay.object_ids()
        for _ in range(30):
            a, b = rng.choice(ids, size=2, replace=False)
            assert overlay.route(int(a), int(b)).success
