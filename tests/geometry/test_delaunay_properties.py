"""Property-based tests (hypothesis) for the Delaunay kernel."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry.delaunay import DelaunayTriangulation
from repro.geometry.point import distance_sq
from repro.geometry.predicates import incircle, orient2d
from repro.geometry.scipy_backend import compare_with_scipy
from repro.utils.rng import RandomSource
from repro.workloads.distributions import PowerLawDistribution
from repro.workloads.generators import generate_objects

# Coordinates drawn on a coarse grid of floats to exercise degeneracies
# (collinear triples, cocircular quadruples) much more often than uniform
# random floats would.
coordinate = st.integers(min_value=0, max_value=40).map(lambda v: v / 40.0)
point = st.tuples(coordinate, coordinate)
point_sets = st.lists(point, min_size=1, max_size=40, unique=True)
continuous_point = st.tuples(
    st.floats(min_value=0.001, max_value=0.999, allow_nan=False),
    st.floats(min_value=0.001, max_value=0.999, allow_nan=False),
)
continuous_sets = st.lists(continuous_point, min_size=4, max_size=40, unique=True)


def build(points):
    dt = DelaunayTriangulation()
    for p in points:
        dt.insert(p)
    return dt


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(point_sets)
def test_structure_is_always_valid(points):
    """Every insertion sequence leaves a structurally valid triangulation."""
    dt = build(points)
    dt.validate()
    assert len(dt) == len(points)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(point_sets)
def test_empty_circumcircle_property(points):
    """No vertex lies strictly inside the circumcircle of any triangle."""
    dt = build(points)
    all_points = {vid: dt.point(vid) for vid in dt.vertex_ids()}
    for (u, v, w) in dt.triangles():
        pu, pv, pw = all_points[u], all_points[v], all_points[w]
        assert orient2d(pu, pv, pw) > 0
        for other, point_other in all_points.items():
            if other in (u, v, w):
                continue
            assert incircle(pu, pv, pw, point_other) <= 0


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(point_sets)
def test_adjacency_is_symmetric(points):
    """u in neighbors(v) if and only if v in neighbors(u)."""
    dt = build(points)
    for vid in dt.vertex_ids():
        for nb in dt.neighbors(vid):
            assert vid in dt.neighbors(nb)


@pytest.mark.parametrize("seed", range(12))
def test_matches_scipy_on_continuous_points(seed):
    """On generic (continuous) inputs our adjacency equals scipy's.

    Seeded uniform draws, not a hypothesis strategy: hypothesis shrinks
    towards *near*-degenerate configurations (points a few ulps off a line
    or circle), where Qhull's tolerancing legitimately merges or flips
    what the exact predicates resolve exactly — a disagreement about
    scipy's tolerance, not about our kernel.  Uniform random points are
    generic with probability one, which is precisely the comparison this
    test is after; exact-degeneracy behaviour is covered scipy-free by the
    property tests above.
    """
    rng = np.random.default_rng(seed)
    count = int(rng.integers(4, 40))
    points = [tuple(p) for p in rng.random((count, 2))]
    dt = build(points)
    assert compare_with_scipy(dt) == []


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(point_sets, st.randoms(use_true_random=False))
def test_deletion_keeps_structure_valid(points, rnd):
    """Deleting any subset in any order keeps the structure valid."""
    dt = build(points)
    ids = dt.vertex_ids()
    rnd.shuffle(ids)
    for victim in ids[: len(ids) // 2]:
        dt.remove(victim)
        dt.validate()
    assert len(dt) == len(points) - len(ids[: len(ids) // 2])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(continuous_sets, continuous_point)
def test_nearest_vertex_is_truly_nearest(points, query):
    """Greedy location always returns (one of) the closest vertices."""
    dt = build(points)
    reported = dt.nearest_vertex(query)
    best = min(dt.vertex_ids(), key=lambda v: distance_sq(dt.point(v), query))
    assert distance_sq(dt.point(reported), query) <= distance_sq(
        dt.point(best), query) + 1e-15


# ----------------------------------------------------------------------
# hull departures: every one goes through rebuild()
# ----------------------------------------------------------------------
def _uniform_points(seed):
    return [tuple(p) for p in np.random.default_rng(seed).random((90, 2))]


def _power_law_points(seed):
    """The skewed placement of the ``oracle_churn`` benchmark workload."""
    return generate_objects(PowerLawDistribution(alpha=2.0), 90, RandomSource(seed))


def _lattice_points(seed):
    """Collinear hull runs and cocircular quadruples everywhere."""
    side = 6 + seed
    return [(i / (side - 1), j / (side - 1)) for i in range(side) for j in range(side)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("make_points, general_position", [
    (_uniform_points, True), (_power_law_points, True), (_lattice_points, False),
], ids=["uniform", "power-law", "lattice"])
def test_hull_departures_down_to_three_points(make_points, general_position, seed):
    """Peeling the hull away leaves the survivors exactly where they were.

    70 % of the victims are hull vertices (each one a ``rebuild()``), the
    rest arbitrary.  After every removal the structure validates and no
    survivor changed id or coordinates; on point sets in general position,
    where the Delaunay triangulation is unique, the edge set also equals
    that of a triangulation built from scratch by sequential insertion and
    the one scipy computes.
    """
    points = make_points(seed)
    dt = DelaunayTriangulation()
    ids = dt.bulk_insert(points)
    alive = dict(zip(ids, points))
    rnd = np.random.default_rng(1000 + seed)
    while len(alive) > 3:
        candidates = sorted(alive)
        hull_departure = rnd.random() < 0.7
        if hull_departure:
            candidates = [v for v in candidates if dt.is_hull_vertex(v)]
        victim = candidates[int(rnd.integers(len(candidates)))]
        version, rebuilds = dt.version, dt.rebuild_count
        dt.remove(victim)
        departed = alive.pop(victim)

        dt.validate()
        assert dt.version > version
        if hull_departure:
            assert dt.rebuild_count == rebuilds + 1
        assert dt.last_vertex in alive
        assert victim not in dt and dt.vertex_at(departed) is None
        assert dt.points() == alive
        for vid, position in alive.items():
            assert dt.vertex_at(position) == vid
        if general_position:
            fresh = DelaunayTriangulation()
            for vid, position in alive.items():
                fresh.insert(position, vertex_id=vid)
            assert set(dt.edges()) == set(fresh.edges())
            assert compare_with_scipy(dt) == []
