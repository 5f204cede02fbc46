"""Unit tests for the incremental Delaunay kernel."""


import numpy as np
import pytest

from repro.geometry.delaunay import (
    INFINITE_VERTEX,
    DelaunayTriangulation,
    DuplicatePointError,
)
from repro.geometry.point import distance_sq
from repro.geometry.scipy_backend import compare_with_scipy


def build(points):
    dt = DelaunayTriangulation()
    ids = [dt.insert(p) for p in points]
    return dt, ids


class TestSmallConfigurations:
    def test_subnormal_sliver_is_delaunay(self):
        """A quadrilateral one subnormal wide: every incircle test on it
        underflows, and only the exact predicate picks the diagonal."""
        tiny = 5e-324
        dt, (c, a, b, d) = build([(tiny, 0.4), (tiny, 0.6), (0.0, 0.8), (0.0, 0.0)])
        dt.validate()
        assert sorted(dt.triangles()) == [(c, a, b), (c, b, d)]

    def test_empty(self):
        dt = DelaunayTriangulation()
        assert len(dt) == 0
        assert not dt.has_triangulation

    def test_single_point_has_no_neighbors(self):
        dt, ids = build([(0.5, 0.5)])
        assert dt.neighbors(ids[0]) == []
        assert dt.nearest_vertex((0.1, 0.9)) == ids[0]

    def test_two_points_are_mutual_neighbors(self):
        dt, ids = build([(0.2, 0.2), (0.8, 0.8)])
        assert dt.neighbors(ids[0]) == [ids[1]]
        assert dt.neighbors(ids[1]) == [ids[0]]

    def test_three_points_triangle(self):
        dt, ids = build([(0.1, 0.1), (0.9, 0.1), (0.5, 0.9)])
        assert dt.has_triangulation
        assert dt.triangle_count() == 1
        for vid in ids:
            assert sorted(dt.neighbors(vid)) == sorted(i for i in ids if i != vid)

    def test_collinear_points_form_a_path(self):
        dt, ids = build([(0.1, 0.1), (0.2, 0.2), (0.3, 0.3), (0.4, 0.4)])
        assert not dt.has_triangulation
        assert sorted(dt.neighbors(ids[0])) == [ids[1]]
        assert sorted(dt.neighbors(ids[1])) == sorted([ids[0], ids[2]])
        assert sorted(dt.neighbors(ids[2])) == sorted([ids[1], ids[3]])

    def test_collinear_then_offline_point_bootstraps(self):
        dt, ids = build([(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)])
        assert not dt.has_triangulation
        extra = dt.insert((0.5, 0.1))
        assert dt.has_triangulation
        dt.validate()
        assert extra in dt.neighbors(ids[0]) or ids[0] in dt.neighbors(extra)

    def test_square_has_five_edges(self):
        dt, _ = build([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        # 4 hull edges + 1 diagonal.
        assert len(list(dt.edges())) == 5
        assert dt.triangle_count() == 2


class TestInsertion:
    def test_insert_returns_sequential_ids(self):
        dt, ids = build([(0.1, 0.1), (0.9, 0.1), (0.5, 0.9)])
        assert ids == [0, 1, 2]

    def test_insert_with_explicit_id(self):
        dt = DelaunayTriangulation()
        vid = dt.insert((0.5, 0.5), vertex_id=42)
        assert vid == 42
        assert 42 in dt

    def test_insert_rejects_id_reuse(self):
        dt = DelaunayTriangulation()
        dt.insert((0.5, 0.5), vertex_id=1)
        with pytest.raises(ValueError):
            dt.insert((0.6, 0.6), vertex_id=1)

    def test_insert_rejects_negative_id(self):
        dt = DelaunayTriangulation()
        with pytest.raises(ValueError):
            dt.insert((0.5, 0.5), vertex_id=-3)

    def test_duplicate_point_raises(self):
        dt = DelaunayTriangulation()
        dt.insert((0.5, 0.5))
        with pytest.raises(DuplicatePointError):
            dt.insert((0.5, 0.5))

    def test_insert_outside_current_hull(self):
        dt, _ = build([(0.4, 0.4), (0.6, 0.4), (0.5, 0.6)])
        outside = dt.insert((0.95, 0.95))
        dt.validate()
        assert outside in dt.vertex_ids()
        assert len(dt.neighbors(outside)) >= 2

    def test_insert_with_hint_gives_same_structure(self):
        rng = np.random.default_rng(3)
        points = [tuple(p) for p in rng.random((120, 2))]
        plain = DelaunayTriangulation()
        for p in points:
            plain.insert(p)
        hinted = DelaunayTriangulation()
        previous = None
        for p in points:
            previous = hinted.insert(p, hint=previous)
        plain_adj = {v: set(plain.neighbors(v)) for v in plain.vertex_ids()}
        hinted_adj = {v: set(hinted.neighbors(v)) for v in hinted.vertex_ids()}
        assert plain_adj == hinted_adj

    def test_matches_scipy_on_random_points(self, random_points):
        dt, _ = build(random_points)
        assert compare_with_scipy(dt) == []

    def test_validate_passes_after_many_inserts(self, triangulation):
        triangulation.validate()

    def test_mean_degree_below_six(self, triangulation):
        degrees = [triangulation.degree(v) for v in triangulation.vertex_ids()]
        assert 4.0 < np.mean(degrees) < 6.0  # strictly below 6 for finite sets


class TestDeletion:
    def test_remove_unknown_vertex_raises(self):
        dt, _ = build([(0.1, 0.1), (0.9, 0.1), (0.5, 0.9)])
        with pytest.raises(KeyError):
            dt.remove(99)

    def test_remove_interior_vertex(self):
        dt, ids = build([(0.1, 0.1), (0.9, 0.1), (0.5, 0.9), (0.5, 0.4)])
        dt.remove(ids[3])
        dt.validate()
        assert ids[3] not in dt
        assert dt.triangle_count() == 1

    def test_remove_hull_vertex(self):
        dt, ids = build([(0.1, 0.1), (0.9, 0.1), (0.5, 0.9), (0.5, 0.4)])
        dt.remove(ids[0])
        dt.validate()
        assert len(dt) == 3

    def test_remove_down_to_two_points(self):
        dt, ids = build([(0.1, 0.1), (0.9, 0.1), (0.5, 0.9)])
        dt.remove(ids[0])
        assert sorted(dt.neighbors(ids[1])) == [ids[2]]

    def test_remove_then_reinsert_same_position(self):
        dt, ids = build([(0.1, 0.1), (0.9, 0.1), (0.5, 0.9), (0.5, 0.4)])
        dt.remove(ids[3])
        new_id = dt.insert((0.5, 0.4))
        dt.validate()
        assert new_id != ids[3] or new_id == ids[3]  # id policy free, structure valid

    def test_deletions_match_scipy(self, random_points):
        dt, ids = build(random_points)
        rng = np.random.default_rng(9)
        victims = rng.choice(ids, size=80, replace=False)
        for victim in victims:
            dt.remove(int(victim))
        dt.validate()
        assert compare_with_scipy(dt) == []

    def test_interleaved_churn_matches_scipy(self):
        rng = np.random.default_rng(11)
        dt = DelaunayTriangulation()
        alive = []
        for _ in range(600):
            if alive and rng.random() < 0.35:
                victim = alive.pop(int(rng.integers(len(alive))))
                dt.remove(victim)
            else:
                alive.append(dt.insert(tuple(rng.random(2))))
        dt.validate()
        assert compare_with_scipy(dt) == []


class TestLocation:
    def test_nearest_vertex_matches_brute_force(self, triangulation):
        rng = np.random.default_rng(5)
        ids = triangulation.vertex_ids()
        for _ in range(100):
            query = tuple(rng.random(2))
            reported = triangulation.nearest_vertex(query)
            best = min(ids, key=lambda v: distance_sq(triangulation.point(v), query))
            assert distance_sq(triangulation.point(reported), query) == pytest.approx(
                distance_sq(triangulation.point(best), query))

    def test_nearest_vertex_with_hint(self, triangulation):
        ids = triangulation.vertex_ids()
        query = (0.31, 0.62)
        without = triangulation.nearest_vertex(query)
        with_hint = triangulation.nearest_vertex(query, hint=ids[0])
        assert distance_sq(triangulation.point(without), query) == pytest.approx(
            distance_sq(triangulation.point(with_hint), query))

    def test_locate_is_alias(self, triangulation):
        query = (0.77, 0.18)
        assert triangulation.locate(query) == triangulation.nearest_vertex(query)

    def test_nearest_vertex_empty_raises(self):
        with pytest.raises(ValueError):
            DelaunayTriangulation().nearest_vertex((0.5, 0.5))

    def test_nearest_vertex_outside_square(self, triangulation):
        ids = triangulation.vertex_ids()
        query = (1.8, 1.8)
        reported = triangulation.nearest_vertex(query)
        best = min(ids, key=lambda v: distance_sq(triangulation.point(v), query))
        assert distance_sq(triangulation.point(reported), query) == pytest.approx(
            distance_sq(triangulation.point(best), query))


class TestStructure:
    def test_star_ring_is_cyclic_and_consistent(self, triangulation):
        for vid in triangulation.vertex_ids()[:30]:
            ring = triangulation.star_ring(vid)
            finite = [v for v in ring if v != INFINITE_VERTEX]
            assert set(finite) == set(triangulation.neighbors(vid))
            assert len(ring) == len(set(ring))

    def test_hull_vertices_have_infinite_in_ring(self, triangulation):
        hull = [v for v in triangulation.vertex_ids() if triangulation.is_hull_vertex(v)]
        assert 3 <= len(hull) < len(triangulation)
        for vid in hull[:10]:
            assert INFINITE_VERTEX in triangulation.star_ring(vid)

    def test_incident_triangles_contain_vertex(self, triangulation):
        vid = triangulation.vertex_ids()[10]
        for tri in triangulation.incident_triangles(vid):
            assert vid in tri

    def test_edges_are_unique_and_sorted(self, triangulation):
        edges = list(triangulation.edges())
        assert len(edges) == len(set(edges))
        assert all(u < v for u, v in edges)

    def test_euler_formula(self, triangulation):
        # Planar triangulation of a point set: V - E + F = 2 where F counts
        # the outer face; F = triangles + 1.
        v = len(triangulation)
        e = len(list(triangulation.edges()))
        f = triangulation.triangle_count() + 1
        assert v - e + f == 2

    def test_degree_histogram_totals(self, triangulation):
        histogram = triangulation.degree_histogram()
        assert sum(histogram.values()) == len(triangulation)

    def test_points_accessor_copies(self, triangulation):
        points = triangulation.points()
        points[999999] = (0.0, 0.0)
        assert 999999 not in triangulation

    def test_vertex_at_exact_coordinates(self):
        dt, ids = build([(0.25, 0.75), (0.5, 0.5), (0.9, 0.1)])
        assert dt.vertex_at((0.25, 0.75)) == ids[0]
        assert dt.vertex_at((0.1, 0.1)) is None

    def test_rebuild_preserves_adjacency(self, triangulation):
        before = {v: set(triangulation.neighbors(v)) for v in triangulation.vertex_ids()}
        triangles = set(triangulation.triangles())
        triangulation.rebuild()
        after = {v: set(triangulation.neighbors(v)) for v in triangulation.vertex_ids()}
        assert before == after
        assert set(triangulation.triangles()) == triangles
        # A second rebuild is a fixed point, down to where every star starts.
        rings = {v: triangulation.star_ring(v) for v in triangulation.vertex_ids()}
        triangulation.rebuild()
        triangulation.validate()
        assert {v: triangulation.star_ring(v) for v in triangulation.vertex_ids()} == rings
        assert set(triangulation.triangles()) == triangles
        assert triangulation.rebuild_count == 2


class TestRebuildCost:
    """A deterministic complexity guard: predicate calls, not a stopwatch.

    ``rebuild()`` re-inserts along the Morton curve with a rolling hint, so
    the location walks cost a constant number of ``orient2d`` evaluations
    per vertex whatever N is (~10 here).  Re-inserting with one fixed hint
    reads 82 per vertex at N = 1 000 and 235 at N = 4 000 (it grows like
    sqrt N).
    """

    PER_VERTEX_BUDGET = 20

    @staticmethod
    def uniform_kernel(count):
        rng = np.random.default_rng(20260929)
        dt = DelaunayTriangulation()
        dt.bulk_insert([tuple(p) for p in rng.random((count, 2))])
        return dt

    @staticmethod
    def count_orient2d(monkeypatch, operation):
        import repro.geometry.delaunay as kernel_module

        calls = 0
        real = kernel_module.orient2d

        def counting(a, b, c):
            nonlocal calls
            calls += 1
            return real(a, b, c)

        with monkeypatch.context() as patch:
            patch.setattr(kernel_module, "orient2d", counting)
            operation()
        return calls

    def test_rebuild_is_linear_in_predicate_calls(self, monkeypatch):
        per_vertex = {}
        for count in (1000, 4000):
            dt = self.uniform_kernel(count)
            calls = self.count_orient2d(monkeypatch, dt.rebuild)
            dt.validate()
            per_vertex[count] = calls / (count - 3)
            assert per_vertex[count] <= self.PER_VERTEX_BUDGET, per_vertex
        assert per_vertex[4000] / per_vertex[1000] <= 1.3, per_vertex

    def test_hull_departure_is_one_linear_rebuild(self, monkeypatch):
        dt = self.uniform_kernel(4000)
        victim = next(v for v in dt.vertex_ids() if dt.is_hull_vertex(v))
        before = dt.rebuild_count
        calls = self.count_orient2d(monkeypatch, lambda: dt.remove(victim))
        assert dt.rebuild_count == before + 1
        assert calls / (len(dt) - 3) <= self.PER_VERTEX_BUDGET
        dt.validate()
        assert victim not in dt

    def test_interior_departure_does_not_rebuild(self):
        dt = self.uniform_kernel(400)
        victim = next(v for v in dt.vertex_ids() if not dt.is_hull_vertex(v))
        dt.remove(victim)
        assert dt.rebuild_count == 0


class TestStressConfigurations:
    def test_grid_with_cocircular_points(self):
        # A perfect lattice has many cocircular quadruples; the kernel must
        # stay structurally valid even if tie-breaking is arbitrary.
        dt = DelaunayTriangulation()
        for i in range(6):
            for j in range(6):
                dt.insert((i / 5.0, j / 5.0))
        dt.validate()
        assert len(dt) == 36

    def test_clustered_points(self):
        rng = np.random.default_rng(2)
        dt = DelaunayTriangulation()
        cluster = 0.5 + rng.random((150, 2)) * 1e-4
        for p in cluster:
            dt.insert(tuple(p))
        dt.validate()
        assert compare_with_scipy(dt) == []

    def test_points_on_two_scales(self):
        # Mixing unit-scale points with a 1e-5-wide cluster produces nearly
        # cocircular circumcircles where Qhull's merged-facet output can
        # legitimately differ from the exact answer, so we do not compare
        # against scipy here; we assert our own exact invariants instead.
        rng = np.random.default_rng(4)
        dt = DelaunayTriangulation()
        for p in rng.random((50, 2)):
            dt.insert(tuple(p))
        for p in 0.3 + rng.random((50, 2)) * 1e-5:
            dt.insert(tuple(p))
        dt.validate()
        for vid in dt.vertex_ids():
            for nb in dt.neighbors(vid):
                assert vid in dt.neighbors(nb)


class TestBulkInsert:
    def test_same_triangulation_as_sequential(self):
        rng = np.random.default_rng(11)
        points = [tuple(p) for p in rng.random((200, 2))]
        sequential = DelaunayTriangulation()
        for p in points:
            sequential.insert(p)
        bulk = DelaunayTriangulation()
        ids = bulk.bulk_insert(points)
        assert ids == list(range(200))
        bulk.validate()
        assert compare_with_scipy(bulk) == []
        for vid in sequential.vertex_ids():
            assert sorted(bulk.neighbors(vid)) == sorted(sequential.neighbors(vid))

    def test_explicit_vertex_ids_follow_input_order(self):
        bulk = DelaunayTriangulation()
        ids = bulk.bulk_insert([(0.9, 0.9), (0.1, 0.1), (0.5, 0.2)],
                               vertex_ids=[7, 3, 5])
        assert ids == [7, 3, 5]
        assert bulk.point(7) == (0.9, 0.9)
        assert bulk.point(3) == (0.1, 0.1)

    def test_bulk_into_existing_triangulation(self):
        rng = np.random.default_rng(12)
        dt = DelaunayTriangulation()
        for p in rng.random((40, 2)):
            dt.insert(tuple(p))
        dt.bulk_insert([tuple(p) for p in rng.random((60, 2))])
        dt.validate()
        assert compare_with_scipy(dt) == []

    def test_duplicate_in_batch_rejected_without_mutation(self):
        dt = DelaunayTriangulation()
        dt.insert((0.5, 0.5))
        with pytest.raises(DuplicatePointError):
            dt.bulk_insert([(0.1, 0.1), (0.5, 0.5)])
        assert len(dt) == 1
        with pytest.raises(DuplicatePointError):
            dt.bulk_insert([(0.2, 0.2), (0.2, 0.2)])
        assert len(dt) == 1

    def test_mismatched_or_reused_ids_rejected(self):
        dt = DelaunayTriangulation()
        dt.insert((0.5, 0.5))  # takes id 0
        with pytest.raises(ValueError):
            dt.bulk_insert([(0.1, 0.1)], vertex_ids=[0])
        with pytest.raises(ValueError):
            dt.bulk_insert([(0.1, 0.1), (0.2, 0.2)], vertex_ids=[1])
        with pytest.raises(ValueError):
            dt.bulk_insert([(0.1, 0.1), (0.2, 0.2)], vertex_ids=[1, 1])

    def test_degenerate_batches(self):
        collinear_dt = DelaunayTriangulation()
        collinear_dt.bulk_insert([(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)])
        assert not collinear_dt.has_triangulation
        assert sorted(collinear_dt.neighbors(1)) == [0, 2]
        tiny = DelaunayTriangulation()
        assert tiny.bulk_insert([(0.4, 0.6)]) == [0]
        assert tiny.bulk_insert([]) == []


class TestDegreeMap:
    def test_matches_per_vertex_degrees(self):
        rng = np.random.default_rng(13)
        dt = DelaunayTriangulation()
        dt.bulk_insert([tuple(p) for p in rng.random((120, 2))])
        degrees = dt.degree_map()
        assert degrees == {vid: dt.degree(vid) for vid in dt.vertex_ids()}

    def test_degenerate_point_set(self):
        dt = DelaunayTriangulation()
        dt.insert((0.1, 0.1))
        dt.insert((0.2, 0.2))
        assert dt.degree_map() == {0: 1, 1: 1}
