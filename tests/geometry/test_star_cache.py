"""A cached star is a valid star.

The kernel caches each vertex's finite neighbours as a tuple of their
``(id, x, y)`` records in star order, and every mutation drops exactly the
stars it changed (``repro.geometry.delaunay``, "Caches").  Here:

* ``star_cache_report()`` names a planted stale star (wrong order, wrong
  ids, a wrong record, a departed vertex's), and so do the two program-wide
  checks that append it, ``VoroNet.check_consistency()`` and
  ``ProtocolSimulator.verify_views()``;
* a Hypothesis state machine interleaves single and batch insertions,
  interior and hull removals, rebuilds, point locations and neighbour
  reads, on uniform points and on a cocircular grid, and after every step
  finds ``validate()`` passing (triangle slots, corners, Delaunay), the
  report empty and ``neighbors(v)`` equal to the star walk, in order — with
  every star cached before the next step, so a mutation that forgets one
  has a stale star to leave behind;
* records: one per vertex, the same object through a rebuild, dropped with
  the vertex.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import VoroNet, VoroNetConfig
from repro.geometry.delaunay import INFINITE_VERTEX, DelaunayTriangulation, DuplicatePointError
from repro.geometry.point import distance_sq
from repro.simulation.protocol import ProtocolSimulator


def walk(dt, vertex_id):
    """``vertex_id``'s finite neighbours by a fresh walk of its star."""
    return [v for v in dt.star_ring(vertex_id) if v != INFINITE_VERTEX]


def warm_stars(dt):
    """Cache every vertex's star: a descent from a vertex to its own
    position reads (and on a miss caches) that vertex's star."""
    for vertex_id in dt.vertex_ids():
        assert dt.nearest_vertex(dt.point(vertex_id), hint=vertex_id) == vertex_id


def uniform_kernel(count=60, seed=3):
    dt = DelaunayTriangulation()
    dt.bulk_insert([tuple(p) for p in np.random.default_rng(seed).random((count, 2))])
    return dt


class TestReport:
    def test_a_warm_kernel_reports_nothing(self):
        dt = uniform_kernel()
        warm_stars(dt)
        assert set(dt._stars) == set(dt.vertex_ids())
        assert dt.star_cache_report() == []
        for vertex_id in dt.vertex_ids():
            assert dt.neighbors(vertex_id) == walk(dt, vertex_id)
            assert all(record is dt.records[record[0]] for record in dt._stars[vertex_id])

    def test_planted_stale_stars_are_named(self):
        dt = uniform_kernel()
        warm_stars(dt)
        rotated, shrunk, moved = dt.vertex_ids()[:3]
        star = dt._stars[rotated]
        dt._stars[rotated] = star[1:] + star[:1]          # same ids, other order
        dt._stars[shrunk] = dt._stars[shrunk][1:]         # an id missing
        first = dt._stars[moved][0]
        displaced = (first[0], first[1] + 0.5, first[2])
        dt._stars[moved] = (displaced,) + dt._stars[moved][1:]
        dt._stars[10_000] = ()                            # a departed vertex's
        problems = dt.star_cache_report()
        assert len(problems) == 4
        assert problems[0].startswith(f"{rotated}: cached star ")
        assert problems[1].startswith(f"{shrunk}: cached star ")
        assert problems[2] == f"{moved}: cached star holds {displaced}, not the vertex's record"
        assert problems[3] == "10000: cached star of a departed vertex"

    def test_check_consistency_appends_the_report(self):
        overlay = VoroNet(VoroNetConfig(n_max=400, seed=5))
        overlay.bulk_load([tuple(p) for p in np.random.default_rng(5).random((80, 2))])
        kernel = overlay.triangulation
        warm_stars(kernel)
        assert overlay.check_consistency() == []
        victim = overlay.object_ids()[7]
        kernel._stars[victim] = kernel._stars[victim][::-1]
        stale, = overlay.check_consistency()
        assert stale.startswith(f"{victim}: cached star ")

    def test_verify_views_appends_the_report(self):
        simulator = ProtocolSimulator(VoroNetConfig(n_max=400, seed=6), seed=6)
        simulator.bulk_join([tuple(p) for p in np.random.default_rng(6).random((60, 2))])
        kernel = simulator.kernel
        warm_stars(kernel)
        assert simulator.verify_views() == []
        victim = simulator.object_ids()[3]
        # Out of order only: the local views still agree with the kernel's
        # neighbour sets, and the report is what names the star.
        kernel._stars[victim] = kernel._stars[victim][::-1]
        stale, = simulator.verify_views()
        assert stale.startswith(f"{victim}: cached star ")


class TestRecords:
    def test_one_record_per_vertex_kept_through_a_rebuild(self):
        dt = uniform_kernel()
        before = dict(dt.records)
        assert all(record == (vertex_id,) + dt.point(vertex_id)
                   for vertex_id, record in before.items())
        dt.rebuild()
        assert all(dt.records[vertex_id] is record for vertex_id, record in before.items())

    def test_a_record_leaves_with_its_vertex(self):
        dt = uniform_kernel()
        warm_stars(dt)
        interior = next(v for v in dt.vertex_ids() if not dt.is_hull_vertex(v))
        hull = next(v for v in dt.vertex_ids() if dt.is_hull_vertex(v))
        for victim in (interior, hull):
            dt.remove(victim)
            assert victim not in dt.records
        assert set(dt.records) == set(dt.vertex_ids())
        assert dt.star_cache_report() == []


#: Uniform on a 10⁻⁶ lattice: no two coordinates a few ulps apart, where
#: the collinear path's projections and greedy location's float distances
#: tie by rounding (the kernel's own limit, not the cache's).
uniform_coordinate = st.integers(min_value=0, max_value=10**6).map(lambda v: v / 10**6)
#: A 9 × 9 lattice: collinear hull runs and cocircular quadruples everywhere.
grid_coordinate = st.integers(min_value=0, max_value=8).map(lambda v: v / 8)


class StarCacheMachine(RuleBasedStateMachine):
    """Every mutation drops exactly the stars it changed."""

    coordinate = uniform_coordinate

    def __init__(self):
        super().__init__()
        self.dt = DelaunayTriangulation()

    def _pick(self, candidates, token):
        candidates = sorted(candidates)
        return candidates[token % len(candidates)]

    @rule(data=st.data())
    def insert(self, data):
        point = data.draw(st.tuples(self.coordinate, self.coordinate))
        hint = data.draw(st.sampled_from([None, *self.dt.vertex_ids()]))
        try:
            self.dt.insert(point, hint=hint)
        except DuplicatePointError:
            pass

    @rule(data=st.data())
    def bulk_insert(self, data):
        points = data.draw(st.lists(st.tuples(self.coordinate, self.coordinate),
                                    min_size=1, max_size=8, unique=True))
        try:
            self.dt.bulk_insert(points)
        except DuplicatePointError:
            pass

    @precondition(lambda self: self.dt.has_triangulation)
    @rule(token=st.integers(min_value=0))
    def remove_interior(self, token):
        interior = [v for v in self.dt.vertex_ids() if not self.dt.is_hull_vertex(v)]
        if interior:
            self.dt.remove(self._pick(interior, token))

    @precondition(lambda self: len(self.dt) > 0)
    @rule(token=st.integers(min_value=0))
    def remove_hull(self, token):
        hull = [v for v in self.dt.vertex_ids() if self.dt.is_hull_vertex(v)]
        self.dt.remove(self._pick(hull, token))

    @rule()
    def rebuild(self):
        self.dt.rebuild()

    @precondition(lambda self: len(self.dt) > 0)
    @rule(x=uniform_coordinate, y=uniform_coordinate)
    def nearest_vertex(self, x, y):
        dt = self.dt
        owner = dt.nearest_vertex((x, y))
        closest = min(distance_sq(dt.point(v), (x, y)) for v in dt.vertex_ids())
        assert distance_sq(dt.point(owner), (x, y)) <= closest + 1e-15

    @precondition(lambda self: len(self.dt) > 0)
    @rule(token=st.integers(min_value=0))
    def neighbors(self, token):
        vertex_id = self._pick(self.dt.vertex_ids(), token)
        for neighbor in self.dt.neighbors(vertex_id):
            assert vertex_id in self.dt.neighbors(neighbor)

    @invariant()
    def cached_stars_are_walks(self):
        dt = self.dt
        dt.validate()  # the slots, every corner, the Delaunay property
        assert dt.star_cache_report() == []
        assert set(dt.records) == set(dt.vertex_ids())
        if dt.has_triangulation:
            for vertex_id in dt.vertex_ids():
                assert dt.neighbors(vertex_id) == walk(dt, vertex_id)
        # Hand the next step a full cache to get wrong.
        warm_stars(dt)
        assert dt.star_cache_report() == []


class GridStarCacheMachine(StarCacheMachine):
    coordinate = grid_coordinate


TestStarCacheUniform = StarCacheMachine.TestCase
TestStarCacheUniform.settings = settings(max_examples=30, stateful_step_count=30, deadline=None)
TestStarCacheGrid = GridStarCacheMachine.TestCase
TestStarCacheGrid.settings = settings(max_examples=30, stateful_step_count=30, deadline=None)
