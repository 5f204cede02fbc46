"""Incremental Delaunay triangulation with insertion and deletion.

This kernel is the geometric heart of the VoroNet reproduction: the
adjacency of the Delaunay triangulation *is* the set of Voronoi neighbours
``vn(o)`` each overlay object maintains, and nearest-vertex location on the
triangulation is exactly "find the object whose Voronoi region contains
this point".

Design
------
The triangulation is stored as a triangulation of the topological sphere:
every finite triangle ``(u, v, w)`` is kept in counter-clockwise order, and
the outside of the convex hull is covered by *ghost triangles* that share a
hull edge and a virtual vertex at infinity (:data:`INFINITE_VERTEX`).  This
is the classic trick that makes insertion outside the hull, hull updates
and vertex stars completely uniform — no special boundary cases in the
combinatorial machinery.

The only container is a map from every *directed* edge ``(u, v)`` to the
apex ``w`` of the triangle ``(u, v, w)`` lying to the left of the edge.
The neighbouring triangle across ``(u, v)`` is the one stored under the
reverse edge ``(v, u)``.

Operations
----------
* **Insertion** is Bowyer–Watson: locate a seed triangle whose circumdisk
  contains the new point by a visibility walk, grow the cavity of all such
  triangles by breadth-first search, and re-triangulate the cavity boundary
  as a fan around the new point.  Ghost triangles use Shewchuk's rule: their
  "circumdisk" is the open half-plane beyond their hull edge plus the open
  edge itself.
* **Batches** — :meth:`~DelaunayTriangulation.bulk_insert`, the first
  bootstrap and :meth:`~DelaunayTriangulation.rebuild` — go through one
  loop: the points are sorted along a Morton (Z-order) curve and each
  insertion is hinted by the previous one, so every location walk is O(1)
  and the batch is linear in its size.  The order cannot change the result:
  the Delaunay triangulation of a point set is unique up to the choice of
  diagonals among exactly cocircular points.
* **Deletion** has two costs.  An *interior* vertex of degree d is removed
  locally: its star is deleted and the star-shaped polygon re-triangulated
  by Delaunay ear clipping (an ear is clipped when it is convex and its
  circumcircle is empty of the other polygon vertices), O(d²) predicate
  calls, d ≈ 6.  A *convex-hull* vertex — one whose star touches the
  infinite vertex — is removed by one :meth:`~DelaunayTriangulation.rebuild`
  of the N remaining points, O(N) at ``bulk_insert`` speed.  That is not
  rare enough to ignore: uniform points have O(log N) hull vertices (~25 at
  N = 10⁴, one departure in ~400), so hull departures set the *mean* cost
  of a leave while interior ones set its median;
  :attr:`~DelaunayTriangulation.rebuild_count` says how many a run paid.
  Ear-clipping the hull star too (O(d), with the infinite vertex as one
  polygon corner) is the open follow-up.
* **Point location** (``nearest_vertex``) is greedy descent on the Delaunay
  graph, which provably reaches the vertex whose Voronoi cell contains the
  query point.

Caches
------
* **One record per vertex.**  Each vertex has one ``(id, x, y)`` tuple,
  created with the vertex and dropped with it
  (:attr:`~DelaunayTriangulation.records`).  A rebuild re-inserts vertices
  but keeps their records.  Whoever needs a neighbour's id and position
  together holds that tuple, not a copy: the kernel's stars and the
  overlay's routing tables do.
* **A cached star is a valid star.**  A vertex's finite neighbours are
  cached as a tuple of their records, in
  :meth:`~DelaunayTriangulation.star_ring` order, and each mutation drops
  exactly the stars it changed.  These are the vertices whose
  ``_vertex_edge`` entry ``_add_triangle`` resets, so a walk that starts
  over from that entry lists a star that is still cached element for
  element:

  - an insertion drops the vertices on its cavity boundary (the new vertex
    has no entry: removing a vertex drops its entry, so a reused id has
    none either);
  - an interior removal drops the departing vertex and its ring;
  - the first bootstrap and every :meth:`~DelaunayTriangulation.rebuild`
    drop every star.  Nothing is cached while the points are degenerate
    (fewer than three that are not collinear).

  :meth:`~DelaunayTriangulation.nearest_vertex` fills the cache on a miss.
  :meth:`~DelaunayTriangulation.neighbors` (and through it the overlay's
  routing-table assembly) reads it but, on a miss, walks without filling
  it.  Its misses on the mutation paths always follow an invalidation, so
  a star cached there would be dropped again by the next mutation nearby,
  and the protocol's joins and leaves, which read mostly there, measured
  slower when it was.
  :meth:`~DelaunayTriangulation.star_cache_report` compares every cached
  star with a fresh walk.
* **Why tuples.**  CPython stops tracking a tuple once a collection finds
  all its items atomic (ints, floats) or untracked tuples.  A record, a
  star and a routing-table block built from records are untracked by their
  first young collection, and a tuple holding such a block by the next
  pass of its generation.  None of them reaches the oldest generation: the
  garbage collector neither triggers a full collection for them nor
  traverses them during one.
* **Why the maps stay tracked.**  The maps that hold them are the other
  way round.  A plain dict whose keys and values are all atomic or
  untracked is untracked by every full collection, and the next insertion
  of a fresh tuple tracks it again *in the youngest generation*, where the
  next one or two young collections walk every entry.  For this kernel's
  maps at N = 5·10⁴ (about 600 k entries with the locate grid's) that cost
  20–25 ms per collection, and where it fell depended on allocation
  counts: in the first mutations after a full collection or in whatever
  ran next.
  The kernel's maps and the locate grid's point map are
  :class:`TrackedDict`, which the collector never untracks, so they stay in
  the oldest generation and only full collections walk them.

All topological decisions go through the robust predicates of
:mod:`repro.geometry.predicates`, so the structure stays consistent under
near-degenerate inputs (the property the paper gets from Sugihara–Iri).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.geometry.predicates import incircle, orient2d, segment_contains

__all__ = ["DelaunayTriangulation", "DuplicatePointError", "INFINITE_VERTEX",
           "morton_order"]

#: Sentinel id of the vertex at infinity used by ghost triangles.
INFINITE_VERTEX = -1

Triangle = Tuple[int, int, int]
DirectedEdge = Tuple[int, int]
#: ``(id, x, y)``: the one record the kernel keeps per vertex.
Record = Tuple[int, float, float]


class TrackedDict(dict):
    """A dict the garbage collector never untracks (module docstring, Caches).

    CPython untracks only exact dicts; a subclass stays where its
    collections promoted it.
    """

    __slots__ = ()


class DuplicatePointError(ValueError):
    """Raised when inserting a point that coincides exactly with an existing vertex."""

    def __init__(self, point: Point, existing_vertex: int) -> None:
        super().__init__(
            f"point {point!r} duplicates existing vertex {existing_vertex}"
        )
        self.point = point
        self.existing_vertex = existing_vertex


class TriangulationCorruptionError(RuntimeError):
    """Raised by :meth:`DelaunayTriangulation.validate` on invariant violation."""


def morton_order(points: Sequence[Point]) -> List[int]:
    """Indices of ``points`` sorted along a Morton (Z-order) curve.

    Coordinates are normalised to the batch's bounding box and quantised to
    a 1024-cell lattice per axis — enough locality for hinted insertion;
    exactness is irrelevant because the order only affects speed.  The bit
    interleaving runs vectorised over the whole batch.
    """
    if len(points) < 3:
        return list(range(len(points)))
    pts = np.asarray(points, dtype=np.float64)
    mins = pts.min(axis=0)
    spans = pts.max(axis=0) - mins
    spans[spans == 0.0] = 1.0
    quantized = ((pts - mins) / spans * 1023.0).astype(np.uint32)
    qx = quantized[:, 0]
    qy = quantized[:, 1]
    codes = np.zeros(len(points), dtype=np.uint32)
    for component, shift in ((qx, 0), (qy, 1)):
        v = component & np.uint32(0xFFFF)
        v = (v | (v << 8)) & np.uint32(0x00FF00FF)
        v = (v | (v << 4)) & np.uint32(0x0F0F0F0F)
        v = (v | (v << 2)) & np.uint32(0x33333333)
        v = (v | (v << 1)) & np.uint32(0x55555555)
        codes |= v << np.uint32(shift)
    return [int(i) for i in np.argsort(codes, kind="stable")]


def _normalize(u: int, v: int, w: int) -> Triangle:
    """Canonical rotation of a triangle (smallest id first, cyclic order kept)."""
    if u <= v and u <= w:
        return (u, v, w)
    if v <= u and v <= w:
        return (v, w, u)
    return (w, u, v)


class DelaunayTriangulation:
    """An incremental 2-D Delaunay triangulation.

    Parameters
    ----------
    points:
        Optional initial points, inserted in order.

    Examples
    --------
    >>> dt = DelaunayTriangulation()
    >>> a = dt.insert((0.1, 0.1))
    >>> b = dt.insert((0.9, 0.1))
    >>> c = dt.insert((0.5, 0.8))
    >>> d = dt.insert((0.5, 0.4))
    >>> sorted(dt.neighbors(d)) == sorted([a, b, c])
    True
    """

    def __init__(self, points: Optional[Sequence[Point]] = None) -> None:
        self._points: Dict[int, Point] = TrackedDict()
        self._records: Dict[int, Record] = TrackedDict()
        self._coord_index: Dict[Point, int] = TrackedDict()
        self._apex: Dict[DirectedEdge, int] = TrackedDict()
        self._vertex_edge: Dict[int, DirectedEdge] = TrackedDict()
        self._has_triangulation = False
        self._next_id = 0
        self._last_vertex: Optional[int] = None
        # Monotone structure version, bumped on every topological mutation
        # (insert, remove, rebuild) for consumers outside the kernel.
        self._version = 0
        # Vertex → its finite neighbours' records in star order, dropped by
        # id when a mutation changes the star (module docstring, Caches).
        self._stars: Dict[int, Tuple[Record, ...]] = TrackedDict()
        #: Calls of :meth:`rebuild` so far — one per departed hull vertex
        #: plus any made directly.  A plain counter, never reset.
        self.rebuild_count = 0
        if points:
            for p in points:
                self.insert(p)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, vertex_id: int) -> bool:
        return vertex_id in self._points

    @property
    def has_triangulation(self) -> bool:
        """Whether a full (non-degenerate) triangulation currently exists."""
        return self._has_triangulation

    def vertex_ids(self) -> List[int]:
        """All finite vertex ids currently in the triangulation."""
        return list(self._points.keys())

    def point(self, vertex_id: int) -> Point:
        """Coordinates of a vertex."""
        return self._points[vertex_id]

    @property
    def records(self) -> Mapping[int, Record]:
        """Every vertex's one ``(id, x, y)`` record, by id.

        The kernel's own map, for reading only: ``records[v]`` is the same
        object for as long as ``v`` is a vertex.
        """
        return self._records

    def points(self) -> Dict[int, Point]:
        """A copy of the id → coordinates mapping."""
        return dict(self._points)

    def vertex_at(self, point: Point) -> Optional[int]:
        """The vertex with exactly these coordinates, if any."""
        return self._coord_index.get((float(point[0]), float(point[1])))

    @property
    def last_vertex(self) -> Optional[int]:
        """The most recently inserted vertex (the default location hint)."""
        return self._last_vertex

    @property
    def version(self) -> int:
        """Monotone structure version, bumped on every topological mutation.

        A token for consumers outside the kernel: they stamp what they
        derived from the adjacency (view snapshots, repair-audit verdicts)
        with it and compare the stamp with this value.  It is not a mutation
        counter: one operation may advance it more than once (e.g. a rebuild
        re-inserting every vertex).
        """
        return self._version

    def advance_version(self, minimum: int) -> None:
        """Raise the structure version to at least ``minimum``.

        Used when this triangulation supersedes forks that mutated (and
        so version-advanced) independently — e.g. the union kernel built
        on partition heal must dominate every side's partial order so its
        version-stamped view snapshots win at every node.  Never lowers
        the version (monotonicity is the whole contract).
        """
        if minimum > self._version:
            self._version = minimum

    # ------------------------------------------------------------------
    # triangle bookkeeping
    # ------------------------------------------------------------------
    def _add_triangle(self, u: int, v: int, w: int) -> None:
        self._apex[(u, v)] = w
        self._apex[(v, w)] = u
        self._apex[(w, u)] = v
        self._vertex_edge[u] = (u, v)
        self._vertex_edge[v] = (v, w)
        self._vertex_edge[w] = (w, u)

    def _remove_triangle(self, u: int, v: int, w: int) -> None:
        del self._apex[(u, v)]
        del self._apex[(v, w)]
        del self._apex[(w, u)]

    def _register(self, vertex_id: int, point: Point) -> None:
        """Create a vertex's coordinate entries and its record."""
        self._points[vertex_id] = point
        self._coord_index[point] = vertex_id
        self._records[vertex_id] = (vertex_id,) + point

    def _unregister(self, vertex_id: int) -> None:
        """Drop everything kept for a departed vertex, its star included."""
        self._coord_index.pop(self._points.pop(vertex_id), None)
        del self._records[vertex_id]
        self._vertex_edge.pop(vertex_id, None)
        self._stars.pop(vertex_id, None)

    def triangles(self) -> Iterator[Triangle]:
        """Iterate over the finite triangles, each exactly once, CCW."""
        seen: Set[Triangle] = set()
        for (u, v), w in self._apex.items():
            if u == INFINITE_VERTEX or v == INFINITE_VERTEX or w == INFINITE_VERTEX:
                continue
            tri = _normalize(u, v, w)
            if tri not in seen:
                seen.add(tri)
                yield tri

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over finite undirected edges as ``(u, v)`` with ``u < v``."""
        if self._has_triangulation:
            for (u, v) in self._apex:
                if u == INFINITE_VERTEX or v == INFINITE_VERTEX:
                    continue
                if u < v:
                    yield (u, v)
        else:
            ids = list(self._points)
            for i, u in enumerate(ids):
                for v in self._degenerate_neighbors(u):
                    if u < v:
                        yield (u, v)

    def triangle_count(self) -> int:
        """Number of finite triangles."""
        return sum(1 for _ in self.triangles())

    # ------------------------------------------------------------------
    # degenerate (fewer than 3 non-collinear points) handling
    # ------------------------------------------------------------------
    def _find_non_collinear_triple(self) -> Optional[Tuple[int, int, int]]:
        ids = list(self._points)
        if len(ids) < 3:
            return None
        a = ids[0]
        b = None
        for candidate in ids[1:]:
            if self._points[candidate] != self._points[a]:
                b = candidate
                break
        if b is None:
            return None
        pa, pb = self._points[a], self._points[b]
        for c in ids:
            if c in (a, b):
                continue
            if orient2d(pa, pb, self._points[c]) != 0:
                return (a, b, c)
        return None

    def _try_bootstrap(self) -> None:
        """Triangulate every registered point, once 3 non-collinear ones exist.

        Seeds one triangle and its three ghosts, then inserts all the other
        points through :meth:`_insert_sorted`: none when the third
        non-collinear point has just arrived, N - 3 on a :meth:`rebuild` —
        linear either way.
        """
        triple = self._find_non_collinear_triple()
        if triple is None:
            return
        a, b, c = triple
        pa, pb, pc = self._points[a], self._points[b], self._points[c]
        if orient2d(pa, pb, pc) < 0:
            b, c = c, b
        self._apex.clear()
        self._vertex_edge.clear()
        self._stars.clear()
        self._add_triangle(a, b, c)
        # Ghost triangles: one per hull edge, keyed by the reversed edge.
        self._add_triangle(b, a, INFINITE_VERTEX)
        self._add_triangle(c, b, INFINITE_VERTEX)
        self._add_triangle(a, c, INFINITE_VERTEX)
        self._has_triangulation = True
        remaining = [vid for vid in self._points if vid not in (a, b, c)]
        self._insert_sorted(remaining, [self._points[vid] for vid in remaining], a)

    def _degenerate_neighbors(self, vertex_id: int) -> List[int]:
        """Neighbours when no triangulation exists (≤2 points or all collinear).

        With all points on a common line, the natural Delaunay graph is the
        path along the line; we return the nearest existing point on each
        side.  With one or two points, the other point (if any) is the sole
        neighbour.
        """
        others = [vid for vid in self._points if vid != vertex_id]
        if len(others) <= 1:
            return others
        p = self._points[vertex_id]
        anchor = None
        for vid in others:
            if self._points[vid] != p:
                anchor = self._points[vid]
                break
        if anchor is None:
            return []
        # Project every point on the (p, anchor) line and take the adjacent ones.
        dx, dy = anchor[0] - p[0], anchor[1] - p[1]

        def coord(q: Point) -> float:
            return (q[0] - p[0]) * dx + (q[1] - p[1]) * dy

        before: Optional[Tuple[float, int]] = None
        after: Optional[Tuple[float, int]] = None
        for vid in others:
            t = coord(self._points[vid])
            if t < 0 and (before is None or t > before[0]):
                before = (t, vid)
            elif t > 0 and (after is None or t < after[0]):
                after = (t, vid)
            elif t == 0:
                # Coincident projection (duplicate location along the line).
                after = (0.0, vid) if after is None else after
        result = []
        if before is not None:
            result.append(before[1])
        if after is not None:
            result.append(after[1])
        return result

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, point: Point, vertex_id: Optional[int] = None,
               hint: Optional[int] = None) -> int:
        """Insert a point and return its vertex id.

        Parameters
        ----------
        point:
            ``(x, y)`` coordinates.
        vertex_id:
            Optional caller-chosen id (must be a fresh non-negative integer);
            auto-assigned when omitted.
        hint:
            A vertex id believed to be close to ``point``; point location
            starts there, making insertion effectively constant time when the
            hint is the nearest vertex (as it is during VoroNet joins).
        """
        point = (float(point[0]), float(point[1]))
        existing = self._coord_index.get(point)
        if existing is not None:
            raise DuplicatePointError(point, existing)
        if vertex_id is None:
            vertex_id = self._next_id
            self._next_id += 1
        else:
            if vertex_id < 0:
                raise ValueError("vertex ids must be non-negative")
            if vertex_id in self._points:
                raise ValueError(f"vertex id {vertex_id} already in use")
            self._next_id = max(self._next_id, vertex_id + 1)
        self._register(vertex_id, point)
        if not self._has_triangulation:
            self._try_bootstrap()
            # Degenerate-path insertions (< 3 non-collinear points) change
            # the implied path adjacency without touching any triangle;
            # the triangulated path bumps inside _insert_into_triangulation
            # (shared with bulk_insert, which bypasses this method).
            self._version += 1
        else:
            self._insert_into_triangulation(vertex_id, hint)
        self._last_vertex = vertex_id
        return vertex_id

    def bulk_insert(self, points: Sequence[Point],
                    vertex_ids: Optional[Sequence[int]] = None) -> List[int]:
        """Insert a batch of points in one spatially sorted pass.

        The batch is validated up front (no partial mutation on duplicate
        input), ordered along a Morton (Z-order) curve, and inserted with
        the kernel's last-insert hint: consecutive points are spatial
        neighbours, so every location walk starts next to its answer and
        each insertion runs in effectively constant time.  The resulting
        triangulation is identical to inserting the points in any other
        order (the Delaunay triangulation is order-independent up to
        cocircular degeneracies).

        Parameters
        ----------
        points:
            Batch of ``(x, y)`` coordinates.
        vertex_ids:
            Optional caller-chosen ids aligned with ``points`` (fresh,
            non-negative, pairwise distinct); auto-assigned when omitted.

        Returns
        -------
        The vertex ids in **input order** (not insertion order).
        """
        pts = [(float(p[0]), float(p[1])) for p in points]
        if vertex_ids is None:
            ids = list(range(self._next_id, self._next_id + len(pts)))
        else:
            ids = [int(v) for v in vertex_ids]
            if len(ids) != len(pts):
                raise ValueError("vertex_ids must align with points")
            if len(set(ids)) != len(ids):
                raise ValueError("vertex_ids must be pairwise distinct")
            for vid in ids:
                if vid < 0:
                    raise ValueError("vertex ids must be non-negative")
                if vid in self._points:
                    raise ValueError(f"vertex id {vid} already in use")
        first_index: Dict[Point, int] = {}
        for index, p in enumerate(pts):
            existing = self._coord_index.get(p)
            if existing is not None:
                raise DuplicatePointError(p, existing)
            if p in first_index:
                raise DuplicatePointError(p, ids[first_index[p]])
            first_index[p] = index
        if ids:
            self._last_vertex = self._insert_sorted(ids, pts, self._last_vertex)
            self._next_id = max(self._next_id, max(ids) + 1)
        return ids

    def _insert_sorted(self, ids: Sequence[int], pts: Sequence[Point],
                       hint: Optional[int]) -> Optional[int]:
        """Insert validated vertices along the Morton curve; return the last.

        The one whole-batch insertion loop of the kernel, shared by
        :meth:`bulk_insert` and :meth:`_try_bootstrap` (first bootstrap and
        :meth:`rebuild`).  Each location walk is hinted by the previous
        insertion, its neighbour on the curve, so it starts next to its
        answer whatever the size of the triangulation; ``hint`` seeds the
        first walk.
        """
        for index in morton_order(pts):
            vid, point = ids[index], pts[index]
            if self._has_triangulation:
                # Validated by the caller: bypass insert()'s re-checks and
                # go straight to the hinted Bowyer–Watson step.  The
                # vertices a rebuild re-inserts are registered already, and
                # keep their records.
                if vid not in self._records:
                    self._register(vid, point)
                self._insert_into_triangulation(vid, hint)
            else:
                self.insert(point, vertex_id=vid)
            hint = vid
        return hint

    def _finite_triangle_at(self, vertex_id: int) -> Triangle:
        """Some finite triangle incident to ``vertex_id``."""
        edge = self._vertex_edge.get(vertex_id)
        if edge is None or edge not in self._apex or edge[0] != vertex_id:
            edge = self._rescan_vertex_edge(vertex_id)
        u, v = edge
        start = v
        w = self._apex[(u, v)]
        guard = 0
        while INFINITE_VERTEX in (v, w):
            v, w = w, self._apex[(u, w)]
            guard += 1
            if v == start or guard > len(self._apex):
                raise TriangulationCorruptionError(
                    f"vertex {vertex_id} has no finite incident triangle"
                )
        return (u, v, w)

    def _rescan_vertex_edge(self, vertex_id: int) -> DirectedEdge:
        for edge in self._apex:
            if edge[0] == vertex_id:
                self._vertex_edge[vertex_id] = edge
                return edge
        raise TriangulationCorruptionError(
            f"vertex {vertex_id} has no incident triangles"
        )

    def _walk_to_seed(self, point: Point, hint: Optional[int]) -> Triangle:
        """Find a triangle whose circumdisk contains ``point`` (visibility walk)."""
        start = hint if hint is not None and hint in self._points else self._last_vertex
        if start is None or start not in self._points:
            start = next(iter(self._points))
        try:
            tri = self._finite_triangle_at(start)
        except TriangulationCorruptionError:
            # The hinted vertex is not (yet) part of the triangle structure,
            # e.g. during a rebuild; start from any triangulated vertex.
            start = next(u for (u, _v) in self._apex if u != INFINITE_VERTEX)
            tri = self._finite_triangle_at(start)
        max_steps = 4 * max(len(self._apex), 8)
        for _ in range(max_steps):
            u, v, w = tri
            pu, pv, pw = self._points[u], self._points[v], self._points[w]
            moved = False
            for a, b, pa, pb in ((u, v, pu, pv), (v, w, pv, pw), (w, u, pw, pu)):
                if orient2d(pa, pb, point) < 0:
                    apex = self._apex[(b, a)]
                    if apex == INFINITE_VERTEX:
                        # point lies strictly beyond the hull edge (a, b): the
                        # ghost triangle's half-plane circumdisk contains it.
                        return (b, a, INFINITE_VERTEX)
                    tri = (b, a, apex)
                    moved = True
                    break
            if not moved:
                return tri
        return self._brute_force_seed(point)

    def _brute_force_seed(self, point: Point) -> Triangle:
        """Fallback seed search scanning every triangle (used only on walk failure)."""
        for (u, v), w in self._apex.items():
            if self._in_circumdisk((u, v, w), point):
                return (u, v, w)
        raise TriangulationCorruptionError(
            f"no triangle circumdisk contains {point!r}"
        )

    def _in_circumdisk(self, triangle: Triangle, point: Point) -> bool:
        u, v, w = triangle
        if INFINITE_VERTEX in triangle:
            # Rotate so the triangle reads (a, b, INFINITE): edge (a, b) is the
            # reversed hull edge, and the ghost circumdisk is the open
            # half-plane strictly left of a → b plus the open segment ab.
            if u == INFINITE_VERTEX:
                a, b = v, w
            elif v == INFINITE_VERTEX:
                a, b = w, u
            else:
                a, b = u, v
            pa, pb = self._points[a], self._points[b]
            o = orient2d(pa, pb, point)
            if o > 0:
                return True
            if o == 0:
                return segment_contains(pa, pb, point, strict=True)
            return False
        return incircle(self._points[u], self._points[v], self._points[w], point) > 0

    def _insert_into_triangulation(self, vertex_id: int, hint: Optional[int]) -> None:
        # Bowyer–Watson with the cavity tracked as a set of *directed edges*
        # (every directed edge belongs to exactly one triangle, so edge
        # membership is triangle membership without normalising triples) and
        # the boundary collected during the same breadth-first growth: an
        # edge whose outer triangle fails the circumdisk test is a boundary
        # edge.  This runs for every insertion, sequential or bulk — it is
        # the dominant cost of bulk construction.
        point = self._points[vertex_id]
        apex = self._apex
        points = self._points
        u, v, w = self._walk_to_seed(point, hint)
        cavity_edges: Set[DirectedEdge] = {(u, v), (v, w), (w, u)}
        stack: List[DirectedEdge] = [(u, v), (v, w), (w, u)]
        boundary: List[DirectedEdge] = []
        while stack:
            a, b = stack.pop()
            if (b, a) in cavity_edges:
                continue  # the outer triangle joined the cavity meanwhile
            outer_apex = apex.get((b, a))
            if outer_apex is None:
                boundary.append((a, b))
                continue
            # Circumdisk test of the outer triangle (b, a, outer_apex),
            # inlined from _in_circumdisk for this innermost loop; the rare
            # case of an infinite *edge endpoint* (reached when the cavity
            # already contains ghost triangles) keeps using the general
            # rotation logic of _in_circumdisk.
            if outer_apex == INFINITE_VERTEX:
                pb, pa = points[b], points[a]
                o = orient2d(pb, pa, point)
                in_disk = o > 0 or (
                    o == 0 and segment_contains(pb, pa, point, strict=True))
            elif a == INFINITE_VERTEX or b == INFINITE_VERTEX:
                in_disk = self._in_circumdisk((b, a, outer_apex), point)
            else:
                in_disk = incircle(points[b], points[a], points[outer_apex],
                                   point) > 0
            if in_disk:
                e2 = (a, outer_apex)
                e3 = (outer_apex, b)
                cavity_edges.add((b, a))
                cavity_edges.add(e2)
                cavity_edges.add(e3)
                stack.append(e2)
                stack.append(e3)
            else:
                boundary.append((a, b))
        for edge in cavity_edges:
            del apex[edge]
        for a, b in boundary:
            self._add_triangle(a, b, vertex_id)
        stars = self._stars
        if stars:
            # Every boundary vertex starts one boundary edge; these are
            # the stars the new fan changed.
            for a, _b in boundary:
                stars.pop(a, None)
        self._version += 1

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def remove(self, vertex_id: int) -> None:
        """Remove a vertex and restore the Delaunay property.

        An interior vertex of degree d is removed locally, by re-triangulating
        its star polygon (Delaunay ear clipping, O(d²) predicate calls).  A
        vertex on the convex hull — or any vertex of the last four, or one
        whose star polygon defeats ear clipping — is dropped from the point
        set and the N remaining points go through one :meth:`rebuild`, O(N);
        :attr:`rebuild_count` rises by exactly one.  Ids and coordinates of
        the surviving vertices are untouched either way.
        """
        if vertex_id not in self._points:
            raise KeyError(f"unknown vertex {vertex_id}")
        self._version += 1
        if not self._has_triangulation:
            self._unregister(vertex_id)
            self._fix_last_vertex()
            return
        if len(self._points) <= 4:
            self._delete_and_rebuild(vertex_id)
            return
        ring = self.star_ring(vertex_id)
        if INFINITE_VERTEX in ring:
            self._delete_and_rebuild(vertex_id)
            return
        # Remove the star triangles.
        k = len(ring)
        for i in range(k):
            self._remove_triangle(vertex_id, ring[i], ring[(i + 1) % k])
        new_triangles = self._triangulate_star_polygon(ring)
        if new_triangles is None:
            # Degenerate ear-clipping failure: restore nothing locally and
            # rebuild from scratch (correct, merely slower).
            for i in range(k):
                self._add_triangle(vertex_id, ring[i], ring[(i + 1) % k])
            self._delete_and_rebuild(vertex_id)
            return
        for tri in new_triangles:
            self._add_triangle(*tri)
        stars = self._stars
        for neighbor in ring:
            stars.pop(neighbor, None)
        self._unregister(vertex_id)
        self._fix_last_vertex()

    def _fix_last_vertex(self) -> None:
        if self._last_vertex not in self._points:
            self._last_vertex = next(iter(self._points)) if self._points else None

    def _delete_and_rebuild(self, vertex_id: int) -> None:
        self._unregister(vertex_id)
        self.rebuild()
        self._fix_last_vertex()

    def rebuild(self) -> None:
        """Rebuild the whole triangulation from the current point set.

        Every point is re-inserted along the Morton curve with a rolling
        hint (:meth:`_insert_sorted`, the loop :meth:`bulk_insert` runs), so
        a rebuild of N points costs what bulk-inserting them does: linear in
        N, a constant number of predicate calls per vertex.  The result is
        the triangulation any other insertion order gives — the Delaunay
        triangulation is unique up to cocircular ties — though each vertex's
        :meth:`star_ring` may start at a different neighbour than before.
        The version advances once, then once per re-inserted vertex.
        """
        self.rebuild_count += 1
        self._apex.clear()
        self._vertex_edge.clear()
        self._has_triangulation = False
        self._version += 1
        self._stars.clear()
        self._try_bootstrap()

    def _triangulate_star_polygon(self, ring: List[int]) -> Optional[List[Triangle]]:
        """Delaunay ear-clipping of the (CCW) star polygon left by a deletion.

        Returns the list of CCW triangles filling the polygon, or ``None``
        when no valid ear can be found (caller falls back to a rebuild).
        """
        poly = list(ring)
        triangles: List[Triangle] = []
        while len(poly) > 3:
            n = len(poly)
            clipped = False
            for i in range(n):
                a, b, c = poly[i - 1], poly[i], poly[(i + 1) % n]
                pa, pb, pc = self._points[a], self._points[b], self._points[c]
                if orient2d(pa, pb, pc) <= 0:
                    continue
                empty = True
                for j in range(n):
                    other = poly[j]
                    if other in (a, b, c):
                        continue
                    if incircle(pa, pb, pc, self._points[other]) > 0:
                        empty = False
                        break
                if empty:
                    triangles.append((a, b, c))
                    del poly[i]
                    clipped = True
                    break
            if not clipped:
                return None
        a, b, c = poly
        pa, pb, pc = self._points[a], self._points[b], self._points[c]
        if orient2d(pa, pb, pc) <= 0:
            return None
        triangles.append((a, b, c))
        if len(triangles) != len(ring) - 2:
            return None
        return triangles

    # ------------------------------------------------------------------
    # adjacency and location
    # ------------------------------------------------------------------
    def star_ring(self, vertex_id: int) -> List[int]:
        """Neighbours of ``vertex_id`` in CCW order (may contain the infinite vertex)."""
        if vertex_id not in self._points:
            raise KeyError(f"unknown vertex {vertex_id}")
        edge = self._vertex_edge.get(vertex_id)
        if edge is None or edge not in self._apex or edge[0] != vertex_id:
            edge = self._rescan_vertex_edge(vertex_id)
        start = edge[1]
        ring = [start]
        current = self._apex[(vertex_id, start)]
        guard = 0
        while current != start:
            ring.append(current)
            current = self._apex[(vertex_id, current)]
            guard += 1
            if guard > len(self._apex):
                raise TriangulationCorruptionError(
                    f"non-closing star around vertex {vertex_id}"
                )
        return ring

    def neighbors(self, vertex_id: int) -> List[int]:
        """Finite Delaunay neighbours of a vertex (the Voronoi neighbours).

        In star order: read from the cached star, or walked without caching
        it (module docstring, Caches).
        """
        star = self._stars.get(vertex_id)
        if star is not None:
            return [record[0] for record in star]
        return self._walk_neighbors(vertex_id)

    def _walk_neighbors(self, vertex_id: int) -> List[int]:
        if vertex_id not in self._points:
            raise KeyError(f"unknown vertex {vertex_id}")
        if not self._has_triangulation:
            return self._degenerate_neighbors(vertex_id)
        return [v for v in self.star_ring(vertex_id) if v != INFINITE_VERTEX]

    def star_cache_report(self) -> List[str]:
        """Every cached star that is not a fresh walk's (caching none).

        A star kept for a departed vertex, or one whose ids or their order
        differ from a fresh :meth:`star_ring` walk, or whose records are not
        ``(id,) + point(id)``.
        """
        problems: List[str] = []
        points = self._points
        for vertex_id, star in self._stars.items():
            if vertex_id not in points:
                problems.append(f"{vertex_id}: cached star of a departed vertex")
                continue
            cached = [record[0] for record in star]
            fresh = self._walk_neighbors(vertex_id)
            if cached != fresh:
                problems.append(
                    f"{vertex_id}: cached star {cached} is not the walk {fresh}")
            for record in star:
                point = points.get(record[0])
                if point is None or record != (record[0],) + point:
                    problems.append(
                        f"{vertex_id}: cached star holds {record}, not the vertex's record")
        return problems

    def degree(self, vertex_id: int) -> int:
        """Number of finite Delaunay neighbours of a vertex."""
        return len(self.neighbors(vertex_id))

    def degree_map(self) -> Dict[int, int]:
        """Degrees of *all* finite vertices in one pass over the edge map.

        Equivalent to ``{vid: self.degree(vid) for vid in self.vertex_ids()}``
        but linear in the number of edges instead of walking every vertex
        star; used by bulk construction to account attach messages.
        """
        if not self._has_triangulation:
            return {vid: len(self._degenerate_neighbors(vid))
                    for vid in self._points}
        degrees = {vid: 0 for vid in self._points}
        for (u, v) in self._apex:
            if u != INFINITE_VERTEX and v != INFINITE_VERTEX:
                degrees[u] += 1
        return degrees

    def is_hull_vertex(self, vertex_id: int) -> bool:
        """Whether the vertex lies on the convex hull of the point set."""
        if not self._has_triangulation:
            return True
        return INFINITE_VERTEX in self.star_ring(vertex_id)

    def incident_triangles(self, vertex_id: int) -> List[Triangle]:
        """Finite triangles incident to a vertex, in CCW order around it."""
        if not self._has_triangulation:
            return []
        ring = self.star_ring(vertex_id)
        k = len(ring)
        result = []
        for i in range(k):
            a, b = ring[i], ring[(i + 1) % k]
            if a == INFINITE_VERTEX or b == INFINITE_VERTEX:
                continue
            result.append((vertex_id, a, b))
        return result

    def nearest_vertex(self, point: Point, hint: Optional[int] = None) -> int:
        """Vertex whose Voronoi region contains ``point`` (greedy graph descent).

        Greedy descent on a Delaunay graph always reaches the closest vertex,
        which is exactly the owner of the Voronoi region containing the query
        point.  ``hint`` makes the search start near the answer.
        """
        if not self._points:
            raise ValueError("empty triangulation has no nearest vertex")
        px, py = float(point[0]), float(point[1])
        current = hint if hint is not None and hint in self._points else self._last_vertex
        if current is None or current not in self._points:
            current = next(iter(self._points))
        cx, cy = self._points[current]
        current_d = (cx - px) * (cx - px) + (cy - py) * (cy - py)
        guard = 0
        limit = len(self._points) + 8
        stars = self._stars
        while True:
            best, best_d = current, current_d
            star = stars.get(current)
            if star is None:
                # A miss: walk the star into a tuple of records, and cache
                # it unless the points are degenerate.
                records = self._records
                star = tuple([records[v] for v in self._walk_neighbors(current)])
                if self._has_triangulation:
                    stars[current] = star
            for nb, nx, ny in star:
                d = (nx - px) * (nx - px) + (ny - py) * (ny - py)
                if d < best_d:
                    best, best_d = nb, d
            if best == current:
                return current
            current, current_d = best, best_d
            guard += 1
            if guard > limit:  # pragma: no cover - defensive
                raise TriangulationCorruptionError("nearest_vertex failed to converge")

    def nearest_vertices(self, points: Sequence[Point],
                         hints: Optional[Sequence[Optional[int]]] = None
                         ) -> List[int]:
        """Voronoi-region owners of a whole batch of query points.

        The batched form of :meth:`nearest_vertex` used for bulk long-link
        resolution: every descent runs over the cached stars (warmed by the
        batch itself), and a query without an explicit
        hint starts from the previous query's answer, which for spatially
        correlated batches keeps each walk O(1).  Owners are exact and
        identical to per-point :meth:`nearest_vertex` calls with the same
        hints.
        """
        if not self._points:
            raise ValueError("empty triangulation has no nearest vertex")
        owners: List[int] = []
        previous: Optional[int] = None
        for index, point in enumerate(points):
            hint = hints[index] if hints is not None else None
            if hint is None:
                hint = previous
            previous = self.nearest_vertex(point, hint=hint)
            owners.append(previous)
        return owners

    def locate(self, point: Point, hint: Optional[int] = None) -> int:
        """Alias of :meth:`nearest_vertex` (Voronoi-region owner of ``point``)."""
        return self.nearest_vertex(point, hint)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural and Delaunay invariants; raise on violation.

        Intended for tests and debugging; cost is linear in the number of
        triangles (plus predicate evaluations).
        """
        if not self._has_triangulation:
            if self._apex:
                raise TriangulationCorruptionError(
                    "degenerate triangulation should have no triangles"
                )
            return
        if len(self._apex) % 3 != 0:
            raise TriangulationCorruptionError("apex map size not a multiple of 3")
        for (u, v), w in self._apex.items():
            if self._apex.get((v, w)) != u or self._apex.get((w, u)) != v:
                raise TriangulationCorruptionError(
                    f"inconsistent triangle around edge ({u}, {v})"
                )
            if (v, u) not in self._apex:
                raise TriangulationCorruptionError(
                    f"edge ({u}, {v}) has no opposite triangle"
                )
        for tri in self.triangles():
            u, v, w = tri
            pu, pv, pw = self._points[u], self._points[v], self._points[w]
            if orient2d(pu, pv, pw) <= 0:
                raise TriangulationCorruptionError(f"triangle {tri} is not CCW")
            # Local Delaunay check across each edge implies the global property.
            for a, b in ((u, v), (v, w), (w, u)):
                opposite = self._apex.get((b, a))
                if opposite is None or opposite == INFINITE_VERTEX:
                    continue
                if incircle(pu, pv, pw, self._points[opposite]) > 0:
                    raise TriangulationCorruptionError(
                        f"Delaunay violation: {opposite} inside circumcircle of {tri}"
                    )
        # Every finite vertex must be reachable from the triangle structure.
        covered = {v for edge in self._apex for v in edge if v != INFINITE_VERTEX}
        covered.update(w for w in self._apex.values() if w != INFINITE_VERTEX)
        missing = set(self._points) - covered
        if missing:
            raise TriangulationCorruptionError(f"vertices missing from structure: {missing}")

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def degree_histogram(self) -> Dict[int, int]:
        """Histogram ``degree → number of vertices`` over finite vertices."""
        histogram: Dict[int, int] = {}
        for vid in self._points:
            d = self.degree(vid)
            histogram[d] = histogram.get(d, 0) + 1
        return histogram

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DelaunayTriangulation(vertices={len(self._points)}, "
            f"triangles={self.triangle_count() if self._has_triangulation else 0})"
        )
