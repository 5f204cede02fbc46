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

Triangles live in flat *slots*.  Triangle ``t`` owns slots ``3t`` to
``3t + 2`` of two lists of ints.  The vertex list holds its three vertices,
counter-clockwise.  The neighbour list holds, at slot ``3t + i``, the
triangle across the edge that runs from the vertex at slot ``3t + i`` to the
next one.  Everywhere, a triangle is named by its first slot, ``3t``.  The
slots of the triangles a mutation takes away go on a free list, and the
next triangles it makes take them, so the lists grow only to the largest
triangulation held; a slot left free holds ``_FREE``.

Each vertex keeps one *corner*: its slot in the triangle last written with
it.  :meth:`~DelaunayTriangulation.star_ring` starts there, at the next
vertex of that triangle, and turns counter-clockwise across the neighbour
slots.  The corners are a list indexed by vertex id; the infinite vertex
(``-1``) writes to its last element, which no vertex id reaches.  Every
mutation rewrites or clears the corner of each vertex of each triangle it
takes away, so corners are exact: one that does not hold its vertex is a
:class:`TriangulationCorruptionError`, never a search.

Beyond the registered points, this costs about 190 bytes per vertex
(``tests/geometry/test_kernel_memory.py``, N = 2·10⁴); the map from every
directed edge to its apex and the edge tuple per vertex that it replaced
cost about 950.

Operations
----------
* **Insertion** is Bowyer–Watson: locate a seed triangle whose circumdisk
  contains the new point by a visibility walk, grow the cavity of all such
  triangles by depth-first search over the neighbour slots, and
  re-triangulate the cavity boundary as a fan around the new point, in the
  freed slots.  Ghost triangles use Shewchuk's rule: their "circumdisk" is
  the open half-plane beyond their hull edge plus the open edge itself.
  The walk and the cavity search evaluate the ``orient2d`` / ``incircle``
  float filter of :mod:`repro.geometry.predicates` inline — the same
  expressions and error bounds — and call the exact predicates where the
  filter cannot decide, so every sign is the one the predicate functions
  give; the walk does not re-ask the edge it just crossed, whose sign the
  step decided.  ``tests/reference_kernel.py`` keeps the loop that called
  the functions, and twins built by the two hold the same slots.
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
  query point — with "closer" decided exactly: the star's float minimum
  below a bar just past the holder's distance hops while it is clearly
  below that distance, and a stop or a near-tie goes to
  :func:`~repro.geometry.predicates.settle`
  (:func:`~repro.geometry.predicates.greedy_hop` with the scan inlined).  On
  equal float minima the first in ring order wins.

Caches
------
* **One record per vertex.**  Each vertex has one ``(id, x, y)`` tuple,
  created with the vertex and dropped with it
  (:attr:`~DelaunayTriangulation.records`).  A rebuild re-inserts vertices
  but keeps their records.  Whoever needs a neighbour's id and position
  together holds that tuple, not a copy: the kernel's stars and the
  overlay's routing tables do.  The point itself is the caller's tuple
  when that is already a tuple of two floats
  (:func:`~repro.geometry.point.as_point`), so the overlay's node, this
  kernel and the locate grid hold one position tuple per object.
* **A cached star is a valid star.**  A vertex's finite neighbours are
  cached as a tuple of their records, in
  :meth:`~DelaunayTriangulation.star_ring` order, and each mutation drops
  exactly the stars it changed.  These are the vertices whose corner it
  rewrites, so a walk that starts over from the corner lists a star that is
  still cached element for element:

  - an insertion drops the vertices on its cavity boundary (the new vertex
    has no corner: removing a vertex clears its corner, so a reused id has
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
  maps at N = 5·10⁴ that cost 20–25 ms per collection, measured when they
  held about 600 k entries with the locate grid's (the triangles were then
  an edge map; after ``oracle_static``'s build and a route pass they now
  hold about 230 k), and where it fell depended on allocation counts: in
  the first mutations after a full collection or in whatever ran next.
  The kernel's maps and the locate grid's point map are
  :class:`TrackedDict`, which the collector never untracks, so they stay in
  the oldest generation and only full collections walk them.  The slot and
  corner lists are lists, which the collector never untracks either, and
  they are cleared in place, never replaced.

All topological decisions are the robust predicates of
:mod:`repro.geometry.predicates` — called, or inlined in the insertion
loop with the same exact fallback — so the structure stays consistent under
near-degenerate inputs (the property the paper gets from Sugihara–Iri).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point, as_point
from repro.geometry.predicates import (_INCIRCLE_ERRBOUND, _INCIRCLE_FLOOR, _ORIENT_ERRBOUND,
                                       DISTANCE_FLOOR, FARTHER, NEARER, _incircle_exact,
                                       _orient2d_exact, incircle, orient2d, segment_contains,
                                       settle)

__all__ = ["DelaunayTriangulation", "DuplicatePointError", "INFINITE_VERTEX",
           "morton_order"]

#: Sentinel id of the vertex at infinity used by ghost triangles.
INFINITE_VERTEX = -1

#: What the vertex slots of a freed triangle hold (vertex ids are >= -1).
_FREE = -2
#: The corner of a vertex that is in no triangle.
_NO_CORNER = -1
#: Corner after / before corner ``i`` of a triangle, counter-clockwise.
_NEXT = (1, 2, 0)
_PREV = (2, 0, 1)

Triangle = Tuple[int, int, int]
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
        # The triangle slots and the corners (module docstring, Design).
        self._vertices: List[int] = []
        self._across: List[int] = []
        self._free: List[int] = []
        self._corners: List[int] = [_NO_CORNER]
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
        return self._coord_index.get(as_point(point))

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
    def _add_triangle(self, u: int, v: int, w: int) -> int:
        """Write the CCW triangle ``(u, v, w)`` into free or new slots.

        Sets the three corners, in this order, and returns the triangle's
        first slot; the caller links its neighbour slots.
        """
        vertices = self._vertices
        if self._free:
            tri = self._free.pop()
            vertices[tri] = u
            vertices[tri + 1] = v
            vertices[tri + 2] = w
        else:
            tri = len(vertices)
            vertices += (u, v, w)
            self._across.extend((_FREE, _FREE, _FREE))
        corners = self._corners
        corners[u] = tri
        corners[v] = tri + 1
        corners[w] = tri + 2
        return tri

    def _glue(self, slot: int, twin: int) -> None:
        """Make the edges at ``slot`` and ``twin`` (reversed) neighbours."""
        self._across[slot] = twin - twin % 3
        self._across[twin] = slot - slot % 3

    def _slot_of(self, vertex_id: int, tri: int) -> int:
        """The slot of ``vertex_id`` in the triangle at ``tri``."""
        vertices = self._vertices
        if vertices[tri] == vertex_id:
            return tri
        return tri + 1 if vertices[tri + 1] == vertex_id else tri + 2

    def _corner(self, vertex_id: int) -> int:
        """``vertex_id``'s corner, checked against the slot it names."""
        slot = self._corners[vertex_id]
        if slot < 0 or self._vertices[slot] != vertex_id:
            raise TriangulationCorruptionError(
                f"vertex {vertex_id} has no corner in a live triangle "
                f"(corner slot {slot})"
            )
        return slot

    def _register(self, vertex_id: int, point: Point) -> None:
        """Create a vertex's coordinate entries, its record and its corner."""
        self._points[vertex_id] = point
        self._coord_index[point] = vertex_id
        self._records[vertex_id] = (vertex_id,) + point
        corners = self._corners
        missing = vertex_id + 2 - len(corners)
        if missing > 0:
            # The last element, the infinite vertex's, becomes an unset
            # vertex corner; a new last element follows the new ids.
            corners[-1] = _NO_CORNER
            corners.extend([_NO_CORNER] * missing)

    def _unregister(self, vertex_id: int) -> None:
        """Drop everything kept for a departed vertex, its star included."""
        self._coord_index.pop(self._points.pop(vertex_id), None)
        del self._records[vertex_id]
        self._corners[vertex_id] = _NO_CORNER
        self._stars.pop(vertex_id, None)

    def triangles(self) -> Iterator[Triangle]:
        """Iterate over the finite triangles, each exactly once, CCW."""
        vertices = self._vertices
        for u, v, w in zip(vertices[::3], vertices[1::3], vertices[2::3]):
            if u >= 0 and v >= 0 and w >= 0:
                yield _normalize(u, v, w)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over finite undirected edges as ``(u, v)`` with ``u < v``."""
        if self._has_triangulation:
            # Each is one directed edge of a live triangle, the other way
            # round in the triangle across it; ghosts and free slots hold
            # negative ids.
            vertices = self._vertices
            for u, v, w in zip(vertices[::3], vertices[1::3], vertices[2::3]):
                if 0 <= u < v:
                    yield (u, v)
                if 0 <= v < w:
                    yield (v, w)
                if 0 <= w < u:
                    yield (w, u)
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
        abc = self._add_triangle(a, b, c)
        # Ghost triangles: one per hull edge, across the reversed edge.
        ba = self._add_triangle(b, a, INFINITE_VERTEX)
        cb = self._add_triangle(c, b, INFINITE_VERTEX)
        ac = self._add_triangle(a, c, INFINITE_VERTEX)
        self._glue(abc, ba)
        self._glue(abc + 1, cb)
        self._glue(abc + 2, ac)
        self._glue(ba + 1, ac + 2)
        self._glue(ba + 2, cb + 1)
        self._glue(cb + 2, ac + 1)
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
        point = as_point(point)
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
        pts = [as_point(p) for p in points]
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

    def _finite_corner(self, vertex_id: int) -> int:
        """The slot of ``vertex_id`` in some finite incident triangle.

        Turns CCW from its corner past the ghost triangles.
        """
        vertices = self._vertices
        slot = self._corner(vertex_id)
        first = slot - slot % 3
        while True:
            i = slot % 3
            tri = slot - i
            if (vertices[tri + _NEXT[i]] != INFINITE_VERTEX
                    and vertices[tri + _PREV[i]] != INFINITE_VERTEX):
                return slot
            tri = self._across[tri + _PREV[i]]
            if tri == first:
                raise TriangulationCorruptionError(
                    f"vertex {vertex_id} has no finite incident triangle"
                )
            slot = self._slot_of(vertex_id, tri)

    def _walk_to_seed(self, point: Point, hint: Optional[int]) -> int:
        """A triangle whose circumdisk contains ``point`` (visibility walk).

        Returned as a slot: the triangle is read CCW from there.  Each
        ``orient2d(a, b, point)`` is its float filter, inline, and the exact
        predicate where the filter cannot decide.  The edge just stepped
        across is not asked again: ``point`` lies strictly left of it the
        other way round, exactly.
        """
        points = self._points
        start = hint if hint is not None and hint in points else self._last_vertex
        if start is None or start not in points:
            start = next(iter(points))
        slot = self._finite_corner(start)
        crossed = -1
        vertices = self._vertices
        across = self._across
        px, py = point
        for _ in range(4 * max(len(vertices), 8)):
            i = slot % 3
            tri = slot - i
            v_slot = tri + _NEXT[i]
            w_slot = tri + _PREV[i]
            pu = points[vertices[slot]]
            pv = points[vertices[v_slot]]
            pw = points[vertices[w_slot]]
            for edge, pa, pb in ((slot, pu, pv), (v_slot, pv, pw), (w_slot, pw, pu)):
                if edge == crossed:
                    continue
                acx = pa[0] - px
                acy = pa[1] - py
                bcx = pb[0] - px
                bcy = pb[1] - py
                left = acx * bcy
                right = acy * bcx
                det = left - right
                if (det < 0 if abs(det) > _ORIENT_ERRBOUND * (abs(left) + abs(right))
                        else _orient2d_exact(pa, pb, point) < 0):
                    # Step across the edge a → b: the triangle beyond reads
                    # (b, a, apex) from b's slot.
                    outer = across[edge]
                    a_slot = self._slot_of(vertices[edge], outer)
                    slot = crossed = outer + _PREV[a_slot - outer]
                    if vertices[outer + _NEXT[a_slot - outer]] == INFINITE_VERTEX:
                        # point lies strictly beyond the hull edge (a, b): the
                        # ghost triangle's half-plane circumdisk contains it.
                        return slot
                    break
            else:
                return slot
        return self._brute_force_seed(point)

    def _brute_force_seed(self, point: Point) -> int:
        """Fallback seed search scanning every triangle (used only on walk failure)."""
        vertices = self._vertices
        for tri in range(0, len(vertices), 3):
            if vertices[tri] != _FREE and self._in_circumdisk(
                    (vertices[tri], vertices[tri + 1], vertices[tri + 2]), point):
                return tri
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
        # Bowyer–Watson over the slots: the cavity is a set of triangles
        # (first slots), grown depth-first from the seed across the edges
        # on the stack; an edge whose outer triangle fails the circumdisk
        # test is a boundary edge.  This runs for every insertion,
        # sequential or bulk — it is the dominant cost of bulk construction.
        point = self._points[vertex_id]
        px, py = point
        points = self._points
        vertices = self._vertices
        across = self._across
        seed = self._walk_to_seed(point, hint)
        i = seed % 3
        tri = seed - i
        cavity = {tri}
        stack = [seed, tri + _NEXT[i], tri + _PREV[i]]
        # (a, b, outer triangle, slot of b in it) per boundary edge a → b.
        boundary: List[Tuple[int, int, int, int]] = []
        while stack:
            edge = stack.pop()
            outer = across[edge]
            if outer in cavity:
                continue  # the outer triangle joined the cavity meanwhile
            a = vertices[edge]
            # The outer triangle reads (b, a, apex) CCW.
            if vertices[outer] == a:
                k = 0
            elif vertices[outer + 1] == a:
                k = 1
            else:
                k = 2
            b_slot = outer + _PREV[k]
            b = vertices[b_slot]
            apex = vertices[outer + _NEXT[k]]
            # Circumdisk test of the outer triangle (b, a, apex),
            # inlined from _in_circumdisk for this innermost loop; the rare
            # case of an infinite *edge endpoint* (reached when the cavity
            # already contains ghost triangles) keeps using the general
            # rotation logic of _in_circumdisk.  Each predicate is its float
            # filter, inline, and the exact predicate where the filter cannot
            # decide: the expressions and error bounds of
            # repro.geometry.predicates, so every sign is theirs.
            if apex == INFINITE_VERTEX:
                pb, pa = points[b], points[a]
                acx = pb[0] - px
                acy = pb[1] - py
                bcx = pa[0] - px
                bcy = pa[1] - py
                left = acx * bcy
                right = acy * bcx
                det = left - right
                if abs(det) > _ORIENT_ERRBOUND * (abs(left) + abs(right)):
                    in_disk = det > 0
                else:
                    o = _orient2d_exact(pb, pa, point)
                    in_disk = o > 0 or (
                        o == 0 and segment_contains(pb, pa, point, strict=True))
            elif a == INFINITE_VERTEX or b == INFINITE_VERTEX:
                in_disk = self._in_circumdisk((b, a, apex), point)
            else:
                pb, pa, pc = points[b], points[a], points[apex]
                adx = pb[0] - px
                ady = pb[1] - py
                bdx = pa[0] - px
                bdy = pa[1] - py
                cdx = pc[0] - px
                cdy = pc[1] - py
                bdxcdy = bdx * cdy
                cdxbdy = cdx * bdy
                alift = adx * adx + ady * ady
                cdxady = cdx * ady
                adxcdy = adx * cdy
                blift = bdx * bdx + bdy * bdy
                adxbdy = adx * bdy
                bdxady = bdx * ady
                clift = cdx * cdx + cdy * cdy
                det = (alift * (bdxcdy - cdxbdy)
                       + blift * (cdxady - adxcdy)
                       + clift * (adxbdy - bdxady))
                permanent = ((abs(bdxcdy) + abs(cdxbdy)) * alift
                             + (abs(cdxady) + abs(adxcdy)) * blift
                             + (abs(adxbdy) + abs(bdxady)) * clift)
                if abs(det) > _INCIRCLE_ERRBOUND * permanent > _INCIRCLE_FLOOR:
                    in_disk = det > 0
                else:
                    in_disk = _incircle_exact(pb, pa, pc, point) > 0
            if in_disk:
                cavity.add(outer)
                stack.append(outer + k)            # a → apex
                stack.append(outer + _NEXT[k])     # apex → b
            else:
                boundary.append((a, b, outer, b_slot))
        # The fan reuses the cavity's slots first; each triangle is written
        # as _add_triangle writes it, inline.
        free = self._free
        free += cavity
        corners = self._corners
        fan = []
        starting_at = {}
        for a, b, outer, b_slot in boundary:
            if free:
                new = free.pop()
                vertices[new] = a
                vertices[new + 1] = b
                vertices[new + 2] = vertex_id
            else:
                new = len(vertices)
                vertices += (a, b, vertex_id)
                across.extend((_FREE, _FREE, _FREE))
            corners[a] = new
            corners[b] = new + 1
            corners[vertex_id] = new + 2
            across[new] = outer
            across[b_slot] = new
            starting_at[a] = new
            fan.append(new)
        for (_a, b, _outer, _b_slot), new in zip(boundary, fan):
            after = starting_at[b]
            across[new + 1] = after
            across[after + 2] = new
        stars = self._stars
        if stars:
            # Every boundary vertex starts one boundary edge; these are
            # the stars the new fan changed.
            for a, _b, _outer, _b_slot in boundary:
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
        vertices = self._vertices
        ring_slots = self._star_slots(vertex_id)
        ring = [vertices[slot] for slot in ring_slots]
        if INFINITE_VERTEX in ring:
            self._delete_and_rebuild(vertex_id)
            return
        new_triangles = self._triangulate_star_polygon(ring)
        if new_triangles is None:
            # Degenerate ear-clipping failure: rebuild from scratch
            # (correct, merely slower).
            self._delete_and_rebuild(vertex_id)
            return
        # Every edge p → q of the polygon left to fill, by the slot of q in
        # the triangle across it: first the ring edges, with the triangles
        # outside the star.
        sides = {}
        for index, slot in enumerate(ring_slots):
            p, q = ring[index], ring[index + 1 - len(ring)]
            sides[(p, q)] = self._slot_of(q, self._across[slot])
        # The k - 2 ears take the star's slots; the two left over are freed.
        # An ear's edge is glued to what lies across it, or is a diagonal:
        # an edge of the polygon left to fill, with the ear across it.
        free = self._free
        free += [slot - slot % 3 for slot in ring_slots]
        for a, b, c in new_triangles:
            new = self._add_triangle(a, b, c)
            for slot, p, q in ((new, a, b), (new + 1, b, c), (new + 2, c, a)):
                twin = sides.pop((p, q), None)
                if twin is None:
                    sides[(q, p)] = slot
                else:
                    self._glue(slot, twin)
        for tri in free[-2:]:
            vertices[tri] = vertices[tri + 1] = vertices[tri + 2] = _FREE
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
        self._vertices.clear()
        self._across.clear()
        self._free.clear()
        self._corners[:] = [_NO_CORNER] * len(self._corners)
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
    def _star_slots(self, vertex_id: int) -> List[int]:
        """The slots of ``vertex_id``'s neighbours, one per incident triangle.

        In :meth:`star_ring` order: the neighbour after the vertex in each
        triangle, turning CCW from the vertex's corner.  The edge at each
        slot is a ring edge.
        """
        vertices = self._vertices
        across = self._across
        slot = self._corner(vertex_id)
        i = slot % 3
        tri = first = slot - i
        slots = [tri + _NEXT[i]]
        limit = len(vertices)
        while True:
            tri = across[tri + _PREV[i]]
            if tri == first:
                return slots
            if vertices[tri] == vertex_id:
                i = 0
            elif vertices[tri + 1] == vertex_id:
                i = 1
            else:
                i = 2
            slots.append(tri + _NEXT[i])
            if len(slots) > limit:
                raise TriangulationCorruptionError(
                    f"non-closing star around vertex {vertex_id}"
                )

    def star_ring(self, vertex_id: int) -> List[int]:
        """Neighbours of ``vertex_id`` in CCW order (may contain the infinite vertex)."""
        if vertex_id not in self._points:
            raise KeyError(f"unknown vertex {vertex_id}")
        vertices = self._vertices
        return [vertices[slot] for slot in self._star_slots(vertex_id)]

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
        """Degrees of *all* finite vertices in one pass over the triangle slots.

        Equivalent to ``{vid: self.degree(vid) for vid in self.vertex_ids()}``
        but linear in the number of edges instead of walking every vertex
        star; used by bulk construction to account attach messages.
        """
        if not self._has_triangulation:
            return {vid: len(self._degenerate_neighbors(vid))
                    for vid in self._points}
        # One per directed finite edge leaving the vertex.
        degrees = {vid: 0 for vid in self._points}
        vertices = self._vertices
        for u, v, w in zip(vertices[::3], vertices[1::3], vertices[2::3]):
            if u >= 0 and v >= 0:
                degrees[u] += 1
            if v >= 0 and w >= 0:
                degrees[v] += 1
            if w >= 0 and u >= 0:
                degrees[w] += 1
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
        target = (float(point[0]), float(point[1]))
        px, py = target
        points = self._points
        current = hint if hint is not None and hint in points else self._last_vertex
        if current is None or current not in points:
            current = next(iter(points))
        cx, cy = points[current]
        current_d = (cx - px) * (cx - px) + (cy - py) * (cy - py)
        guard = 0
        limit = len(self._points) + 8
        stars = self._stars
        vertices = self._vertices
        while True:
            star = stars.get(current)
            if star is None:
                # A miss: walk the star into a tuple of records, and cache
                # it unless the points are degenerate.
                records = self._records
                if self._has_triangulation:
                    star = tuple([records[v] for v in map(vertices.__getitem__,
                                                          self._star_slots(current))
                                  if v != INFINITE_VERTEX])
                    stars[current] = star
                else:
                    star = tuple([records[v] for v in self._degenerate_neighbors(current)])
            best, best_d = None, current_d * FARTHER + DISTANCE_FLOOR
            for nb, nx, ny in star:
                d = (nx - px) * (nx - px) + (ny - py) * (ny - py)
                if d < best_d:
                    best, best_d = nb, d
            if not best_d < current_d * NEARER - DISTANCE_FLOOR:
                # Not a clear hop: a stop or a near-tie, which settle decides.
                best, best_d = settle(best, best_d, current_d, target, points[current], star)
                if best is None:
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

        The slots (free triangles marked, every edge's neighbour slot
        pointing back across the same edge), every corner, CCW orientation
        and the local Delaunay property.  Intended for tests and debugging;
        cost is linear in the number of triangles (plus predicate
        evaluations).
        """
        vertices = self._vertices
        across = self._across
        if not self._has_triangulation:
            if vertices:
                raise TriangulationCorruptionError(
                    "degenerate triangulation should have no triangles"
                )
            return
        if len(vertices) % 3 != 0 or len(across) != len(vertices):
            raise TriangulationCorruptionError("slot lists out of step")
        free = set(self._free)
        if len(free) != len(self._free):
            raise TriangulationCorruptionError("a triangle is freed twice")
        points = self._points
        for tri in range(0, len(vertices), 3):
            held = vertices[tri:tri + 3]
            if tri in free:
                if held != [_FREE] * 3:
                    raise TriangulationCorruptionError(
                        f"freed triangle at slot {tri} holds {held}")
                continue
            if (len(set(held)) != 3 or held.count(INFINITE_VERTEX) > 1
                    or any(v != INFINITE_VERTEX and v not in points for v in held)):
                raise TriangulationCorruptionError(
                    f"triangle at slot {tri} holds {held}")
            u, v, w = held
            finite = INFINITE_VERTEX not in held
            if finite:
                pu, pv, pw = points[u], points[v], points[w]
                if orient2d(pu, pv, pw) <= 0:
                    raise TriangulationCorruptionError(
                        f"triangle {(u, v, w)} is not CCW")
            for i in range(3):
                a, b = vertices[tri + i], vertices[tri + _NEXT[i]]
                outer = across[tri + i]
                if outer % 3 or not 0 <= outer < len(vertices) or outer in free:
                    raise TriangulationCorruptionError(
                        f"edge ({a}, {b}) has no live triangle across it")
                twin = self._slot_of(b, outer)
                if (vertices[twin] != b or vertices[outer + _NEXT[twin - outer]] != a
                        or across[twin] != tri):
                    raise TriangulationCorruptionError(
                        f"edge ({a}, {b}) and the triangle across it disagree")
                opposite = vertices[outer + _PREV[twin - outer]]
                # Local Delaunay check across each edge implies the global property.
                if finite and opposite != INFINITE_VERTEX and incircle(
                        pu, pv, pw, points[opposite]) > 0:
                    raise TriangulationCorruptionError(
                        f"Delaunay violation: {opposite} inside circumcircle of "
                        f"{(u, v, w)}")
        corners = self._corners
        if any(vertex_id >= len(corners) - 1 for vertex_id in points):
            raise TriangulationCorruptionError("a vertex id beyond the corner list")
        for vertex_id, slot in enumerate(corners[:-1]):
            if vertex_id not in points:
                if slot != _NO_CORNER:
                    raise TriangulationCorruptionError(
                        f"departed vertex {vertex_id} keeps corner slot {slot}")
            elif not 0 <= slot < len(vertices) or vertices[slot] != vertex_id:
                raise TriangulationCorruptionError(
                    f"vertex {vertex_id} has a stale corner (slot {slot})")

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
