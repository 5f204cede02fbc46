"""Grid-bucket point-location index.

Greedy descent on the Delaunay graph (:meth:`DelaunayTriangulation.nearest_vertex`)
is correct from *any* starting vertex, but its cost is proportional to the
graph distance between the start and the answer.  :class:`LocateGrid` keeps
every vertex bucketed in a uniform grid over the unit square so a query can
be seeded with a vertex from the bucket containing (or nearest to) the
query point — after which the descent finishes in O(1) expected steps for
well-distributed inputs.

The grid is intentionally *approximate*: :meth:`LocateGrid.hint` returns a
nearby vertex, not necessarily the nearest one, and the caller's exact
search (kernel descent, greedy routing) remains the source of truth.  That
makes staleness impossible to observe as long as membership is kept in
sync, which the overlay does on every insert, remove and bulk load.

The index also answers exact radius queries (:meth:`LocateGrid.within`,
batched as :meth:`LocateGrid.within_many`), which the bulk-construction
path uses to discover close neighbours without any per-object routing.
The batched forms answer a whole batch in array passes: the sparse queries
of :meth:`~LocateGrid.within_many` and :meth:`~LocateGrid.hints` (those
with fewer than :data:`VECTOR_SCAN_THRESHOLD` candidates) make no call of
the scalar query, and read only the buckets their own cells hold.

The coordinate column
---------------------
Beside the buckets the grid keeps one id-indexed ``(capacity, 2)`` float64
*coordinate column*: row ``i`` holds the position of vertex ``i`` while it
is a member and ``NaN`` otherwise (ids are the row numbers, so they must be
non-negative and the column is as long as the largest id ever indexed; it
doubles on growth and never shrinks).  The grid is sized by *mean*
occupancy, so under skewed placement single buckets hold thousands of ids;
every scan over :data:`VECTOR_SCAN_THRESHOLD` or more candidates — the
dense-bucket branches of :meth:`~LocateGrid.hint`, :meth:`~LocateGrid.hints`
and :meth:`~LocateGrid.within`, the batched :meth:`~LocateGrid.within_many`,
and the overlay's routing-table assembly and Lemma 1 filter through
:meth:`~LocateGrid.coordinates` / :meth:`~LocateGrid.select_within` — is one
fancy-index gather from that column plus array arithmetic instead of a
Python loop over entries.  Smaller scans keep the inline loop over the
``id → point`` dict, which also carries membership and insertion order:
reading a three-id bucket costs 0.36 µs from the dict, 1.7 µs element-wise
from the column and 5.2 µs through a gather, so the dict stays for them.

Both branches, and the batches, return the same answer bit for bit.
Squared distances use the same IEEE operations either way, so
:meth:`~LocateGrid.hint` keeps its first-strictly-smaller tie-break
(``argmin`` and the batch's first index attaining each minimum return the
first minimum);
the radius test ``math.hypot(dx, dy) <= radius`` is decided on squared
distances except for pairs within a relative ``1e-12`` of the radius, which
are handed to ``math.hypot`` itself.  :meth:`~LocateGrid.within` returns
ids in *cell-then-bucket order* — cells of the disk's bounding box column
by column, each bucket in its set's iteration order — on either branch,
and :meth:`~LocateGrid.within_many` returns the same lists in the same
order; protocol mode sends CLOSE_DECLAREs in that order, and a bulk load
builds close sets from it, so it is part of the contract.
"""

from __future__ import annotations

import itertools
import math
from typing import (Collection, Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple)

import numpy as np

from repro.geometry.delaunay import TrackedDict
from repro.geometry.point import Point, as_point, distance, distance_sq

__all__ = ["CHUNK_ELEMENTS", "LocateGrid", "VECTOR_SCAN_THRESHOLD"]

#: Candidate count from which a scan goes through numpy instead of an inline
#: loop: greedy forwarding over a routing table, the grid's bucket scans, the
#: close-neighbour filter.  The paper's views are O(1) (≈ 6 Voronoi + close +
#: k long links) and well-spread buckets hold a handful of ids, where ufunc
#: dispatch overhead dwarfs the work; dense close-neighbour cliques, skewed
#: buckets and large k cross over.
VECTOR_SCAN_THRESHOLD = 48

#: Largest temporary (in elements) a batched query materialises: a distance
#: matrix here, the candidate pairs of one step of the batch router, a log of
#: the routing cache.
CHUNK_ELEMENTS = 1 << 16

#: Pairs whose squared distance is within this relative band of the squared
#: radius (plus an absolute floor covering underflow) are decided by
#: ``math.hypot``; both the rounding of ``dx*dx + dy*dy`` and hypot's own
#: error are below 1e-15, so outside the band the two tests cannot disagree.
_EDGE_BAND = 1e-12
_EDGE_FLOOR = 1e-300


def _disc_mask(dx: np.ndarray, dy: np.ndarray, radius: float) -> np.ndarray:
    """Elementwise ``math.hypot(dx, dy) <= radius``, exactly, for arrays."""
    d2 = dx * dx
    d2 += dy * dy
    r2 = radius * radius
    slack = _EDGE_BAND * r2 + _EDGE_FLOOR
    inside = d2 <= r2 + slack
    for index in zip(*np.nonzero(inside & (d2 >= r2 - slack))):
        inside[index] = math.hypot(dx[index], dy[index]) <= radius
    return inside


def _box_cells(x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray,
               boxes: np.ndarray, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every (query, cell) pair of the boxes ``[x0, x1) x [y0, y1)``.

    The query's index and the cell's code ``ix * m + iy``, query by query
    and each box column by column, as :meth:`LocateGrid.within` visits it;
    ``boxes`` holds each box's cell count.
    """
    owners = np.repeat(np.arange(len(boxes)), boxes)
    step = np.arange(len(owners)) - np.repeat(np.cumsum(boxes) - boxes, boxes)
    height = (y1 - y0)[owners]
    return owners, (x0[owners] + step // height) * m + y0[owners] + step % height


def _chunks(costs: np.ndarray) -> Iterator[Tuple[int, int]]:
    """``(start, stop)`` runs of ``costs`` summing to at most ``CHUNK_ELEMENTS``.

    A single entry above the bound is a run of its own.
    """
    reach = np.cumsum(costs)
    at = 0
    while at < len(reach):
        bound = (int(reach[at - 1]) if at else 0) + CHUNK_ELEMENTS
        stop = max(int(np.searchsorted(reach, bound, side="right")), at + 1)
        yield at, stop
        at = stop


class LocateGrid:
    """A uniform bucket grid over the unit square mapping cells to vertex ids.

    Parameters
    ----------
    target_occupancy:
        Desired mean number of vertices per occupied axis cell; the grid
        resolution is adapted (with hysteresis) as vertices come and go so
        each bucket holds roughly this many entries.

    Examples
    --------
    >>> grid = LocateGrid()
    >>> grid.insert(7, (0.25, 0.75))
    >>> grid.hint((0.3, 0.8))
    7
    """

    __slots__ = ("_target_occupancy", "_cells_per_axis", "_cells", "_points", "_xy")

    def __init__(self, target_occupancy: float = 2.0) -> None:
        if target_occupancy <= 0.0:
            raise ValueError(f"target_occupancy must be positive, got {target_occupancy}")
        self._target_occupancy = float(target_occupancy)
        self._cells_per_axis = 1
        self._cells: Dict[Tuple[int, int], Set[int]] = {}
        # Tracked for good, as the kernel's maps (geometry.delaunay, "Caches").
        self._points: Dict[int, Point] = TrackedDict()
        # The id-indexed coordinate column (see the module docstring).
        self._xy = np.full((64, 2), np.nan)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, vertex_id: int) -> bool:
        return vertex_id in self._points

    @property
    def cells_per_axis(self) -> int:
        """Current grid resolution (cells per axis)."""
        return self._cells_per_axis

    def _cell_of(self, point: Point) -> Tuple[int, int]:
        m = self._cells_per_axis
        x = min(max(point[0], 0.0), 1.0)
        y = min(max(point[1], 0.0), 1.0)
        return (min(m - 1, int(x * m)), min(m - 1, int(y * m)))

    # ------------------------------------------------------------------
    # membership maintenance
    # ------------------------------------------------------------------
    def insert(self, vertex_id: int, point: Point) -> None:
        """Register a vertex at ``point`` (ids must be unique and non-negative)."""
        if vertex_id in self._points:
            raise ValueError(f"vertex id {vertex_id} already indexed")
        if vertex_id < 0:
            raise ValueError(f"vertex id {vertex_id} is negative")
        point = as_point(point)
        if vertex_id >= len(self._xy):
            self._grow_column(max(2 * len(self._xy), vertex_id + 1))
        self._points[vertex_id] = point
        self._xy[vertex_id] = point
        self._cells.setdefault(self._cell_of(point), set()).add(vertex_id)
        self._maybe_resize()

    def discard(self, vertex_id: int) -> None:
        """Forget a vertex (no error if absent)."""
        point = self._points.pop(vertex_id, None)
        if point is None:
            return
        self._xy[vertex_id] = np.nan
        cell = self._cell_of(point)
        bucket = self._cells.get(cell)
        if bucket is not None:
            bucket.discard(vertex_id)
            if not bucket:
                del self._cells[cell]
        self._maybe_resize()

    def bulk_insert(self, items: Iterable[Tuple[int, Point]]) -> None:
        """Register a batch of ``(vertex_id, point)`` pairs.

        Leaves the grid exactly as one :meth:`insert` per pair would: the
        same resolution, column and buckets, every bucket iterating in the
        same order.  The batch is checked up front and applied in one pass.
        The hysteresis rule is replayed over the growing count for the final
        resolution.  The column grows as the pairwise doublings would and
        takes the batch in one assignment.  Without a resize the buckets
        take the batch in order; after one they are rebuilt from the points
        in insertion order, as the last resize of the pairwise path did
        before the pairs after it were added.
        """
        batch = [(vertex_id, as_point(point)) for vertex_id, point in items]
        if not batch:
            return
        points = self._points
        ids = [vertex_id for vertex_id, _point in batch]
        fresh = set(ids)
        if len(fresh) != len(ids) or not fresh.isdisjoint(points):
            seen = set(points)
            for vertex_id in ids:
                if vertex_id in seen:
                    raise ValueError(f"vertex id {vertex_id} already indexed")
                seen.add(vertex_id)
        if min(ids) < 0:
            raise ValueError(f"vertex id {min(ids)} is negative")
        size = len(self._xy)
        if max(ids) >= size:
            for vertex_id in ids:
                if vertex_id >= size:
                    size = max(2 * size, vertex_id + 1)
            self._grow_column(size)
        counts = np.arange(len(points) + 1, len(points) + len(batch) + 1)
        desired = np.sqrt(counts / self._target_occupancy).astype(np.int64)
        np.maximum(desired, 1, out=desired)
        m = self._cells_per_axis
        resized = False
        at = 0  # counts before ``at`` are replayed
        while True:
            moved = np.flatnonzero((desired[at:] > 2 * m) | (2 * desired[at:] < m))
            if not len(moved):
                break
            at += int(moved[0]) + 1
            m = int(desired[at - 1])
            resized = True
        points.update(batch)
        self._xy[ids] = [point for _vertex_id, point in batch]
        if resized:
            self._rebuild(m)
        else:
            self._fill(ids, [point for _vertex_id, point in batch])

    def _grow_column(self, size: int) -> None:
        grown = np.full((size, 2), np.nan)
        grown[:len(self._xy)] = self._xy
        self._xy = grown

    def _maybe_resize(self) -> None:
        n = max(len(self._points), 1)
        desired = max(1, int(math.sqrt(n / self._target_occupancy)))
        # 2x hysteresis keeps rebuilds amortised O(1) per membership change.
        if desired > 2 * self._cells_per_axis or 2 * desired < self._cells_per_axis:
            self._rebuild(desired)

    def _rebuild(self, cells_per_axis: int) -> None:
        self._cells_per_axis = cells_per_axis
        self._cells = {}
        self._fill(list(self._points), list(self._points.values()))

    def _fill(self, ids: Sequence[int], points: Sequence[Point]) -> None:
        """Add ``ids`` to their buckets, in order: :meth:`_cell_of`, vectorised."""
        m = self._cells_per_axis
        cells = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        cells = (np.clip(cells, 0.0, 1.0) * m).astype(np.int64)
        np.minimum(cells, m - 1, out=cells)
        buckets = self._cells
        for vertex_id, cell in zip(ids, zip(*cells.T.tolist())):
            buckets.setdefault(cell, set()).add(vertex_id)

    # ------------------------------------------------------------------
    # the coordinate column
    # ------------------------------------------------------------------
    def coordinates(self, ids: np.ndarray) -> np.ndarray:
        """The ``(k, 2)`` positions of an integer array of member ids.

        One gather from the coordinate column (``take``: an order of
        magnitude faster than ``[]`` on two-column rows).  Raises
        ``KeyError`` carrying the first id (in array order) that is not a
        member.
        """
        try:
            rows = self._xy.take(ids, axis=0)
            if not np.isnan(rows).any() and (not len(ids) or ids.min() >= 0):
                return rows
        except IndexError:
            pass  # an id beyond the column: never a member
        points = self._points
        raise KeyError(next(vid for vid in ids.tolist() if vid not in points))

    def _gather(self, ids: Iterable[int], count: int) -> Tuple[np.ndarray, np.ndarray]:
        """``count`` member ids as an object array, and their ``(count, 2)`` rows.

        The object array hands results back as the very ``int`` objects the
        caller iterated (a bucket's, a view's): found ids end up in
        per-object close sets, and a fresh ``int`` per entry — 275 x N of
        them under skew — costs every later probe of those sets a cache
        miss (measured: +20 % on the p50 of a leave).
        """
        members = np.fromiter(ids, dtype=object, count=count)
        return members, self.coordinates(members.astype(np.int64))

    def select_within(self, ids: Collection[int], point: Point, radius: float) -> List[int]:
        """The member ``ids`` within ``radius`` of ``point`` (exact), in order.

        The filter of :meth:`within` applied to a caller-chosen candidate
        set; raises ``KeyError`` for a candidate that is not a member.
        """
        members, rows = self._gather(ids, len(ids))
        inside = _disc_mask(rows[:, 0] - float(point[0]), rows[:, 1] - float(point[1]), radius)
        return members[inside].tolist()

    def column_problems(self, positions: Dict[int, Point]) -> List[str]:
        """Where the coordinate column disagrees with ``id → position``.

        One problem per id whose row is not exactly its position, plus one
        if the number of finite rows is not ``len(positions)`` (a row left
        behind by a departed id).
        """
        xy = self._xy
        problems: List[str] = []
        for vertex_id, point in positions.items():
            row = tuple(xy[vertex_id].tolist()) if 0 <= vertex_id < len(xy) else None
            if row != tuple(point):
                problems.append(f"{vertex_id}: coordinate column holds {row}, not {point}")
        finite = int(np.isfinite(xy[:, 0]).sum())
        if finite != len(positions):
            problems.append(
                f"coordinate column holds {finite} finite rows, not the {len(positions)} members")
        return problems

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def hint(self, point: Point) -> Optional[int]:
        """A vertex close to ``point``, or ``None`` when the index is empty.

        The query point may lie outside the unit square (long-link targets
        do); it is clamped before the bucket search.  The search scans
        outward rings of cells and returns the best candidate from the
        first non-empty ring — a near-nearest vertex, which is all a point
        location seed needs.
        """
        if not self._points:
            return None
        point = (float(point[0]), float(point[1]))
        m = self._cells_per_axis
        cx, cy = self._cell_of(point)
        for radius in range(m):
            best = None
            best_d = math.inf
            for cell in self._ring(cx, cy, radius):
                bucket = self._cells.get(cell, ())
                if len(bucket) >= VECTOR_SCAN_THRESHOLD:
                    members, rows = self._gather(bucket, len(bucket))
                    dx = rows[:, 0] - point[0]
                    dy = rows[:, 1] - point[1]
                    distances = dx * dx + dy * dy
                    index = distances.argmin()
                    if distances[index] < best_d:
                        best, best_d = members[index], float(distances[index])
                    continue
                for vertex_id in bucket:
                    d = distance_sq(self._points[vertex_id], point)
                    if d < best_d:
                        best, best_d = vertex_id, d
            if best is not None:
                return best
        return next(iter(self._points))  # pragma: no cover - defensive

    def hints(self, points: Iterable[Point]) -> List[Optional[int]]:
        """Batched :meth:`hint`: one near-nearest seed per query point.

        The batched form used by bulk link resolution and the protocol
        simulator's ``bulk_join``; results are identical to per-point
        :meth:`hint` calls.

        Unlike the scalar path, cell coordinates are computed for the whole
        batch in one vectorised pass and the queries are then resolved
        *grouped by cell* — every query landing in the same bucket (the
        grid's micro-shard) shares one bucket lookup and one candidate
        materialisation: a dense bucket answers its whole group with one
        chunked distance matrix, and the groups of every sparse bucket are
        answered together, their query x member pairs measured in chunks of
        at most ``CHUNK_ELEMENTS``.  Only queries whose own cell is empty fall
        back to the scalar ring search.  Tie-breaking matches the scalar
        path: the first strictly-smaller candidate in bucket iteration
        order wins.
        """
        pts = [(float(point[0]), float(point[1])) for point in points]
        if not pts:
            return []
        if not self._points:
            return [None] * len(pts)
        m = self._cells_per_axis
        arr = np.asarray(pts, dtype=np.float64)
        cells = (np.clip(arr, 0.0, 1.0) * m).astype(np.int64)
        np.clip(cells, 0, m - 1, out=cells)
        codes = cells[:, 0] * m + cells[:, 1]
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        # Group boundaries: positions where the cell code changes.
        boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
        starts = np.concatenate(([0], boundaries, [len(order)]))
        results: List[Optional[int]] = [None] * len(pts)
        cells_map = self._cells
        buckets = [cells_map.get(divmod(code, m), ())
                   for code in sorted_codes[starts[:-1]].tolist()]
        sizes = np.fromiter(map(len, buckets), dtype=np.int64, count=len(buckets))
        sparse = (sizes > 0) & (sizes < VECTOR_SCAN_THRESHOLD)
        for g in np.flatnonzero(~sparse).tolist():
            group = order[starts[g]:starts[g + 1]]
            bucket = buckets[g]
            if not bucket:
                for q in group:
                    results[q] = self.hint(pts[q])
                continue
            members, rows = self._gather(bucket, len(bucket))
            step = max(1, CHUNK_ELEMENTS // len(members))
            for at in range(0, len(group), step):
                chunk = group[at:at + step]
                dx = rows[:, 0] - arr[chunk, 0, None]
                dy = rows[:, 1] - arr[chunk, 1, None]
                dx *= dx
                dy *= dy
                dx += dy
                for q, best in zip(chunk.tolist(), members[dx.argmin(axis=1)].tolist()):
                    results[q] = best
        if sparse.any():
            self._hints_sparse(arr, order, starts, sparse, buckets, sizes, results)
        return results

    def _hints_sparse(self, arr: np.ndarray, order: np.ndarray, starts: np.ndarray,
                      sparse: np.ndarray, buckets: List[Set[int]], sizes: np.ndarray,
                      results: List[Optional[int]]) -> None:
        """:meth:`hint` for the queries of the ``sparse`` groups.

        Group ``g`` is the queries ``order[starts[g]:starts[g + 1]]``, all in
        the cell of ``buckets[g]``, which holds ``sizes[g]`` ids.  The
        buckets of the sparse groups are gathered once, and the query x
        member pairs measured in chunks of at most ``CHUNK_ELEMENTS``; each
        query takes the first member, in bucket order, at its minimum
        distance (``np.minimum.reduceat``, then the first index attaining
        it) — the first strictly smaller one the scalar loop keeps.
        """
        members, rows = self._gather(
            itertools.chain.from_iterable(itertools.compress(buckets, sparse.tolist())),
            int(sizes[sparse].sum()))
        groups = np.flatnonzero(sparse)
        counts = starts[groups + 1] - starts[groups]
        # The queries group by group, and the first row and length of each
        # one's bucket.
        queries = np.repeat(starts[groups] - (np.cumsum(counts) - counts), counts)
        queries += np.arange(len(queries))
        queries = order[queries]
        sizes = sizes[groups]
        lengths = np.repeat(sizes, counts)
        firsts = np.repeat(np.cumsum(sizes) - sizes, counts)
        for at, stop in _chunks(lengths):
            spans = lengths[at:stop]
            begins = np.cumsum(spans) - spans
            row = np.repeat(firsts[at:stop] - begins, spans)
            row += np.arange(len(row))
            chunk = queries[at:stop]
            owners = np.repeat(chunk, spans)
            dx = rows[row, 0] - arr[owners, 0]
            dy = rows[row, 1] - arr[owners, 1]
            dx *= dx
            dy *= dy
            dx += dy
            best = np.minimum.reduceat(dx, begins)
            attaining = np.flatnonzero(dx == np.repeat(best, spans))
            chosen = members[row[attaining[np.searchsorted(attaining, begins)]]]
            for q, vertex_id in zip(chunk.tolist(), chosen.tolist()):
                results[q] = vertex_id

    def _ring(self, cx: int, cy: int, radius: int) -> Iterable[Tuple[int, int]]:
        """Cells at Chebyshev distance ``radius`` from ``(cx, cy)``, in-grid."""
        m = self._cells_per_axis
        if radius == 0:
            yield (cx, cy)
            return
        for ix in range(max(0, cx - radius), min(m, cx + radius + 1)):
            for iy in (cy - radius, cy + radius):
                if 0 <= iy < m:
                    yield (ix, iy)
        for iy in range(max(0, cy - radius + 1), min(m, cy + radius)):
            for ix in (cx - radius, cx + radius):
                if 0 <= ix < m:
                    yield (ix, iy)

    def within(self, point: Point, radius: float) -> List[int]:
        """Ids of every indexed vertex within ``radius`` of ``point`` (exact).

        Scans only the buckets overlapping the disk's bounding box, then
        filters by exact Euclidean distance (``<= radius``, matching the
        close-neighbour rule of the overlay).  Ids come in cell-then-bucket
        order (see the module docstring).
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        if not self._points:
            return []
        px, py = float(point[0]), float(point[1])
        m = self._cells_per_axis
        x0 = min(m - 1, max(0, int(min(max(px - radius, 0.0), 1.0) * m)))
        x1 = min(m - 1, max(0, int(min(max(px + radius, 0.0), 1.0) * m)))
        y0 = min(m - 1, max(0, int(min(max(py - radius, 0.0), 1.0) * m)))
        y1 = min(m - 1, max(0, int(min(max(py + radius, 0.0), 1.0) * m)))
        point = (px, py)
        result: List[int] = []
        for ix in range(x0, x1 + 1):
            for iy in range(y0, y1 + 1):
                bucket = self._cells.get((ix, iy), ())
                if len(bucket) >= VECTOR_SCAN_THRESHOLD:
                    members, rows = self._gather(bucket, len(bucket))
                    result.extend(
                        members[_disc_mask(rows[:, 0] - px, rows[:, 1] - py, radius)].tolist())
                    continue
                for vertex_id in bucket:
                    # math.hypot, not squared distance: exact parity with the
                    # overlay's close-neighbour rule on knife-edge distances.
                    if distance(self._points[vertex_id], point) <= radius:
                        result.append(vertex_id)
        return result

    def within_many(self, points: Sequence[Point],
                    radius: float) -> Iterator[Tuple[int, List[int]]]:
        """Batched :meth:`within`: yields ``(i, within(points[i], radius))``.

        Every query is answered exactly once, in an unspecified order, with
        the list :meth:`within` returns for it: the same ids, the very
        ``int`` objects of the buckets, in cell-then-bucket order.

        The queries go in index order, in chunks whose query x cell pairs,
        and candidate pairs when sparse, stay within ``CHUNK_ELEMENTS``.  A
        chunk reads the buckets of the cells its boxes touch, once, and
        nothing else of the grid (the cost follows the batch), which counts
        each query's candidates.
        Queries whose box holds fewer than :data:`VECTOR_SCAN_THRESHOLD` —
        nearly all of a bulk load's close-neighbour discovery — are answered
        there, with no call of :meth:`within`: the buckets they read are
        gathered from the coordinate column once, and their query x cell x
        member pairs expanded by segment arithmetic and filtered by
        :func:`_disc_mask`.  The others are grouped by the cell range their
        box covers (the grouping :meth:`hints` does by cell): the buckets of
        a range are gathered once and filtered against the whole group as a
        distance matrix.  Either way no temporary exceeds ``CHUNK_ELEMENTS``
        pairs, and this is a generator, so neither the matrices nor the
        result lists of a dense clique are ever alive together.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        arr = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        if not self._points:
            yield from ((i, []) for i in range(len(arr)))
            return
        m = self._cells_per_axis
        # Per-query cell ranges, by the arithmetic of within().
        low = (np.clip(arr - radius, 0.0, 1.0) * m).astype(np.int64)
        high = (np.clip(arr + radius, 0.0, 1.0) * m).astype(np.int64)
        np.clip(low, 0, m - 1, out=low)
        np.clip(high, 0, m - 1, out=high)
        # Cells x0 <= ix < x1, y0 <= iy < y1 (upper bounds exclusive).
        x0, y0, x1, y1 = low[:, 0], low[:, 1], high[:, 0] + 1, high[:, 1] + 1
        boxes = (x1 - x0) * (y1 - y0)
        dense: List[int] = []
        # A chunk's cell pairs, and the candidate pairs of its sparse
        # queries (fewer than VECTOR_SCAN_THRESHOLD each), stay within
        # CHUNK_ELEMENTS.
        for at, stop in _chunks(boxes + VECTOR_SCAN_THRESHOLD):
            yield from self._within_sparse(arr, at, stop, x0, y0, x1, y1, boxes, radius, dense)
        if not dense:
            return
        queries = np.asarray(dense, dtype=np.int64)
        base = m + 1
        codes = (((x0 * base + x1) * base + y0) * base + y1)[queries]
        order = np.argsort(codes, kind="stable")
        queries, codes = queries[order], codes[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(codes)) + 1, [len(queries)]))
        for g in range(len(starts) - 1):
            group = queries[starts[g]:starts[g + 1]]
            first = int(group[0])
            buckets = [self._cells.get((ix, iy), ())
                       for ix in range(int(x0[first]), int(x1[first]))
                       for iy in range(int(y0[first]), int(y1[first]))]
            members, rows = self._gather(itertools.chain.from_iterable(buckets),
                                         sum(map(len, buckets)))
            step = max(1, CHUNK_ELEMENTS // len(members))
            for at in range(0, len(group), step):
                chunk = group[at:at + step]
                inside = _disc_mask(rows[:, 0] - arr[chunk, 0, None],
                                    rows[:, 1] - arr[chunk, 1, None], radius)
                query_rows, columns = np.nonzero(inside)
                found = members[columns].tolist()
                ends = np.searchsorted(query_rows, np.arange(len(chunk) + 1)).tolist()
                for row, i in enumerate(chunk.tolist()):
                    yield i, found[ends[row]:ends[row + 1]]

    def _within_sparse(self, arr: np.ndarray, at: int, stop: int, x0: np.ndarray,
                       y0: np.ndarray, x1: np.ndarray, y1: np.ndarray, boxes: np.ndarray,
                       radius: float, dense: List[int]) -> Iterator[Tuple[int, List[int]]]:
        """``(i, within(arr[i], radius))`` for the sparse queries ``at <= i < stop``.

        The box of query ``i`` is its cells ``[x0, x1) x [y0, y1)``; it is
        sparse when their buckets hold fewer than
        :data:`VECTOR_SCAN_THRESHOLD` ids, and the others are appended to
        ``dense``.  The buckets of the chunk's cells are read once, those
        the sparse queries need gathered once, and their query x cell x
        member pairs filtered by one :func:`_disc_mask`.  The pairs run
        query by query, each box column by column and each bucket in its
        iteration order, so every answer is in cell-then-bucket order.
        """
        m = self._cells_per_axis
        spans = boxes[at:stop]
        owners, codes = _box_cells(x0[at:stop], y0[at:stop], x1[at:stop], y1[at:stop],
                                   spans, m)
        unique, inverse = np.unique(codes, return_inverse=True)
        cells = self._cells
        buckets = [cells.get(divmod(code, m), ()) for code in unique.tolist()]
        sizes = np.fromiter(map(len, buckets), dtype=np.int64, count=len(buckets))
        candidates = np.add.reduceat(sizes[inverse], np.cumsum(spans) - spans)
        sparse = candidates < VECTOR_SCAN_THRESHOLD
        dense.extend((np.flatnonzero(~sparse) + at).tolist())
        queries = np.flatnonzero(sparse)
        if not len(queries):
            return
        # The cell pairs of the sparse queries, and the buckets they read.
        kept = sparse[owners]
        inverse = inverse[kept]
        read = np.zeros(len(buckets), dtype=bool)
        read[inverse] = True
        sizes *= read
        members, rows = self._gather(
            itertools.chain.from_iterable(itertools.compress(buckets, read.tolist())),
            int(sizes.sum()))
        # Cell pair p covers rows firsts[p] .. firsts[p] + lengths[p] - 1.
        lengths = sizes[inverse]
        firsts = (np.cumsum(sizes) - sizes)[inverse]
        row = np.repeat(firsts - (np.cumsum(lengths) - lengths), lengths)
        row += np.arange(len(row))
        owner = np.repeat((np.cumsum(sparse) - 1)[owners[kept]], lengths)
        centres = arr[at:stop][queries]
        inside = _disc_mask(rows[row, 0] - centres[owner, 0],
                            rows[row, 1] - centres[owner, 1], radius)
        found = members[row[inside]].tolist()
        ends = np.searchsorted(owner[inside], np.arange(len(queries) + 1)).tolist()
        yield from zip((queries + at).tolist(), map(found.__getitem__, map(slice, ends, ends[1:])))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LocateGrid(vertices={len(self._points)}, "
            f"cells_per_axis={self._cells_per_axis})"
        )
