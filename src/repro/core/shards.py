"""The routing-table cache: the overlay's member ids and their cached tables.

A cached table is a valid table.  Nothing is stamped or compared at lookup
time: a table sits in the cache exactly while it equals the freshly
assembled view of its object, and a mutation removes — eagerly, by id — the
tables of the objects whose forwarding candidates it changed
(:meth:`RoutingTableCache.bump_object_ids`, driven by
``VoroNet.invalidate_routing_tables(object_ids)``).  A join or leave changes
O(1) views (Section 3.3 / 4.2: the object's Voronoi and close neighbours and
the long-link holders reached through ``BLRn``), so it drops O(1) tables
whatever the overlay size; overlay-wide events (bulk loads, crash injection,
a hull departure's kernel rebuild, external view surgery of unknown scope)
drop everything (:meth:`RoutingTableCache.drop_all`).

The table dict is only ever mutated in place, so a hot loop may hoist a
reference to it across a whole route and still see every drop.  (One table
per object: an overlay routes on the one view ``vn ∪ cn ∪ LRn`` of Section
3.2, and the Delaunay-only comparison is an overlay built with
``num_long_links=0``, whose tables simply hold no long link.)

The id arena
------------
The batch router (:func:`repro.core.routing.greedy_route_many`) advances
thousands of routes per numpy step and cannot probe a dict per route, so
beside the table dict the cache keeps an *arena*: an index **of the
dict's scan-block tables** (each a tuple of the kernel's ``(id, x, y)``
records), ids only, in CSR form — ``start[id]`` and
``length[id]`` (id-indexed int32) delimit the object's candidate ids, in
table order, inside one flat int32 buffer.  ``start[id]`` is
:data:`NO_ROW` for an id with no cached table and :data:`ARRAY_FORM` for
one whose table already is a pair of arrays (``VECTOR_SCAN_THRESHOLD`` or
more candidates: a scalar hop on those is one argmin already, and
flattening them cost the skewed workload −18.5 % cold and −22.8 %
under-churn routing and +10 % memory for nothing).  Positions are not
copied: they have one owner, the locate grid's coordinate column, and a
reader gathers them by the arena's ids.

**Mutations never touch numpy.**  Keeping the arena current inside
``cache_table`` / ``bump_object_ids`` / ``discard`` — one ``fromiter`` and
one fancy assignment per call — measured +25 % on the p50 of a join and
+48 % on that of a leave (``perf/`` ``oracle_static``).  A mutation
therefore only appends ids to two plain Python lists, *the two logs*: the
ids a drop named, and the id of each table cached (no tuple, no reference
to the table: a log entry allocates nothing and keeps nothing alive).
:meth:`RoutingTableCache.sync` — called at the top of every step of the
batch router, and by the consistency report — brings the arena level in
one vectorised pass: the rows of every logged id become
``start[ids] = NO_ROW``, then each id of the second log is looked up and
*the table the dict holds now* is appended (one cached, dropped and
re-cached between two syncs ends with exactly the second one's row; one
cached and dropped, with none).  The arena is allocated on the first
``sync``; before that, and again after ``drop_all`` or once a log has
outgrown ``CHUNK_ELEMENTS`` entries (an overlay that stopped routing
batches), there is no arena and nothing is logged, and the next ``sync``
indexes the dict afresh.

(The module keeps the name of the Morton-sharded epoch domain it replaced,
and the class its alias ``ShardedNodeStore``, for the benchmark's frozen
``perf/api_surface.txt``.)
"""

from __future__ import annotations

import itertools
import operator
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.geometry.locate_grid import CHUNK_ELEMENTS

__all__ = ["ARRAY_FORM", "NO_ROW", "RoutingTableCache", "ShardedNodeStore",
           "arena_report", "segment_indices"]

_FIRST = operator.itemgetter(0)

#: ``start`` value of an id that has no cached table.
NO_ROW = -1
#: ``start`` value of an id whose cached table is held as arrays, not a block.
ARRAY_FORM = -2


def segment_indices(starts: np.ndarray, lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flat indices of the CSR rows ``[start, start + length)``, concatenated.

    Returns ``(indices, begins)``: ``indices[begins[i]:begins[i] + lengths[i]]``
    are the buffer positions of row ``i``.
    """
    ends = np.cumsum(lengths)
    begins = ends - lengths
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - begins, lengths) + np.arange(total), begins


class _Arena:
    """The CSR rows of the scan-block tables (see the module docstring)."""

    __slots__ = ("start", "length", "ids", "used")

    def __init__(self) -> None:
        self.start = np.empty(0, dtype=np.int32)
        self.length = np.empty(0, dtype=np.int32)
        self.ids = np.empty(0, dtype=np.int32)
        #: Filled prefix of ``ids``; rows dropped since leave holes below it.
        self.used = 0

    def cover(self, rows: int) -> None:
        """Make ``start`` / ``length`` indexable by every id below ``rows``."""
        size = len(self.start)
        if rows > size:
            grown = 1 << (rows - 1).bit_length()
            self.start = np.concatenate(
                (self.start, np.full(grown - size, NO_ROW, dtype=np.int32)))
            self.length = np.concatenate(
                (self.length, np.zeros(grown - size, dtype=np.int32)))

    def drop(self, object_ids: np.ndarray) -> None:
        """Forget the rows of ``object_ids`` (any ids: a drop may name non-members)."""
        self.start[object_ids[(object_ids >= 0) & (object_ids < len(self.start))]] = NO_ROW

    def append(self, owners: List[int], entries: List[tuple]) -> None:
        """Index the tables ``entries`` of ``owners``: a row per block, a mark per array pair."""
        owners = [int(object_id) for object_id in owners]  # (a key may be a numpy integer)
        blocks = [entry[2] or () for entry in entries]
        self.cover(max(owners) + 1)
        lengths = np.fromiter(map(len, blocks), dtype=np.int32, count=len(blocks))
        total = int(lengths.sum())
        if self.used + total > len(self.ids):
            self._make_room(total)
        self.ids[self.used:self.used + total] = np.fromiter(
            map(_FIRST, itertools.chain.from_iterable(blocks)), dtype=np.int32, count=total)
        starts = self.used + np.cumsum(lengths) - lengths
        starts[[entry[2] is None for entry in entries]] = ARRAY_FORM
        self.start[owners] = starts
        self.length[owners] = lengths
        self.used += total

    def _make_room(self, incoming: int) -> None:
        """A buffer twice what is kept plus ``incoming``; the holes closed once they are most of it.

        (While most rows are live the filled prefix is copied as it is:
        closing the holes of 36 000 rows materialises 8 MB of index
        temporaries to win back a few per cent.)
        """
        owners = np.flatnonzero(self.start >= 0)
        lengths = self.length[owners]
        if 2 * int(lengths.sum()) < self.used:
            indices, begins = segment_indices(self.start[owners], lengths)
            kept = self.ids[indices]
            self.start[owners] = begins
        else:
            kept = self.ids[:self.used]
        self.ids = np.empty(max(1024, 2 * (len(kept) + incoming)), dtype=np.int32)
        self.ids[:len(kept)] = kept
        self.used = len(kept)


class RoutingTableCache:
    """Member ids plus the cached routing tables of (some of) them.

    Nothing else: object *data* (positions, links) has one owner, the
    overlay's ``ObjectNode``.  The overlay keeps the member set in step
    with its membership (``insert``, ``bulk_load``, ``withdraw_substrate``)
    and ``check_consistency`` cross-checks the two, and every cached table
    against the view it was built from.
    """

    __slots__ = ("_members", "tables", "_arena", "_dropped", "_cached")

    def __init__(self) -> None:
        self._members: Set[int] = set()
        #: Object id → ``(candidate ids, (k, 2) positions, scan block)``
        #: holding either the scan block (ids and positions ``None``) or the
        #: two arrays (block ``None``), as ``VoroNet._routing_entry`` chose
        #: by size.  A scan block is a tuple of the kernel's own ``(id, x,
        #: y)`` records (``DelaunayTriangulation.records``), in id order:
        #: nothing in it is a copy, and the collector stops tracking it at
        #: its first pass.
        self.tables: Dict[int, tuple] = {}
        # The arena, once a batch was routed, and the two id logs kept for
        # it (see the module docstring).  No arena, nothing logged.
        self._arena: Optional[_Arena] = None
        self._dropped: List[int] = []
        self._cached: List[int] = []

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._members

    def __len__(self) -> int:
        return len(self._members)

    def insert(self, object_id: int) -> None:
        """Register one member."""
        if object_id in self._members:
            raise ValueError(f"object id {object_id} already stored")
        self._members.add(object_id)

    def bulk_insert(self, object_ids: Iterable[int]) -> None:
        """Register a batch of members."""
        self._members.update(object_ids)

    def discard(self, object_id: int) -> None:
        """Forget one member and its table (a no-op when absent)."""
        self._members.discard(object_id)
        self.tables.pop(object_id, None)
        if self._arena is not None:
            self._dropped.append(object_id)

    def cache_table(self, object_id: int, entry: tuple) -> None:
        """Keep ``entry`` as the table of a member until it is dropped."""
        if object_id not in self._members:
            raise KeyError(object_id)
        self.tables[object_id] = entry
        if self._arena is not None:
            self._cached.append(object_id)
            if len(self._cached) > CHUNK_ELEMENTS:
                self._forget_arena()

    def bump_object_ids(self, object_ids: Iterable[int]) -> None:
        """The targeted drop: forget the tables of ``object_ids``.

        Ids without a cached table — never routed through, already dropped,
        or just departed — cost one failed dict probe.
        """
        if self._arena is not None:
            object_ids = tuple(object_ids)
            self._dropped.extend(object_ids)
            if len(self._dropped) > CHUNK_ELEMENTS:
                self._forget_arena()
        tables = self.tables
        for object_id in object_ids:
            tables.pop(object_id, None)

    def drop_all(self) -> None:
        """Forget every table; the dict is emptied in place."""
        self.tables.clear()
        self._forget_arena()

    def _forget_arena(self) -> None:
        self._arena = None
        self._dropped.clear()
        self._cached.clear()

    def sync(self, rows: int = 0) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bring the arena level with the table dict; its arrays.

        Returns ``(start, length, ids)`` (see the module docstring),
        ``start`` and ``length`` indexable by every id below ``rows``.  The
        arrays are replaced, not resized, when they grow: re-read them
        after every call.
        """
        arena = self._arena
        cached = self._cached
        tables = self.tables
        if arena is None:
            # First use: every table held is news to the arena.
            arena = self._arena = _Arena()
            cached.extend(tables)
        if self._dropped or cached:
            arena.drop(np.fromiter(itertools.chain(self._dropped, cached), dtype=np.int64,
                                   count=len(self._dropped) + len(cached)))
            owners = [object_id for object_id in dict.fromkeys(cached) if object_id in tables]
            if owners:
                arena.append(owners, [tables[object_id] for object_id in owners])
            self._dropped.clear()
            cached.clear()
        arena.cover(rows)
        return arena.start, arena.length, arena.ids

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RoutingTableCache(members={len(self._members)}, tables={len(self.tables)})"


def arena_report(cache: RoutingTableCache) -> List[str]:
    """Where, after a :meth:`~RoutingTableCache.sync`, the arena is not the dict's index.

    A scan-block table without a row equal to its ids, an array-pair table
    without its :data:`ARRAY_FORM` mark, a row or mark kept for an id with
    no such table, a row reaching outside the buffer.
    """
    problems: List[str] = []
    tables = cache.tables
    start, length, ids = cache.sync()
    for object_id in np.flatnonzero(start != NO_ROW).tolist():
        if object_id not in tables:
            problems.append(f"{object_id}: arena keeps a row for an id with no cached table")
    for object_id, entry in tables.items():
        if object_id not in cache:
            continue  # planted behind cache_table's back; reported as a non-member's
        block = entry[2]
        at = int(start[object_id]) if 0 <= object_id < len(start) else NO_ROW
        if block is None:
            if at != ARRAY_FORM:
                problems.append(f"{object_id}: arena does not mark the array-form table")
        elif at < 0:
            problems.append(f"{object_id}: arena has no row for the cached table")
        elif at + len(block) > len(ids):
            problems.append(f"{object_id}: arena row reaches outside the buffer")
        elif (length[object_id] != len(block)
              or ids[at:at + len(block)].tolist() != [cid for cid, _x, _y in block]):
            problems.append(f"{object_id}: arena row is not the cached table's ids")
    return problems


#: The name ``perf/api_surface.txt`` wraps the four overlay-facing calls under.
ShardedNodeStore = RoutingTableCache
