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

The two table dicts — one per variant, with long links and Delaunay-only —
are only ever mutated in place, so a hot loop may hoist a reference to one
across a whole route and still see every drop.

(The module keeps the name of the Morton-sharded epoch domain it replaced,
and the class its alias ``ShardedNodeStore``, for the benchmark's frozen
``perf/api_surface.txt``.)
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

__all__ = ["RoutingTableCache", "ShardedNodeStore"]


class RoutingTableCache:
    """Member ids plus the cached routing tables of (some of) them.

    Nothing else: object *data* (positions, links) has one owner, the
    overlay's ``ObjectNode``.  The overlay keeps the member set in step
    with its membership (``insert``, ``bulk_load``, ``withdraw_substrate``)
    and ``check_consistency`` cross-checks the two, and every cached table
    against the view it was built from.
    """

    __slots__ = ("_members", "tables")

    def __init__(self) -> None:
        self._members: Set[int] = set()
        #: One dict per variant (``use_long_links``), each object id →
        #: ``(candidate ids, (k, 2) positions, (id, x, y) scan block)``
        #: holding either the scan block (ids and positions ``None``) or
        #: the two arrays (block ``None``), as ``VoroNet._routing_entry``
        #: chose by size.  Two bare-int-keyed dicts instead of one
        #: tuple-keyed dict: the hot loop probes once per forwarding hop.
        self.tables: Dict[bool, Dict[int, tuple]] = {True: {}, False: {}}

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
        """Forget one member and its tables (a no-op when absent)."""
        self._members.discard(object_id)
        for tables in self.tables.values():
            tables.pop(object_id, None)

    def cache_table(self, object_id: int, use_long_links: bool, entry: tuple) -> None:
        """Keep ``entry`` as the table of a member until it is dropped."""
        if object_id not in self._members:
            raise KeyError(object_id)
        self.tables[use_long_links][object_id] = entry

    def bump_object_ids(self, object_ids: Iterable[int]) -> None:
        """The targeted drop: forget the tables (both variants) of ``object_ids``.

        Ids without a cached table — never routed through, already dropped,
        or just departed — cost two failed dict probes.
        """
        with_links = self.tables[True]
        delaunay_only = self.tables[False]
        for object_id in object_ids:
            with_links.pop(object_id, None)
            delaunay_only.pop(object_id, None)

    def drop_all(self) -> None:
        """Forget every table; the dicts are emptied in place."""
        for tables in self.tables.values():
            tables.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RoutingTableCache(members={len(self._members)}, "
                f"tables={sum(len(tables) for tables in self.tables.values())})")


#: The name ``perf/api_surface.txt`` wraps the four overlay-facing calls under.
ShardedNodeStore = RoutingTableCache
