"""Per-object state of the overlay.

Each application object published in VoroNet is represented by an
:class:`ObjectNode` holding the parts of its *view* that are genuinely
per-object state:

* the ``k`` long-range links (target point, current endpoint object and
  its position),
* the back-long-range registrations (who points a long link at us, and at
  which target point), needed to re-delegate links when we leave,
* the close-neighbour set ``cn(o)`` (objects within ``d_min``).

The Voronoi-neighbour set ``vn(o)`` is *not* duplicated here: in the
library's "oracle" execution mode it is always derived from the shared
Delaunay kernel so it can never drift out of sync; the message-level
protocol simulator (:mod:`repro.simulation.protocol`) keeps its own fully
local copies instead, as a real deployment would.

Memory
------
The oracle holds one node per object, so a node costs only what it holds
(the paper's O(1) state per object, at N up to 10⁶):

* :class:`ObjectNode` is a slotted dataclass, with no per-instance
  ``__dict__``;
* a long link is one plain tuple, :data:`LinkRecord`
  ``(target, neighbor, neighbor_position)``: the fixed target point ``LRt``
  drawn by Choose-LRT, the contact ``LRn`` that owns its region and the
  contact's position tuple (shared, like every position).  A node's
  ``long_links`` is a tuple of these records, the shared empty ``()`` while
  it has none.  Both planes hold this one form (the protocol node of
  ``repro.simulation.protocol`` too), and readers unpack it whole
  (``target, neighbor, _position = link``).  A tuple of numbers and tuples
  of numbers is untracked by the collector at its first collection, so a
  node's links never reach the oldest generation's walk;
* ``position`` is the one ``(x, y)`` tuple of the object: the overlay
  coerces an input point once (:func:`~repro.geometry.point.as_point`, which
  keeps a tuple of two floats as it is) and hands that same tuple to the
  Delaunay kernel and the locate grid, so all three share it;
* a node without close neighbours holds the shared empty
  :data:`NO_CLOSE_NEIGHBORS` instead of a set of its own.

A link is never edited in place: :func:`with_link` is the one write of
both planes, and it replaces the node's whole tuple (a re-delegation, a
retarget or an established search all go through it).

Only :class:`ObjectNode`'s methods write ``close_neighbors``.  They swap a
real ``set`` in on the first add and put the sentinel back when the last
entry leaves, so ``not node.close_neighbors`` holds exactly when it is the
sentinel.  A batch is added to a fresh ``set()`` with ``|=``: a set's table
size depends on how it was built, and ``set(found)`` sizes a skewed
overlay's close sets differently from the ``set()`` then ``|=`` they have
always been built by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, List, Set, Tuple

from repro.geometry.point import Point

__all__ = ["LinkRecord", "NO_CLOSE_NEIGHBORS", "ObjectNode", "with_link"]

#: One long-range link: ``(target, neighbor, neighbor_position)`` (module
#: docstring, Memory).  ``target`` is fixed for the link's lifetime and may
#: lie outside the unit square; ``neighbor`` is the object currently owning
#: the Voronoi region containing it, re-delegated as objects join and leave.
LinkRecord = Tuple[Point, int, Point]

#: The close-neighbour set of every node that has none: one shared, immutable
#: empty set (module docstring, Memory).
NO_CLOSE_NEIGHBORS: FrozenSet[int] = frozenset()


def with_link(links: Tuple[LinkRecord, ...], index: int, target: Point,
              neighbor: int, position: Point) -> Tuple[LinkRecord, ...]:
    """``links`` with slot ``index`` holding ``(target, neighbor, position)``.

    The one write of a long link, in both planes: the node's tuple is
    replaced whole.  ``index == len(links)`` appends; a slot further on is
    an error, since no caller leaves a gap.
    """
    if index > len(links):
        raise IndexError(f"long link {index} of {len(links)} would leave a gap")
    return links[:index] + ((target, neighbor, position),) + links[index + 1:]


@dataclass(slots=True)
class ObjectNode:
    """State stored at one overlay object.

    Slotted, sharing its ``position`` tuple with the kernel and the locate
    grid, holding its long links as one tuple of :data:`LinkRecord` and
    :data:`NO_CLOSE_NEIGHBORS` while it has no close neighbour; only its own
    methods write ``close_neighbors``, through ``set()`` then ``|=`` (module
    docstring, Memory).

    Attributes
    ----------
    object_id:
        Identifier of the object (stable across the object's lifetime).
    position:
        Coordinates in the attribute space; this *is* the object's overlay
        identifier in the semantic sense of the paper.
    long_links:
        The object's outgoing long-range links, ``num_long_links``
        :data:`LinkRecord` triples; replaced whole, never edited.
    back_links:
        Reverse registrations of other objects' long links whose target
        point currently falls in this object's Voronoi region:
        ``(source, link_index) → target point``, the shape protocol mode's
        ``ProtocolNode.back_links`` has.
    close_neighbors:
        Objects within distance ``d_min`` (symmetric relation); read-only
        outside the class.
    """

    object_id: int
    position: Point
    long_links: Tuple[LinkRecord, ...] = ()
    back_links: Dict[Tuple[int, int], Point] = field(default_factory=dict)
    close_neighbors: AbstractSet[int] = NO_CLOSE_NEIGHBORS

    # ------------------------------------------------------------------
    # long-link management
    # ------------------------------------------------------------------
    def long_link_neighbors(self) -> List[int]:
        """Ids of the current long-range contacts (may contain duplicates)."""
        return [neighbor for _target, neighbor, _position in self.long_links]

    def set_long_link(self, index: int, target: Point, neighbor: int,
                      position: Point) -> None:
        """Install or replace the ``index``-th long link; the next index
        appends.  ``position`` is ``neighbor``'s."""
        self.long_links = with_link(self.long_links, index, target, neighbor, position)

    def retarget_long_link(self, index: int, neighbor: int, position: Point) -> None:
        """Point the ``index``-th long link at a new endpoint at ``position``
        (same target point)."""
        target, _neighbor, _position = self.long_links[index]
        self.long_links = with_link(self.long_links, index, target, neighbor, position)

    def add_back_link(self, source: int, link_index: int, target: Point) -> None:
        """Register that ``source``'s ``link_index``-th long link points at us."""
        self.back_links[source, link_index] = target

    def remove_back_link(self, source: int, link_index: int) -> None:
        """Drop a reverse registration (if present)."""
        self.back_links.pop((source, link_index), None)

    def back_link_sources(self) -> Set[int]:
        """Ids of every object holding a long link towards us."""
        return {source for source, _index in self.back_links}

    # ------------------------------------------------------------------
    # close neighbours
    # ------------------------------------------------------------------
    def add_close_neighbor(self, object_id: int) -> None:
        """Record an object within ``d_min`` (no-op for ourselves)."""
        if object_id != self.object_id:
            close = self.close_neighbors
            if close is NO_CLOSE_NEIGHBORS:
                close = self.close_neighbors = set()
            close.add(object_id)

    def add_close_neighbors(self, object_ids: Set[int]) -> None:
        """Record a batch of objects within ``d_min`` (ourselves excluded)."""
        if object_ids:
            if self.close_neighbors is NO_CLOSE_NEIGHBORS:
                self.close_neighbors = set()
            self.close_neighbors |= object_ids

    def discard_close_neighbor(self, object_id: int) -> None:
        """Forget a close neighbour (no error if absent)."""
        close = self.close_neighbors
        if object_id in close:
            close.discard(object_id)
            if not close:
                self.close_neighbors = NO_CLOSE_NEIGHBORS

    def clear_close_neighbors(self) -> None:
        """Forget every close neighbour."""
        self.close_neighbors = NO_CLOSE_NEIGHBORS

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def view_size(self, voronoi_neighbor_count: int) -> int:
        """Total number of entries in this object's view.

        The paper argues this is O(1) in expectation; analysis code sums
        Voronoi neighbours (passed in by the overlay), close neighbours,
        long links and back links.
        """
        return (
            voronoi_neighbor_count
            + len(self.close_neighbors)
            + len(self.long_links)
            + len(self.back_links)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ObjectNode(id={self.object_id}, position={self.position}, "
            f"long_links={len(self.long_links)}, close={len(self.close_neighbors)}, "
            f"back={len(self.back_links)})"
        )
