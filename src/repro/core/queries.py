"""Query mechanisms on top of the overlay.

The paper leaves the precise query language out of scope but motivates the
design with range search and sketches, in its perspectives, how the Voronoi
structure supports them: a range query is routed greedily to the query
region and then *spread* along Voronoi neighbours whose regions intersect
it, so the cost is "routing + size of the answer neighbourhood" rather than
a network-wide flood.  This module implements those mechanisms:

* :func:`point_query` — exact location of the object owning a point,
* :func:`range_query` — all objects inside an axis-aligned rectangle
  (a range predicate on both attributes; a one-attribute range is a
  degenerate rectangle spanning the other axis),
* :func:`segment_query` — the paper's "segment in the unit square"
  formulation: every object whose region the segment crosses,
* :func:`radius_query` — all objects within a disk.

Every query returns a :class:`QueryResult` carrying the matches plus the
hop/message cost split into the routing phase and the spreading phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, TYPE_CHECKING

from repro.core.errors import EmptyOverlayError
from repro.core.routing import RouteResult, greedy_route
from repro.geometry.bounding import UNIT_SQUARE, BoundingBox, clip_polygon_to_box
from repro.geometry.point import Point, distance, distance_to_segment
from repro.geometry.predicates import point_in_polygon

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.overlay import VoroNet

__all__ = [
    "QueryResult",
    "point_query",
    "range_query",
    "radius_query",
    "segment_query",
]

#: Margin used when computing cells for intersection tests: query shapes may
#: touch the border of the unit square, where hull cells need closing.
_CELL_BOX = UNIT_SQUARE.expanded(4.0)


@dataclass
class QueryResult:
    """Outcome of a spatial query.

    Attributes
    ----------
    matches:
        Ids of the objects satisfying the query predicate.
    route:
        The greedy route that brought the query from its entry object to the
        query region.
    visited:
        Ids of every object that participated in the spreading phase (their
        regions intersect the query shape); a superset of ``matches``.
    spread_messages:
        Messages exchanged while spreading the query (one per traversed
        Voronoi edge between participating objects).
    """

    matches: List[int]
    route: RouteResult
    visited: Set[int] = field(default_factory=set)
    spread_messages: int = 0

    @property
    def total_messages(self) -> int:
        """Routing messages plus spreading messages."""
        return self.route.messages + self.spread_messages

    @property
    def total_hops(self) -> int:
        """Alias of :attr:`total_messages` (every message is one hop)."""
        return self.total_messages


def point_query(overlay: "VoroNet", point: Point,
                start: Optional[int] = None) -> QueryResult:
    """Locate the object responsible for ``point`` (exact-match lookup)."""
    route = _route_to(overlay, point, start)
    return QueryResult(matches=[route.owner], route=route, visited={route.owner})


def range_query(overlay: "VoroNet", box: BoundingBox,
                start: Optional[int] = None) -> QueryResult:
    """All objects positioned inside an axis-aligned rectangle.

    The query is routed to the rectangle's centre, then spread across every
    object whose Voronoi region intersects the rectangle.  Because those
    regions tile the rectangle, no matching object can be missed.
    """
    route = _route_to(overlay, box.center, start)

    def intersects(object_id: int) -> bool:
        if box.contains(overlay.position_of(object_id)):
            return True
        polygon = overlay.voronoi_cell(object_id, _CELL_BOX).polygon
        return bool(clip_polygon_to_box(polygon, box))

    visited, spread = _spread(overlay, route.owner, intersects)
    matches = sorted(
        oid for oid in visited if box.contains(overlay.position_of(oid))
    )
    return QueryResult(matches=matches, route=route, visited=visited,
                       spread_messages=spread)


def radius_query(overlay: "VoroNet", center: Point, radius: float,
                 start: Optional[int] = None) -> QueryResult:
    """All objects within ``radius`` of ``center`` (the paper's "radius query")."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    route = _route_to(overlay, center, start)

    def intersects(object_id: int) -> bool:
        if distance(overlay.position_of(object_id), center) <= radius:
            return True
        polygon = overlay.voronoi_cell(object_id, _CELL_BOX).polygon
        return _polygon_intersects_disk(polygon, center, radius)

    visited, spread = _spread(overlay, route.owner, intersects)
    matches = sorted(
        oid for oid in visited
        if distance(overlay.position_of(oid), center) <= radius
    )
    return QueryResult(matches=matches, route=route, visited=visited,
                       spread_messages=spread)


def segment_query(overlay: "VoroNet", endpoint_a: Point, endpoint_b: Point,
                  start: Optional[int] = None) -> QueryResult:
    """Objects whose Voronoi region is crossed by the segment ``a → b``.

    This is the paper's one-attribute range query: the query "attribute 0
    between ``lo`` and ``hi`` at attribute 1 = ``v``" is exactly the segment
    from ``(lo, v)`` to ``(hi, v)``.  The query is routed to one endpoint
    and forwarded from region to region along the segment.
    """
    route = _route_to(overlay, endpoint_a, start)

    def intersects(object_id: int) -> bool:
        polygon = overlay.voronoi_cell(object_id, _CELL_BOX).polygon
        return _polygon_intersects_segment(polygon, endpoint_a, endpoint_b)

    visited, spread = _spread(overlay, route.owner, intersects)
    matches = sorted(visited)
    return QueryResult(matches=matches, route=route, visited=visited,
                       spread_messages=spread)


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------
def _route_to(overlay: "VoroNet", point: Point,
              start: Optional[int]) -> RouteResult:
    if len(overlay) == 0:
        raise EmptyOverlayError("cannot query an empty overlay")
    if start is None:
        # Grid-hinted entry, the same policy as VoroNet.lookup.
        start = overlay.query_entry_point(point)
    return greedy_route(overlay, start, point)


def _spread(overlay: "VoroNet", seed: int, predicate) -> (Set[int], int):
    """Breadth-first spreading over Voronoi neighbours satisfying ``predicate``.

    The seed object always participates (it owns part of the query shape by
    construction of the routing phase).  Each traversed edge between two
    participating objects counts as one message; edges probed towards
    non-participating neighbours also cost one message each (the neighbour
    must be asked before it can decline), matching a conservative accounting
    of the distributed algorithm.
    """
    visited: Set[int] = {seed}
    frontier = [seed]
    messages = 0
    while frontier:
        current = frontier.pop()
        for neighbor in overlay.voronoi_neighbors(current):
            if neighbor in visited:
                continue
            messages += 1
            if predicate(neighbor):
                visited.add(neighbor)
                frontier.append(neighbor)
    return visited, messages


def _polygon_intersects_disk(polygon: List[Point], center: Point,
                             radius: float) -> bool:
    if not polygon:
        return False
    if point_in_polygon(center, polygon, include_boundary=True):
        return True
    n = len(polygon)
    for i in range(n):
        if distance_to_segment(center, polygon[i], polygon[(i + 1) % n]) <= radius:
            return True
    return False


def _polygon_intersects_segment(polygon: List[Point], a: Point, b: Point) -> bool:
    if not polygon:
        return False
    if point_in_polygon(a, polygon, include_boundary=True) or \
            point_in_polygon(b, polygon, include_boundary=True):
        return True
    n = len(polygon)
    for i in range(n):
        if _segments_intersect(polygon[i], polygon[(i + 1) % n], a, b):
            return True
    return False


def _segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    def orient(a: Point, b: Point, c: Point) -> float:
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0) or d1 == 0 or d2 == 0) and \
       ((d3 > 0) != (d4 > 0) or d3 == 0 or d4 == 0):
        # Handle the collinear-overlap cases conservatively.
        if d1 == 0 and d2 == 0 and d3 == 0 and d4 == 0:
            return (min(p1[0], p2[0]) <= max(q1[0], q2[0])
                    and min(q1[0], q2[0]) <= max(p1[0], p2[0])
                    and min(p1[1], p2[1]) <= max(q1[1], q2[1])
                    and min(q1[1], q2[1]) <= max(p1[1], p2[1]))
        return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) or \
               d1 == 0 or d2 == 0 or d3 == 0 or d4 == 0
    return False
