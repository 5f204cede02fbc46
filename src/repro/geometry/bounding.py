"""Axis-aligned bounding boxes and polygon clipping.

VoroNet's attribute space is the unit square ``[0, 1] × [0, 1]``.  Voronoi
cells of boundary objects are unbounded; for cell-geometry reporting
(areas, plots) they are clipped against the unit square with a standard
Sutherland–Hodgman pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.geometry.point import Point

__all__ = ["BoundingBox", "UNIT_SQUARE", "clip_polygon_to_box"]


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned rectangle ``[xmin, xmax] × [ymin, ymax]``."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(f"degenerate bounding box: {self}")

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return ((self.xmin + self.xmax) * 0.5, (self.ymin + self.ymax) * 0.5)

    def contains(self, point: Point, tolerance: float = 0.0) -> bool:
        """Whether ``point`` lies inside the box (inclusive, with tolerance)."""
        x, y = point
        return (
            self.xmin - tolerance <= x <= self.xmax + tolerance
            and self.ymin - tolerance <= y <= self.ymax + tolerance
        )

    def sample(self, rng) -> Point:
        """Draw a point uniformly from the box using a RandomSource-like rng."""
        return (
            rng.uniform(self.xmin, self.xmax),
            rng.uniform(self.ymin, self.ymax),
        )

    def expanded(self, margin: float) -> "BoundingBox":
        """A copy grown by ``margin`` on every side."""
        return BoundingBox(
            self.xmin - margin, self.ymin - margin,
            self.xmax + margin, self.ymax + margin,
        )


#: The attribute space the paper works in.
UNIT_SQUARE = BoundingBox(0.0, 0.0, 1.0, 1.0)


def _clip_against_edge(polygon: List[Point], inside, intersect) -> List[Point]:
    if not polygon:
        return []
    output: List[Point] = []
    prev = polygon[-1]
    prev_inside = inside(prev)
    for current in polygon:
        cur_inside = inside(current)
        if cur_inside:
            if not prev_inside:
                output.append(intersect(prev, current))
            output.append(current)
        elif prev_inside:
            output.append(intersect(prev, current))
        prev, prev_inside = current, cur_inside
    return output


def clip_polygon_to_box(polygon: Sequence[Point], box: BoundingBox) -> List[Point]:
    """Clip a (convex or simple) polygon against an axis-aligned box.

    Implements Sutherland–Hodgman clipping, one box edge at a time.  Returns
    the clipped polygon as a list of points (possibly empty if the polygon
    lies entirely outside the box).
    """
    poly = [(float(x), float(y)) for x, y in polygon]

    def x_intersect(p: Point, q: Point, x: float) -> Point:
        t = (x - p[0]) / (q[0] - p[0])
        return (x, p[1] + t * (q[1] - p[1]))

    def y_intersect(p: Point, q: Point, y: float) -> Point:
        t = (y - p[1]) / (q[1] - p[1])
        return (p[0] + t * (q[0] - p[0]), y)

    poly = _clip_against_edge(
        poly, lambda p: p[0] >= box.xmin, lambda p, q: x_intersect(p, q, box.xmin))
    poly = _clip_against_edge(
        poly, lambda p: p[0] <= box.xmax, lambda p, q: x_intersect(p, q, box.xmax))
    poly = _clip_against_edge(
        poly, lambda p: p[1] >= box.ymin, lambda p, q: y_intersect(p, q, box.ymin))
    poly = _clip_against_edge(
        poly, lambda p: p[1] <= box.ymax, lambda p, q: y_intersect(p, q, box.ymax))
    return poly


def polygon_area(polygon: Sequence[Point]) -> float:
    """Unsigned area of a simple polygon (shoelace formula)."""
    n = len(polygon)
    if n < 3:
        return 0.0
    total = 0.0
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return abs(total) * 0.5
