"""2-D point helpers.

Points throughout the library are plain ``(x, y)`` tuples of floats: they
are created in very large numbers (one per overlay object plus transient
routing targets), so we avoid per-point object overhead and keep the hot
distance computations as straight-line arithmetic.  Vectorised variants
operating on ``(n, 2)`` numpy arrays are provided for bulk analysis, per the
"vectorise the loops" guidance of the HPC guides.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "Point",
    "distance",
    "distance_sq",
    "distance_to_segment",
    "midpoint",
    "lerp",
    "as_point",
    "points_to_array",
    "pairwise_distances",
    "distances_to",
    "nearly_equal",
]

#: Type alias for a 2-D point.
Point = Tuple[float, float]


def as_point(value: Sequence[float]) -> Point:
    """Coerce a length-2 sequence into a ``(float, float)`` tuple.

    A value that already is exactly a ``tuple`` of two ``float`` objects is
    returned as it is, not copied: the overlay coerces each object's
    position once and the node, the Delaunay kernel and the locate grid
    then share that one tuple.  Anything else — a list, ints, numpy scalars,
    a ``tuple`` subclass — becomes a fresh tuple.
    """
    if (type(value) is tuple and len(value) == 2
            and type(value[0]) is float and type(value[1]) is float):
        return value
    if len(value) != 2:
        raise ValueError(f"expected a 2-D point, got {value!r}")
    return (float(value[0]), float(value[1]))


def distance_sq(a: Point, b: Point) -> float:
    """Squared Euclidean distance between two points.

    Preferred over :func:`distance` in comparisons (greedy routing, nearest
    neighbour searches) because it avoids the square root.
    """
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + dy * dy


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def distance_to_segment(point: Point, a: Point, b: Point) -> float:
    """Euclidean distance from ``point`` to the closed segment ``ab``."""
    ax, ay = a
    px, py = point
    dx, dy = b[0] - ax, b[1] - ay
    length_sq = dx * dx + dy * dy
    if length_sq == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / length_sq))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def midpoint(a: Point, b: Point) -> Point:
    """Midpoint of the segment ``ab``."""
    return ((a[0] + b[0]) * 0.5, (a[1] + b[1]) * 0.5)


def lerp(a: Point, b: Point, t: float) -> Point:
    """Linear interpolation ``a + t (b - a)``."""
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def nearly_equal(a: Point, b: Point, tolerance: float = 1e-12) -> bool:
    """Whether two points coincide up to ``tolerance`` per coordinate."""
    return abs(a[0] - b[0]) <= tolerance and abs(a[1] - b[1]) <= tolerance


def points_to_array(points: Iterable[Point]) -> np.ndarray:
    """Stack an iterable of points into an ``(n, 2)`` float64 array."""
    array = np.asarray(list(points), dtype=np.float64)
    if array.size == 0:
        return array.reshape(0, 2)
    if array.ndim != 2 or array.shape[1] != 2:
        raise ValueError(f"expected (n, 2) points, got shape {array.shape}")
    return array


def distances_to(points: np.ndarray, target: Point) -> np.ndarray:
    """Vectorised Euclidean distances from every row of ``points`` to ``target``."""
    pts = np.asarray(points, dtype=np.float64)
    delta = pts - np.asarray(target, dtype=np.float64)
    return np.hypot(delta[:, 0], delta[:, 1])


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Full ``(n, n)`` matrix of pairwise Euclidean distances.

    Uses broadcasting rather than Python loops; intended for analysis of
    moderately sized point sets (the memory cost is ``O(n^2)``).
    """
    pts = np.asarray(points, dtype=np.float64)
    delta = pts[:, None, :] - pts[None, :, :]
    return np.hypot(delta[..., 0], delta[..., 1])


def centroid(points: Iterable[Point]) -> Point:
    """Arithmetic mean of a non-empty collection of points."""
    pts: List[Point] = list(points)
    if not pts:
        raise ValueError("centroid of an empty point set is undefined")
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    n = float(len(pts))
    return (sx / n, sy / n)
