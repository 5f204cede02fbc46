"""Robust geometric predicates.

The paper relies on the Sugihara–Iri construction precisely because naive
floating-point Voronoi maintenance breaks down under calculation degeneracy
(near-collinear or near-cocircular objects).  We obtain the same resilience
differently: the ``orient2d`` and ``incircle`` predicates below are first
evaluated in fast floating point; when the result falls within a
conservative forward-error bound of zero (for ``incircle``, also when that
bound is so small that a product may have underflowed), they are
re-evaluated exactly with :class:`fractions.Fraction` arithmetic.  Floats convert to rationals
exactly, so the fallback gives the mathematically exact sign.

Only the *signs* of these determinants drive the triangulation logic, so
exactness of the sign is all that is needed for topological consistency.

Greedy descent — kernel point location, the overlay's routers, a protocol
node's next hop — decides "closer" the same way: :func:`greedy_hop` is the
rule.  Every descent scans its candidates inline for their float minimum
and takes a clear hop itself, one comparison with the holder's distance;
a stop or a near-tie goes to :func:`settle`, and :func:`exact_hop`
decides the near-tie with rationals.
"""

from __future__ import annotations

import math
from enum import IntEnum
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

from repro.geometry.point import Point

__all__ = [
    "Orientation",
    "orient2d",
    "incircle",
    "greedy_hop",
    "settle",
    "exact_hop",
    "NEARER",
    "FARTHER",
    "DISTANCE_FLOOR",
    "circumcenter",
    "circumradius",
    "point_in_triangle",
    "point_in_polygon",
    "collinear",
    "segment_contains",
    "triangle_area",
]

# Forward-error coefficients, slightly inflated relative to Shewchuk's exact
# constants so the exact path is taken a little more eagerly than strictly
# necessary.  The exact path is cheap at our scales and only rarely taken.
_ORIENT_ERRBOUND = 4.0e-16
_INCIRCLE_ERRBOUND = 1.2e-15
#: ``incircle`` trusts its float sign only while its error bound exceeds
#: this.  The bounds above are relative; a product that underflows to a
#: subnormal carries an absolute error of up to 2**-1075 that they do not
#: cover (``incircle((ε, 0.4), (ε, 0.6), (0, 0.8), (0, 0))`` with
#: ``ε = 5e-324`` reads +1 in floats and is -1 exactly).  Below the floor —
#: points within about 1e-64 of each other, or subnormal coordinate
#: differences — the exact predicate decides.
_INCIRCLE_FLOOR = 2.0 ** -900
#: Relative error of one float squared distance ``dx*dx + dy*dy`` of float
#: coordinates: five roundings (two differences, two squares, the sum),
#: 4u + O(u²) ≈ 4.4e-16, inflated like the bounds above.
_DISTANCE_ERRBOUND = 1.0e-15
#: A descent holding ``holder_d`` whose candidates' float minimum is
#: ``best_d`` hops on floats alone while ``best_d < holder_d * NEARER -
#: DISTANCE_FLOOR`` and stops on floats alone while ``best_d >= holder_d *
#: FARTHER + DISTANCE_FLOOR``: either way the float order is the exact
#: order.  Between the two lies a near-tie, which :func:`settle` hands to
#: :func:`exact_hop`.
NEARER = 1.0 - 2.0 * _DISTANCE_ERRBOUND
FARTHER = 1.0 + 2.0 * _DISTANCE_ERRBOUND
#: The bound above is relative; a square that underflows carries an
#: absolute error of up to 2**-1075 that it does not cover, so distances
#: this small are compared exactly, as ``_INCIRCLE_FLOOR`` has ``incircle``
#: do.  A route standing on its target (distance 0) is not a near-tie.
DISTANCE_FLOOR = 2.0 ** -900


class Orientation(IntEnum):
    """Sign of the orientation determinant."""

    CLOCKWISE = -1
    COLLINEAR = 0
    COUNTERCLOCKWISE = 1


def _orient2d_exact(a: Point, b: Point, c: Point) -> int:
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]), Fraction(b[1])
    cx, cy = Fraction(c[0]), Fraction(c[1])
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def orient2d(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of triangle ``abc``.

    Returns ``+1`` if ``c`` lies strictly to the left of the directed line
    ``a → b`` (counter-clockwise triangle), ``-1`` if strictly to the right,
    and ``0`` if the three points are exactly collinear.
    """
    acx = a[0] - c[0]
    acy = a[1] - c[1]
    bcx = b[0] - c[0]
    bcy = b[1] - c[1]
    det = acx * bcy - acy * bcx
    detsum = abs(acx * bcy) + abs(acy * bcx)
    if abs(det) > _ORIENT_ERRBOUND * detsum:
        return 1 if det > 0 else -1
    return _orient2d_exact(a, b, c)


def collinear(a: Point, b: Point, c: Point) -> bool:
    """Whether the three points are exactly collinear."""
    return orient2d(a, b, c) == 0


def _incircle_exact(a: Point, b: Point, c: Point, d: Point) -> int:
    ax, ay = Fraction(a[0]) - Fraction(d[0]), Fraction(a[1]) - Fraction(d[1])
    bx, by = Fraction(b[0]) - Fraction(d[0]), Fraction(b[1]) - Fraction(d[1])
    cx, cy = Fraction(c[0]) - Fraction(d[0]), Fraction(c[1]) - Fraction(d[1])
    det = (
        (ax * ax + ay * ay) * (bx * cy - by * cx)
        - (bx * bx + by * by) * (ax * cy - ay * cx)
        + (cx * cx + cy * cy) * (ax * by - ay * bx)
    )
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def incircle(a: Point, b: Point, c: Point, d: Point) -> int:
    """Sign of the in-circumcircle determinant.

    For a *counter-clockwise* triangle ``abc``, returns ``+1`` if ``d`` lies
    strictly inside the circumscribed circle of ``abc``, ``-1`` if strictly
    outside, and ``0`` if exactly on the circle.  (For a clockwise triangle
    the sign flips, as usual.)
    """
    adx = a[0] - d[0]
    ady = a[1] - d[1]
    bdx = b[0] - d[0]
    bdy = b[1] - d[1]
    cdx = c[0] - d[0]
    cdy = c[1] - d[1]

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    alift = adx * adx + ady * ady

    cdxady = cdx * ady
    adxcdy = adx * cdy
    blift = bdx * bdx + bdy * bdy

    adxbdy = adx * bdy
    bdxady = bdx * ady
    clift = cdx * cdx + cdy * cdy

    det = (
        alift * (bdxcdy - cdxbdy)
        + blift * (cdxady - adxcdy)
        + clift * (adxbdy - bdxady)
    )
    permanent = (
        (abs(bdxcdy) + abs(cdxbdy)) * alift
        + (abs(cdxady) + abs(adxcdy)) * blift
        + (abs(adxbdy) + abs(bdxady)) * clift
    )
    if abs(det) > _INCIRCLE_ERRBOUND * permanent > _INCIRCLE_FLOOR:
        return 1 if det > 0 else -1
    return _incircle_exact(a, b, c, d)


def greedy_hop(target: Point, holder: Point,
               candidates: Sequence[Tuple[int, float, float]]) -> Optional[int]:
    """Where greedy descent forwards from ``holder`` towards ``target``, or ``None``.

    The routing rule of Sections 3.2 and 4.2.3, decided exactly: a hop goes
    to a candidate whose exact squared distance to ``target`` is strictly
    below the holder's; with none, the descent stops.  ``candidates`` are
    ``(id, x, y)`` records.  The scan keeps their float minimum below a bar
    just past the holder's distance, the first of equal minima (a table
    listed in id order gives the lowest id), and :func:`settle` decides the
    hop from it.  So every step is exactly closer, and a descent over
    Delaunay neighbours ends at an object whose Voronoi region contains the
    target.  The hot descents inline this scan and :func:`settle`'s first
    test, so a clear hop costs them no call.
    """
    tx, ty = target
    hx, hy = holder
    holder_d = (hx - tx) * (hx - tx) + (hy - ty) * (hy - ty)
    # A candidate at or past the bar is clearly farther than the holder.
    best, best_d = None, holder_d * FARTHER + DISTANCE_FLOOR
    for cid, x, y in candidates:
        d = (x - tx) * (x - tx) + (y - ty) * (y - ty)
        if d < best_d:
            best, best_d = cid, d
    return settle(best, best_d, holder_d, target, holder, candidates)[0]


def settle(best: Optional[int], best_d: float, holder_d: float, target: Point,
           holder: Point, candidates: Iterable[Tuple[int, float, float]]
           ) -> Tuple[Optional[int], float]:
    """One descent step's hop from its scan: ``(hop, its squared distance)``,
    or ``(None, holder_d)`` to stop.

    ``best`` is the first candidate attaining the scan's float minimum
    ``best_d`` below the bar ``holder_d * FARTHER + DISTANCE_FLOOR``, or
    ``None`` when no candidate is below it; ``holder_d`` is the float
    squared distance of ``holder`` from ``target``.  A minimum below
    ``holder_d * NEARER - DISTANCE_FLOOR`` is the hop; between the two
    bounds lies a near-tie, which :func:`exact_hop` settles over
    ``candidates`` — read only then, so a caller may pass a generator.

    The hot descents take a clear hop without calling this: a call per hop
    costs the kernel's walk about a quarter of its time.
    """
    if best is None or best_d < holder_d * NEARER - DISTANCE_FLOOR:
        return best, best_d
    record = exact_hop(target, holder, candidates)
    if record is None:
        return None, holder_d
    hop, x, y = record
    tx, ty = target
    return hop, (x - tx) * (x - tx) + (y - ty) * (y - ty)


def exact_hop(target: Point, holder: Point,
              candidates: Iterable[Tuple[int, float, float]]
              ) -> Optional[Tuple[int, float, float]]:
    """The ``(id, x, y)`` record of the lowest id among the candidates
    exactly nearest ``target``, if that is strictly nearer than ``holder``.

    Floats convert to rationals exactly, so the comparison is the
    mathematically exact one.  :func:`settle` calls it only where the float
    filter cannot decide, so its cost is paid on near-ties alone.
    """
    tx, ty = Fraction(target[0]), Fraction(target[1])
    hx, hy = Fraction(holder[0]) - tx, Fraction(holder[1]) - ty
    best, best_d = None, hx * hx + hy * hy
    for record in candidates:
        dx, dy = Fraction(record[1]) - tx, Fraction(record[2]) - ty
        d = dx * dx + dy * dy
        if d < best_d or (d == best_d and best is not None and record[0] < best[0]):
            best, best_d = record, d
    return best


def triangle_area(a: Point, b: Point, c: Point) -> float:
    """Unsigned area of triangle ``abc`` (floating point)."""
    return abs(
        (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    ) * 0.5


def circumcenter(a: Point, b: Point, c: Point) -> Optional[Point]:
    """Circumcenter of triangle ``abc`` or ``None`` if the points are collinear.

    Computed in floating point; it feeds Voronoi-cell geometry (vertices,
    areas) where small numerical error is acceptable, never the exact
    topological decisions.
    """
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return None
    ux = (
        (ax * ax + ay * ay) * (by - cy)
        + (bx * bx + by * by) * (cy - ay)
        + (cx * cx + cy * cy) * (ay - by)
    ) / d
    uy = (
        (ax * ax + ay * ay) * (cx - bx)
        + (bx * bx + by * by) * (ax - cx)
        + (cx * cx + cy * cy) * (bx - ax)
    ) / d
    return (ux, uy)


def circumradius(a: Point, b: Point, c: Point) -> float:
    """Circumradius of triangle ``abc`` (``inf`` for collinear points)."""
    center = circumcenter(a, b, c)
    if center is None:
        return math.inf
    return math.hypot(center[0] - a[0], center[1] - a[1])


def point_in_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    """Whether ``p`` lies inside or on the boundary of triangle ``abc``.

    Works for either orientation of the triangle.
    """
    o1 = orient2d(a, b, p)
    o2 = orient2d(b, c, p)
    o3 = orient2d(c, a, p)
    has_neg = (o1 < 0) or (o2 < 0) or (o3 < 0)
    has_pos = (o1 > 0) or (o2 > 0) or (o3 > 0)
    return not (has_neg and has_pos)


def point_in_polygon(point: Point, polygon: Sequence[Point], *,
                     include_boundary: bool = True) -> bool:
    """Whether ``point`` lies inside a simple polygon.

    The interior test is the even-odd ray cast; points lying exactly on an
    edge or vertex are classified by :func:`segment_contains`, so with
    ``include_boundary=True`` (the default) an on-boundary point counts as
    inside.  A bare ray cast misclassifies such points unpredictably.
    """
    n = len(polygon)
    if n == 0:
        return False
    for i in range(n):
        a = polygon[i]
        b = polygon[(i + 1) % n]
        if point == a:
            return include_boundary
        if a != b and segment_contains(a, b, point, strict=False):
            return include_boundary
    x, y = point
    inside = False
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    return inside


def segment_contains(a: Point, b: Point, p: Point, *, strict: bool = True) -> bool:
    """Whether ``p`` lies on segment ``ab``.

    Requires exact collinearity.  With ``strict=True`` the endpoints are
    excluded (open segment), which is the test needed by the ghost-triangle
    circumdisk rule of the Delaunay kernel.
    """
    if orient2d(a, b, p) != 0:
        return False
    dot = (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])
    length_sq = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    if length_sq == 0.0:
        return False
    if strict:
        return 0.0 < dot < length_sq
    return 0.0 <= dot <= length_sq
