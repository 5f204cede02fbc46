"""Every star starts where it started: the kernel's star-order golden.

``star_ring(v)`` starts at the neighbour the kernel last recorded for ``v``
when it wrote a triangle (``repro.geometry.delaunay``, "Design"), and
everything that walks a star — cached stars, routing tables, the protocol's
view snapshots, and so the fuzz and heal digests — inherits that order.  A
seeded sequence runs on three inputs:

* uniform points;
* a 9 × 9 lattice (collinear hull runs, cocircular quadruples everywhere);
* concentric rings, each point mirrored across the vertical axis
  (near-cocircular by the hundred; built from the rational parametrisation
  of the circle, so no libm rounding enters the coordinates).

The sequence is one ``bulk_insert``, hinted ``insert``\\ s from random
vertices, interior ``remove``\\ s, hull ``remove``\\ s (each a rebuild), one
``rebuild()``, and a second kernel grown by ``insert`` from empty.  After
each stage one SHA-256 takes every vertex's ``star_ring`` (start
included), ``sorted(triangles())`` and ``version``.

The digests were recorded on the edge-map kernel, before the triangles moved
into slots.  They must not move: a corner written out of
``_add_triangle``'s order rotates some star and fails here.

``python tests/geometry/test_star_order_golden.py`` prints the current
digests.
"""

import hashlib

import numpy as np
import pytest

from repro.geometry.delaunay import DelaunayTriangulation

SEED = 20261015

#: Recorded on the edge → apex map kernel; never re-record for a change
#: that only means to store the same triangulation differently.
GOLDEN = {
    "uniform": "3596a608f4a18825563ab7f77ac4a4e971af89f345506ab8d52f3a931bea1366",
    "lattice": "157df986373420dd24b5695776a957535796b2754fd272cbb2d06e9bb6771f44",
    "rings": "f9ea08950fb4d8734479f9cddb53761a30c4d4d18e328811a5004c73b23d3d7a",
}


def uniform_points():
    rng = np.random.default_rng(SEED)
    return [tuple(p) for p in rng.random((2300, 2))]


def lattice_points():
    return [(i / 8, j / 8) for i in range(9) for j in range(9)]


def ring_points(rings=24, per_half=50):
    """Points on concentric circles about (0.5, 0.5), mirrored in x."""
    seen = {}
    for ring in range(1, rings + 1):
        radius = ring / 52
        for step in range(per_half):
            t = -1 + 2 * step / per_half
            x = (1 - t * t) / (1 + t * t)
            y = 2 * t / (1 + t * t)
            for sx in (x, -x):
                seen.setdefault((0.5 + radius * sx, 0.5 + radius * y), None)
    return list(seen)


#: family → (points, bulk, hinted inserts, interior removes, hull removes,
#: points grown into a fresh kernel)
FAMILIES = {
    "uniform": (uniform_points, 2000, 300, 300, 5, 300),
    "lattice": (lattice_points, 50, 31, 20, 5, 81),
    "rings": (ring_points, 2000, 300, 300, 5, 300),
}


def kernel_state(kernel):
    return (
        kernel.version,
        [(v, kernel.star_ring(v)) for v in sorted(kernel.vertex_ids())],
        sorted(kernel.triangles()),
    )


def star_order_digest(family):
    make_points, bulk, hinted, interior, hull, grown = FAMILIES[family]
    pool = make_points()
    rng = np.random.default_rng(SEED)
    points = [pool[int(i)] for i in rng.permutation(len(pool))]
    digest = hashlib.sha256()

    def record(stage, kernel):
        digest.update(repr((stage, kernel_state(kernel))).encode())

    dt = DelaunayTriangulation()
    dt.bulk_insert(points[:bulk])
    record("bulk_insert", dt)

    for point in points[bulk:bulk + hinted]:
        ids = dt.vertex_ids()
        dt.insert(point, hint=ids[int(rng.integers(len(ids)))])
    record("insert", dt)

    removed = 0
    while removed < interior:
        ids = dt.vertex_ids()
        victim = ids[int(rng.integers(len(ids)))]
        if not dt.is_hull_vertex(victim):
            dt.remove(victim)
            removed += 1
    record("remove interior", dt)

    for _ in range(hull):
        on_hull = sorted(v for v in dt.vertex_ids() if dt.is_hull_vertex(v))
        dt.remove(on_hull[int(rng.integers(len(on_hull)))])
    record("remove hull", dt)

    dt.rebuild()
    record("rebuild", dt)
    dt.validate()

    fresh = DelaunayTriangulation()
    for point in points[:grown]:
        fresh.insert(point)
    record("grown", fresh)
    fresh.validate()
    return digest.hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_star_starts_where_it_started(family):
    assert star_order_digest(family) == GOLDEN[family]


if __name__ == "__main__":
    for name in sorted(FAMILIES):
        print(name, star_order_digest(name))
