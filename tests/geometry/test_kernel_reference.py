"""The inline predicate filters decide what the predicate functions decide.

``DelaunayTriangulation._insert_into_triangulation`` and ``_walk_to_seed``
evaluate the ``orient2d`` / ``incircle`` float filter inline and call the
exact predicates only where the filter cannot decide.
``tests/reference_kernel.py`` keeps the loop that called
:func:`~repro.geometry.predicates.orient2d` and
:func:`~repro.geometry.predicates.incircle` for every decision.  Every sign
is the same, so twin kernels fed the same operations hold the same slots:
vertex, across, corner and free lists, version and stars, element for
element.  The inputs include exactly cocircular lattices and points nudged
by one ulp off them, where the float determinant sits inside the filter's
error band and only the exact predicate decides; a kernel that trusts the
float sign there builds other triangles.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_kernel import ReferenceTriangulation
from repro.geometry import delaunay
from repro.geometry.delaunay import DelaunayTriangulation
from repro.geometry.predicates import _incircle_exact

FAMILIES = ("uniform", "clustered", "grid", "cocircular", "nudged")


def family_points(family, seed, count):
    """``count`` or fewer distinct points of one input family, shuffled."""
    rng = np.random.default_rng(seed)
    if family == "uniform":
        points = rng.random((count, 2)).tolist()
    elif family == "clustered":
        corner = rng.random(2) * 0.9
        points = np.vstack([corner + 1e-3 * rng.random((count // 2, 2)),
                            rng.random((count - count // 2, 2))]).tolist()
    elif family == "grid":
        side = max(3, math.isqrt(count))
        points = [(i / side, j / side) for i in range(side) for j in range(side)]
    elif family == "cocircular":
        angles = rng.random(count) * 2 * math.pi
        points = [(0.5 + 0.25 * math.cos(a), 0.5 + 0.25 * math.sin(a)) for a in angles]
        points += rng.random((count // 4, 2)).tolist()
    else:  # "nudged": a dyadic lattice, some coordinates one ulp off it
        side = max(3, math.isqrt(count))
        points = []
        for i in range(side):
            for j in range(side):
                x, y = i / side, j / side
                if rng.random() < 0.3:
                    x = math.nextafter(x, 1.0)
                if rng.random() < 0.3:
                    y = math.nextafter(y, 0.0)
                points.append((x, y))
    unique = sorted({(float(x), float(y)) for x, y in points})
    order = rng.permutation(len(unique))
    return [unique[i] for i in order.tolist()]


def kernel_state(dt):
    """Everything the insertion loop writes, stars and their cache included."""
    return (dt._vertices, dt._across, dt._corners, dt._free, dt.version,
            dt.last_vertex, list(dt._points.items()), list(dt._stars.items()),
            {v: dt.star_ring(v) for v in dt.vertex_ids()} if dt.has_triangulation else None)


def drive(dt, points, seed):
    """Bulk-load half the points, then interleave inserts, removals and
    point locations; return the answers of the locations."""
    rng = np.random.default_rng(seed)
    half = len(points) // 2
    dt.bulk_insert(points[:half])
    answers = []
    for point in points[half:]:
        dt.insert(point)
        roll = rng.random()
        if roll < 0.35 and len(dt) > 3:
            ids = dt.vertex_ids()
            dt.remove(ids[int(rng.integers(len(ids)))])
        elif roll < 0.6:
            query = tuple(rng.random(2).tolist())
            answers.append(dt.nearest_vertex(query))
    return answers


class TestInlineFiltersMatchTheFunctions:
    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(FAMILIES), seed=st.integers(0, 2**32 - 1),
           count=st.integers(4, 90))
    def test_twins_hold_the_same_slots(self, family, seed, count):
        points = family_points(family, seed, count)
        kernel, reference = DelaunayTriangulation(), ReferenceTriangulation()
        assert drive(kernel, points, seed) == drive(reference, points, seed)
        assert kernel_state(kernel) == kernel_state(reference)
        kernel.validate()

    def test_nudged_lattice_reaches_the_exact_fallback(self, monkeypatch):
        """The inputs above do reach the exact predicate: building a nudged
        lattice, the kernel's filter leaves incircle tests undecided whose
        float sign is not the exact one."""
        undecided = []

        def exact(a, b, c, d):
            sign = _incircle_exact(a, b, c, d)
            adx, ady = a[0] - d[0], a[1] - d[1]
            bdx, bdy = b[0] - d[0], b[1] - d[1]
            cdx, cdy = c[0] - d[0], c[1] - d[1]
            det = ((adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
                   + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
                   + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady))
            undecided.append((det > 0) != (sign > 0))
            return sign

        monkeypatch.setattr(delaunay, "_incircle_exact", exact)
        for seed in range(3):
            DelaunayTriangulation().bulk_insert(family_points("nudged", seed, 81))
        assert len(undecided) > 0 and any(undecided)
