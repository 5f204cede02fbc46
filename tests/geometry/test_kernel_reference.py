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

Every greedy descent filters "closer" inline too
(:func:`~repro.geometry.predicates.greedy_hop`): the kernel's point
location, the oracle's scalar loop over scan blocks and over arrays, its
batch frontier, a protocol node's next hop and the reference router.  On
the nudged lattices, targets on the bisectors of lattice neighbours put
float distances within an ulp of each other, and every router must still
end at an object at the exact minimum distance, found by brute force with
:class:`fractions.Fraction`.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.overlay as overlay_module
from reference_kernel import ReferenceTriangulation
from reference_router import reference_greedy_route
from repro.core import VoroNet, VoroNetConfig, routing
from repro.core.routing import greedy_route
from repro.geometry import delaunay
from repro.geometry.delaunay import DelaunayTriangulation
from repro.geometry.point import distance_sq
from repro.geometry.predicates import _incircle_exact
from repro.simulation.protocol import ProtocolSimulator

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


def exact_nearest(points, target):
    """Indices of the points at the exact minimum distance from ``target``."""
    tx, ty = Fraction(target[0]), Fraction(target[1])
    distances = [(Fraction(x) - tx) ** 2 + (Fraction(y) - ty) ** 2 for x, y in points]
    least = min(distances)
    return {index for index, d in enumerate(distances) if d == least}


def owners_by_router(points, pairs):
    """``{router: [owner per pair]}`` for ``(source index, target)`` pairs,
    every owner given as its index in ``points``."""
    config = VoroNetConfig(n_max=64, allow_overflow=True, seed=1202)
    overlay = VoroNet(config)
    ids = overlay.bulk_load(points)
    index = {position: i for i, position in enumerate(points)}
    batch = [(ids[source], target) for source, target in pairs]
    owners = {
        "kernel": [overlay.triangulation.nearest_vertex(target, hint=source)
                   for source, target in batch],
        "reference": [reference_greedy_route(overlay, source, target)[-1]
                      for source, target in batch],
    }

    def route_both_ways(form):
        owners[f"scalar, {form}"] = [greedy_route(overlay, source, target).owner
                                     for source, target in batch]
        with mock.patch.object(routing, "VECTOR_SCAN_THRESHOLD", 1):
            owners[f"frontier, {form}"] = [result.owner for result in overlay.route_many(batch)]

    route_both_ways("scan blocks")
    with mock.patch.object(overlay_module, "VECTOR_SCAN_THRESHOLD", 1):
        overlay.invalidate_routing_tables()
        route_both_ways("arrays")
    owners = {name: [index[overlay.position_of(owner)] for owner in found]
              for name, found in owners.items()}
    simulator = ProtocolSimulator(config, seed=1202)
    simulator.bulk_join(points)
    by_position = {simulator.node(object_id).position: object_id
                   for object_id in simulator.object_ids()}
    owners["protocol"] = [
        index[simulator.node(simulator.query(target, start=by_position[points[source]])
                             .owner).position]
        for source, target in pairs]
    return owners


#: Object 2 is exactly closer than object 3 to object 1 and adjacent to
#: it, but ``0.5 - 0.010000000000000002 == 0.5 - 0.01`` in binary64: the
#: two are the same float distance from it.
FOUR_POINTS = [(0.5, 0.75), (0.5, 0.125), (0.010000000000000002, 0.01), (0.01, 0.01)]


class TestEveryDescentEndsAtAnExactOwner:
    def test_a_binary64_tie_is_decided_exactly(self):
        target = FOUR_POINTS[1]
        assert distance_sq(FOUR_POINTS[2], target) == distance_sq(FOUR_POINTS[3], target)
        assert exact_nearest(FOUR_POINTS[2:], target) == {0}
        pairs = [(source, target) for source in range(4)]
        for router, owners in owners_by_router(FOUR_POINTS, pairs).items():
            assert owners == [1, 1, 1, 1], router

    def test_a_route_to_an_object_succeeds_at_it(self):
        overlay = VoroNet(VoroNetConfig(n_max=64, allow_overflow=True, seed=1202))
        assert overlay.bulk_load(FOUR_POINTS) == [0, 1, 2, 3]
        scalar = greedy_route(overlay, 3, overlay.position_of(1))
        assert (scalar.owner, scalar.success, scalar.final_distance) == (1, True, 0.0)
        for threshold in (routing.VECTOR_SCAN_THRESHOLD, 1):
            with mock.patch.object(routing, "VECTOR_SCAN_THRESHOLD", threshold):
                (batched,) = overlay.route_many([(3, 1)])
            assert (batched.owner, batched.success) == (1, True)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(9, 64))
    def test_on_nudged_lattices(self, seed, count):
        """Targets on the bisectors of lattice neighbours and at cell
        centres; every object is a source."""
        points = family_points("nudged", seed, count)
        side = math.isqrt(len(points))
        rng = np.random.default_rng(seed)
        targets = []
        for i, j, kind in zip(rng.integers(side, size=8).tolist(),
                              rng.integers(side, size=8).tolist(),
                              rng.integers(3, size=8).tolist()):
            targets.append(((i + (kind != 1) / 2) / side, (j + (kind != 0) / 2) / side))
        pairs = [(source, target) for target in targets for source in range(len(points))]
        exact = [exact_nearest(points, target) for _source, target in pairs]
        for router, owners in owners_by_router(points, pairs).items():
            wrong = [(pair, owner) for pair, owner, nearest in zip(pairs, owners, exact)
                     if owner not in nearest]
            assert wrong == [], router
