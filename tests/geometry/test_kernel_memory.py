"""What the Delaunay kernel costs per vertex, measured with ``tracemalloc``.

The kernel keeps its triangles in flat slot lists (``repro.geometry.delaunay``,
"Design"): about 2N triangles of three vertex slots and three neighbour slots
each, plus one corner per vertex.  Beyond what registering the points costs
(coordinates, records, the coordinate index), ``bulk_insert`` of 20 000
uniform points reads 193 B per vertex.  The edge → apex map with one edge
tuple per vertex that the slots replaced read 946 B on the same points, and
fails this guard.  Tracing every allocation makes this test slow (~12 s).
"""

import gc
import tracemalloc

import numpy as np

from repro.geometry.delaunay import DelaunayTriangulation

VERTICES = 20_000
BYTES_PER_VERTEX = 300


def traced_growth(action):
    """Bytes still allocated after ``action()`` returns, and its result."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = action()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return grown, kept


def test_the_triangulation_costs_at_most_300_bytes_per_vertex():
    points = np.random.default_rng(20261015).random((VERTICES, 2)).tolist()

    def triangulated():
        dt = DelaunayTriangulation()
        return dt, dt.bulk_insert(points)

    def registered():
        dt = DelaunayTriangulation()
        ids = list(range(len(points)))
        for vertex_id, (x, y) in zip(ids, points):
            dt._register(vertex_id, (float(x), float(y)))
        return dt, ids

    total, (dt, _ids) = traced_growth(triangulated)
    registration, _kept = traced_growth(registered)
    assert len(dt) == VERTICES and dt.has_triangulation
    per_vertex = (total - registration) / VERTICES
    assert per_vertex <= BYTES_PER_VERTEX, per_vertex
