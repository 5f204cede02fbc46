"""Computational-geometry substrate for the VoroNet reproduction.

This package provides everything the overlay needs from geometry:

* :mod:`repro.geometry.point` — scalar and vectorised 2-D point helpers,
* :mod:`repro.geometry.predicates` — robust ``orient2d`` / ``incircle``
  predicates with an exact rational fallback (the degeneracy resilience the
  paper requires from the Sugihara–Iri construction),
* :mod:`repro.geometry.delaunay` — an incremental Delaunay triangulation
  supporting insertion *and* deletion, the structure whose adjacency defines
  the Voronoi-neighbour sets ``vn(o)``,
* :mod:`repro.geometry.voronoi` — explicit Voronoi cells (vertices, areas)
  clipped to the unit square,
* :mod:`repro.geometry.locate_grid` — a grid-bucket index seeding point
  location and greedy descent with near-target hints,
* :mod:`repro.geometry.scipy_backend` — a :mod:`scipy.spatial` based
  cross-check backend used to validate our own kernel.
"""

from repro.geometry.point import (
    Point,
    distance,
    distance_sq,
    midpoint,
    pairwise_distances,
)
from repro.geometry.predicates import (
    Orientation,
    circumcenter,
    circumradius,
    incircle,
    orient2d,
    point_in_polygon,
    point_in_triangle,
)
from repro.geometry.delaunay import DelaunayTriangulation, DuplicatePointError
from repro.geometry.locate_grid import LocateGrid
from repro.geometry.voronoi import VoronoiCell, voronoi_cell, voronoi_cells
from repro.geometry.bounding import UNIT_SQUARE, BoundingBox, clip_polygon_to_box

__all__ = [
    "Point",
    "distance",
    "distance_sq",
    "midpoint",
    "pairwise_distances",
    "Orientation",
    "orient2d",
    "incircle",
    "circumcenter",
    "circumradius",
    "point_in_triangle",
    "point_in_polygon",
    "DelaunayTriangulation",
    "DuplicatePointError",
    "LocateGrid",
    "VoronoiCell",
    "voronoi_cell",
    "voronoi_cells",
    "BoundingBox",
    "UNIT_SQUARE",
    "clip_polygon_to_box",
]
