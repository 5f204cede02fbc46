"""Delaunay-only baseline: VoroNet without long-range links.

Greedy routing over the bare Delaunay graph always succeeds (it converges
to the region owner) but costs ``Θ(√N)`` hops instead of ``O(log² N)``; the
gap between this baseline and full VoroNet is exactly the contribution of
the generalised Kleinberg mechanism.  The class wraps a regular
:class:`~repro.core.overlay.VoroNet` configured with zero long links so the
construction cost is comparable and the object placement identical — and
that configuration is the whole baseline: with no link ever drawn, the one
routing view ``vn ∪ cn ∪ LRn`` *is* ``vn ∪ cn``, so routes go through the
same router, tables and cache as full VoroNet's.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.config import VoroNetConfig
from repro.core.overlay import VoroNet
from repro.core.routing import RouteResult, route_to_object
from repro.geometry.point import Point

__all__ = ["DelaunayOnlyOverlay"]


class DelaunayOnlyOverlay:
    """A VoroNet overlay stripped of its long-range links.

    Parameters
    ----------
    n_max:
        Maximum number of objects (same meaning as for VoroNet).
    seed:
        Seed of the underlying overlay.

    The ``cn(o)`` sets are still maintained: they are part of the
    tessellation machinery, not of the small-world mechanism.
    """

    def __init__(self, n_max: int, *, seed: Optional[int] = None) -> None:
        config = VoroNetConfig(n_max=n_max, num_long_links=0, seed=seed)
        self._overlay = VoroNet(config)

    @property
    def overlay(self) -> VoroNet:
        """The wrapped overlay (for inspection)."""
        return self._overlay

    def __len__(self) -> int:
        return len(self._overlay)

    def insert(self, position: Point) -> int:
        """Publish an object (identical join procedure, no long links)."""
        return self._overlay.insert(position)

    def insert_many(self, positions: Sequence[Point]) -> List[int]:
        """Publish many objects in sequence."""
        return [self._overlay.insert(p) for p in positions]

    def remove(self, object_id: int) -> None:
        """Withdraw an object."""
        self._overlay.remove(object_id)

    def object_ids(self) -> List[int]:
        """Ids of the published objects."""
        return self._overlay.object_ids()

    def route(self, source: int, destination: int) -> RouteResult:
        """Greedy route between two objects using only Voronoi/close links."""
        return route_to_object(self._overlay, source, destination)
