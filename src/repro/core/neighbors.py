"""Neighbour-view assembly and close-neighbour maintenance.

Section 3.1 of the paper gives each object three kinds of neighbours —
Voronoi neighbours, close neighbours and long-range neighbours — plus the
back-long-range registrations.  This module assembles the full view used by
greedy routing and implements the close-neighbour discovery of Lemma 1:
when an object ``p`` joins, every close neighbour of ``p`` (any object
within ``d_min``) is either one of ``p``'s new Voronoi neighbours or a
close neighbour of one of them, so the search needs only the Voronoi
neighbours' local knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Set, TYPE_CHECKING

from repro.core.errors import ObjectNotFoundError
from repro.geometry.locate_grid import VECTOR_SCAN_THRESHOLD
from repro.geometry.point import Point, distance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.overlay import VoroNet

__all__ = ["NeighborView", "compute_close_neighbors", "register_close_neighbors"]


@dataclass(frozen=True)
class NeighborView:
    """The complete view of one object, as used by greedy routing.

    Attributes
    ----------
    object_id:
        Owner of the view.
    voronoi:
        Voronoi (Delaunay-adjacent) neighbours ``vn(o)``.
    close:
        Close neighbours ``cn(o)`` (objects within ``d_min``).
    long_range:
        Long-range neighbours ``LRn(o)`` — the endpoints, not the targets.
    back_long_range:
        Objects whose long links point at ``o`` (``BLRn(o)``); kept for
        maintenance only and, per the paper, *not* used for routing.
    """

    object_id: int
    voronoi: frozenset = frozenset()
    close: frozenset = frozenset()
    long_range: frozenset = frozenset()
    back_long_range: frozenset = frozenset()

    @property
    def routing_neighbors(self) -> Set[int]:
        """Neighbours eligible for greedy forwarding (vn ∪ cn ∪ LRn, minus self)."""
        combined = set(self.voronoi) | set(self.close) | set(self.long_range)
        combined.discard(self.object_id)
        return combined

    @property
    def size(self) -> int:
        """Total number of view entries (the O(1) quantity of Section 4.1)."""
        return (
            len(self.voronoi)
            + len(self.close)
            + len(self.long_range)
            + len(self.back_long_range)
        )


def compute_close_neighbors(overlay: "VoroNet", object_id: int) -> Set[int]:
    """Close neighbours of ``object_id`` discovered via its Voronoi neighbours.

    Implements the Lemma 1 procedure: candidates are the object's Voronoi
    neighbours plus *their* Voronoi and close neighbours; any candidate
    within ``d_min`` is a close neighbour, and Lemma 1 guarantees none is
    missed.  The overlay's `d_min` comes from its configuration.
    """
    d_min = overlay.config.effective_d_min
    position = overlay.position_of(object_id)
    candidates: Set[int] = set()
    for neighbor in overlay.voronoi_neighbors(object_id):
        candidates.add(neighbor)
        candidates.update(overlay.voronoi_neighbors(neighbor))
        candidates.update(overlay.node(neighbor).close_neighbors)
    candidates.discard(object_id)
    if len(candidates) >= VECTOR_SCAN_THRESHOLD:
        # A clique's worth of candidates: one gather from the locate grid's
        # coordinate column and one array filter, same ``<= d_min`` answers.
        try:
            return set(overlay.locate_index.select_within(candidates, position, d_min))
        except KeyError as exc:
            raise ObjectNotFoundError(exc.args[0]) from None
    return {
        candidate
        for candidate in candidates
        if distance(position, overlay.position_of(candidate)) <= d_min
    }


def register_close_neighbors(overlay: "VoroNet", object_id: int,
                             close_neighbors: Iterable[int]) -> int:
    """Record the (symmetric) close-neighbour relation on both endpoints.

    Returns the number of notification messages this would cost in the
    distributed protocol (one per declared close neighbour).
    """
    node = overlay.node(object_id)
    declared = list(close_neighbors)
    for neighbor_id in declared:
        node.add_close_neighbor(neighbor_id)
        overlay.node(neighbor_id).add_close_neighbor(object_id)
    # Close neighbours are forwarding candidates on both endpoints: any
    # cached routing table touching this pair is now stale.
    overlay.invalidate_routing_tables([object_id, *declared])
    return len(declared)


def brute_force_close_neighbors(positions: Dict[int, Point], object_id: int,
                                d_min: float) -> Set[int]:
    """Ground-truth close-neighbour set by exhaustive scan (tests only)."""
    origin = positions[object_id]
    return {
        other
        for other, point in positions.items()
        if other != object_id and distance(origin, point) <= d_min
    }
