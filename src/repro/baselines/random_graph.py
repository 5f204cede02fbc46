"""Random-graph baseline: long links without the harmonic distribution.

Each object is placed in the unit square and connected to ``k`` uniformly
random other objects (plus, optionally, its nearest neighbour to keep the
graph roughly connected).  Greedy geographic routing on such a graph has no
navigability guarantee: it frequently gets stuck in local minima, and when
it does succeed the hop counts are far from poly-logarithmic.  The contrast
with VoroNet demonstrates that it is the *distribution* of the long links —
not their mere existence — that yields navigability, Kleinberg's original
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.geometry.point import Point, distance_sq
from repro.utils.rng import RandomSource

__all__ = ["RandomGraphOverlay", "RandomGraphRouteResult"]


@dataclass(frozen=True)
class RandomGraphRouteResult:
    """Outcome of one greedy route on the random graph."""

    source: int
    destination: int
    hops: int
    success: bool


class RandomGraphOverlay:
    """Objects in the unit square wired by uniformly random links.

    Parameters
    ----------
    positions:
        Object positions (index = object id).
    links_per_node:
        Number of uniformly random outgoing links per object.
    connect_nearest:
        Also link every object to its nearest neighbour (makes greedy
        failures rarer but does not restore navigability).
    rng:
        Random source for link selection.
    """

    def __init__(self, positions: Sequence[Point], *, links_per_node: int = 7,
                 connect_nearest: bool = True,
                 rng: Optional[RandomSource] = None) -> None:
        if len(positions) < 2:
            raise ValueError("need at least two objects")
        if links_per_node < 1:
            raise ValueError("links_per_node must be at least 1")
        self._positions: List[Point] = [(float(x), float(y)) for x, y in positions]
        self._rng = rng if rng is not None else RandomSource()
        self._adjacency: Dict[int, Set[int]] = {i: set() for i in range(len(positions))}
        self._build(links_per_node, connect_nearest)

    def _build(self, links_per_node: int, connect_nearest: bool) -> None:
        count = len(self._positions)
        generator = self._rng.generator
        for node in range(count):
            targets = generator.choice(count, size=min(links_per_node, count - 1),
                                       replace=False)
            for target in targets:
                target = int(target)
                if target != node:
                    self._adjacency[node].add(target)
                    self._adjacency[target].add(node)
        if connect_nearest:
            # Imported here: scipy.spatial adds ~30 MB of resident memory,
            # and the serving adapters import this package on every run.
            from scipy.spatial import cKDTree

            # Each object's two nearest points: itself and its nearest neighbour.
            _, ranked = cKDTree(self._positions).query(self._positions, k=2)
            for node, (first, second) in enumerate(ranked.tolist()):
                nearest = second if first == node else first
                self._adjacency[node].add(nearest)
                self._adjacency[nearest].add(node)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._positions)

    def object_ids(self) -> List[int]:
        return list(range(len(self._positions)))

    def position_of(self, object_id: int) -> Point:
        return self._positions[object_id]

    def neighbors(self, object_id: int) -> Set[int]:
        return set(self._adjacency[object_id])

    def route(self, source: int, destination: int, *,
              max_hops: Optional[int] = None) -> RandomGraphRouteResult:
        """Greedy geographic routing; fails when stuck in a local minimum."""
        target = self._positions[destination]
        limit = max_hops if max_hops is not None else len(self._positions)
        current = source
        hops = 0
        while current != destination:
            best = current
            best_d = distance_sq(self._positions[current], target)
            for neighbor in self._adjacency[current]:
                d = distance_sq(self._positions[neighbor], target)
                if d < best_d:
                    best, best_d = neighbor, d
            if best == current or hops >= limit:
                return RandomGraphRouteResult(source=source, destination=destination,
                                              hops=hops, success=False)
            current = best
            hops += 1
        return RandomGraphRouteResult(source=source, destination=destination,
                                      hops=hops, success=True)

    def measure(self, num_pairs: int,
                rng: Optional[RandomSource] = None) -> Dict[str, float]:
        """Success rate and mean hops (successful routes only) over random pairs."""
        rng = rng if rng is not None else self._rng
        successes = 0
        total_hops = 0
        for _ in range(num_pairs):
            source = rng.integer(0, len(self._positions))
            destination = rng.integer(0, len(self._positions))
            while destination == source:
                destination = rng.integer(0, len(self._positions))
            result = self.route(source, destination)
            if result.success:
                successes += 1
                total_hops += result.hops
        return {
            "success_rate": successes / num_pairs if num_pairs else 0.0,
            "mean_hops": total_hops / successes if successes else float("nan"),
        }
