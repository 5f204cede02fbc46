"""Workload generators: object streams and routing pairs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.utils.rng import RandomSource
from repro.workloads.distributions import ObjectDistribution

__all__ = [
    "generate_objects",
    "generate_position_array",
    "generate_routing_pairs",
    "RoutingPairs",
]


def generate_objects(distribution: ObjectDistribution, count: int,
                     rng: RandomSource) -> List[Point]:
    """Draw ``count`` object positions from a distribution.

    Exact duplicates are regenerated (the overlay requires distinct
    positions, as does a real attribute space with continuous values).
    """
    positions = distribution.sample(count, rng)
    seen = set()
    unique: List[Point] = []
    for point in positions:
        if point in seen:
            continue
        seen.add(point)
        unique.append(point)
    while len(unique) < count:
        for point in distribution.sample(count - len(unique), rng):
            if point not in seen:
                seen.add(point)
                unique.append(point)
    return unique[:count]


def generate_position_array(distribution: ObjectDistribution, count: int,
                            rng: RandomSource) -> np.ndarray:
    """Draw ``count`` distinct object positions as an ``(n, 2)`` float array.

    The array form feeds :meth:`~repro.core.overlay.VoroNet.bulk_load` and
    other vectorised consumers without a round-trip through tuple lists;
    the positions are exactly those of :func:`generate_objects` with the
    same arguments.
    """
    return np.asarray(generate_objects(distribution, count, rng),
                      dtype=np.float64)


@dataclass(frozen=True)
class RoutingPairs:
    """A batch of (source, destination) object-id pairs for route measurements."""

    pairs: Tuple[Tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def generate_routing_pairs(object_ids: Sequence[int], count: int,
                           rng: RandomSource) -> RoutingPairs:
    """Draw ``count`` random ordered pairs of *distinct* objects.

    Mirrors the paper's measurement protocol ("random couples of different
    objects in the overlay").
    """
    ids = np.asarray(list(object_ids))
    if len(ids) < 2:
        raise ValueError("need at least two objects to build routing pairs")
    generator = rng.generator
    sources = generator.integers(0, len(ids), size=count)
    destinations = generator.integers(0, len(ids) - 1, size=count)
    # Shift destinations that collide with their source to guarantee distinctness.
    destinations = destinations + (destinations >= sources)
    pairs = tuple(
        (int(ids[s]), int(ids[d])) for s, d in zip(sources, destinations)
    )
    return RoutingPairs(pairs=pairs)
