"""Kleinberg's small-world grid model (Section 2.1 of the paper).

The model is an ``n × n`` grid where every node is connected to its (up to
four) lattice neighbours and to ``k`` long-range contacts drawn with
probability proportional to ``d^{-s}`` in lattice distance.  Greedy routing
forwards to the neighbour closest (in lattice distance) to the target.
Kleinberg proved that ``s = 2`` is the unique exponent for which greedy
routing finds ``O(log² n)`` paths.

This is the baseline the paper positions itself against (VoroNet
generalises it to arbitrary object placements).  The construction only
applies when objects sit on a regular grid, so besides ``(row, col)``
coordinates the class numbers its nodes row-major and maps them to cell
centres of the unit square — the "objects with ids and positions" shape
the comparison experiment and the serving shoot-out use for every system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.utils.rng import RandomSource

__all__ = ["KleinbergGrid", "GridRouteResult", "grid_harmonic_weights",
           "sample_grid_long_range_contact"]

GridCoord = Tuple[int, int]


def grid_harmonic_weights(n: int, source: GridCoord, exponent: float) -> np.ndarray:
    """Unnormalised ``d^{-s}`` weights from ``source`` to every grid node.

    Parameters
    ----------
    n:
        Grid side length (the grid is ``n × n``).
    source:
        ``(row, col)`` of the choosing node; its own weight is zero.
    exponent:
        The clustering exponent ``s``; Kleinberg's navigable value in two
        dimensions is ``s = 2``.
    """
    rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    manhattan = np.abs(rows - source[0]) + np.abs(cols - source[1])
    with np.errstate(divide="ignore"):
        weights = np.where(manhattan > 0, manhattan.astype(np.float64) ** (-exponent), 0.0)
    return weights


def sample_grid_long_range_contact(n: int, source: GridCoord, exponent: float,
                                   rng: RandomSource) -> GridCoord:
    """Draw the long-range contact of ``source`` in an ``n × n`` grid.

    The contact is any other grid node, picked with probability proportional
    to ``(lattice distance)^{-exponent}``.
    """
    weights = grid_harmonic_weights(n, source, exponent)
    flat = weights.ravel()
    total = flat.sum()
    if total <= 0:
        raise ValueError("grid too small to have any long-range candidate")
    probabilities = flat / total
    index = int(rng.generator.choice(flat.size, p=probabilities))
    return (index // n, index % n)


@dataclass(frozen=True)
class GridRouteResult:
    """Outcome of one greedy route on the grid."""

    source: GridCoord
    target: GridCoord
    hops: int
    path: Optional[Tuple[GridCoord, ...]] = None


class KleinbergGrid:
    """An ``n × n`` Kleinberg small-world network.

    Parameters
    ----------
    n:
        Grid side length.
    long_links_per_node:
        Number of long-range contacts per node (``k``; typically one).
    exponent:
        Clustering exponent ``s`` of the ``d^{-s}`` contact distribution.
    rng:
        Random source (or seed) for contact selection.

    Examples
    --------
    >>> grid = KleinbergGrid(16, exponent=2.0, rng=RandomSource(3))
    >>> result = grid.greedy_route((0, 0), (15, 15))
    >>> result.target
    (15, 15)
    """

    def __init__(self, n: int, *, long_links_per_node: int = 1,
                 exponent: float = 2.0, rng: Optional[RandomSource] = None) -> None:
        if n < 2:
            raise ValueError("the grid needs side length at least 2")
        if long_links_per_node < 0:
            raise ValueError("long_links_per_node must be non-negative")
        self.n = n
        self.exponent = float(exponent)
        self.long_links_per_node = long_links_per_node
        self._rng = rng if rng is not None else RandomSource()
        self._long_links: Dict[GridCoord, List[GridCoord]] = {}
        self._build_long_links()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_long_links(self) -> None:
        for row in range(self.n):
            for col in range(self.n):
                source = (row, col)
                contacts: List[GridCoord] = []
                for _ in range(self.long_links_per_node):
                    contacts.append(sample_grid_long_range_contact(
                        self.n, source, self.exponent, self._rng))
                self._long_links[source] = contacts

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Total number of nodes (``n²``)."""
        return self.n * self.n

    def lattice_neighbors(self, node: GridCoord) -> List[GridCoord]:
        """The up-to-four grid neighbours of a node."""
        row, col = node
        candidates = [(row - 1, col), (row + 1, col), (row, col - 1), (row, col + 1)]
        return [
            (r, c) for r, c in candidates
            if 0 <= r < self.n and 0 <= c < self.n
        ]

    def long_range_contacts(self, node: GridCoord) -> List[GridCoord]:
        """The long-range contacts of a node."""
        return list(self._long_links[node])

    def neighbors(self, node: GridCoord) -> List[GridCoord]:
        """All outgoing neighbours (lattice plus long-range)."""
        return self.lattice_neighbors(node) + self.long_range_contacts(node)

    @staticmethod
    def lattice_distance(a: GridCoord, b: GridCoord) -> int:
        """Manhattan (lattice) distance between two nodes."""
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def contains(self, node: GridCoord) -> bool:
        """Whether the coordinates denote a node of the grid."""
        return 0 <= node[0] < self.n and 0 <= node[1] < self.n

    # ------------------------------------------------------------------
    # the grid as an object network over the unit square
    # ------------------------------------------------------------------
    def node_id(self, coord: GridCoord) -> int:
        """Row-major object id of a grid coordinate."""
        return coord[0] * self.n + coord[1]

    def position_of(self, object_id: int) -> Tuple[float, float]:
        """Unit-square coordinates of a grid object (cell centres)."""
        row, col = divmod(object_id, self.n)
        return ((col + 0.5) / self.n, (row + 0.5) / self.n)

    def route(self, source: int, destination: int, *,
              record_path: bool = False) -> GridRouteResult:
        """Greedy route between two objects (by their row-major ids)."""
        return self.greedy_route(divmod(source, self.n),
                                 divmod(destination, self.n),
                                 record_path=record_path)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def greedy_route(self, source: GridCoord, target: GridCoord, *,
                     record_path: bool = False) -> GridRouteResult:
        """Greedy routing by lattice distance (Kleinberg's decentralised algorithm).

        Greedy always succeeds on the grid because every node has a lattice
        neighbour strictly closer to the target.
        """
        if not (self.contains(source) and self.contains(target)):
            raise ValueError("source and target must be grid nodes")
        current = source
        hops = 0
        path = [source] if record_path else None
        while current != target:
            best = current
            best_distance = self.lattice_distance(current, target)
            for neighbor in self.neighbors(current):
                d = self.lattice_distance(neighbor, target)
                if d < best_distance:
                    best, best_distance = neighbor, d
            current = best
            hops += 1
            if record_path:
                path.append(current)
        return GridRouteResult(source=source, target=target, hops=hops,
                               path=tuple(path) if path else None)

    def mean_route_length(self, num_pairs: int, rng: Optional[RandomSource] = None) -> float:
        """Mean greedy route length over random source/target pairs."""
        rng = rng if rng is not None else self._rng
        total = 0
        for _ in range(num_pairs):
            source = (rng.integer(0, self.n), rng.integer(0, self.n))
            target = (rng.integer(0, self.n), rng.integer(0, self.n))
            while target == source:
                target = (rng.integer(0, self.n), rng.integer(0, self.n))
            total += self.greedy_route(source, target).hops
        return total / num_pairs
