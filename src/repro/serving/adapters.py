"""Uniform serving adapters over VoroNet and the comparison baselines.

The shoot-out replays *one* sampled query schedule — ``(source index,
target index)`` pairs over a shared object population — against three
systems with three different native interfaces:

* :class:`~repro.core.overlay.VoroNet` routes between object ids over
  the Voronoi/long-link views;
* :class:`~repro.baselines.kleinberg.KleinbergGrid` routes between
  row-major lattice ids;
* :class:`~repro.baselines.chord.ChordRing` looks up hashed keys from a
  start node.

Each adapter owns the index → native-id mapping and normalises the
outcome into one :class:`ServeOutcome` (hops, success, optional visited
path), so the traffic drivers and the observability layer never branch
on the system under test.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Tuple

from repro.baselines.chord import ChordRing
from repro.baselines.kleinberg import KleinbergGrid
from repro.core.config import VoroNetConfig
from repro.core.overlay import VoroNet
from repro.geometry.point import Point
from repro.utils.rng import RandomSource

__all__ = ["ServeOutcome", "ServingAdapter", "VoroNetServing",
           "KleinbergServing", "ChordServing"]

#: Build-capacity slack over the initial population, leaving room for
#: joins interleaved with the traffic (``perf/``'s churn phases) without
#: overflowing.
CAPACITY_HEADROOM = 1.25


class ServeOutcome:
    """One served query, normalised across systems."""

    __slots__ = ("hops", "success", "path")

    def __init__(self, hops: int, success: bool,
                 path: Optional[Tuple[int, ...]] = None) -> None:
        self.hops = hops
        self.success = success
        self.path = path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServeOutcome(hops={self.hops}, success={self.success})"


class ServingAdapter(abc.ABC):
    """Route queries addressed by population index; report hops uniformly."""

    #: System name used in benchmark records.
    name: str = "abstract"

    def __init__(self, population: int) -> None:
        self.population = population

    @abc.abstractmethod
    def route_index(self, source: int, target: int) -> ServeOutcome:
        """Serve one query between two population indices."""

    def route_batch(self,
                    pairs: Sequence[Tuple[int, int]]) -> List[ServeOutcome]:
        """Serve a batch of index pairs (overridden where a native batched
        entry point exists)."""
        return [self.route_index(source, target) for source, target in pairs]

    @abc.abstractmethod
    def node_count(self) -> int:
        """Number of nodes load can land on (the LoadTracker population)."""


class VoroNetServing(ServingAdapter):
    """VoroNet under test: objects bulk-loaded at the given positions.

    ``track_paths`` turns on per-route path recording (needed for load
    accounting; costs one list per route).  The ``ids`` list maps
    population index → object id and is deliberately mutable state: a
    driver that churns the overlay between batches (``perf/systems.py``)
    appends to it and leaves departed entries stale — stale entries are
    then served as defined misses by the batched
    ``route_many(missing="miss")`` path, which is exactly the race a
    schedule sampled before the churn would hit.
    """

    name = "voronet"

    def __init__(self, positions: Sequence[Point], *,
                 seed: Optional[int] = 0,
                 num_long_links: int = 1,
                 track_paths: bool = False) -> None:
        super().__init__(len(positions))
        self.config = self.config_for(len(positions), seed=seed,
                                      num_long_links=num_long_links,
                                      track_paths=track_paths)
        self.overlay = VoroNet(config=self.config)
        self.ids: List[int] = self.overlay.bulk_load(positions)

    @staticmethod
    def config_for(population: int, *, seed: Optional[int] = 0,
                   num_long_links: int = 1,
                   track_paths: bool = False) -> VoroNetConfig:
        """The config an adapter over ``population`` objects runs on:
        ``n_max`` leaves :data:`CAPACITY_HEADROOM` room over the population."""
        return VoroNetConfig(
            n_max=max(16, int(population * CAPACITY_HEADROOM)),
            num_long_links=num_long_links,
            track_paths=track_paths,
            seed=seed,
        )

    def route_index(self, source: int, target: int) -> ServeOutcome:
        result = self.overlay.route(self.ids[source], self.ids[target])
        return ServeOutcome(result.hops, result.success,
                            tuple(result.path) if result.path else None)

    def route_batch(self,
                    pairs: Sequence[Tuple[int, int]]) -> List[ServeOutcome]:
        ids = self.ids
        results = self.overlay.route_many(
            [(ids[source], ids[target]) for source, target in pairs],
            missing="miss")
        return [ServeOutcome(r.hops, r.success,
                             tuple(r.path) if r.path else None)
                for r in results]

    def node_count(self) -> int:
        return len(self.overlay)


class KleinbergServing(ServingAdapter):
    """Kleinberg's grid: the navigable small-world reference point, with
    its optimal clustering exponent 2.

    The population must be a perfect square (the construction only exists
    on a regular lattice); index ``i`` is the row-major lattice object.
    """

    name = "kleinberg"

    def __init__(self, population: int, *, seed: Optional[int] = 0,
                 long_links_per_node: int = 1,
                 track_paths: bool = False) -> None:
        side = round(population ** 0.5)
        if side * side != population:
            raise ValueError(
                f"Kleinberg population must be a perfect square, got {population}")
        super().__init__(population)
        self.track_paths = track_paths
        self.grid = KleinbergGrid(
            side, long_links_per_node=long_links_per_node,
            rng=RandomSource(seed))

    def route_index(self, source: int, target: int) -> ServeOutcome:
        result = self.grid.route(source, target,
                                 record_path=self.track_paths)
        path = None
        if result.path is not None:
            path = tuple(self.grid.node_id(coord) for coord in result.path)
        # Greedy forwarding on the full lattice always arrives.
        return ServeOutcome(result.hops, True, path)

    def node_count(self) -> int:
        return self.population


class ChordServing(ServingAdapter):
    """Chord DHT: the hash-based structured-overlay reference point.

    Every object index hashes onto the ring as ``object-<i>``; a query
    starts at the source's node and resolves the target's key with finger
    routing.  Hashing destroys attribute locality, which is the paper's
    argument — the shoot-out quantifies what it buys (load spreading) and
    costs (no spatial queries, rigid O(log N) hops).
    """

    name = "chord"

    def __init__(self, population: int, *, bits: int = 32,
                 track_paths: bool = False) -> None:
        super().__init__(population)
        self.track_paths = track_paths
        self.ring = ChordRing(bits=bits)
        self.ids: List[int] = [self.ring.join(f"object-{i}")
                               for i in range(population)]

    def route_index(self, source: int, target: int) -> ServeOutcome:
        result = self.ring.lookup(self.ids[target], start=self.ids[source],
                                  record_path=self.track_paths)
        return ServeOutcome(result.hops, result.owner == self.ids[target],
                            result.path)

    def node_count(self) -> int:
        return len(self.ring)
