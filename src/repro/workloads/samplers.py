"""Target samplers for the heavy-traffic serving workloads.

The routing sweeps of the paper measure isolated uniform pairs; a serving
layer sees *skewed*, *time-varying* demand.  This module provides the
target-selection side of that story: every sampler draws **indices into a
fixed object population** (``0 .. population-1``), so the same sampled
schedule can be replayed against VoroNet and against the Kleinberg/Chord
baselines (each adapter maps indices into its own id space).

Samplers are seeded and deterministic: constructing the same sampler with
the same seed and drawing the same counts yields byte-identical index
streams, which is what makes the oracle-vs-protocol serving parity test
(and the bench records) reproducible.

Families
--------
* :class:`UniformTargets` — the baseline every overlay likes.
* :class:`ZipfTargets` — Zipf(α) popularity over objects: the i-th most
  popular object receives mass ∝ ``1/i^α``, with the popularity ranking
  assigned by a seeded permutation (so popularity is uncorrelated with id
  order or spatial position).
* :class:`HotspotTargets` — spatial skew: a fraction of queries targets
  only the objects inside a disk of the attribute space.
* :class:`FlashCrowdTargets` — time-varying skew: the sampler switches
  between phase samplers at fixed points of the query stream (a crowd
  arriving on one region mid-run, then dispersing).
* :class:`MovingObjects` — not a target sampler but the traffic-time
  churn mixin: a seeded stream of position updates replayed against the
  overlay as remove+insert.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.utils.rng import RandomSource

__all__ = [
    "TargetSampler",
    "UniformTargets",
    "ZipfTargets",
    "HotspotTargets",
    "FlashCrowdTargets",
    "MovingObjects",
]


class TargetSampler(abc.ABC):
    """Base class of query-target samplers over a fixed population.

    Parameters
    ----------
    population:
        Number of targetable objects; samples are indices in
        ``[0, population)``.
    seed:
        Seed of the sampler's private random stream.  Two samplers built
        with the same parameters and seed produce identical streams.
    """

    #: Short machine-readable name used in benchmark records.
    name: str = "abstract"

    def __init__(self, population: int, seed: Optional[int] = None) -> None:
        if population < 1:
            raise ValueError(f"population must be >= 1, got {population}")
        self.population = int(population)
        self._rng = RandomSource(seed)

    @abc.abstractmethod
    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` target indices as an int64 array."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(name={self.name!r}, "
                f"population={self.population})")


class UniformTargets(TargetSampler):
    """Every object equally popular — the sweep-style baseline workload."""

    name = "uniform"

    def sample(self, count: int) -> np.ndarray:
        return self._rng.generator.integers(0, self.population, size=count,
                                            dtype=np.int64)


class ZipfTargets(TargetSampler):
    """Zipf(α) popularity over objects.

    The i-th most popular object receives probability ``∝ 1 / i^α``; which
    *object* holds rank i is a seeded permutation, so the skew is
    uncorrelated with join order and with spatial position.  α around 1
    is the classic web-object regime; the paper's "sparse" placements use
    the same family for object positions (α ∈ {1, 2, 5}).

    Attributes
    ----------
    rank_of:
        ``rank_of[i]`` is the popularity rank (0 = most popular) of object
        index ``i`` — exposed so tests and load analyses can line empirical
        frequencies up against the expected Zipf mass.
    """

    def __init__(self, population: int, alpha: float = 1.0,
                 seed: Optional[int] = None) -> None:
        super().__init__(population, seed)
        if alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {alpha}")
        self.alpha = float(alpha)
        self.name = f"zipf-a{alpha:g}"
        ranks = np.arange(1, self.population + 1, dtype=np.float64)
        weights = ranks ** (-self.alpha)
        self._mass = weights / weights.sum()
        # objects_by_rank[r] = object index holding popularity rank r.
        self.objects_by_rank = self._rng.generator.permutation(self.population)
        self.rank_of = np.empty(self.population, dtype=np.int64)
        self.rank_of[self.objects_by_rank] = np.arange(self.population)

    def expected_mass(self, rank: int) -> float:
        """Probability mass of the object at popularity ``rank`` (0-based)."""
        return float(self._mass[rank])

    def sample(self, count: int) -> np.ndarray:
        drawn_ranks = self._rng.generator.choice(self.population, size=count,
                                                 p=self._mass)
        return self.objects_by_rank[drawn_ranks].astype(np.int64)


class HotspotTargets(TargetSampler):
    """Spatially skewed demand: a hot disk of the attribute space.

    With probability ``hot_fraction`` a query targets a uniformly chosen
    object inside the disk of ``radius`` around ``center``; otherwise a
    uniformly chosen object of the whole population.  An empty disk (no
    object inside) degrades to the uniform branch rather than failing, so
    churn that empties the region cannot wedge a running workload.
    """

    def __init__(self, positions: Sequence[Point] | np.ndarray,
                 center: Point = (0.5, 0.5), radius: float = 0.1,
                 hot_fraction: float = 0.9,
                 seed: Optional[int] = None) -> None:
        array = np.asarray(positions, dtype=np.float64)
        if array.ndim != 2 or array.shape[1] != 2:
            raise ValueError("positions must be an (n, 2) array-like")
        super().__init__(len(array), seed)
        if radius <= 0:
            raise ValueError(f"radius must be > 0, got {radius}")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError(
                f"hot_fraction must be in [0, 1], got {hot_fraction}")
        self.center = (float(center[0]), float(center[1]))
        self.radius = float(radius)
        self.hot_fraction = float(hot_fraction)
        self.name = f"hotspot-f{hot_fraction:g}"
        delta = array - np.asarray(self.center)
        inside = (delta * delta).sum(axis=1) <= self.radius * self.radius
        self.hot_indices = np.flatnonzero(inside).astype(np.int64)

    def sample(self, count: int) -> np.ndarray:
        generator = self._rng.generator
        uniform = generator.integers(0, self.population, size=count,
                                     dtype=np.int64)
        if len(self.hot_indices) == 0 or self.hot_fraction == 0.0:
            return uniform
        hot = self.hot_indices[
            generator.integers(0, len(self.hot_indices), size=count)]
        take_hot = generator.random(count) < self.hot_fraction
        return np.where(take_hot, hot, uniform)


class FlashCrowdTargets(TargetSampler):
    """Time-varying skew: the sampler retargets at fixed stream offsets.

    ``phases`` is a list of ``(start_index, sampler)`` pairs: query number
    ``k`` (0-based, counted across every :meth:`sample` call) is drawn from
    the sampler of the last phase whose ``start_index`` is ≤ k.  The
    classic flash crowd is uniform traffic, then a hotspot phase, then
    uniform again; any phase samplers over the same population compose.

    Phase boundaries are respected *within* a batch: one :meth:`sample`
    call spanning a boundary draws each segment from its own phase
    sampler, so batched drivers see the same stream a query-at-a-time
    driver would.
    """

    def __init__(self, phases: Sequence[Tuple[int, TargetSampler]]) -> None:
        if not phases:
            raise ValueError("need at least one phase")
        starts = [start for start, _sampler in phases]
        if starts[0] != 0:
            raise ValueError("the first phase must start at index 0")
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ValueError("phase start indices must be strictly increasing")
        populations = {sampler.population for _start, sampler in phases}
        if len(populations) != 1:
            raise ValueError("all phase samplers must share one population")
        # The phase samplers own the randomness; no extra seed needed here.
        super().__init__(populations.pop(), seed=0)
        self.phases = [(int(start), sampler) for start, sampler in phases]
        self.name = "flash-crowd"
        self._cursor = 0

    def _phase_end(self, phase_index: int) -> float:
        if phase_index + 1 < len(self.phases):
            return self.phases[phase_index + 1][0]
        return float("inf")

    def sample(self, count: int) -> np.ndarray:
        chunks: List[np.ndarray] = []
        remaining = count
        while remaining > 0:
            # Last phase whose start is <= cursor.
            index = max(i for i, (start, _s) in enumerate(self.phases)
                        if start <= self._cursor)
            end = self._phase_end(index)
            take = (remaining if end == float("inf")
                    else min(remaining, int(end) - self._cursor))
            chunks.append(self.phases[index][1].sample(take))
            self._cursor += take
            remaining -= take
        return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


class MovingObjects:
    """Seeded position-update stream replayed as remove+insert churn.

    The serving drivers interleave these updates with query traffic: every
    ``apply()`` picks a random live object, removes it and re-inserts it
    at a jittered position.  Two modes:

    * ``reuse_ids=True`` (default) re-inserts under the *same* object id —
      a genuine "object moved" update; target schedules sampled up front
      stay valid.
    * ``reuse_ids=False`` publishes the replacement under a fresh id —
      turnover churn; schedules targeting the old id now reference a
      departed object, which is exactly the mid-batch-miss edge case the
      serving layer must survive (``route_many(..., missing="miss")``).

    Updates route through the overlay's public ``remove``/``insert`` so
    all maintenance (close hand-over, long-link delegation, locate-grid
    sync, routing-table invalidation) runs as production churn would.
    """

    def __init__(self, seed: Optional[int] = None, *, step_sigma: float = 0.02,
                 reuse_ids: bool = True) -> None:
        if step_sigma <= 0:
            raise ValueError(f"step_sigma must be > 0, got {step_sigma}")
        self._rng = RandomSource(seed)
        self.step_sigma = float(step_sigma)
        self.reuse_ids = bool(reuse_ids)
        self.moves_applied = 0

    def _jitter(self, position: Point) -> Point:
        generator = self._rng.generator
        epsilon = 1e-9
        x = float(np.clip(position[0] + generator.normal(0.0, self.step_sigma),
                          epsilon, 1.0 - epsilon))
        y = float(np.clip(position[1] + generator.normal(0.0, self.step_sigma),
                          epsilon, 1.0 - epsilon))
        return (x, y)

    def apply(self, overlay, object_id: Optional[int] = None) -> Tuple[int, int]:
        """Move one object; returns ``(old_id, new_id)``.

        ``object_id`` defaults to a uniformly random live object.  With
        ``reuse_ids`` the two ids are equal; otherwise the new id is the
        overlay-assigned replacement.
        """
        ids = overlay.object_ids()
        if len(ids) < 5:
            raise ValueError("refusing to churn an overlay of fewer than 5 objects")
        if object_id is None:
            object_id = ids[self._rng.integer(0, len(ids))]
        position = overlay.position_of(object_id)
        target = self._jitter(position)
        overlay.remove(object_id)
        new_id = overlay.insert(
            target, object_id=object_id if self.reuse_ids else None)
        self.moves_applied += 1
        return object_id, new_id
