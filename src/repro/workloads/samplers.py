"""Target samplers for the heavy-traffic serving workloads.

The routing sweeps of the paper measure isolated uniform pairs; a serving
layer sees *skewed* demand.  This module provides the target-selection
side of that story: every sampler draws **indices into a fixed object
population** (``0 .. population-1``), so the same sampled schedule can be
replayed against VoroNet and against the Kleinberg/Chord baselines (each
adapter maps indices into its own id space).

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
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.utils.rng import RandomSource

__all__ = [
    "TargetSampler",
    "UniformTargets",
    "ZipfTargets",
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

    def sample(self, count: int) -> np.ndarray:
        drawn_ranks = self._rng.generator.choice(self.population, size=count,
                                                 p=self._mass)
        return self.objects_by_rank[drawn_ranks].astype(np.int64)
