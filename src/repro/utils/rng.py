"""Seeded random-number management.

Every stochastic component of the reproduction (workload generators, the
Choose-LRT long-link sampler, churn streams, routing-pair selection) draws
from a :class:`RandomSource` so that experiments are reproducible end to
end from a single integer seed.  Internally this wraps
:class:`numpy.random.Generator`, which is the vectorisation-friendly RNG
recommended by the scientific-Python guides.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

import numpy as np

__all__ = ["RandomSource", "spawn_rng"]

SeedLike = Union[int, None, np.random.Generator, "RandomSource"]


class RandomSource:
    """A reproducible random source built on :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        An integer seed, ``None`` (non-deterministic), an existing numpy
        ``Generator`` or another :class:`RandomSource` (shared stream).

    Examples
    --------
    >>> rng = RandomSource(42)
    >>> 0.0 <= rng.uniform() < 1.0
    True
    """

    __slots__ = ("_generator", "_seed", "_provenance")

    def __init__(self, seed: SeedLike = None) -> None:
        if isinstance(seed, RandomSource):
            self._generator = seed._generator
            self._seed = seed._seed
            self._provenance = seed._provenance
        elif isinstance(seed, np.random.Generator):
            self._generator = seed
            self._seed = None
            self._provenance = "generator"
        else:
            self._generator = np.random.default_rng(seed)
            self._seed = seed
            self._provenance = "unseeded" if seed is None else str(seed)

    # ------------------------------------------------------------------
    # basic draws
    # ------------------------------------------------------------------
    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (for vectorised bulk draws)."""
        return self._generator

    @property
    def seed(self) -> Optional[int]:
        """The seed this source was constructed with, if known."""
        return self._seed if isinstance(self._seed, int) else None

    @property
    def provenance(self) -> str:
        """How this stream was derived, as an auditable string.

        ``"42"`` for a directly seeded source, ``"42.spawn[1]"`` for the
        second child spawned from it (and so on recursively),
        ``"unseeded"`` for an OS-entropy source, ``"generator"`` when
        wrapping a caller-supplied numpy generator.  Components expose
        this in their reprs so a SIM002 determinism audit can trace every
        stream back to the experiment seed.
        """
        return self._provenance

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Draw a single float uniformly from ``[low, high)``."""
        return float(self._generator.uniform(low, high))

    def integer(self, low: int, high: int) -> int:
        """Draw a single integer uniformly from ``[low, high)``."""
        return int(self._generator.integers(low, high))

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        """Draw ``size`` integers uniformly from ``[low, high)``."""
        return self._generator.integers(low, high, size=size)

    def choice(self, seq: Sequence, size: Optional[int] = None, replace: bool = True):
        """Choose uniformly from ``seq`` (scalar if ``size`` is None)."""
        idx = self._generator.choice(len(seq), size=size, replace=replace)
        if size is None:
            return seq[int(idx)]
        return [seq[int(i)] for i in np.atleast_1d(idx)]

    def shuffle(self, seq: list) -> None:
        """Shuffle ``seq`` in place."""
        self._generator.shuffle(seq)

    def exponential(self, scale: float = 1.0) -> float:
        """Draw from an exponential distribution with the given scale."""
        return float(self._generator.exponential(scale))

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        """Draw from a normal distribution."""
        return float(self._generator.normal(loc, scale))

    def random_point(self) -> tuple:
        """Draw a point uniformly from the unit square."""
        xy = self._generator.random(2)
        return (float(xy[0]), float(xy[1]))

    def random_points(self, n: int) -> np.ndarray:
        """Draw ``n`` points uniformly from the unit square (shape (n, 2))."""
        return self._generator.random((n, 2))

    # ------------------------------------------------------------------
    # stream management
    # ------------------------------------------------------------------
    def spawn(self, n: int = 1) -> "list[RandomSource]":
        """Create ``n`` statistically independent child sources.

        Child streams are derived with numpy's ``spawn`` mechanism so that
        parallel components (e.g. independent simulation replicas) never
        share a stream.
        """
        children = []
        for index, generator in enumerate(self._generator.spawn(n)):
            child = RandomSource(generator)
            # numpy's SeedSequence numbers children across *all* spawn
            # calls on this parent; prefer it so two successive fork()s
            # get distinct provenance strings.
            try:
                index = generator.bit_generator.seed_seq.spawn_key[-1]
            except (AttributeError, IndexError):
                pass
            child._provenance = f"{self._provenance}.spawn[{index}]"
            children.append(child)
        return children

    def fork(self) -> "RandomSource":
        """Convenience wrapper returning a single spawned child."""
        return self.spawn(1)[0]

    def __repr__(self) -> str:
        return f"RandomSource(provenance={self._provenance!r})"


def spawn_rng(seed: SeedLike, count: int) -> Iterator[RandomSource]:
    """Yield ``count`` independent :class:`RandomSource` streams from a seed."""
    root = RandomSource(seed)
    for child in root.spawn(count):
        yield child
