"""Streaming percentile estimation for the serving observability layer.

A sustained-traffic run answers 10⁵⁺ queries; keeping every hop count and
latency sample alive just to report p50/p90/p99 at the end costs memory
proportional to the run and a full sort at read time.
:class:`StreamingPercentiles` keeps the small-run behaviour *exact* and
bounds the large-run cost:

* below ``buffer_size`` observations it holds the raw samples and answers
  with ``numpy.percentile`` (linear interpolation) — byte-for-byte what an
  offline analysis of the same samples would report (the test suite pins
  this equivalence);
* at ``buffer_size`` it promotes each tracked quantile to a P² marker
  set [Jain & Chlamtac, CACM'85] seeded from the *full* buffer (not the
  algorithm's usual first-five-observations bootstrap), then processes
  every further observation in O(1) time and O(1) memory per quantile.

P² tracks each quantile with five markers (minimum, two intermediate
cells, the quantile itself, maximum) whose heights are nudged by a
piecewise-parabolic interpolation as counts drift from their desired
positions; accuracy degrades gracefully rather than abruptly, and the
estimator remains deterministic — same observation stream, same estimate.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["StreamingPercentiles"]


class _P2Marker:
    """One P² five-marker estimate of a single quantile."""

    __slots__ = ("p", "fractions", "heights", "positions", "count")

    #: Marker fractions: min, halfway-to-p, p, halfway-to-max, max.
    @staticmethod
    def _fractions(p: float) -> Tuple[float, ...]:
        return (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)

    @classmethod
    def from_sorted(cls, data: np.ndarray, p: float) -> "_P2Marker":
        """Seed the markers from a full sorted buffer (≥ 5 samples)."""
        n = len(data)
        marker = cls.__new__(cls)
        marker.p = p
        marker.fractions = cls._fractions(p)
        positions = [1 + round(f * (n - 1)) for f in marker.fractions]
        # The rounded ideal positions can collide near the ends for
        # extreme quantiles; force strict monotonicity without leaving
        # the [1, n] range.
        for i in range(1, 5):
            positions[i] = max(positions[i], positions[i - 1] + 1)
        positions[4] = n
        for i in range(3, -1, -1):
            positions[i] = min(positions[i], positions[i + 1] - 1)
        marker.positions = positions
        marker.heights = [float(data[q - 1]) for q in positions]
        marker.count = n
        return marker

    def update(self, value: float) -> None:
        heights = self.heights
        positions = self.positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while cell < 3 and value >= heights[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1
        self.count += 1
        fractions = self.fractions
        for i in (1, 2, 3):
            desired = 1.0 + (self.count - 1) * fractions[i]
            delta = desired - positions[i]
            if ((delta >= 1.0 and positions[i + 1] - positions[i] > 1)
                    or (delta <= -1.0 and positions[i - 1] - positions[i] < -1)):
                step = 1 if delta > 0 else -1
                candidate = self._parabolic(i, step)
                if not heights[i - 1] < candidate < heights[i + 1]:
                    candidate = self._linear(i, step)
                heights[i] = candidate
                positions[i] += step

    def _parabolic(self, i: int, step: int) -> float:
        h, n = self.heights, self.positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))

    def _linear(self, i: int, step: int) -> float:
        h, n = self.heights, self.positions
        return h[i] + step * (h[i + step] - h[i]) / (n[i + step] - n[i])

    def estimate(self) -> float:
        return self.heights[2]


class StreamingPercentiles:
    """Bounded-memory quantile tracking: exact small, P² large.

    Parameters
    ----------
    quantiles:
        The tracked quantiles, each in ``(0, 1)``.  Below the buffer
        threshold *any* quantile can be queried exactly; above it only
        the tracked ones are answerable.
    buffer_size:
        Number of raw samples kept before promotion to P² markers.
    """

    __slots__ = ("quantiles", "buffer_size", "_buffer", "_markers", "_count")

    def __init__(self, quantiles: Sequence[float] = (0.5, 0.9, 0.99),
                 buffer_size: int = 512) -> None:
        if buffer_size < 8:
            raise ValueError(f"buffer_size must be >= 8, got {buffer_size}")
        quantiles = tuple(float(q) for q in quantiles)
        if not quantiles:
            raise ValueError("need at least one tracked quantile")
        for q in quantiles:
            if not 0.0 < q < 1.0:
                raise ValueError(f"quantiles must lie in (0, 1), got {q}")
        self.quantiles = quantiles
        self.buffer_size = int(buffer_size)
        self._buffer: List[float] = []
        self._markers: Optional[Dict[float, _P2Marker]] = None
        self._count = 0

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of observations seen."""
        return self._count

    @property
    def exact(self) -> bool:
        """Whether quantile answers are still exact (buffer not promoted)."""
        return self._markers is None

    def observe(self, value: float) -> None:
        """Feed one observation."""
        value = float(value)
        self._count += 1
        if self._markers is None:
            self._buffer.append(value)
            if len(self._buffer) >= self.buffer_size:
                self._promote()
        else:
            for marker in self._markers.values():
                marker.update(value)

    def observe_many(self, values: Iterable[float]) -> None:
        """Feed a batch of observations (order preserved)."""
        for value in np.asarray(list(values), dtype=np.float64).ravel():
            self.observe(value)

    def _promote(self) -> None:
        data = np.sort(np.asarray(self._buffer, dtype=np.float64))
        self._markers = {q: _P2Marker.from_sorted(data, q)
                         for q in self.quantiles}
        self._buffer = []

    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Estimate quantile ``q``; exact while the buffer holds.

        After promotion only the tracked quantiles are available —
        asking for an untracked one raises ``KeyError`` rather than
        returning a silently wrong neighbour.
        """
        if self._count == 0:
            raise ValueError("no observations yet")
        if self._markers is None:
            return float(np.percentile(np.asarray(self._buffer), 100.0 * q))
        marker = self._markers.get(float(q))
        if marker is None:
            raise KeyError(
                f"quantile {q} is not tracked (tracked: {self.quantiles})")
        return marker.estimate()

    def summary(self) -> Dict[str, float]:
        """All tracked quantiles keyed ``p50``-style, plus the count."""
        result: Dict[str, float] = {"count": float(self._count)}
        if self._count == 0:
            return result
        for q in self.quantiles:
            result[f"p{100 * q:g}"] = self.quantile(q)
        return result
