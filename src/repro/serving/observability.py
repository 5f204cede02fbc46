"""Load and trajectory observability for the serving layer.

Two trackers complement the streaming percentile estimators:

* :class:`LoadTracker` — per-node service counters with the imbalance
  summary the shoot-out reports (Gini coefficient and max/mean ratio).
  The paper's load story is about where greedy forwarding concentrates
  work; counting every node on every route path makes that measurable
  under skewed demand.
* :class:`WindowTracker` — periodic time-windowed snapshots (queries per
  second, mean hops, mean latency per window of virtual time),
  accumulated as plottable rows so a throughput or latency trajectory
  can be reconstructed after the run.

:class:`~repro.simulation.scenario.AvailabilityTracker` (per-side,
per-phase query success during a network split, plus heal→converged
latencies) is defined beside the merge scenario that fills it and
re-exported here.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

# Re-export: the dependency only ever points this way — ``repro.simulation``
# never imports ``repro.serving``.
from repro.simulation.scenario import AvailabilityTracker

__all__ = ["LoadTracker", "WindowTracker", "AvailabilityTracker"]


class LoadTracker:
    """Per-node service counters and their imbalance summary.

    Parameters
    ----------
    population:
        Total number of nodes the load *could* land on.  When given, the
        imbalance statistics include the nodes that served nothing —
        essential for honest Gini values: a system that funnels all work
        through 1% of nodes must not look egalitarian just because only
        that 1% appears in the counter dict.
    """

    __slots__ = ("population", "counts", "total")

    def __init__(self, population: Optional[int] = None) -> None:
        if population is not None and population < 1:
            raise ValueError(f"population must be >= 1, got {population}")
        self.population = population
        self.counts: Dict[int, int] = {}
        self.total = 0

    def record(self, node_id: int, amount: int = 1) -> None:
        """Count ``amount`` units of service work performed by a node."""
        self.counts[node_id] = self.counts.get(node_id, 0) + amount
        self.total += amount

    def record_path(self, path: Iterable[int]) -> None:
        """Count one unit for every node a route visited, in one pass: the
        same counts as one :meth:`record` per node."""
        counts = self.counts
        get = counts.get
        visited = 0
        for node_id in path:
            counts[node_id] = get(node_id, 0) + 1
            visited += 1
        self.total += visited

    # ------------------------------------------------------------------
    def values(self) -> np.ndarray:
        """Load vector over the population (zeros included when known)."""
        observed = np.fromiter(self.counts.values(), dtype=np.float64,
                               count=len(self.counts))
        if self.population is None or self.population <= len(observed):
            return observed
        padded = np.zeros(self.population, dtype=np.float64)
        padded[:len(observed)] = observed
        return padded

    def gini(self) -> float:
        """Gini coefficient of the load distribution (0 = perfectly even)."""
        values = np.sort(self.values())
        n = len(values)
        total = values.sum()
        if n == 0 or total == 0.0:
            return 0.0
        ranks = np.arange(1, n + 1, dtype=np.float64)
        return float(((2.0 * ranks - n - 1.0) * values).sum() / (n * total))

    def max_mean(self) -> float:
        """Hottest node's load over the population mean (1 = perfectly even)."""
        values = self.values()
        if len(values) == 0 or self.total == 0:
            return 0.0
        return float(values.max() / values.mean())

    def summary(self) -> Dict[str, float]:
        """Imbalance summary of the load observed so far."""
        values = self.values()
        return {
            "total": float(self.total),
            "nodes_hit": float(len(self.counts)),
            "max": float(values.max()) if len(values) else 0.0,
            "mean": float(values.mean()) if len(values) else 0.0,
            "gini": self.gini(),
            "max_mean": self.max_mean(),
        }


class WindowTracker:
    """Fixed-width time windows of throughput/hops/latency.

    Observations arrive as ``(time, hops, latency)`` with non-decreasing
    ``time`` (drivers sort completions before feeding the tracker); each
    window that fills emits one snapshot row.  Windows that pass without
    traffic emit explicit zero-qps rows: a stall is a data point, not a
    gap in the plot.

    Call :meth:`finish` after the last observation to flush the final
    partial window.
    """

    __slots__ = ("window", "snapshots",
                 "_start", "_hops", "_latency", "_queries")

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = float(window)
        self.snapshots: List[Dict[str, float]] = []
        self._start: Optional[float] = None
        self._hops = 0.0
        self._latency = 0.0
        self._queries = 0

    def observe(self, time: float, hops: float, latency: float) -> None:
        """Record one served query at virtual ``time``."""
        if self._start is None:
            # Align the first window on a multiple of the width, so rows
            # from different runs of the same workload line up.
            self._start = float(np.floor(time / self.window)) * self.window
        if time < self._start:
            raise ValueError(
                f"time went backwards: {time} < window start {self._start}")
        while time >= self._start + self.window:
            self._flush()
        self._queries += 1
        self._hops += hops
        self._latency += latency

    def _flush(self) -> None:
        queries = self._queries
        row = {
            "start": self._start,
            "end": self._start + self.window,
            "queries": float(queries),
            "qps": queries / self.window,
            "mean_hops": self._hops / queries if queries else 0.0,
            "mean_latency": self._latency / queries if queries else 0.0,
        }
        self.snapshots.append(row)
        self._start += self.window
        self._hops = 0.0
        self._latency = 0.0
        self._queries = 0

    def finish(self) -> List[Dict[str, float]]:
        """Flush the trailing partial window; returns all snapshot rows."""
        if self._start is not None and self._queries:
            self._flush()
        return self.snapshots
