"""Traffic drivers: sustained query streams against a serving adapter.

The loop discipline is closed (:func:`serve_closed_loop`): a fixed number
of workers each keep exactly one query outstanding; a worker issues its
next query the moment the previous answer returns.  Throughput is then
*emergent* from route lengths: longer routes, fewer queries per unit of
virtual time.

The driver serves index pairs from a :class:`Schedule` through an
adapter's batched entry point (``route_many(missing="miss")`` for
VoroNet — a departed endpoint is a defined miss, not a crash) and feeds
the observability layer (streaming hop/latency percentiles, per-node load
counters, windowed throughput snapshots).

:func:`serve_protocol_closed_loop` is the message-level twin of the
closed loop: genuinely contending ``QUERY`` messages in one engine,
``concurrency`` of them in flight at every moment, completions stamped
with virtual time.  On a fault-free overlay its hop counts are identical
to the oracle driver's on the same schedule (the twin-parity suite pins
this).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.adapters import ServingAdapter
from repro.serving.estimators import StreamingPercentiles
from repro.serving.observability import LoadTracker, WindowTracker
from repro.simulation.engine import LATENCY
from repro.simulation.protocol import ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.samplers import TargetSampler

__all__ = ["Schedule", "build_schedule", "serve_closed_loop",
           "serve_protocol_closed_loop"]

#: Quantiles every serving report tracks.
SERVING_QUANTILES = (0.5, 0.9, 0.99)
#: Exact-sample buffer of each report's percentile estimators: the
#: committed records were produced with it, so it is not the estimator's
#: own default.
QUANTILE_BUFFER = 4096
#: Index pairs handed to an adapter's batched entry point at a time.
BATCH_SIZE = 2048


class Schedule:
    """A replayable query schedule: parallel source/target index arrays."""

    __slots__ = ("sources", "targets")

    def __init__(self, sources: np.ndarray, targets: np.ndarray) -> None:
        if len(sources) != len(targets):
            raise ValueError("sources and targets must have equal length")
        self.sources = np.asarray(sources, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.sources)

    def pairs(self) -> List[Tuple[int, int]]:
        """The schedule as a list of (source, target) index pairs."""
        return list(zip(self.sources.tolist(), self.targets.tolist()))


def build_schedule(sampler: TargetSampler, count: int, *,
                   seed: Optional[int] = None) -> Schedule:
    """Sample a schedule: uniform entry points, sampler-chosen targets.

    Sources model *where* queries enter the overlay (any peer, uniformly);
    the sampler models *what* they ask for.  The same schedule object is
    replayed against every system in a shoot-out, so skew comparisons are
    apples-to-apples down to the individual query.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = RandomSource(seed)
    sources = rng.generator.integers(0, sampler.population, size=count,
                                     dtype=np.int64)
    return Schedule(sources, sampler.sample(count))


# ----------------------------------------------------------------------
# shared aggregation machinery
# ----------------------------------------------------------------------
class _Aggregator:
    """Streaming collection shared by the drivers."""

    __slots__ = ("hops", "latency", "load", "windows", "completions",
                 "misses", "hop_sum", "hop_max", "served")

    def __init__(self, node_count: int, window: Optional[float]) -> None:
        self.hops = StreamingPercentiles(SERVING_QUANTILES,
                                         buffer_size=QUANTILE_BUFFER)
        self.latency = StreamingPercentiles(SERVING_QUANTILES,
                                            buffer_size=QUANTILE_BUFFER)
        self.load = LoadTracker(population=node_count)
        self.windows = (WindowTracker(window) if window is not None
                        else None)
        self.completions: List[Tuple[float, int, float]] = []
        self.misses = 0
        self.hop_sum = 0
        self.hop_max = 0
        self.served = 0

    def add(self, hops: int, success: bool, path, completion_time: float,
            latency: float) -> None:
        if not success:
            self.misses += 1
            return
        self.served += 1
        self.hop_sum += hops
        if hops > self.hop_max:
            self.hop_max = hops
        self.hops.observe(hops)
        self.latency.observe(latency)
        if path is not None:
            self.load.record_path(path)
        if self.windows is not None:
            self.completions.append((completion_time, hops, latency))

    def report(self, system: str, workload: str, mode: str,
               duration: float) -> Dict:
        hop_summary = self.hops.summary() if self.served else {"count": 0.0}
        hop_summary["mean"] = (self.hop_sum / self.served
                               if self.served else 0.0)
        hop_summary["max"] = float(self.hop_max)
        windows: List[Dict[str, float]] = []
        if self.windows is not None:
            for time, hops, latency in sorted(self.completions):
                self.windows.observe(time, hops, latency)
            windows = self.windows.finish()
        total = self.served + self.misses
        return {
            "system": system,
            "workload": workload,
            "mode": mode,
            "queries": total,
            "served": self.served,
            "misses": self.misses,
            "success_rate": self.served / total if total else 0.0,
            "virtual_duration": duration,
            "throughput_qps": self.served / duration if duration > 0 else 0.0,
            "hops": hop_summary,
            "latency": (self.latency.summary() if self.served
                        else {"count": 0.0}),
            "load": self.load.summary(),
            "windows": windows,
        }


# ----------------------------------------------------------------------
# oracle-mode driver
# ----------------------------------------------------------------------
def serve_closed_loop(adapter: ServingAdapter, schedule: Schedule,
                      workload: str, *,
                      concurrency: int,
                      window: Optional[float] = None) -> Dict:
    """Closed-loop traffic: ``concurrency`` workers, one query in flight each.

    The next free worker (smallest virtual clock) takes the next schedule
    entry; its query completes ``hops · LATENCY`` later — a hop costs what
    one message delivery costs on the protocol plane.  Throughput
    is emergent: the report's ``virtual_duration`` is the time the last
    worker finishes, so systems with longer routes serve measurably fewer
    queries per unit of virtual time — the number the shoot-out compares.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    aggregate = _Aggregator(adapter.node_count(), window)
    # (virtual clock, worker id): heap order is deterministic because the
    # worker id breaks clock ties.
    workers = [(0.0, w) for w in range(concurrency)]
    heapq.heapify(workers)
    makespan = 0.0
    pairs = schedule.pairs()
    for start in range(0, len(pairs), BATCH_SIZE):
        for outcome in adapter.route_batch(pairs[start:start + BATCH_SIZE]):
            clock, worker = heapq.heappop(workers)
            latency = outcome.hops * LATENCY
            completion = clock + latency
            heapq.heappush(workers, (completion, worker))
            if completion > makespan:
                makespan = completion
            aggregate.add(outcome.hops, outcome.success, outcome.path,
                          completion, latency)
    return aggregate.report(adapter.name, workload, "closed", makespan)


# ----------------------------------------------------------------------
# protocol-mode driver
# ----------------------------------------------------------------------
def serve_protocol_closed_loop(simulator: ProtocolSimulator,
                               id_map: Sequence[int],
                               schedule: Schedule,
                               workload: str = "uniform", *,
                               concurrency: int = 4,
                               window: Optional[float] = None,
                               record_paths: bool = False) -> Dict:
    """Closed-loop serving over genuinely contending ``QUERY`` messages.

    ``concurrency`` queries are injected up front; every answer that
    lands triggers injection of the next schedule entry *from inside the
    running engine* (via :attr:`ProtocolSimulator.on_query_answer`), so
    the message plane always carries that many queries at once.  The hook
    receives each answer with its query id and, with ``record_paths``, the
    ids its query visited, which feed the load counters here and are
    retained nowhere.  Latency
    is real virtual transit time — issue to answer delivery, including
    the answer message — and hop counts are identical to the oracle
    driver's on the same schedule (twin parity).
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    count = len(schedule)
    total_nodes = len(simulator.nodes)
    aggregate = _Aggregator(total_nodes, window)
    # Targets resolve to positions up front (the protocol queries points).
    targets = [simulator.nodes[id_map[t]].position
               for t in schedule.targets.tolist()]
    sources = [id_map[s] for s in schedule.sources.tolist()]
    issued_at: Dict[int, float] = {}
    start_time = simulator.engine.now
    state = {"next": 0}

    def issue_next() -> None:
        index = state["next"]
        if index >= count:
            return
        state["next"] = index + 1
        issued_at[index] = simulator.engine.now
        simulator.start_query(targets[index], start=sources[index],
                              query_id=index, record_path=record_paths)

    def on_answer(query_id: int, answer: Dict,
                  path: Optional[Tuple[int, ...]]) -> None:
        completed_at = answer["completed_at"]
        latency = completed_at - issued_at.pop(query_id)
        aggregate.add(answer["hops"], True, path, completed_at, latency)
        issue_next()

    previous_hook = simulator.on_query_answer
    simulator.on_query_answer = on_answer
    try:
        for _ in range(min(concurrency, count)):
            issue_next()
        simulator.engine.run()
    finally:
        simulator.on_query_answer = previous_hook
    duration = simulator.engine.now - start_time
    report = aggregate.report("voronet-protocol", workload, "closed-protocol",
                              duration)
    report["concurrency"] = concurrency
    return report
