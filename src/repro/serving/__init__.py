"""Heavy-traffic serving layer: drivers, observability, shoot-out harness.

The paper's claim is polylogarithmic greedy routing over massive object
populations; this package tests the claim under production-shaped load
instead of isolated random pairs.  It is organised as three planes:

* **traffic** (:mod:`repro.serving.traffic`) — closed-loop (fixed
  concurrency) drivers that replay seeded query schedules through
  batched oracle routing (``route_many(missing="miss")``) or genuinely
  contending in-flight ``QUERY`` messages on the protocol plane;
* **observability** (:mod:`repro.serving.estimators`,
  :mod:`repro.serving.observability`) — streaming p50/p90/p99 estimation
  (exact below a buffer threshold, P² above), per-node load counters
  with Gini/max-mean imbalance, and windowed throughput snapshots;
* **shoot-out** (:mod:`repro.serving.adapters`,
  :mod:`repro.serving.harness`) — one schedule replayed against VoroNet
  and the Kleinberg/Chord baselines through a uniform adapter interface,
  plus the oracle-vs-protocol twin-parity check.

``benchmarks/bench_serving.py`` runs the shoot-out at canonical scale
and commits ``BENCH_serving.json``; the workload samplers themselves
(uniform, Zipf) live in :mod:`repro.workloads.samplers`.
"""

from repro.serving.adapters import (ChordServing, KleinbergServing,
                                    ServeOutcome, ServingAdapter,
                                    VoroNetServing)
from repro.serving.estimators import StreamingPercentiles
from repro.serving.harness import (build_adapters, make_sampler,
                                   run_protocol_serving, run_shootout,
                                   twin_parity)
from repro.serving.observability import (AvailabilityTracker, LoadTracker,
                                         WindowTracker)
from repro.serving.traffic import (Schedule, build_schedule,
                                   serve_closed_loop,
                                   serve_protocol_closed_loop)

__all__ = [
    "AvailabilityTracker",
    "ChordServing",
    "KleinbergServing",
    "LoadTracker",
    "Schedule",
    "ServeOutcome",
    "ServingAdapter",
    "StreamingPercentiles",
    "VoroNetServing",
    "WindowTracker",
    "build_adapters",
    "build_schedule",
    "make_sampler",
    "run_protocol_serving",
    "run_shootout",
    "serve_closed_loop",
    "serve_protocol_closed_loop",
    "twin_parity",
]
