"""Benchmark ENGINE — raw message-plane throughput.

Measures the engine/network hot path in isolation: a message stream
captured from a real protocol run (an N-object ``bulk_join`` followed by
graceful churn and one heartbeat round) is replayed through the
:class:`~repro.simulation.engine.SimulationEngine` /
:class:`~repro.simulation.network.Network` stack with no-op recipients,
so the numbers isolate scheduling, heap ordering, fault/latency dispatch
and delivery from protocol logic.  The replay reproduces the real flow's
shape by sending in bounded chunks and draining between them.

A second micro-metric times :attr:`SimulationEngine.quiescent` against a
large, fully cancelled pending queue, which the engine answers from an
incrementally maintained counter (O(1)).

Two entry points:

* ``pytest benchmarks/bench_engine.py`` — the pytest-benchmark wrapper
  (workload scaled by ``REPRO_BENCH_SCALE``), asserting conservative
  absolute floors at smoke scale;
* ``python benchmarks/bench_engine.py --objects 2000 --output
  benchmarks/BENCH_engine.json`` — the standalone runner emitting the
  JSON bench record; exits non-zero when the absolute messages-per-second
  floor is violated (CI smoke runs use conservative floors so hot-path
  regressions fail the build).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List

if True:  # script & pytest mode: make src/ importable without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.config import VoroNetConfig
from repro.simulation.engine import SimulationEngine
from repro.simulation.faults import HeartbeatDetector
from repro.simulation.network import Message, Network
from repro.simulation.protocol import ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects

DEFAULT_OBJECTS = 2000
DEFAULT_CHURN_OPS = 200
DEFAULT_SEED = 4242
DEFAULT_REPEAT = 4
DEFAULT_CHUNK = 256


# ----------------------------------------------------------------------
# workload capture & replay
# ----------------------------------------------------------------------
class _RecordingNetwork(Network):
    """Network that logs every send (endpoints + kind) before processing it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.log: List[tuple] = []

    def send(self, message: Message) -> None:
        self.log.append((message.sender, message.recipient, message.kind))
        super().send(message)


def capture_workload(objects: int, churn_ops: int, seed: int) -> List[tuple]:
    """Message stream of a real bulk_join + churn + heartbeat run."""
    config = VoroNetConfig(n_max=4 * (objects + churn_ops + 8),
                           num_long_links=1, seed=seed)
    simulator = ProtocolSimulator(config, seed=seed)
    simulator.network = _RecordingNetwork(simulator.engine)
    positions = generate_objects(UniformDistribution(), objects,
                                 RandomSource(seed))
    simulator.bulk_join(positions)
    rng = RandomSource(seed + 1)
    for _ in range(churn_ops):
        if rng.uniform() < 0.6:
            simulator.join(rng.random_point())
        else:
            ids = simulator.object_ids()
            if len(ids) > 8:
                simulator.leave(ids[rng.integer(0, len(ids))])
    HeartbeatDetector(simulator).run_round()
    return simulator.network.log


def replay_plane(log: List[tuple], repeat: int, chunk: int) -> float:
    """Replay the stream ``repeat`` times; returns total wall seconds."""
    node_ids = {sender for sender, _r, _k in log}
    node_ids.update(recipient for _s, recipient, _k in log)

    def noop(message) -> None:
        return None

    total = 0.0
    for _ in range(repeat):
        engine = SimulationEngine()
        network = Network(engine)
        for node_id in node_ids:
            network.register(node_id, noop)
        send = network.send
        run = engine.run
        started = time.perf_counter()
        for start in range(0, len(log), chunk):
            for sender, recipient, kind in log[start:start + chunk]:
                send(Message(sender, recipient, kind))
            run()
        total += time.perf_counter() - started
    return total


def time_quiescence(events: int, checks: int) -> float:
    """Seconds for ``checks`` quiescent reads after a mass cancellation.

    The scenario is a harness teardown: every still-pending scheduled
    event (heartbeat ticks, watchdogs) is cancelled, then ``bulk_join``
    polls ``engine.quiescent`` as its precondition.  The engine answers
    from its incremental counter (and compacted the queue as cancellations
    crossed half the entries), so the cost must not grow with the number
    of cancelled entries.
    """
    engine = SimulationEngine()
    scheduled = [engine.schedule(float(index % 97) + 1.0, _noop_thunk)
                 for index in range(events)]
    for event in scheduled:
        event.cancel()
    started = time.perf_counter()
    for _ in range(checks):
        engine.quiescent
    return time.perf_counter() - started


def _noop_thunk() -> None:
    return None


# ----------------------------------------------------------------------
# the benchmark record
# ----------------------------------------------------------------------
def run_engine_bench(objects: int = DEFAULT_OBJECTS,
                     churn_ops: int = DEFAULT_CHURN_OPS,
                     seed: int = DEFAULT_SEED,
                     repeat: int = DEFAULT_REPEAT,
                     chunk: int = DEFAULT_CHUNK,
                     quiescence_events: int = 10_000,
                     quiescence_checks: int = 100) -> dict:
    """Capture the workload once and measure its replay."""
    log = capture_workload(objects, churn_ops, seed)
    seconds = replay_plane(log, repeat, chunk)
    quiescence_seconds = time_quiescence(quiescence_events, quiescence_checks)
    return {
        "benchmark": "engine",
        "objects": objects,
        "churn_ops": churn_ops,
        "seed": seed,
        "messages": len(log),
        "repeat": repeat,
        "chunk": chunk,
        "optimized_seconds": round(seconds, 4),
        "optimized_messages_per_sec": round(len(log) * repeat / seconds),
        "quiescence": {
            "pending_events": quiescence_events,
            "checks": quiescence_checks,
            "optimized_checks_per_sec": round(quiescence_checks
                                              / max(quiescence_seconds, 1e-9)),
        },
    }


def format_engine(record: dict) -> str:
    """One-paragraph human rendering of a bench record."""
    quiescence = record["quiescence"]
    return (
        f"Engine plane @ {record['objects']} objects "
        f"({record['messages']} msgs × {record['repeat']}): "
        f"{record['optimized_messages_per_sec']:,} msg/s; quiescent @ "
        f"{quiescence['pending_events']} pending: "
        f"{quiescence['optimized_checks_per_sec']:,} checks/s"
    )


def test_engine_plane_throughput(benchmark, bench_scale):
    """Absolute floors at smoke scale: an order of magnitude under the
    canonical record, far over an O(n) quiescence scan (~2 400 checks/s
    at 10⁴ pending events)."""
    from conftest import run_once

    objects = max(300, int(round(DEFAULT_OBJECTS * bench_scale * 0.25)))
    record = run_once(benchmark, run_engine_bench, objects=objects,
                      churn_ops=50, repeat=2)
    print()
    print(format_engine(record))
    benchmark.extra_info.update(record)

    assert record["optimized_messages_per_sec"] >= 50_000
    assert record["quiescence"]["optimized_checks_per_sec"] >= 100_000


def main(argv=None) -> int:
    """Entry point of ``python benchmarks/bench_engine.py``."""
    parser = argparse.ArgumentParser(
        description="Benchmark the raw message-plane throughput.")
    parser.add_argument("--objects", type=int, default=DEFAULT_OBJECTS)
    parser.add_argument("--churn-ops", type=int, default=DEFAULT_CHURN_OPS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeat", type=int, default=DEFAULT_REPEAT)
    parser.add_argument("--chunk", type=int, default=DEFAULT_CHUNK)
    parser.add_argument("--min-throughput", type=float, default=None,
                        help="fail unless msgs/sec ≥ this floor")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON bench record here")
    args = parser.parse_args(argv)

    record = run_engine_bench(objects=args.objects, churn_ops=args.churn_ops,
                              seed=args.seed, repeat=args.repeat,
                              chunk=args.chunk)
    print(format_engine(record))
    if args.output is not None:
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"record written to {args.output}")
    if (args.min_throughput is not None
            and record["optimized_messages_per_sec"] < args.min_throughput):
        print(f"FAIL: throughput {record['optimized_messages_per_sec']:,} "
              f"msg/s < {args.min_throughput:,.0f}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
