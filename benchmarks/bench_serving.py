"""Benchmark SERVING — the heavy-traffic shoot-out under skewed demand.

Serves the same sampled query schedules through VoroNet and through the
Kleinberg-grid and Chord baselines with the closed-loop traffic driver:

* virtual-time throughput per system per workload, overall and per
  ``WINDOW`` of virtual time (wall-clock queries/second ride along as
  ``wall_qps``, ungated: ``perf/`` gates ``serve_queries_per_s``);
* hop-count tails (p50/p90/p99 via the streaming estimator) — the
  serving-time face of the paper's polylog routing claim;
* per-node service load (Gini, max/mean) under uniform vs. Zipf demand —
  what popularity skew does to each topology.

Two verification sections ride along in the record:

* ``twin_parity`` — the oracle plane and the message plane serve one
  schedule over byte-identical overlays; every query's hop count must
  match (the record commits the mismatch census, the gate asserts 0);
* ``protocol`` — closed-loop serving over genuinely contending in-flight
  ``QUERY`` messages, reporting virtual-latency percentiles.

``python benchmarks/bench_serving.py --output benchmarks/BENCH_serving.json``
produced the canonical record (10⁴ objects, 10⁵ queries per system per
workload) and exits non-zero when a run leaves queries unserved, twin
parity breaks, or a report comes back without per-node load or windows
(tier 1 re-derives it at a smaller scale with the same bar, see
``tests/integration/test_bench_gate.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.serving.harness import (run_protocol_serving, run_shootout,
                                   twin_parity)

#: Canonical scale: 10⁴ objects (a perfect square — Kleinberg needs the
#: full lattice), 10⁵ queries per system per workload.
DEFAULT_OBJECTS = 10_000
DEFAULT_QUERIES = 100_000
DEFAULT_SEED = 2024
DEFAULT_CONCURRENCY = 8
DEFAULT_ZIPF_ALPHA = 0.9
#: The protocol-plane section runs every query as an in-flight message —
#: orders of magnitude more work per query than the oracle router — so it
#: uses its own (smaller) sizes.
DEFAULT_PROTOCOL_OBJECTS = 1_000
DEFAULT_PROTOCOL_QUERIES = 5_000
DEFAULT_PARITY_OBJECTS = 300
DEFAULT_PARITY_QUERIES = 1_000
#: Width, in virtual time, of the throughput/hops/latency snapshot rows of
#: every report; the record keeps the first ``KEEP_WINDOWS`` rows of each
#: oracle-plane run (the canonical ones span 20–80 windows).
WINDOW = 4000.0
KEEP_WINDOWS = 2


def run_serving_bench(objects: int, queries: int, *, seed: int, concurrency: int,
                      zipf_alpha: float, protocol_objects: int, protocol_queries: int,
                      parity_objects: int, parity_queries: int) -> dict:
    """Run the full serving benchmark; returns the JSON bench record."""
    side = round(objects ** 0.5)
    if side * side != objects:
        raise ValueError(
            f"objects must be a perfect square for the Kleinberg lattice, "
            f"got {objects}")
    shootout = run_shootout(objects, queries, seed=seed,
                            workloads=("uniform", "zipf"),
                            zipf_alpha=zipf_alpha, concurrency=concurrency,
                            window=WINDOW, keep_windows=KEEP_WINDOWS,
                            clock=time.perf_counter)
    parity = twin_parity(parity_objects, parity_queries, seed=seed,
                         concurrency=0)
    started = time.perf_counter()
    protocol = run_protocol_serving(protocol_objects, protocol_queries,
                                    seed=seed, concurrency=concurrency,
                                    window=WINDOW, record_paths=True)
    protocol["wall_seconds"] = round(time.perf_counter() - started, 3)
    return {
        "benchmark": "serving",
        "population": objects,
        "queries_per_workload": queries,
        "seed": seed,
        "concurrency": concurrency,
        "zipf_alpha": zipf_alpha,
        "systems": shootout["systems"],
        "twin_parity": parity,
        "protocol": protocol,
    }


def format_serving(record: dict) -> str:
    """Multi-line human rendering of a serving bench record."""
    lines = [
        f"Serving shoot-out @ N={record['population']}, "
        f"{record['queries_per_workload']} queries/workload, "
        f"closed loop x{record['concurrency']}:"
    ]
    for system, by_workload in record["systems"].items():
        for workload, report in by_workload.items():
            hops = report["hops"]
            load = report["load"]
            wall = (f", {report['wall_qps']:.0f} q/s wall"
                    if "wall_qps" in report else "")
            lines.append(
                f"  {system:>9} / {workload:<7} hops p50={hops['p50']:.0f} "
                f"p99={hops['p99']:.0f}  gini={load['gini']:.3f} "
                f"max/mean={load['max_mean']:.1f}  "
                f"ok={report['success_rate']:.3f}{wall}")
    parity = record["twin_parity"]
    lines.append(
        f"twin parity: {parity['queries']} queries, "
        f"{parity['hop_mismatches']} hop mismatches "
        f"(oracle {parity['oracle_total_hops']} vs protocol "
        f"{parity['protocol_total_hops']} total hops)")
    protocol = record["protocol"]
    lines.append(
        f"protocol plane: {protocol['queries']} contending queries, "
        f"latency p50={protocol['latency']['p50']:.1f} "
        f"p99={protocol['latency']['p99']:.1f} (virtual), "
        f"ok={protocol['success_rate']:.3f}")
    return "\n".join(lines)


def _record_healthy(record: dict) -> bool:
    """Correctness gate: parity holds, every run served everything and
    reported where the load went and how throughput moved over time."""
    if not record["twin_parity"]["parity"]:
        return False
    reports = [record["protocol"]]
    for by_workload in record["systems"].values():
        reports.extend(by_workload.values())
    for report in reports:
        if report["success_rate"] < 1.0:
            return False
        if report["hops"]["p50"] > report["hops"]["p99"]:
            return False
        if report["load"]["total"] == 0 or not report["windows"]:
            return False
    return True


def main(argv=None) -> int:
    """Entry point of ``python benchmarks/bench_serving.py``."""
    parser = argparse.ArgumentParser(
        description="Benchmark the serving layer: VoroNet vs. Kleinberg vs. "
                    "Chord under uniform and Zipf demand.")
    parser.add_argument("--objects", type=int, default=DEFAULT_OBJECTS,
                        help="object population (perfect square; default "
                             f"{DEFAULT_OBJECTS})")
    parser.add_argument("--queries", type=int, default=DEFAULT_QUERIES,
                        help="queries per system per workload "
                             f"(default {DEFAULT_QUERIES})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--concurrency", type=int, default=DEFAULT_CONCURRENCY)
    parser.add_argument("--zipf-alpha", type=float, default=DEFAULT_ZIPF_ALPHA)
    parser.add_argument("--protocol-objects", type=int,
                        default=DEFAULT_PROTOCOL_OBJECTS)
    parser.add_argument("--protocol-queries", type=int,
                        default=DEFAULT_PROTOCOL_QUERIES)
    parser.add_argument("--parity-objects", type=int,
                        default=DEFAULT_PARITY_OBJECTS)
    parser.add_argument("--parity-queries", type=int,
                        default=DEFAULT_PARITY_QUERIES)
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON bench record here")
    args = parser.parse_args(argv)

    record = run_serving_bench(
        args.objects, args.queries, seed=args.seed,
        concurrency=args.concurrency, zipf_alpha=args.zipf_alpha,
        protocol_objects=args.protocol_objects,
        protocol_queries=args.protocol_queries,
        parity_objects=args.parity_objects,
        parity_queries=args.parity_queries)
    print(format_serving(record))
    if args.output is not None:
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"record written to {args.output}")
    return 0 if _record_healthy(record) else 1


if __name__ == "__main__":
    sys.exit(main())
