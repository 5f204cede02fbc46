"""Benchmark ROUTE — greedy routing over the epoch-cached routing tables.

Bulk-loads one overlay, routes a batch of random object pairs twice — a
cold pass that builds every routing table it touches and a warm pass
served entirely from the cache — verifies that every route ends at its
destination and that both passes answer identically (owners and hop
counts), and reports cold and warm throughput.

Two entry points:

* ``pytest benchmarks/bench_routing.py`` — the pytest-benchmark wrapper
  (workload scaled by ``REPRO_BENCH_SCALE``), asserting a conservative
  absolute warm-throughput floor;
* ``python benchmarks/bench_routing.py --objects 5000 --output
  benchmarks/BENCH_routing.json`` — the standalone runner emitting the
  JSON bench record; exits non-zero when the answer check fails
  (``check_bench.py`` gates the warm throughput against the record).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import VoroNet, VoroNetConfig
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_position_array, generate_routing_pairs

#: Overlay size of the canonical record (the acceptance-criterion scale).
DEFAULT_OBJECTS = 5000
DEFAULT_PAIRS = 2000
DEFAULT_SEED = 4242


def run_routing_bench(num_objects: int = DEFAULT_OBJECTS,
                      num_pairs: int = DEFAULT_PAIRS,
                      seed: int = DEFAULT_SEED,
                      num_long_links: int = 1) -> dict:
    """Route the same pair batch cold then warm; return the record."""
    positions = generate_position_array(
        UniformDistribution(), num_objects, RandomSource(seed))
    overlay = VoroNet(VoroNetConfig(n_max=4 * num_objects,
                                    num_long_links=num_long_links, seed=seed))
    overlay.bulk_load(positions)
    pairs = list(generate_routing_pairs(
        overlay.object_ids(), num_pairs, RandomSource(seed + 1)))
    # First pass: builds every table it touches (the one-off cost a static
    # overlay pays once).
    started = time.perf_counter()
    cold_results = overlay.route_many(pairs)
    cold = time.perf_counter() - started
    # Second pass: steady state — what every subsequent batch costs.
    started = time.perf_counter()
    results = overlay.route_many(pairs)
    steady = time.perf_counter() - started

    identical = (all(r.success for r in results)
                 and [(r.owner, r.hops) for r in results]
                 == [(r.owner, r.hops) for r in cold_results])
    return {
        "benchmark": "routing_cache",
        "objects": num_objects,
        "pairs": num_pairs,
        "num_long_links": num_long_links,
        "seed": seed,
        "seconds_cached": round(steady, 4),
        "seconds_cached_cold": round(cold, 4),
        "routes_per_second_cached": round(num_pairs / steady, 1),
        "owners_and_hops_identical": identical,
        "mean_hops": round(sum(r.hops for r in results) / num_pairs, 3),
    }


def format_routing_bench(record: dict) -> str:
    """One-paragraph human rendering of a bench record."""
    return (
        f"Routing @ {record['objects']} objects, "
        f"{record['pairs']} pairs (k={record['num_long_links']}): "
        f"cold {record['seconds_cached_cold']:.2f}s, "
        f"warm {record['seconds_cached']:.2f}s "
        f"({record['routes_per_second_cached']:.0f}/s); "
        f"owners/hops identical: {record['owners_and_hops_identical']}, "
        f"mean hops: {record['mean_hops']}"
    )


def test_routing_cache_throughput(benchmark, bench_scale):
    """Warm routing clears an absolute floor with identical cold/warm answers."""
    from conftest import run_once

    num_objects = max(1000, int(round(DEFAULT_OBJECTS * bench_scale)))
    num_pairs = max(500, int(round(DEFAULT_PAIRS * bench_scale)))
    record = run_once(benchmark, run_routing_bench,
                      num_objects=num_objects, num_pairs=num_pairs)
    print()
    print(format_routing_bench(record))
    benchmark.extra_info.update(record)

    assert record["owners_and_hops_identical"]
    # The canonical 5000-object record shows ~49 000 routes/s; a tenth of
    # it (the CI gate's floor) leaves headroom for noisy machines and is
    # still above what per-hop view assembly reached (~4 900 routes/s).
    assert record["routes_per_second_cached"] >= 4900


def main(argv=None) -> int:
    """Entry point of ``python benchmarks/bench_routing.py``."""
    parser = argparse.ArgumentParser(
        description="Benchmark greedy routing over the cached routing tables.")
    parser.add_argument("--objects", type=int, default=DEFAULT_OBJECTS,
                        help=f"overlay size (default {DEFAULT_OBJECTS})")
    parser.add_argument("--pairs", type=int, default=DEFAULT_PAIRS,
                        help=f"routed pairs (default {DEFAULT_PAIRS})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--long-links", type=int, default=1)
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON bench record here")
    args = parser.parse_args(argv)

    record = run_routing_bench(num_objects=args.objects, num_pairs=args.pairs,
                               seed=args.seed, num_long_links=args.long_links)
    print(format_routing_bench(record))
    if args.output is not None:
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"record written to {args.output}")
    return 0 if record["owners_and_hops_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
