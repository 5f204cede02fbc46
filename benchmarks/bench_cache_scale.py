"""Benchmark CACHE — million-object overlay: exact invalidation at scale.

Demonstrates the routing-table cache on one machine:

* ``bulk_load`` of N = 10⁶ objects, plus a routing sweep over the result,
  twice over the same pairs — cold (every table on the way is built) and
  warm (none is) — so the record carries both sides of "warm routing vs N";
* the locality claim — **a join or leave rebuilds the tables it names,
  whatever the overlay size**: at each overlay size a fixed pool of warm
  routing tables is churned and the tables rebuilt per churn event are
  counted.  Invalidating overlay-wide would rebuild the whole pool on
  every event (``warm_table_survival`` 0); a mutation drops only the
  tables of the objects whose views it changed (a dozen ids), so an event
  costs the pool only the few of those that happen to be in it.

``python benchmarks/bench_cache_scale.py --sizes 62500 250000 1000000
--output benchmarks/BENCH_cache_scale.json`` produced the canonical
million-object record — the one N = 10⁶ datum until the end-to-end
benchmark (``perf/``) grows a scaling workload; tier 1 re-derives it at
``--sizes 4000 16000`` (``tests/integration/test_bench_gate.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Sequence, Tuple

if __name__ == "__main__":  # script mode: make src/ importable without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import VoroNet, VoroNetConfig
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_position_array, generate_routing_pairs

#: Overlay sizes of the canonical record; the largest is the
#: acceptance-criterion scale (10⁶ objects on one machine).
DEFAULT_SIZES = (62_500, 250_000, 1_000_000)
DEFAULT_SEED = 4242
#: Warm routing tables per churn probe (the fixed "rebuildable" pool).
DEFAULT_WARM_TABLES = 2000
#: Insert/remove churn events per probe.
DEFAULT_CHURN_EVENTS = 20
DEFAULT_PAIRS = 20_000


def _build_overlay(positions, *, seed: int) -> Tuple[VoroNet, float]:
    """Bulk-load one overlay; returns it plus the build seconds."""
    overlay = VoroNet(VoroNetConfig(n_max=4 * len(positions), num_long_links=1,
                                    seed=seed))
    started = time.perf_counter()
    overlay.bulk_load(positions)
    return overlay, time.perf_counter() - started


def _churn_probe(overlay: VoroNet, *, warm_tables: int, churn_events: int,
                 seed: int) -> dict:
    """Count routing-table rebuilds a fixed churn load causes.

    Warms ``warm_tables`` tables, then alternates one insert+remove churn
    event with a full re-request of the warm pool, counting rebuilds per
    event.  Only the tables an event names are dropped;
    ``warm_table_survival`` is the share of the pool each event leaves
    warm.
    """
    rng = RandomSource(seed)
    ids = overlay.object_ids()
    warm = [ids[rng.integer(0, len(ids))] for _ in range(warm_tables)]
    for object_id in warm:
        overlay.routing_table(object_id)
    stats = overlay.stats
    rebuilds = 0
    for _ in range(churn_events):
        position = (rng.uniform(), rng.uniform())
        victim = overlay.insert(position)
        overlay.remove(victim)
        before = stats.routing_table_rebuilds
        for object_id in warm:
            overlay.routing_table(object_id)
        rebuilds += stats.routing_table_rebuilds - before
    per_event = round(rebuilds / churn_events, 1)
    return {
        "warm_tables": warm_tables,
        "churn_events": churn_events,
        "rebuilds_per_event": per_event,
        "warm_table_survival": round(1 - per_event / warm_tables, 4),
    }


def _route_pairs(overlay: VoroNet, pairs: List[Tuple[int, int]]) -> Tuple[List[int], int]:
    results = overlay.route_many(pairs)
    hops = [r.hops for r in results if r.success]
    return hops, len(results) - len(hops)


def run_cache_scale(sizes: Sequence[int], seed: int, *, warm_tables: int,
                    churn_events: int, num_pairs: int) -> dict:
    """Run the cache-scale benchmark; returns the JSON bench record."""
    sizes = sorted(set(int(s) for s in sizes))
    rng = RandomSource(seed)
    per_size: List[dict] = []
    headline: dict = {}
    for size in sizes:
        positions = generate_position_array(UniformDistribution(), size, rng)
        pool = min(warm_tables, max(64, size // 8))

        overlay, seconds_bulk = _build_overlay(positions, seed=seed)
        probe = _churn_probe(overlay, warm_tables=pool,
                             churn_events=churn_events, seed=seed + 1)
        if size == sizes[-1]:
            consistency_problems = len(overlay.check_consistency())
            pairs = generate_routing_pairs(overlay.object_ids(), num_pairs,
                                           RandomSource(seed + 2))
            pairs = list(pairs)
            started = time.perf_counter()
            hops, failures = _route_pairs(overlay, pairs)
            seconds_routing = time.perf_counter() - started
            started = time.perf_counter()
            warm_hops, warm_failures = _route_pairs(overlay, pairs)
            seconds_warm = time.perf_counter() - started
            failures += warm_failures + (warm_hops != hops)
            headline = {
                "objects": size,
                "seconds_bulk_load": round(seconds_bulk, 2),
                "objects_per_second": round(size / seconds_bulk),
                "consistency_problems": consistency_problems,
                "routing": {
                    "pairs": len(pairs),
                    "seconds": round(seconds_routing, 3),
                    "routes_per_second": round(len(pairs) / seconds_routing, 1),
                    "seconds_warm": round(seconds_warm, 3),
                    "routes_per_second_warm": round(len(pairs) / seconds_warm, 1),
                    "mean_hops": round(sum(hops) / max(len(hops), 1), 3),
                    "failures": failures,
                },
            }
        del overlay
        per_size.append({
            "objects": size,
            "seconds_bulk_load": round(seconds_bulk, 2),
            "warm_tables": pool,
            "rebuilds_per_event": probe["rebuilds_per_event"],
            "warm_table_survival": probe["warm_table_survival"],
        })

    return {
        "benchmark": "cache_scale",
        "seed": seed,
        "sizes": list(sizes),
        "churn_events": churn_events,
        "per_size": per_size,
        "warm_table_survival_at_largest": per_size[-1]["warm_table_survival"],
        **headline,
    }


def format_cache_scale(record: dict) -> str:
    """Multi-line human rendering of a cache-scale bench record."""
    lines = [
        f"Cache scale @ {record['objects']} objects: "
        f"bulk_load {record['seconds_bulk_load']:.0f}s "
        f"({record['objects_per_second']} obj/s), "
        f"routing {record['routing']['routes_per_second']:.0f} routes/s cold, "
        f"{record['routing']['routes_per_second_warm']:.0f} warm "
        f"(mean {record['routing']['mean_hops']:.1f} hops, "
        f"{record['routing']['failures']} failures)"
    ]
    lines.append("rebuilds/churn-event (of the warm pool):")
    for row in record["per_size"]:
        lines.append(
            f"  N={row['objects']:>9}: "
            f"{row['rebuilds_per_event']:>7.1f} of "
            f"{row['warm_tables']:>5}  "
            f"(survival {row['warm_table_survival']:.4f})"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    """Entry point of ``python benchmarks/bench_cache_scale.py``."""
    parser = argparse.ArgumentParser(
        description="Benchmark the routing-table cache at scale.")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
                        help=f"overlay sizes (default {list(DEFAULT_SIZES)})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--warm-tables", type=int, default=DEFAULT_WARM_TABLES)
    parser.add_argument("--churn-events", type=int, default=DEFAULT_CHURN_EVENTS)
    parser.add_argument("--pairs", type=int, default=DEFAULT_PAIRS)
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON bench record here")
    args = parser.parse_args(argv)

    record = run_cache_scale(sizes=args.sizes, seed=args.seed,
                             warm_tables=args.warm_tables,
                             churn_events=args.churn_events,
                             num_pairs=args.pairs)
    print(format_cache_scale(record))
    if args.output is not None:
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"record written to {args.output}")
    ok = (record["consistency_problems"] == 0
          and record["routing"]["failures"] == 0
          and all(row["warm_table_survival"] > 0.0 for row in record["per_size"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
