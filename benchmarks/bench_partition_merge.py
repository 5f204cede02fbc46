"""Benchmark PARTITION-MERGE — split-brain service and the heal that settles it.

Drives the partition-merge subsystem (:mod:`repro.simulation.merge`)
through its scenario matrix: a 2-way even split, an asymmetric 80/20
split, a 3-way split, and repeated flapping partitions — every scenario
with **both-side inserts** while split (the colliding side-local
published ids the heal must resolve) and per-side query service measured
in both the degraded window (views still reference the far side) and the
stabilised window (each side repaired against its own fork).

A heal is the union rebuild (``PartitionRuntime.heal()``) followed by
one standing ``RepairProtocol.repair()``; ``merge_rounds`` are the
repair's rounds and ``merge_messages`` every message sent between the
heal and the end of the repair.

The record asserts the acceptance bar of the subsystem, not mere
completion: every scenario must heal to a clean ``verify_views()``,
per-node views byte-identical to a never-split oracle tessellation built
from the union population (close sets included: every live peer inside
the ``d_min`` disc), zero routing-parity mismatches on sampled
lookups, and 100% stable-phase availability on every side.  Headline
gated metrics: ``converged_fraction`` (1.0 — any scenario failing to
merge is a regression) and ``stable_success_rate_min``.

``python benchmarks/bench_partition_merge.py --output
benchmarks/BENCH_partition_merge.json`` emits the JSON record and exits
non-zero when any scenario fails to converge, loses oracle/routing
parity, or drops stable-phase queries (tier 1 re-derives the record at a
smaller ``--objects`` with the same bar, see
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

from repro.simulation.scenario import run_merge_scenario

#: Base overlay size of the canonical record; scenarios derive their own
#: sizes from it (k-way splits need more members per side).
DEFAULT_OBJECTS = 140
DEFAULT_SEED = 4242


def scenario_matrix(num_objects: int, seed: int) -> dict:
    """The benchmarked scenarios: name -> ``run_merge_scenario`` parameters."""
    return {
        "two_way": dict(num_objects=num_objects, seed=seed,
                        num_sides=2, cycles=1),
        "two_way_asymmetric": dict(num_objects=num_objects, seed=seed + 1,
                                   num_sides=2, cycles=1,
                                   side_fractions=(0.8, 0.2)),
        "three_way": dict(num_objects=max(num_objects, 48), seed=seed + 2,
                          num_sides=3, cycles=1),
        "flapping": dict(num_objects=max(num_objects * 3 // 4, 32),
                         seed=seed + 3, num_sides=2, cycles=3),
    }


def run_scenario(name: str, params: dict, *, inserts_per_side: int,
                 queries_per_side: int) -> dict:
    """Run one scenario and summarise it as a JSON-safe dict."""
    started = time.perf_counter()
    report = run_merge_scenario(inserts_per_side=inserts_per_side,
                                queries_per_side=queries_per_side, **params)
    seconds = time.perf_counter() - started
    merges = report.cycle_reports
    return {
        "scenario": name,
        "objects": params["num_objects"],
        "sides": report.sides,
        "cycles": report.cycles,
        "converged": report.converged,
        "oracle_view_parity": report.oracle_view_parity,
        "routing_parity_queries": report.routing_parity_queries,
        "routing_parity_mismatches": report.routing_parity_mismatches,
        "final_verify_problems": report.final_verify_problems,
        "merge_rounds": [m.rounds for m in merges],
        "merge_messages": sum(m.messages for m in merges),
        "id_collisions_resolved": sum(m.id_collisions_resolved
                                      for m in merges),
        "coordinate_conflicts": sum(m.coordinate_conflicts for m in merges),
        "union_inserts": sum(m.union_inserts for m in merges),
        "time_to_converge_max": max(m.time_to_converge for m in merges),
        "cross_references_at_split": [d.total_cross_references
                                      for d in report.damage_reports],
        "availability": report.availability,
        "messages": report.messages,
        "virtual_time": round(report.virtual_time, 3),
        "seconds": round(seconds, 4),
    }


def run_partition_merge(num_objects: int, seed: int, inserts_per_side: int,
                        queries_per_side: int) -> dict:
    """Run the full matrix and return the JSON-serialisable bench record."""
    scenarios = {}
    for name, params in scenario_matrix(num_objects, seed).items():
        scenarios[name] = run_scenario(name, params,
                                       inserts_per_side=inserts_per_side,
                                       queries_per_side=queries_per_side)
    converged = sum(1 for s in scenarios.values() if s["converged"])
    stable_rates = [s["availability"]["stable_success_rate"]
                    for s in scenarios.values()]
    degraded_rates = [s["availability"]["degraded_success_rate"]
                      for s in scenarios.values()]
    return {
        "benchmark": "partition_merge",
        "objects": num_objects,
        "seed": seed,
        "inserts_per_side": inserts_per_side,
        "queries_per_side": queries_per_side,
        "scenarios": scenarios,
        "converged_fraction": converged / len(scenarios),
        "oracle_parity": all(s["oracle_view_parity"]
                             for s in scenarios.values()),
        "routing_parity_mismatches": sum(s["routing_parity_mismatches"]
                                         for s in scenarios.values()),
        "stable_success_rate_min": min(stable_rates),
        "degraded_success_rate_mean": round(
            sum(degraded_rates) / len(degraded_rates), 4),
        "id_collisions_resolved": sum(s["id_collisions_resolved"]
                                      for s in scenarios.values()),
        "time_to_converge_max": max(s["time_to_converge_max"]
                                    for s in scenarios.values()),
        "seconds_total": round(sum(s["seconds"]
                                   for s in scenarios.values()), 4),
    }


def record_passes(record: dict) -> bool:
    """The acceptance bar the exit code enforces."""
    return (record["converged_fraction"] == 1.0
            and record["oracle_parity"]
            and record["routing_parity_mismatches"] == 0
            and record["stable_success_rate_min"] == 1.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Partition/merge scenario-matrix benchmark.")
    parser.add_argument("--objects", type=int, default=DEFAULT_OBJECTS,
                        help=f"base overlay size (default {DEFAULT_OBJECTS})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--inserts-per-side", type=int, default=2,
                        help="split-era inserts per side per cycle (default 2)")
    parser.add_argument("--queries-per-side", type=int, default=12,
                        help="stable-phase queries per side (default 12)")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON bench record here")
    args = parser.parse_args(argv)

    record = run_partition_merge(num_objects=args.objects, seed=args.seed,
                                 inserts_per_side=args.inserts_per_side,
                                 queries_per_side=args.queries_per_side)
    for name, s in record["scenarios"].items():
        print(f"{name}: converged={s['converged']} "
              f"parity={s['oracle_view_parity']} "
              f"collisions={s['id_collisions_resolved']} "
              f"t_converge={s['time_to_converge_max']:.1f} "
              f"stable={s['availability']['stable_success_rate']:.2f} "
              f"degraded={s['availability']['degraded_success_rate']:.2f} "
              f"({s['seconds']:.2f}s)")
    print(f"converged_fraction={record['converged_fraction']} "
          f"stable_min={record['stable_success_rate_min']} "
          f"t_converge_max={record['time_to_converge_max']:.1f}")
    if args.output is not None:
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"record written to {args.output}")
    return 0 if record_passes(record) else 1


if __name__ == "__main__":
    sys.exit(main())
