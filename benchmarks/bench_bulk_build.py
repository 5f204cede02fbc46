"""Benchmark BULK — bulk construction vs sequential routed joins.

Measures how much faster :meth:`VoroNet.bulk_load` builds an overlay than
``insert_many`` (N greedy-routed joins from random introducers, the paper's
join protocol), and verifies the fast path produces the same structure:
identical Voronoi adjacency, a clean ``check_consistency()`` report, and
agreement with the scipy reference triangulation.

The record's ``kernel_rebuild`` block times the geometry kernel's
whole-point-set path — :meth:`DelaunayTriangulation.rebuild`, what every
departing hull vertex pays — next to ``bulk_insert`` of the same points,
on the overlay's own point set and at 2x, 4x and 10x its size (the two
share one Morton-sorted insertion loop, so the ratio should stay near 1
and the objects/s flat).

Two entry points:

* ``pytest benchmarks/bench_bulk_build.py`` — the pytest-benchmark wrapper
  used alongside the other benchmarks (workload scaled by
  ``REPRO_BENCH_SCALE``);
* ``python benchmarks/bench_bulk_build.py --objects 5000 --output
  benchmarks/BENCH_bulk_build.json`` — the standalone runner that emits the
  JSON bench record tracking the perf trajectory (exits non-zero when the
  structural checks fail, so CI smoke runs catch regressions).
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
from repro.geometry.delaunay import DelaunayTriangulation
from repro.geometry.scipy_backend import adjacency_of, compare_with_scipy
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_position_array

#: Overlay size of the canonical record (the acceptance-criterion scale).
DEFAULT_OBJECTS = 5000
DEFAULT_SEED = 4242
#: Kernel sizes of the ``kernel_rebuild.scaling`` rows, as multiples of the
#: overlay size (5k/10k/20k/50k at the default; the x1 row regenerates the
#: overlay's own point set).
REBUILD_SCALES = (1, 2, 4, 10)


def run_kernel_rebuild(num_objects: int, seed: int) -> dict:
    """Time ``rebuild()`` against ``bulk_insert`` of the same points, per size."""
    scaling = []
    adjacency_unchanged = True
    for scale in REBUILD_SCALES:
        points = [tuple(p) for p in generate_position_array(
            UniformDistribution(), scale * num_objects, RandomSource(seed))]
        kernel = DelaunayTriangulation()
        started = time.perf_counter()
        kernel.bulk_insert(points)
        seconds_bulk_insert = time.perf_counter() - started
        adjacency = adjacency_of(kernel)
        started = time.perf_counter()
        kernel.rebuild()
        seconds_rebuild = time.perf_counter() - started
        adjacency_unchanged &= adjacency_of(kernel) == adjacency
        scaling.append({
            "objects": len(points),
            "bulk_insert_seconds": round(seconds_bulk_insert, 4),
            "rebuild_seconds": round(seconds_rebuild, 4),
            "objects_per_s": round(len(points) / seconds_rebuild, 1),
            "rebuild_over_bulk_insert": round(
                seconds_rebuild / seconds_bulk_insert, 2),
        })
    return {
        # The gated number: the largest row is where a rebuild that walks
        # from one corner (O(sqrt N) per point) falls furthest behind.
        "objects_per_s": scaling[-1]["objects_per_s"],
        "adjacency_unchanged": adjacency_unchanged,
        "scaling": scaling,
    }


def run_bulk_build(num_objects: int = DEFAULT_OBJECTS, seed: int = DEFAULT_SEED,
                   num_long_links: int = 1) -> dict:
    """Build the same overlay sequentially and in bulk; return the record."""
    positions = generate_position_array(
        UniformDistribution(), num_objects, RandomSource(seed))
    config = VoroNetConfig(n_max=4 * num_objects,
                           num_long_links=num_long_links, seed=seed)

    started = time.perf_counter()
    sequential = VoroNet(config)
    sequential.insert_many([tuple(p) for p in positions])
    seconds_sequential = time.perf_counter() - started

    started = time.perf_counter()
    bulk = VoroNet(config)
    bulk.bulk_load(positions)
    seconds_bulk = time.perf_counter() - started

    problems = bulk.check_consistency()
    scipy_mismatches = compare_with_scipy(bulk.triangulation)
    adjacency_identical = (adjacency_of(sequential.triangulation)
                           == adjacency_of(bulk.triangulation))
    return {
        "benchmark": "bulk_build",
        "objects": num_objects,
        "num_long_links": num_long_links,
        "seed": seed,
        "seconds_sequential": round(seconds_sequential, 4),
        "seconds_bulk": round(seconds_bulk, 4),
        "speedup": round(seconds_sequential / seconds_bulk, 2),
        "consistency_problems": len(problems),
        "scipy_adjacency_mismatches": len(scipy_mismatches),
        "adjacency_identical_to_sequential": adjacency_identical,
        "kernel_rebuild": run_kernel_rebuild(num_objects, seed),
    }


def structure_ok(record: dict) -> bool:
    """The record's correctness checks (what the exit code reflects)."""
    return (record["consistency_problems"] == 0
            and record["scipy_adjacency_mismatches"] == 0
            and record["adjacency_identical_to_sequential"]
            and record["kernel_rebuild"]["adjacency_unchanged"])


def format_bulk_build(record: dict) -> str:
    """One-paragraph human rendering of a bench record."""
    rebuild = record["kernel_rebuild"]
    rows = "".join(
        f"\n  rebuild @ {row['objects']}: {row['rebuild_seconds']:.3f}s "
        f"({row['objects_per_s']:.0f} obj/s, "
        f"{row['rebuild_over_bulk_insert']:.2f}x bulk_insert)"
        for row in rebuild["scaling"])
    return (
        f"Bulk build @ {record['objects']} objects "
        f"(k={record['num_long_links']}): "
        f"sequential {record['seconds_sequential']:.2f}s, "
        f"bulk {record['seconds_bulk']:.2f}s — {record['speedup']:.1f}x; "
        f"consistency problems: {record['consistency_problems']}, "
        f"scipy mismatches: {record['scipy_adjacency_mismatches']}, "
        f"adjacency identical: {record['adjacency_identical_to_sequential']}; "
        f"kernel rebuild adjacency unchanged: "
        f"{rebuild['adjacency_unchanged']}{rows}"
    )


def test_bulk_build_speedup(benchmark, bench_scale):
    """Bulk construction beats sequential joins and matches their structure."""
    from conftest import run_once

    num_objects = max(1000, int(round(DEFAULT_OBJECTS * bench_scale)))
    record = run_once(benchmark, run_bulk_build, num_objects=num_objects)
    print()
    print(format_bulk_build(record))
    benchmark.extra_info.update(record)

    assert structure_ok(record)
    # The canonical 5000-object record shows >5x; leave headroom for small
    # scales and noisy CI machines.
    assert record["speedup"] >= 3.0


def main(argv=None) -> int:
    """Entry point of ``python benchmarks/bench_bulk_build.py``."""
    parser = argparse.ArgumentParser(
        description="Benchmark VoroNet.bulk_load against sequential insert_many.")
    parser.add_argument("--objects", type=int, default=DEFAULT_OBJECTS,
                        help=f"overlay size (default {DEFAULT_OBJECTS})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--long-links", type=int, default=1)
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON bench record here")
    args = parser.parse_args(argv)

    record = run_bulk_build(num_objects=args.objects, seed=args.seed,
                            num_long_links=args.long_links)
    print(format_bulk_build(record))
    if args.output is not None:
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"record written to {args.output}")
    # Exit code reflects the *correctness* checks only: the speedup is a
    # recorded measurement (noisy at tiny --objects), asserted against its
    # threshold by the pytest-benchmark wrapper at controlled scale.
    return 0 if structure_ok(record) else 1


if __name__ == "__main__":
    sys.exit(main())
