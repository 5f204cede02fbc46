"""Unified benchmark-regression gate.

One entry point replaces the per-benchmark ``--min-*`` flag soup in CI:
every registered benchmark runs at smoke scale, its correctness exit code
is enforced, and its gated metrics are compared against **floors derived
from the committed canonical records** (``BENCH_*.json``) instead of
hand-maintained constants::

    floor(metric) = canonical_value x tolerance

The tolerance absorbs two effects at once — noisy shared CI runners and
the smoke workloads being orders of magnitude smaller than the canonical
ones (constant factors bite harder at small N).  Each tolerance is chosen
so the floor lands at or above the bar the old hand-rolled flags set; the
difference is that the floors now *track the canonical records*: landing
a faster canonical run automatically raises every derived floor, with no
second set of numbers to keep in sync.

Usage::

    python benchmarks/check_bench.py --report /tmp/bench-report.json
    python benchmarks/check_bench.py --only shard_scale routing

The report lists every check (smoke value, canonical value, tolerance,
derived floor, verdict) and is uploaded as a CI artifact; the exit code
is non-zero when any benchmark fails its correctness checks or lands
under a derived floor.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent

if __name__ == "__main__":  # script mode: benches import repro + each other
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    sys.path.insert(0, str(BENCH_DIR))


@dataclass(frozen=True)
class Floor:
    """One gated metric: dotted path into the record plus its tolerance."""

    metric: str
    tolerance: float

    def resolve(self, record: dict) -> float:
        value = record
        for part in self.metric.split("."):
            value = value[part]
        return float(value)


@dataclass(frozen=True)
class Bench:
    """One registered benchmark: how to run it, what to gate on."""

    name: str
    module: str
    canonical: str
    argv: Tuple[str, ...]
    floors: Tuple[Floor, ...]


#: Every CI-gated benchmark.  ``argv`` is the smoke-scale workload (the
#: canonical records are produced by each script's defaults); tolerances
#: are calibrated so the derived floors match or exceed the bars the old
#: per-step ``--min-*`` flags encoded (see module docstring).
REGISTRY: Tuple[Bench, ...] = (
    Bench("bulk_build", "bench_bulk_build", "BENCH_bulk_build.json",
          ("--objects", "400"),
          # kernel_rebuild: objects re-inserted per second by rebuild() at
          # the largest scaling row (10x --objects: N=4000 here, 5*10^4 in
          # the record).  Linear, so the smoke value sits at or above the
          # canonical ~29 k/s; 0.3 puts the floor at ~8.8 k/s: 3.4x under
          # it for a loaded runner, and over the ~7 k/s a rebuild that
          # re-inserts with one fixed hint reads at N=4000.
          (Floor("speedup", 0.25),
           Floor("kernel_rebuild.objects_per_s", 0.30))),
    Bench("routing_cache", "bench_routing", "BENCH_routing.json",
          ("--objects", "400", "--pairs", "400"),
          # Warm throughput rises at smoke scale (shorter routes: ~74k/s
          # here against the canonical 49k/s at N=5000).  0.3 puts the
          # floor at ~15k/s: 5x headroom for loaded CI runners, and over
          # the ~9k/s per-hop view assembly reaches at this scale.
          (Floor("routes_per_second_cached", 0.30),)),
    Bench("protocol_bulk_join", "bench_protocol_bulk_join",
          "BENCH_protocol_bulk_join.json",
          ("--objects", "400"),
          (Floor("speedup", 0.30),)),
    Bench("protocol_churn", "bench_protocol_churn", "BENCH_protocol_churn.json",
          ("--objects", "300", "--crash-fraction", "0.1",
           "--max-repair-rounds", "6"),
          (Floor("steady_state_liveness.reduction", 0.50),)),
    Bench("engine", "bench_engine", "BENCH_engine.json",
          ("--objects", "500", "--churn-ops", "60", "--repeat", "2"),
          (Floor("optimized_messages_per_sec", 0.10),)),
    Bench("shard_scale", "bench_shard_scale", "BENCH_shard_scale.json",
          ("--sizes", "4000", "16000", "--warm-tables", "500",
           "--churn-events", "10", "--pairs", "2000"),
          # Canonical survival at N=10^6 is 0.9998; at the 16k smoke
          # scale the coarser shard grid yields ~0.99.  0.9 puts the
          # floor at ~0.9: under honest smoke runs, far over the ~0.05
          # a broken per-shard invalidation would produce.
          (Floor("warm_table_survival_at_largest", 0.9),)),
    Bench("serving", "bench_serving", "BENCH_serving.json",
          ("--objects", "2500", "--queries", "5000",
           "--protocol-objects", "200", "--protocol-queries", "600",
           "--parity-objects", "120", "--parity-queries", "300"),
          # The exit code already enforces correctness (twin parity, 100%
          # served).  The floors gate the headline numbers: sustained
          # oracle-plane throughput (0.05 leaves room for loaded CI
          # runners; a broken batcher would fall orders of magnitude) and
          # the uniform-workload success rate tracking canonical 1.0.
          (Floor("systems.voronet.uniform.wall_qps", 0.05),
           Floor("systems.voronet.uniform.success_rate", 0.99))),
    Bench("partition_merge", "bench_partition_merge",
          "BENCH_partition_merge.json",
          ("--objects", "48", "--queries-per-side", "6"),
          # The exit code already enforces the hard bar (every scenario
          # converged, oracle/routing parity, zero stable-phase misses);
          # the floors pin the two headline metrics against the
          # canonical record so a silently weakened matrix still fails.
          (Floor("converged_fraction", 1.0),
           Floor("stable_success_rate_min", 1.0))),
)


def run_bench(bench: Bench, smoke_dir: Path) -> dict:
    """Run one benchmark at smoke scale and evaluate its derived floors."""
    canonical = json.loads((BENCH_DIR / bench.canonical).read_text())
    smoke_path = smoke_dir / f"bench_{bench.name}_smoke.json"
    module = importlib.import_module(bench.module)
    exit_code = module.main(list(bench.argv) + ["--output", str(smoke_path)])
    result = {
        "name": bench.name,
        "exit_code": exit_code,
        "checks": [],
        "pass": exit_code == 0,
    }
    if not smoke_path.exists():
        result["pass"] = False
        result["error"] = "benchmark wrote no smoke record"
        return result
    smoke = json.loads(smoke_path.read_text())
    for floor in bench.floors:
        canonical_value = floor.resolve(canonical)
        smoke_value = floor.resolve(smoke)
        bar = canonical_value * floor.tolerance
        ok = smoke_value >= bar
        result["checks"].append({
            "metric": floor.metric,
            "smoke": smoke_value,
            "canonical": canonical_value,
            "tolerance": floor.tolerance,
            "floor": round(bar, 4),
            "pass": ok,
        })
        result["pass"] = result["pass"] and ok
    return result


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``python benchmarks/check_bench.py``."""
    parser = argparse.ArgumentParser(
        description="Run every registered benchmark at smoke scale and gate "
                    "on floors derived from the canonical BENCH_*.json records.")
    parser.add_argument("--only", nargs="+", default=None,
                        metavar="NAME", choices=[b.name for b in REGISTRY],
                        help="restrict to these benchmarks")
    parser.add_argument("--report", type=Path, default=None,
                        help="write the JSON gate report here")
    parser.add_argument("--smoke-dir", type=Path, default=Path("/tmp/bench-smoke"),
                        help="directory for the smoke bench records")
    args = parser.parse_args(argv)

    selected = [b for b in REGISTRY if args.only is None or b.name in args.only]
    args.smoke_dir.mkdir(parents=True, exist_ok=True)
    results: List[dict] = []
    for bench in selected:
        print(f"=== {bench.name}")
        results.append(run_bench(bench, args.smoke_dir))
        outcome = "PASS" if results[-1]["pass"] else "FAIL"
        for check in results[-1]["checks"]:
            print(f"    {check['metric']}: {check['smoke']:.4g} "
                  f"(floor {check['floor']:.4g} = canonical "
                  f"{check['canonical']:.4g} x {check['tolerance']}) "
                  f"{'ok' if check['pass'] else 'UNDER FLOOR'}")
        print(f"    [{outcome}]")
    report = {"results": results, "pass": all(r["pass"] for r in results)}
    if args.report is not None:
        args.report.write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {args.report}")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
