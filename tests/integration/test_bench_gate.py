"""Tier-1 gate of the committed benchmark records.

``benchmarks/`` keeps the records ``perf/`` cannot produce: the
partition-merge parity matrix, the protocol-churn damage/repair census,
the serving shoot-out and the N = 10⁶ cache-scale datum.  Each script is
re-run here at smoke scale through its one entry point, ``main(argv)``;
the gate is its exit code (the script's own correctness bar) plus the
record's *deterministic* metrics held to floors derived from the committed
canonical record::

    floor(metric) = canonical_value x tolerance

Wall-clock numbers are not gated here — throughput belongs to the paired
``perf/compare.py`` runs against ``BENCHMARK.json``.
"""

import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))


@dataclass(frozen=True)
class Gate:
    """One gated record: the smoke workload and (metric path, tolerance) floors."""

    name: str
    argv: Tuple[str, ...]
    floors: Tuple[Tuple[str, float], ...]

    @property
    def module(self):
        return importlib.import_module(f"bench_{self.name}")

    @property
    def canonical(self) -> dict:
        return json.loads((BENCH_DIR / f"BENCH_{self.name}.json").read_text())


def resolve(record: dict, metric: str) -> float:
    """Follow a dotted path into a record."""
    value = record
    for part in metric.split("."):
        value = value[part]
    return float(value)


GATES = (
    # Every scenario converged, every side served every stable-phase query.
    Gate("partition_merge", ("--objects", "48", "--queries-per-side", "6"),
         (("converged_fraction", 1.0), ("stable_success_rate_min", 1.0))),
    # The liveness policy's absolute steady-state cost: 0.550 member-rounds
    # per PING/PONG at the canonical N=1000 (1.82 messages per member-round),
    # 0.577 on this overlay.  Probing every reference every round sends
    # ~8x more and reads ~0.07.
    Gate("protocol_churn",
         ("--objects", "300", "--crash-fraction", "0.1", "--max-repair-rounds", "6"),
         (("steady_state_liveness.member_rounds_per_message", 0.9),)),
    Gate("serving",
         ("--objects", "2500", "--queries", "5000",
          "--protocol-objects", "200", "--protocol-queries", "600",
          "--parity-objects", "120", "--parity-queries", "300"),
         (("systems.voronet.uniform.success_rate", 0.99), ("twin_parity.parity", 1.0))),
    # Exact invalidation leaves 0.9994 of the pool warm at 16k (0.3
    # rebuilds per event; canonical at N=10^6: 1.0).  The per-shard epochs
    # it replaced read 0.9912 here (4.4 per event) and fail this floor.
    Gate("cache_scale",
         ("--sizes", "4000", "16000", "--warm-tables", "500",
          "--churn-events", "10", "--pairs", "2000"),
         (("warm_table_survival_at_largest", 0.998),)),
)


@pytest.fixture(params=GATES, ids=lambda gate: gate.name)
def bench(request):
    return request.param


class TestRegistryContract:
    def test_canonical_record_exists(self, bench):
        assert bench.canonical.get("benchmark") == bench.name

    def test_gated_metrics_resolve_in_canonical(self, bench):
        canonical = bench.canonical
        for metric, _ in bench.floors:
            assert resolve(canonical, metric) > 0, (bench.name, metric)

    def test_canonical_clears_its_own_floor(self, bench):
        for metric, tolerance in bench.floors:
            assert 0.0 < tolerance <= 1.0, (bench.name, metric)

    def test_bench_module_importable_with_main(self, bench):
        """One entry point per script: ``main(argv)`` and no pytest twin."""
        names = vars(bench.module)
        assert callable(names.get("main"))
        assert not [name for name in names if name.startswith("test_")]

    def test_smoke_run_clears_the_floors(self, bench, tmp_path):
        smoke_path = tmp_path / f"BENCH_{bench.name}.json"
        assert bench.module.main([*bench.argv, "--output", str(smoke_path)]) == 0
        smoke = json.loads(smoke_path.read_text())
        canonical = bench.canonical
        for metric, tolerance in bench.floors:
            floor = resolve(canonical, metric) * tolerance
            assert resolve(smoke, metric) >= floor, (bench.name, metric)


class TestFloorResolution:
    def test_nested_metric_paths(self):
        assert resolve({"a": {"b": {"c": 4.0}}}, "a.b.c") == 4.0
        with pytest.raises(KeyError):
            resolve({"a": {}}, "a.b.c")

    def test_registry_names_unique(self):
        names = [gate.name for gate in GATES]
        assert len(names) == len(set(names))


def test_every_file_in_benchmarks_is_gated():
    expected = {"README.md"}
    for gate in GATES:
        expected |= {f"bench_{gate.name}.py", f"BENCH_{gate.name}.json"}
    assert {path.name for path in BENCH_DIR.iterdir()
            if path.name != "__pycache__"} == expected
