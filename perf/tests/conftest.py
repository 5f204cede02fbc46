"""Shared smoke runs: every workload at N = 300, once per kind of run.

The runs are cached for the session; together they take a few seconds.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Dict, Tuple

import pytest

from perf import workloads
from perf.inputs import Sizes
from perf.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
SEED = 11

SMOKE_SIZES = Sizes(
    objects=300,
    route_pairs=40,
    warm_passes=3,
    churn_rounds=2,
    churn_ops_per_round=4,
    churn_routes_per_round=15,
    serve_queries=60,
    heal_cycles=1,
    crashes_per_cycle=6,
)

SMOKE = {
    name: replace(workload, sizes=SMOKE_SIZES) for name, workload in workloads.WORKLOADS.items()
}


@pytest.fixture(scope="session")
def declared() -> Dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="session")
def untraced() -> Dict[str, Dict]:
    return {name: workloads.run(workload, SEED) for name, workload in SMOKE.items()}


@pytest.fixture(scope="session")
def traced() -> Dict[str, Tuple[Dict, Tracer]]:
    runs = {}
    for name, workload in SMOKE.items():
        tracer = Tracer()
        runs[name] = (workloads.run(workload, SEED, tracer=tracer), tracer)
    return runs
