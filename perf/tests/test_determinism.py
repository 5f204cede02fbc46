"""A seed fixes the inputs and every simulated statistic; tracing moves neither."""

from __future__ import annotations

import numpy as np
import pytest

from perf import inputs, workloads
from perf.tests.conftest import SEED, SMOKE, SMOKE_SIZES
from perf.tracer import Tracer

WORKLOADS = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_identical_simulated_statistics(name, untraced):
    again = workloads.run(SMOKE[name], SEED)
    first = untraced[name]
    assert again["simulated"] == first["simulated"]
    for exact in ("hops_mean", "messages_per_op"):
        assert repr(again["end_to_end"][exact]) == repr(first["end_to_end"][exact])
    assert (again["attempted"], again["failed"]) == (first["attempted"], first["failed"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracing_leaves_every_simulated_statistic_alone(name, untraced, traced):
    run, _ = traced[name]
    assert run["simulated"] == untraced[name]["simulated"]
    for exact in ("hops_mean", "messages_per_op"):
        assert repr(run["end_to_end"][exact]) == repr(untraced[name]["end_to_end"][exact])


@pytest.mark.parametrize("name", ("oracle_churn", "protocol_faults"))
def test_traced_call_counts_repeat(name, traced):
    run, _ = traced[name]
    again = workloads.run(SMOKE[name], SEED, tracer=Tracer())
    for metric, value in run["per_layer"].items():
        if metric.endswith((".calls", ".samples")) or ".sent." in metric:
            assert again["per_layer"][metric] == value, metric
    assert again["per_layer"]["simulation.faults.repair_rounds_mean"] == (
        run["per_layer"]["simulation.faults.repair_rounds_mean"]
    )


@pytest.mark.parametrize("skew", (None, 2.0))
def test_seed_decides_the_inputs(skew):
    first = inputs.generate(SMOKE_SIZES, skew, "leave", 1)
    assert inputs.generate(SMOKE_SIZES, skew, "leave", 1) == first
    other = inputs.generate(SMOKE_SIZES, skew, "leave", 2)
    assert other.fingerprint != first.fingerprint
    assert other.positions != first.positions


def test_departures_spare_the_hull_except_the_one_asked_for():
    data = inputs.generate(SMOKE_SIZES, None, "leave", 3)
    hull = set(inputs.hull_indices(np.asarray(data.positions)))
    leavers = [victim for churn_round in data.churn for _, victim in churn_round.ops]
    assert not hull & set(leavers)
    assert data.hull_leave in hull
    crashed = [victim for cycle in data.heal for victim in cycle]
    assert len(set(leavers + crashed + [data.hull_leave])) == len(leavers) + len(crashed) + 1

    data = inputs.generate(SMOKE_SIZES, None, "crash", 3)
    assert data.hull_leave is None
    assert data.heal[0][0] in set(inputs.hull_indices(np.asarray(data.positions)))
