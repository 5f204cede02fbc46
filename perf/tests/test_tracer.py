"""Self time, parent and operation ids, and clean removal of the wrappers."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from perf import layers, workloads
from perf.tests.conftest import SEED, SMOKE
from perf.tracer import Tracer


class FakeClock:
    """Advances only when told to, so span arithmetic is exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_is_duration_minus_covered_child_time():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.spend(2.0)

    traced_leaf = tracer.wrap(leaf, "leaf")

    def middle():
        clock.spend(1.0)
        traced_leaf()
        traced_leaf()
        clock.spend(0.5)

    traced_middle = tracer.wrap(middle, "middle")
    with tracer.span("root"):
        clock.spend(0.25)
        traced_middle()
        traced_leaf()

    assert tracer.totals() == {"leaf": (3, 6.0), "middle": (1, 1.5), "root": (1, 0.25)}
    spans = tracer.spans()
    root = spans.ids[spans.parents == -1]
    assert len(root) == 1
    assert tracer.self_times(spans).sum() == pytest.approx(7.75)


def test_recursive_spans_do_not_double_count():
    clock = FakeClock()
    tracer = Tracer(clock)

    def descend(depth: int) -> None:
        clock.spend(1.0)
        if depth:
            traced(depth - 1)

    traced = tracer.wrap(descend, "descend")
    traced(3)
    assert tracer.totals() == {"descend": (4, 4.0)}
    spans = tracer.spans()
    # Each level's parent is the level above; only the outermost has none.
    by_id = dict(zip(spans.ids.tolist(), spans.parents.tolist()))
    assert by_id == {0: -1, 1: 0, 2: 1, 3: 2}


def test_span_is_recorded_when_the_wrapped_call_raises():
    tracer = Tracer(FakeClock())

    def fail():
        raise KeyError("gone")

    with pytest.raises(KeyError):
        tracer.wrap(fail, "fail")()
    assert tracer.totals() == {"fail": (1, 0.0)}
    with tracer.span("after"):
        pass
    assert tracer.spans().parents.tolist() == [-1, -1]


def test_spans_carry_the_announced_operation():
    tracer = Tracer(FakeClock())
    work = tracer.wrap(lambda: None, "work")
    work()
    first = tracer.next_operation()
    work()
    work()
    second = tracer.next_operation()
    work()
    assert tracer.spans().operations.tolist() == [0, first, first, second]


def test_a_target_the_program_no_longer_has_costs_one_metric_not_the_run():
    tracer = Tracer()
    tracer.install(
        [
            ("repro.geometry.locate_grid", "LocateGrid", "no_such_method", "gone.method"),
            ("repro.no_such_module", None, "function", "gone.module"),
        ]
    )
    tracer.uninstall()
    assert tracer.missing == ["gone.method", "gone.module"]
    assert tracer.totals() == {"gone.method": (0, 0.0), "gone.module": (0, 0.0)}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_real_trace_self_times_add_up_to_the_root_spans(name, traced):
    run, tracer = traced[name]
    spans = tracer.spans()
    durations = spans.ends - spans.starts
    roots = spans.parents == -1
    assert tracer.self_times(spans).sum() == pytest.approx(durations[roots].sum(), rel=0.01)

    harness = spans.names == tracer.names.index(layers.HARNESS)
    # Every timed block is a parentless harness span and an operation of its own.
    assert (spans.parents[harness] == -1).all()
    operations = spans.operations[harness]
    assert sorted(operations.tolist()) == list(range(1, len(run["operation_kinds"])))
    # ... and lasts as long as the runner timed it, machine-speed samples included.
    timed_with_ticks = run["raw_timed_s"] + run["ticking_s"]
    assert durations[harness].sum() == pytest.approx(timed_with_ticks, rel=0.01)
    # Spans inside a timed block point at a parent recorded in the same trace
    # and share their root's operation id.
    inside = ~roots
    parent_row = np.empty(spans.ids.max() + 1, dtype=np.int64)
    parent_row[spans.ids] = np.arange(len(spans.ids))
    parents = parent_row[spans.parents[inside]]
    assert (spans.operations[parents] == spans.operations[inside]).all()


def test_wrappers_are_gone_after_the_run(traced):
    for module_name, class_name, attribute, _ in layers.TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        assert not hasattr(vars(owner)[attribute], "__wrapped__"), (module_name, attribute)
    _, tracer = traced["protocol_serve"]
    recorded = len(tracer.spans().ids)
    workloads.run(SMOKE["protocol_serve"], SEED)
    assert len(tracer.spans().ids) == recorded
