"""Unit tests for the metrics registry and trace recorder."""

import pytest

from repro.simulation.metrics import MetricsRegistry
from repro.simulation.trace import TraceRecorder


class TestMetricsRegistry:
    def test_counters(self):
        metrics = MetricsRegistry()
        metrics.increment("joins")
        metrics.increment("joins", 2)
        assert metrics.counter("joins") == 3
        assert metrics.counter("unknown") == 0


class TestTraceRecorder:
    def test_records_and_filters(self):
        trace = TraceRecorder()
        trace.record(0.0, "send", sender=1)
        trace.record(1.0, "send", sender=2)
        trace.record(2.0, "recv", sender=2)
        assert len(trace) == 3
        assert trace.count("send") == 2
        assert len(trace.records("send", predicate=lambda r: r.details["sender"] == 2)) == 1

    def test_counts_by_kind(self):
        trace = TraceRecorder()
        trace.record(0.0, "send")
        trace.record(1.0, "send")
        trace.record(2.0, "crash")
        assert trace.counts_by_kind() == {"send": 2, "crash": 1}
        assert TraceRecorder().counts_by_kind() == {}

    def test_capacity_eviction(self):
        trace = TraceRecorder(capacity=3)
        for i in range(5):
            trace.record(float(i), "tick")
        assert len(trace) == 3
        assert trace.dropped == 2
        assert [r.time for r in trace] == [2.0, 3.0, 4.0]

    def test_disabled_recorder_drops_everything(self):
        trace = TraceRecorder(enabled=False)
        trace.record(0.0, "tick")
        assert len(trace) == 0
        assert trace.dropped == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_clear(self):
        trace = TraceRecorder()
        trace.record(0.0, "tick")
        trace.clear()
        assert len(trace) == 0
