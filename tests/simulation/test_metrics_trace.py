"""Unit tests for the metrics registry."""

from repro.simulation.metrics import MetricsRegistry


class TestMetricsRegistry:
    def test_counters(self):
        metrics = MetricsRegistry()
        metrics.increment("joins")
        metrics.increment("joins", 2)
        assert metrics.counter("joins") == 3
        assert metrics.counter("unknown") == 0

