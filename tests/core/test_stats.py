"""Unit tests for operation statistics."""

import pytest

from repro.core.stats import OperationStats, OverlayStats


class TestOperationStats:
    def test_empty_stats(self):
        stats = OperationStats()
        assert stats.count == 0
        assert stats.mean_hops == 0.0
        assert stats.mean_messages == 0.0

    def test_record_accumulates(self):
        stats = OperationStats()
        stats.record(hops=3, messages=10)
        stats.record(hops=5, messages=20)
        assert stats.count == 2
        assert stats.mean_hops == 4.0
        assert stats.mean_messages == 15.0
        assert stats.max_hops == 5
        assert stats.max_messages == 20

    def test_record_many_equals_sequential_records(self):
        """A batch of routes: one operation per entry, one message per hop."""
        batched, sequential = OperationStats(), OperationStats()
        for stats in (batched, sequential):
            stats.record(9, 30)  # an earlier maximum must survive
        for hops in ([3, 0, 12, 5], [], [7], [10, 10]):
            batched.record_many(hops)
            for route_hops in hops:
                sequential.record(route_hops, route_hops)
            assert batched == sequential

    def test_record_repeated_equals_sequential_records(self):
        """A batch of operations of one cost."""
        batched, sequential = OperationStats(), OperationStats()
        for stats in (batched, sequential):
            stats.record(9, 30)  # an earlier maximum must survive
        for count, hops, messages in ((3, 12, 40), (0, 50, 50), (5, 0, 1)):
            batched.record_repeated(count, hops, messages)
            for _ in range(count):
                sequential.record(hops, messages)
            assert batched == sequential

    def test_as_dict_keys(self):
        stats = OperationStats()
        stats.record(1, 2)
        d = stats.as_dict()
        assert set(d) == {"count", "mean_hops", "max_hops", "mean_messages",
                          "max_messages"}


class TestOverlayStats:
    def test_groups_present(self):
        stats = OverlayStats()
        assert set(stats.as_dict()) == {
            "joins", "leaves", "routes", "queries", "long_link_searches",
            "routing_table_rebuilds", "operation_timeouts",
            "operation_retries", "kernel_rebuilds", "query_misses"}

    def test_reset(self):
        stats = OverlayStats()
        stats.joins.record(3, 5)
        stats.routing_table_rebuilds = 7
        stats.operation_timeouts = 2
        stats.operation_retries = 1
        stats.kernel_rebuilds = 1
        stats.reset()
        assert stats.joins.count == 0
        assert stats.routing_table_rebuilds == 0
        assert stats.operation_timeouts == 0
        assert stats.operation_retries == 0
        assert stats.kernel_rebuilds == 0

    def test_describe_is_human_readable(self):
        stats = OverlayStats()
        stats.routes.record(7, 7)
        lines = stats.describe()
        assert len(lines) == 10
        assert any("routes" in line for line in lines)
        assert any("routing_table_rebuilds" in line for line in lines)

    def test_a_mistyped_counter_raises(self, small_overlay):
        with pytest.raises(AttributeError):
            small_overlay.stats.no_such_counter = 1
