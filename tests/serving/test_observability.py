"""Load imbalance summaries and windowed throughput snapshots."""

import numpy as np
import pytest

from repro.serving.observability import LoadTracker, WindowTracker


class TestLoadTracker:
    def test_even_load_gini_zero(self):
        tracker = LoadTracker(population=10)
        for node in range(10):
            tracker.record(node, 5)
        assert tracker.gini() == pytest.approx(0.0)
        assert tracker.max_mean() == pytest.approx(1.0)

    def test_one_hot_load_gini_extreme(self):
        tracker = LoadTracker(population=20)
        tracker.record(3, 100)
        # All mass on one of n nodes: Gini = (n-1)/n.
        assert tracker.gini() == pytest.approx(19 / 20)
        assert tracker.max_mean() == pytest.approx(20.0)

    def test_population_zeros_count(self):
        # Same observed counts, very different imbalance stories.
        small = LoadTracker(population=4)
        big = LoadTracker(population=400)
        for tracker in (small, big):
            for node in range(4):
                tracker.record(node, 10)
        assert small.gini() == pytest.approx(0.0)
        assert big.gini() > 0.9

    def test_record_path(self):
        tracker = LoadTracker(population=5)
        tracker.record_path([0, 1, 2])
        tracker.record_path([1, 2, 3])
        assert tracker.counts == {0: 1, 1: 2, 2: 2, 3: 1}
        assert tracker.total == 6

    def test_record_path_counts_like_one_record_per_node(self):
        rng = np.random.default_rng(5)
        paths = [rng.integers(0, 30, size=rng.integers(0, 12)).tolist()
                 for _ in range(200)]
        by_path, by_node = LoadTracker(population=30), LoadTracker(population=30)
        for path in paths:
            by_path.record_path(tuple(path))
            for node_id in path:
                by_node.record(node_id)
        assert list(by_path.counts.items()) == list(by_node.counts.items())
        assert by_path.total == by_node.total
        assert by_path.summary() == by_node.summary()

    def test_empty_tracker(self):
        tracker = LoadTracker(population=10)
        assert tracker.gini() == 0.0
        assert tracker.max_mean() == 0.0
        summary = tracker.summary()
        assert summary["total"] == 0.0
        assert summary["nodes_hit"] == 0.0

    def test_summary_fields(self):
        tracker = LoadTracker(population=4)
        tracker.record(0, 6)
        tracker.record(1, 2)
        summary = tracker.summary()
        assert summary["total"] == 8.0
        assert summary["nodes_hit"] == 2.0
        assert summary["max"] == 6.0
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["max_mean"] == pytest.approx(3.0)


class TestWindowTracker:
    def test_windows_flush_on_boundary(self):
        tracker = WindowTracker(window=10.0)
        tracker.observe(1.0, hops=4, latency=4.0)
        tracker.observe(5.0, hops=6, latency=6.0)
        tracker.observe(12.0, hops=2, latency=2.0)
        rows = tracker.finish()
        assert len(rows) == 2
        assert rows[0]["queries"] == 2.0
        assert rows[0]["qps"] == pytest.approx(0.2)
        assert rows[0]["mean_hops"] == pytest.approx(5.0)
        assert rows[1]["queries"] == 1.0

    def test_empty_windows_emit_zero_rows(self):
        tracker = WindowTracker(window=5.0)
        tracker.observe(0.0, hops=1, latency=1.0)
        tracker.observe(22.0, hops=1, latency=1.0)
        rows = tracker.finish()
        assert len(rows) == 5
        assert [row["queries"] for row in rows[1:4]] == [0.0, 0.0, 0.0]
        assert rows[1]["qps"] == 0.0

    def test_first_window_aligned(self):
        tracker = WindowTracker(window=10.0)
        tracker.observe(27.0, hops=3, latency=3.0)
        rows = tracker.finish()
        assert rows[0]["start"] == 20.0
        assert rows[0]["end"] == 30.0

    def test_time_must_not_go_backwards(self):
        tracker = WindowTracker(window=10.0)
        tracker.observe(15.0, hops=1, latency=1.0)
        with pytest.raises(ValueError):
            tracker.observe(3.0, hops=1, latency=1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowTracker(window=0.0)
