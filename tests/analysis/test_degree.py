"""Unit tests for degree-distribution analysis."""

import pytest

from repro.analysis.degree import degree_summary, merge_histograms


class TestDegreeSummary:
    def test_empty_histogram(self):
        summary = degree_summary({})
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_basic_statistics(self):
        summary = degree_summary({5: 10, 6: 30, 7: 10})
        assert summary.count == 50
        assert summary.mean == pytest.approx(6.0)
        assert summary.mode == 6
        assert summary.min_degree == 5
        assert summary.max_degree == 7

    def test_std_of_constant_histogram_is_zero(self):
        assert degree_summary({6: 100}).std == 0.0

    def test_fraction_between(self):
        summary = degree_summary({4: 10, 5: 20, 6: 30, 7: 40})
        assert summary.fraction_between(5, 6) == pytest.approx(0.5)

    def test_zero_counts_dropped(self):
        summary = degree_summary({5: 0, 6: 10})
        assert summary.min_degree == 6

    def test_overlay_histogram_round_trip(self, small_overlay):
        summary = degree_summary(small_overlay.degree_histogram())
        assert summary.count == len(small_overlay)
        assert 4.0 < summary.mean < 6.5


class TestMergeHistograms:
    def test_merge(self):
        merged = merge_histograms([{5: 2, 6: 3}, {6: 1, 7: 4}])
        assert merged == {5: 2, 6: 4, 7: 4}

    def test_merge_empty(self):
        assert merge_histograms([]) == {}
        assert merge_histograms([{}, {3: 1}]) == {3: 1}
