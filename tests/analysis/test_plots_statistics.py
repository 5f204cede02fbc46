"""Unit tests for ASCII plotting helpers."""

import pytest

from repro.analysis.plots import ascii_histogram, ascii_series, format_table


class TestAsciiHistogram:
    def test_empty(self):
        assert "empty" in ascii_histogram({})

    def test_contains_every_value(self):
        output = ascii_histogram({4: 10, 6: 80, 8: 5})
        assert "4" in output and "6" in output and "8" in output

    def test_bar_lengths_proportional(self):
        output = ascii_histogram({1: 10, 2: 50}, width=50)
        lines = output.splitlines()
        bar_1 = lines[1].count("#")
        bar_2 = lines[2].count("#")
        assert bar_2 > bar_1

    def test_zero_count_has_no_bar(self):
        output = ascii_histogram({1: 0, 2: 5})
        assert output.splitlines()[1].count("#") == 0


class TestAsciiSeries:
    def test_empty(self):
        assert "empty" in ascii_series([], [])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ascii_series([1, 2], [1])

    def test_contains_markers_and_ranges(self):
        output = ascii_series([1, 2, 3], [10, 20, 30], x_label="N", y_label="hops")
        assert "*" in output
        assert "N" in output and "hops" in output

    def test_flat_series(self):
        output = ascii_series([1, 2, 3], [5, 5, 5])
        assert "*" in output


class TestFormatTable:
    def test_alignment_and_floats(self):
        table = format_table(["name", "value"], [["a", 1.23456], ["bb", 2.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "1.23" in table
        assert "2.00" in table

    def test_empty_rows(self):
        table = format_table(["x"], [])
        assert len(table.splitlines()) == 2
