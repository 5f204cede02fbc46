"""Unit tests for routing measurement sweeps and the poly-log regression."""

import math

import pytest

from repro.analysis.hops import HopStatistics, measure_routing, sweep_overlay_sizes
from repro.analysis.regression import fit_polylog_exponent
from repro.core import VoroNet
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects


class TestHopStatistics:
    def test_from_hops(self):
        stats = HopStatistics.from_hops([1, 2, 3, 4, 100])
        assert stats.samples == 5
        assert stats.mean == pytest.approx(22.0)
        assert stats.median == 3
        assert stats.maximum == 100

    def test_empty(self):
        stats = HopStatistics.from_hops([], failures=3)
        assert stats.samples == 0
        assert stats.failures == 3


class TestMeasureRouting:
    def test_measure_on_small_overlay(self, small_overlay):
        stats = measure_routing(small_overlay, 50, RandomSource(1))
        assert stats.samples == 50
        assert stats.failures == 0
        assert stats.mean > 0


class TestSweep:
    def test_sweep_checkpoint_sizes(self):
        rng = RandomSource(2)
        positions = generate_objects(UniformDistribution(), 300, rng)
        points = sweep_overlay_sizes(positions, [100, 200, 300], rng, num_pairs=40)
        assert [p.size for p in points] == [100, 200, 300]
        assert all(p.mean_hops > 0 for p in points)
        assert [p.mismatches for p in points] == [0, 0, 0]

    def test_sweep_requires_enough_positions(self):
        rng = RandomSource(3)
        positions = generate_objects(UniformDistribution(), 50, rng)
        with pytest.raises(ValueError):
            sweep_overlay_sizes(positions, [100], rng)

    def test_sweep_needs_checkpoints(self):
        with pytest.raises(ValueError):
            sweep_overlay_sizes([], [], RandomSource(4))

    def test_sweep_hops_grow_with_size(self):
        rng = RandomSource(5)
        positions = generate_objects(UniformDistribution(), 800, rng)
        points = sweep_overlay_sizes(positions, [100, 800], rng, num_pairs=120)
        assert points[-1].mean_hops > points[0].mean_hops


class TestRegression:
    def test_perfect_quadratic_polylog(self):
        sizes = [1000, 3000, 10_000, 30_000, 100_000]
        hops = [0.5 * math.log(n) ** 2 for n in sizes]
        fit = fit_polylog_exponent(sizes, hops)
        assert fit.slope == pytest.approx(2.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_linear_log_gives_slope_one(self):
        sizes = [1000, 3000, 10_000, 30_000]
        hops = [2.0 * math.log(n) for n in sizes]
        fit = fit_polylog_exponent(sizes, hops)
        assert fit.slope == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_polylog_exponent([10], [3.0])
        with pytest.raises(ValueError):
            fit_polylog_exponent([10, 20], [3.0])  # length mismatch
        with pytest.raises(ValueError):
            fit_polylog_exponent([2, 10], [1.0, 2.0])  # size <= e
        with pytest.raises(ValueError):
            fit_polylog_exponent([10, 20], [0.0, 2.0])  # non-positive hops
        with pytest.raises(ValueError):
            fit_polylog_exponent([10, 100], [3.0, -1.0])
