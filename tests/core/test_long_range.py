"""Unit tests for the Choose-LRT long-range target sampler.

Choose-LRT has two forms: the scalar sampler a join draws from, and the
array form a bulk load draws from.  Every distribution test runs on both
(:func:`both_forms`)."""

import math

import numpy as np
import pytest

from repro.core.long_range import (
    choose_long_range_target,
    choose_long_range_target_array,
    expected_link_count_in_disk,
    link_length_density,
    target_area_density,
)
from repro.utils.rng import RandomSource


def both_forms(position, d_min, count, seed):
    """``count`` targets around ``position`` from each form in turn: the
    scalar sampler called ``count`` times, then one row of the array form."""
    rng = RandomSource(seed)
    yield [choose_long_range_target(position, d_min, rng) for _ in range(count)]
    row = choose_long_range_target_array(np.array([position]), d_min, count,
                                         RandomSource(seed))[0]
    yield [(float(x), float(y)) for x, y in row]


class TestChooseTarget:
    def test_length_within_support(self):
        d_min = 0.01
        for targets in both_forms((0.5, 0.5), d_min, 500, 1):
            for target in targets:
                length = math.dist((0.5, 0.5), target)
                assert d_min - 1e-12 <= length <= math.sqrt(2) + 1e-12

    def test_target_may_leave_unit_square(self):
        for targets in both_forms((0.05, 0.05), 0.01, 500, 2):
            outside = sum(not (0 <= x <= 1 and 0 <= y <= 1) for x, y in targets)
            assert outside > 0  # corners frequently shoot outside, as the paper allows

    def test_invalid_d_min_raises(self):
        rng = RandomSource(3)
        with pytest.raises(ValueError):
            choose_long_range_target((0.5, 0.5), 0.0, rng)
        with pytest.raises(ValueError):
            choose_long_range_target((0.5, 0.5), 2.0, rng)

    def test_deterministic_given_seed(self):
        a = choose_long_range_target((0.5, 0.5), 0.01, RandomSource(9))
        b = choose_long_range_target((0.5, 0.5), 0.01, RandomSource(9))
        assert a == b

    def test_lengths_are_log_uniform(self):
        """The log of the link length must be (approximately) uniform."""
        d_min = 0.001
        lo, hi = math.log(d_min), math.log(math.sqrt(2))
        # Compare quartiles of the empirical distribution with the uniform ones.
        expected_quartiles = lo + (hi - lo) * np.array([0.25, 0.5, 0.75])
        for targets in both_forms((0.5, 0.5), d_min, 4000, 4):
            logs = [math.log(math.dist((0.5, 0.5), target)) for target in targets]
            observed_quartiles = np.percentile(logs, [25, 50, 75])
            np.testing.assert_allclose(observed_quartiles, expected_quartiles, atol=0.12)

    def test_angles_are_uniform(self):
        for targets in both_forms((0.5, 0.5), 0.01, 4000, 5):
            angles = [math.atan2(y - 0.5, x - 0.5) for x, y in targets]
            quadrants = np.histogram(angles, bins=4, range=(-math.pi, math.pi))[0]
            assert quadrants.min() > 0.8 * quadrants.max()


class TestBatchSampling:
    """The array form's shape and argument checks."""

    def test_count(self):
        positions = np.array([(0.5, 0.5), (0.1, 0.9), (0.3, 0.2)])
        targets = choose_long_range_target_array(positions, 0.01, 10, RandomSource(1))
        assert targets.shape == (3, 10, 2)

    def test_zero_count(self):
        targets = choose_long_range_target_array(np.array([(0.5, 0.5)]), 0.01, 0,
                                                 RandomSource(1))
        assert targets.shape == (1, 0, 2)

    def test_invalid_d_min(self):
        with pytest.raises(ValueError):
            choose_long_range_target_array(np.array([(0.5, 0.5)]), 0.0, 3, RandomSource(1))

    def test_batch_lengths_within_support(self):
        positions = np.array([(0.2, 0.8), (0.9, 0.1)])
        targets = choose_long_range_target_array(positions, 0.05, 200, RandomSource(2))
        for position, row in zip(positions, targets):
            for target in row:
                length = math.dist(position, target)
                assert 0.05 - 1e-12 <= length <= math.sqrt(2) + 1e-12


class TestDensities:
    def test_link_length_density_integrates_to_one(self):
        d_min = 0.01
        xs = np.linspace(d_min, math.sqrt(2), 20000)
        ys = [link_length_density(x, d_min) for x in xs]
        assert np.trapezoid(ys, xs) == pytest.approx(1.0, rel=1e-3)

    def test_density_zero_outside_support(self):
        assert link_length_density(0.001, 0.01) == 0.0
        assert link_length_density(2.0, 0.01) == 0.0

    def test_area_density_inverse_square(self):
        d_min = 0.01
        near = target_area_density(0.1, d_min)
        far = target_area_density(0.2, d_min)
        assert near / far == pytest.approx(4.0)

    def test_lemma3_bound_distance_independent(self):
        d_min = 0.01
        assert expected_link_count_in_disk(0.1, 1 / 6, d_min) == pytest.approx(
            expected_link_count_in_disk(0.7, 1 / 6, d_min))

    def test_lemma3_bound_positive_and_small(self):
        bound = expected_link_count_in_disk(0.3, 1 / 6, 0.01)
        assert 0.0 < bound < 1.0

    def test_empirical_hit_rate_respects_lemma3_bound(self):
        """The probability of the target landing in a remote disk is at least
        the Lemma 3 lower bound."""
        d_min = 0.01
        source = (0.2, 0.2)
        center = (0.7, 0.7)
        r = math.dist(source, center)
        fraction = 1 / 6
        radius = fraction * r
        samples = 8000
        bound = expected_link_count_in_disk(r, fraction, d_min)
        for targets in both_forms(source, d_min, samples, 6):
            hits = sum(math.dist(target, center) <= radius for target in targets)
            assert hits / samples >= bound * 0.8  # generous slack for sampling noise
