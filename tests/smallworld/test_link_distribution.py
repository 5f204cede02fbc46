"""Unit tests for the Kleinberg grid's harmonic contact law."""

import numpy as np
import pytest

from repro.baselines.kleinberg import (
    grid_harmonic_weights,
    sample_grid_long_range_contact,
)
from repro.utils.rng import RandomSource


class TestGridWeights:
    def test_self_weight_is_zero(self):
        weights = grid_harmonic_weights(8, (3, 3), exponent=2.0)
        assert weights[3, 3] == 0.0

    def test_weights_decay_with_distance(self):
        weights = grid_harmonic_weights(16, (0, 0), exponent=2.0)
        assert weights[0, 1] > weights[0, 5] > weights[0, 15]

    def test_exponent_zero_is_uniform(self):
        weights = grid_harmonic_weights(8, (4, 4), exponent=0.0)
        nonzero = weights[weights > 0]
        assert np.allclose(nonzero, nonzero[0])

    def test_weight_value_matches_formula(self):
        weights = grid_harmonic_weights(8, (2, 2), exponent=2.0)
        assert weights[2, 5] == pytest.approx(3 ** -2.0)
        assert weights[5, 6] == pytest.approx(7 ** -2.0)


class TestGridSampling:
    def test_contact_is_valid_grid_node(self):
        rng = RandomSource(1)
        for _ in range(50):
            contact = sample_grid_long_range_contact(10, (5, 5), 2.0, rng)
            assert 0 <= contact[0] < 10 and 0 <= contact[1] < 10
            assert contact != (5, 5)

    def test_near_contacts_more_likely(self):
        rng = RandomSource(2)
        near, far = 0, 0
        for _ in range(800):
            contact = sample_grid_long_range_contact(20, (10, 10), 2.0, rng)
            d = abs(contact[0] - 10) + abs(contact[1] - 10)
            if d <= 3:
                near += 1
            elif d >= 10:
                far += 1
        assert near > far

    def test_tiny_grid_raises_when_no_candidate(self):
        rng = RandomSource(3)
        with pytest.raises(ValueError):
            sample_grid_long_range_contact(1, (0, 0), 2.0, rng)
