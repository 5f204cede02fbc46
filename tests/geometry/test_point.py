"""Unit tests for repro.geometry.point."""


import numpy as np
import pytest

from repro.geometry.point import (
    as_point,
    centroid,
    distance,
    distance_sq,
    distances_to,
    lerp,
    midpoint,
    nearly_equal,
    pairwise_distances,
    points_to_array,
)


class TestBasicOperations:
    def test_distance_matches_hypot(self):
        assert distance((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)

    def test_distance_is_symmetric(self):
        a, b = (0.12, 0.93), (0.7, 0.01)
        assert distance(a, b) == pytest.approx(distance(b, a))

    def test_distance_sq_is_square_of_distance(self):
        a, b = (0.3, 0.4), (0.9, 0.1)
        assert distance_sq(a, b) == pytest.approx(distance(a, b) ** 2)

    def test_zero_distance_to_self(self):
        p = (0.5, 0.5)
        assert distance(p, p) == 0.0
        assert distance_sq(p, p) == 0.0

    def test_midpoint(self):
        assert midpoint((0.0, 0.0), (1.0, 1.0)) == (0.5, 0.5)

    def test_lerp_endpoints_and_middle(self):
        a, b = (0.0, 1.0), (1.0, 3.0)
        assert lerp(a, b, 0.0) == a
        assert lerp(a, b, 1.0) == b
        assert lerp(a, b, 0.5) == (0.5, 2.0)

    def test_as_point_coerces_to_floats(self):
        assert as_point([1, 2]) == (1.0, 2.0)

    def test_as_point_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            as_point((1.0, 2.0, 3.0))

    def test_nearly_equal(self):
        assert nearly_equal((0.1, 0.2), (0.1 + 1e-14, 0.2))
        assert not nearly_equal((0.1, 0.2), (0.11, 0.2))


class TestVectorisedHelpers:
    def test_points_to_array_shape(self):
        array = points_to_array([(0.1, 0.2), (0.3, 0.4)])
        assert array.shape == (2, 2)

    def test_points_to_array_empty(self):
        assert points_to_array([]).shape == (0, 2)

    def test_points_to_array_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            points_to_array([(1.0, 2.0, 3.0)])

    def test_distances_to_matches_scalar(self):
        points = np.array([[0.0, 0.0], [0.3, 0.4], [1.0, 1.0]])
        target = (0.0, 0.0)
        expected = [distance(tuple(p), target) for p in points]
        np.testing.assert_allclose(distances_to(points, target), expected)

    def test_pairwise_distances_symmetry_and_diagonal(self):
        points = np.random.default_rng(0).random((20, 2))
        matrix = pairwise_distances(points)
        assert matrix.shape == (20, 20)
        np.testing.assert_allclose(matrix, matrix.T)
        np.testing.assert_allclose(np.diag(matrix), 0.0)

    def test_centroid(self):
        assert centroid([(0.0, 0.0), (1.0, 0.0), (0.5, 1.5)]) == (0.5, 0.5)

    def test_centroid_empty_raises(self):
        with pytest.raises(ValueError):
            centroid([])
