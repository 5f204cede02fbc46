"""Unit tests for repro.geometry.point."""


import numpy as np
import pytest

from repro.core import VoroNet, VoroNetConfig
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
from repro.simulation.protocol import ProtocolSimulator


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

    def test_as_point_keeps_a_float_pair(self):
        point = (0.25, 0.5)
        assert as_point(point) is point

    @pytest.mark.parametrize("value", [
        [0.25, 0.5],
        (1, 2),
        (0.25, 2),
        (np.float64(0.25), np.float64(0.5)),
        np.array([0.25, 0.5]),
    ])
    def test_as_point_coerces_anything_else_into_a_fresh_tuple(self, value):
        point = as_point(value)
        assert point is not value
        assert type(point) is tuple
        assert [type(coordinate) for coordinate in point] == [float, float]
        assert point == (float(value[0]), float(value[1]))

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


class TestOnePositionTuplePerObject:
    """The node, the kernel and the locate grid hold the same tuple."""

    @staticmethod
    def assert_shared(nodes, kernel, locate, ids):
        for object_id in ids:
            position = nodes[object_id].position
            assert kernel.point(object_id) is position
            assert locate._points[object_id] is position

    def test_oracle(self):
        overlay = VoroNet(VoroNetConfig(n_max=200, seed=3))
        points = [tuple(p) for p in np.random.default_rng(3).random((40, 2)).tolist()]
        ids = overlay.bulk_load(points[:30])
        ids += overlay.bulk_load(np.random.default_rng(4).random((5, 2)))
        ids.append(overlay.insert(points[30]))
        ids.append(overlay.insert([0.123, 0.456]))
        assert overlay.position_of(ids[0]) is points[0]
        assert overlay.position_of(ids[-2]) is points[30]
        self.assert_shared(overlay._nodes, overlay.triangulation, overlay.locate_index, ids)

    def test_protocol(self):
        sim = ProtocolSimulator(VoroNetConfig(n_max=200, seed=3), seed=3)
        points = [tuple(p) for p in np.random.default_rng(3).random((40, 2)).tolist()]
        ids = list(sim.bulk_join(points[:30]).object_ids)
        ids.append(sim.join(points[30]).object_id)
        ids.append(sim.join([0.123, 0.456]).object_id)
        assert sim.nodes[ids[0]].position is points[0]
        self.assert_shared(sim.nodes, sim.kernel, sim.locate, ids)
