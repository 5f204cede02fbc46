"""Unit tests for the robust geometric predicates."""

import math
from fractions import Fraction

import pytest

from repro.geometry.predicates import (
    circumcenter,
    circumradius,
    collinear,
    incircle,
    orient2d,
    point_in_polygon,
    point_in_triangle,
    segment_contains,
    triangle_area,
)


class TestOrient2d:
    def test_counterclockwise(self):
        assert orient2d((0, 0), (1, 0), (0, 1)) == 1

    def test_clockwise(self):
        assert orient2d((0, 0), (0, 1), (1, 0)) == -1

    def test_collinear(self):
        assert orient2d((0, 0), (0.5, 0.5), (1, 1)) == 0

    def test_antisymmetry(self):
        a, b, c = (0.1, 0.7), (0.4, 0.2), (0.9, 0.9)
        assert orient2d(a, b, c) == -orient2d(b, a, c)

    def test_cyclic_invariance(self):
        a, b, c = (0.1, 0.7), (0.4, 0.2), (0.9, 0.9)
        assert orient2d(a, b, c) == orient2d(b, c, a) == orient2d(c, a, b)

    def test_near_degenerate_uses_exact_path(self):
        # Points nearly collinear: the float determinant is ~1e-17 but the
        # exact sign is well defined and must be stable.
        a = (0.1, 0.1)
        b = (0.3, 0.3)
        c = (0.5, 0.5 + 1e-18)
        result = orient2d(a, b, c)
        # Exact rational evaluation of the same determinant.
        ax, ay, bx, by, cx, cy = map(Fraction, (*a, *b, *c))
        det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        expected = 1 if det > 0 else (-1 if det < 0 else 0)
        assert result == expected

    def test_exactly_collinear_large_coordinates(self):
        assert orient2d((1e9, 1e9), (2e9, 2e9), (3e9, 3e9)) == 0


class TestIncircle:
    def test_point_inside(self):
        # Unit circle through (1,0), (0,1), (-1,0); origin is inside.
        assert incircle((1, 0), (0, 1), (-1, 0), (0, 0)) == 1

    def test_point_outside(self):
        assert incircle((1, 0), (0, 1), (-1, 0), (0, -5)) == -1

    def test_point_on_circle_is_zero(self):
        assert incircle((1, 0), (0, 1), (-1, 0), (0, -1)) == 0

    def test_orientation_flip_changes_sign(self):
        inside = incircle((1, 0), (0, 1), (-1, 0), (0, 0))
        flipped = incircle((0, 1), (1, 0), (-1, 0), (0, 0))
        assert inside == -flipped

    def test_near_cocircular_is_deterministic(self):
        a, b, c = (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)
        d_in = (0.0, -1.0 + 1e-13)
        d_out = (0.0, -1.0 - 1e-13)
        assert incircle(a, b, c, d_in) == 1
        assert incircle(a, b, c, d_out) == -1

    def test_underflowing_products_are_decided_exactly(self):
        """Subnormal coordinate differences: the products underflow, the
        float determinant reads +5e-324 where the exact one is negative."""
        tiny = 5e-324
        a, b, c, d = (tiny, 0.4), (tiny, 0.6), (0.0, 0.8), (0.0, 0.0)
        assert incircle(a, b, c, d) == -1


class TestCircumcircle:
    def test_circumcenter_equidistant(self):
        a, b, c = (0.1, 0.2), (0.9, 0.3), (0.4, 0.8)
        center = circumcenter(a, b, c)
        da = math.dist(center, a)
        db = math.dist(center, b)
        dc = math.dist(center, c)
        assert da == pytest.approx(db)
        assert db == pytest.approx(dc)

    def test_circumcenter_of_collinear_is_none(self):
        assert circumcenter((0, 0), (1, 1), (2, 2)) is None

    def test_circumradius_right_triangle(self):
        # Right triangle: circumradius is half the hypotenuse.
        assert circumradius((0, 0), (2, 0), (0, 2)) == pytest.approx(math.sqrt(2))

    def test_circumradius_collinear_is_infinite(self):
        assert circumradius((0, 0), (1, 1), (2, 2)) == math.inf


class TestContainmentHelpers:
    def test_point_in_triangle_interior(self):
        assert point_in_triangle((0.3, 0.3), (0, 0), (1, 0), (0, 1))

    def test_point_in_triangle_boundary(self):
        assert point_in_triangle((0.5, 0.0), (0, 0), (1, 0), (0, 1))

    def test_point_outside_triangle(self):
        assert not point_in_triangle((0.9, 0.9), (0, 0), (1, 0), (0, 1))

    def test_point_in_triangle_either_orientation(self):
        assert point_in_triangle((0.3, 0.3), (0, 0), (0, 1), (1, 0))

    def test_triangle_area(self):
        assert triangle_area((0, 0), (1, 0), (0, 1)) == pytest.approx(0.5)

    def test_segment_contains_strict(self):
        assert segment_contains((0, 0), (1, 1), (0.5, 0.5))
        assert not segment_contains((0, 0), (1, 1), (0, 0))
        assert not segment_contains((0, 0), (1, 1), (2, 2))

    def test_segment_contains_inclusive(self):
        assert segment_contains((0, 0), (1, 1), (0, 0), strict=False)

    def test_segment_contains_requires_collinearity(self):
        assert not segment_contains((0, 0), (1, 1), (0.5, 0.6))

    def test_collinear_helper(self):
        assert collinear((0, 0), (1, 2), (2, 4))
        assert not collinear((0, 0), (1, 2), (2, 4.001))


class TestPointInPolygon:
    SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

    def test_interior_and_exterior(self):
        assert point_in_polygon((0.5, 0.5), self.SQUARE)
        assert not point_in_polygon((1.5, 0.5), self.SQUARE)
        assert not point_in_polygon((0.5, -0.1), self.SQUARE)

    def test_boundary_points_are_inside_by_default(self):
        """Regression: the bare ray cast called on-edge points outside."""
        assert point_in_polygon((1.0, 0.5), self.SQUARE)   # right edge
        assert point_in_polygon((0.5, 0.0), self.SQUARE)   # bottom edge
        assert point_in_polygon((0.0, 0.25), self.SQUARE)  # left edge
        assert point_in_polygon((0.0, 0.0), self.SQUARE)   # vertex
        assert point_in_polygon((1.0, 1.0), self.SQUARE)   # vertex

    def test_boundary_exclusion_opt_out(self):
        assert not point_in_polygon((1.0, 0.5), self.SQUARE,
                                    include_boundary=False)
        assert point_in_polygon((0.5, 0.5), self.SQUARE,
                                include_boundary=False)

    def test_non_convex_polygon(self):
        arrow = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (1.0, 0.5), (0.0, 2.0)]
        assert point_in_polygon((0.2, 0.3), arrow)
        assert not point_in_polygon((1.0, 1.5), arrow)  # inside the notch
        assert point_in_polygon((1.0, 0.5), arrow)      # notch vertex

    def test_empty_polygon(self):
        assert not point_in_polygon((0.5, 0.5), [])
