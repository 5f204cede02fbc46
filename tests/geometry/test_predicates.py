"""Unit tests for the robust geometric predicates."""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import predicates
from repro.geometry.predicates import (
    _DISTANCE_ERRBOUND,
    DISTANCE_FLOOR,
    circumcenter,
    circumradius,
    collinear,
    exact_hop,
    greedy_hop,
    settle,
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


def exact_distance(point, target):
    dx = Fraction(point[0]) - Fraction(target[0])
    dy = Fraction(point[1]) - Fraction(target[1])
    return dx * dx + dy * dy


#: Coordinates a few ulps apart: float distances from such points tie or
#: fall within the error bound of each other.
near = st.integers(-4, 4).map(lambda steps: 0.3 + steps * math.ulp(0.3))
crowded = st.tuples(near, st.sampled_from([0.01, 0.1, 0.3, 0.7]))


class TestGreedyHop:
    """The descent rule: a hop only to an exactly nearer candidate."""

    def test_a_clearly_nearer_candidate_is_the_hop(self):
        assert greedy_hop((0.0, 0.0), (1.0, 0.0), [(7, 0.9, 0.0), (5, 0.5, 0.0)]) == 5

    def test_without_a_nearer_candidate_the_descent_stops(self):
        assert greedy_hop((0.0, 0.0), (0.5, 0.0), [(7, 0.9, 0.0), (5, 0.0, -0.6)]) is None
        assert greedy_hop((0.0, 0.0), (0.5, 0.0), []) is None

    def test_the_first_of_equal_minima_wins(self):
        """Listed in id order, that is the lowest id."""
        candidates = [(4, -0.5, 0.0), (9, 0.5, 0.0), (11, 0.0, 0.5)]
        assert greedy_hop((0.0, 0.0), (2.0, 0.0), candidates) == 4

    def test_a_binary64_tie_is_settled_exactly(self):
        """``0.5 - 0.010000000000000002 == 0.5 - 0.01`` in binary64."""
        target, holder, candidate = (0.5, 0.125), (0.01, 0.01), (0.010000000000000002, 0.01)
        holder_d = (holder[0] - target[0]) ** 2 + (holder[1] - target[1]) ** 2
        candidate_d = (candidate[0] - target[0]) ** 2 + (candidate[1] - target[1]) ** 2
        assert holder_d == candidate_d
        assert exact_distance(candidate, target) < exact_distance(holder, target)
        assert greedy_hop(target, holder, [(2, *candidate)]) == 2
        assert greedy_hop(target, candidate, [(3, *holder)]) is None

    def test_a_candidate_exactly_as_far_as_the_holder_is_no_hop(self):
        assert greedy_hop((0.0, 0.0), (1.0, 0.0), [(2, -1.0, 0.0), (3, 0.0, 1.0)]) is None

    def test_underflowed_squares_are_compared_exactly(self):
        target, holder, candidate = (0.0, 0.0), (1e-200, 0.0), (5e-201, 0.0)
        assert holder[0] * holder[0] == candidate[0] * candidate[0] == 0.0
        assert greedy_hop(target, holder, [(1, *candidate)]) == 1
        assert greedy_hop(target, candidate, [(1, *holder)]) is None

    def test_a_holder_on_its_target_takes_no_exact_path(self):
        """Distance 0 is not a near-tie: a route ending on its own
        destination decides on floats alone."""
        target = (0.25, 0.75)
        with mock.patch.object(predicates, "exact_hop", side_effect=AssertionError):
            assert greedy_hop(target, target, [(1, 0.25, 0.7500000000000001),
                                               (2, 0.5, 0.5)]) is None

    def test_exact_hop_prefers_the_lowest_id_among_exact_minima(self):
        candidates = [(9, 0.5, 0.0), (4, -0.5, 0.0), (6, 0.0, 0.5), (2, 0.9, 0.0)]
        assert exact_hop((0.0, 0.0), (1.0, 0.0), candidates) == (4, -0.5, 0.0)
        assert exact_hop((0.0, 0.0), (0.5, 0.0), candidates) is None

    def test_settle_reports_the_hop_with_its_float_distance(self):
        """A clear hop passes through, the candidates unread; a near-tie is
        re-decided, and the distance carried on is the new hop's."""
        unread = iter(())
        assert settle(5, 0.25, 1.0, (0.0, 0.0), (1.0, 0.0), unread) == (5, 0.25)
        assert settle(None, 1.0, 1.0, (0.0, 0.0), (1.0, 0.0), unread) == (None, 1.0)
        target, holder, candidate = (0.5, 0.125), (0.01, 0.01), (0.010000000000000002, 0.01)
        holder_d = (holder[0] - target[0]) ** 2 + (holder[1] - target[1]) ** 2
        records = [(3, 0.9, 0.9), (2, *candidate)]
        assert settle(2, holder_d, holder_d, target, holder, records) == (2, holder_d)
        assert settle(2, holder_d, holder_d, target, candidate, [(3, *holder)]) \
            == (None, holder_d)

    @settings(max_examples=300, deadline=None)
    @given(target=crowded, holder=crowded,
           candidates=st.lists(crowded, max_size=6, unique=True))
    def test_every_hop_is_exactly_nearer(self, target, holder, candidates):
        """Against rationals: ``None`` exactly when no candidate is nearer
        than the holder, else an exactly nearer candidate — so a descent
        stops only at an exact owner."""
        records = [(index, x, y) for index, (x, y) in enumerate(candidates)]
        hop = greedy_hop(target, holder, records)
        holder_d = exact_distance(holder, target)
        distances = [exact_distance(point, target) for point in candidates]
        if not any(d < holder_d for d in distances):
            assert hop is None
        else:
            assert hop is not None and distances[hop] < holder_d

    @settings(max_examples=300, deadline=None)
    @given(point=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
           target=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)))
    def test_the_error_bound_covers_one_float_distance(self, point, target):
        """What the filter's ``NEARER`` / ``FARTHER`` margins rest on."""
        dx, dy = point[0] - target[0], point[1] - target[1]
        exact = exact_distance(point, target)
        error = abs(Fraction(dx * dx + dy * dy) - exact)
        assert error <= _DISTANCE_ERRBOUND * exact + Fraction(DISTANCE_FLOOR) * _DISTANCE_ERRBOUND
