"""Unit tests for bounding boxes and polygon clipping."""

import pytest

from repro.geometry.bounding import (
    UNIT_SQUARE,
    BoundingBox,
    clip_polygon_to_box,
    polygon_area,
)
from repro.utils.rng import RandomSource


class TestBoundingBox:
    def test_unit_square_dimensions(self):
        assert UNIT_SQUARE.width == 1.0
        assert UNIT_SQUARE.height == 1.0
        assert UNIT_SQUARE.area == 1.0
        assert UNIT_SQUARE.center == (0.5, 0.5)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(1.0, 0.0, 0.0, 1.0)

    def test_contains_inclusive(self):
        assert UNIT_SQUARE.contains((0.0, 0.0))
        assert UNIT_SQUARE.contains((1.0, 1.0))
        assert not UNIT_SQUARE.contains((1.0001, 0.5))

    def test_contains_with_tolerance(self):
        assert UNIT_SQUARE.contains((1.0001, 0.5), tolerance=0.001)

    def test_expanded(self):
        box = UNIT_SQUARE.expanded(0.5)
        assert box.xmin == -0.5 and box.xmax == 1.5

    def test_sample_inside(self):
        rng = RandomSource(3)
        box = BoundingBox(0.2, 0.3, 0.4, 0.9)
        for _ in range(50):
            assert box.contains(box.sample(rng))


class TestClipping:
    def test_polygon_inside_box_unchanged(self):
        triangle = [(0.2, 0.2), (0.6, 0.2), (0.4, 0.5)]
        clipped = clip_polygon_to_box(triangle, UNIT_SQUARE)
        assert polygon_area(clipped) == pytest.approx(polygon_area(triangle))

    def test_polygon_outside_box_empty(self):
        triangle = [(2.0, 2.0), (3.0, 2.0), (2.5, 3.0)]
        assert clip_polygon_to_box(triangle, UNIT_SQUARE) == []

    def test_half_overlapping_square(self):
        square = [(0.5, 0.25), (1.5, 0.25), (1.5, 0.75), (0.5, 0.75)]
        clipped = clip_polygon_to_box(square, UNIT_SQUARE)
        assert polygon_area(clipped) == pytest.approx(0.25)

    def test_clip_huge_polygon_to_unit_square(self):
        big = [(-10, -10), (10, -10), (10, 10), (-10, 10)]
        clipped = clip_polygon_to_box(big, UNIT_SQUARE)
        assert polygon_area(clipped) == pytest.approx(1.0)

    def test_clip_empty_polygon(self):
        assert clip_polygon_to_box([], UNIT_SQUARE) == []

    def test_polygon_area_shoelace(self):
        assert polygon_area([(0, 0), (1, 0), (1, 1), (0, 1)]) == pytest.approx(1.0)
        assert polygon_area([(0, 0), (1, 0)]) == 0.0
