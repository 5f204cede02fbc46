"""Unit tests for the Kleinberg grid model."""

import pytest

from repro.baselines.kleinberg import KleinbergGrid
from repro.utils.rng import RandomSource


@pytest.fixture
def grid():
    return KleinbergGrid(12, exponent=2.0, rng=RandomSource(5))


class TestConstruction:
    def test_size(self, grid):
        assert grid.size == 144

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            KleinbergGrid(1)
        with pytest.raises(ValueError):
            KleinbergGrid(8, long_links_per_node=-1)

    def test_every_node_has_long_links(self, grid):
        for row in range(grid.n):
            for col in range(grid.n):
                contacts = grid.long_range_contacts((row, col))
                assert len(contacts) == 1
                assert contacts[0] != (row, col)

    def test_multiple_long_links(self):
        grid = KleinbergGrid(8, long_links_per_node=3, rng=RandomSource(1))
        assert len(grid.long_range_contacts((4, 4))) == 3

    def test_zero_long_links(self):
        grid = KleinbergGrid(8, long_links_per_node=0, rng=RandomSource(1))
        assert grid.long_range_contacts((4, 4)) == []


class TestLattice:
    def test_corner_has_two_lattice_neighbors(self, grid):
        assert len(grid.lattice_neighbors((0, 0))) == 2

    def test_edge_has_three(self, grid):
        assert len(grid.lattice_neighbors((0, 5))) == 3

    def test_interior_has_four(self, grid):
        assert len(grid.lattice_neighbors((5, 5))) == 4

    def test_lattice_distance(self):
        assert KleinbergGrid.lattice_distance((0, 0), (3, 4)) == 7

    def test_contains(self, grid):
        assert grid.contains((0, 0))
        assert not grid.contains((12, 0))
        assert not grid.contains((-1, 3))


class TestRouting:
    def test_route_to_self_is_zero_hops(self, grid):
        result = grid.greedy_route((3, 3), (3, 3), record_path=True)
        assert result.hops == 0 and result.path == ((3, 3),)

    def test_route_always_succeeds(self, grid):
        rng = RandomSource(9)
        for _ in range(60):
            source = (rng.integer(0, grid.n), rng.integer(0, grid.n))
            target = (rng.integer(0, grid.n), rng.integer(0, grid.n))
            result = grid.greedy_route(source, target, record_path=True)
            assert result.path[-1] == target

    def test_route_never_longer_than_lattice_distance(self, grid):
        rng = RandomSource(10)
        for _ in range(60):
            source = (rng.integer(0, grid.n), rng.integer(0, grid.n))
            target = (rng.integer(0, grid.n), rng.integer(0, grid.n))
            result = grid.greedy_route(source, target)
            assert result.hops <= KleinbergGrid.lattice_distance(source, target)

    def test_route_path_recording(self, grid):
        result = grid.greedy_route((0, 0), (11, 11), record_path=True)
        assert result.path[0] == (0, 0)
        assert result.path[-1] == (11, 11)
        assert len(result.path) == result.hops + 1

    def test_route_rejects_outside_nodes(self, grid):
        with pytest.raises(ValueError):
            grid.greedy_route((0, 0), (50, 50))

    def test_mean_route_length_positive(self, grid):
        assert grid.mean_route_length(40, RandomSource(2)) > 0

    def test_long_links_reduce_mean_route_length(self):
        """The small-world effect: with s=2 long links, routes are much shorter
        than the lattice-only baseline on average."""
        rng = RandomSource(4)
        with_links = KleinbergGrid(20, exponent=2.0, long_links_per_node=1,
                                   rng=RandomSource(4))
        without_links = KleinbergGrid(20, exponent=2.0, long_links_per_node=0,
                                      rng=RandomSource(4))
        assert with_links.mean_route_length(120, rng) < \
            without_links.mean_route_length(120, rng)
