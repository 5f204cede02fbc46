"""Unit tests for per-object state (ObjectNode, LongLink)."""

import pytest

from repro.core.node import ObjectNode


@pytest.fixture
def node():
    return ObjectNode(object_id=7, position=(0.4, 0.6))


class TestLongLinks:
    def test_set_long_link(self, node):
        node.set_long_link(0, target=(0.9, 0.9), neighbor=3)
        assert node.long_links[0].target == (0.9, 0.9)
        assert node.long_link_neighbors() == [3]

    def test_set_long_link_extends_list(self, node):
        node.set_long_link(2, target=(0.1, 0.1), neighbor=5)
        assert len(node.long_links) == 3
        assert node.long_links[2].neighbor == 5

    def test_retarget_long_link(self, node):
        node.set_long_link(0, target=(0.9, 0.9), neighbor=3)
        node.retarget_long_link(0, 11)
        assert node.long_links[0].neighbor == 11
        assert node.long_links[0].target == (0.9, 0.9)


class TestBackLinks:
    def test_add_and_remove(self, node):
        node.add_back_link(source=3, link_index=0, target=(0.5, 0.5))
        assert node.back_link_sources() == {3}
        node.remove_back_link(3, 0)
        assert node.back_link_sources() == set()

    def test_remove_only_matching_index(self, node):
        node.add_back_link(3, 0, (0.5, 0.5))
        node.add_back_link(3, 1, (0.6, 0.6))
        node.remove_back_link(3, 0)
        assert node.back_links == {(3, 1): (0.6, 0.6)}

    def test_remove_missing_is_noop(self, node):
        node.remove_back_link(99, 0)
        assert node.back_links == {}


class TestCloseNeighbors:
    def test_add_close_neighbor(self, node):
        node.add_close_neighbor(12)
        assert node.close_neighbors == {12}

    def test_add_self_is_ignored(self, node):
        node.add_close_neighbor(7)
        assert node.close_neighbors == set()

    def test_discard_close_neighbor(self, node):
        node.add_close_neighbor(12)
        node.discard_close_neighbor(12)
        node.discard_close_neighbor(99)  # absent: no error
        assert node.close_neighbors == set()


class TestViewSize:
    def test_view_size_counts_everything(self, node):
        node.set_long_link(0, (0.9, 0.9), 3)
        node.add_back_link(4, 0, (0.2, 0.2))
        node.add_close_neighbor(5)
        assert node.view_size(voronoi_neighbor_count=6) == 6 + 1 + 1 + 1

    def test_view_size_empty(self, node):
        assert node.view_size(voronoi_neighbor_count=0) == 0
