"""Unit tests for per-object state (ObjectNode and its long-link records)."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import VoroNet, VoroNetConfig
from repro.core.errors import DuplicateObjectError
from repro.core.node import NO_CLOSE_NEIGHBORS, ObjectNode
from repro.simulation.failures import CrashInjector
from repro.utils.rng import RandomSource


@pytest.fixture
def node():
    return ObjectNode(object_id=7, position=(0.4, 0.6))


class TestLongLinks:
    def test_set_long_link(self, node):
        node.set_long_link(0, target=(0.9, 0.9), neighbor=3, position=(0.8, 0.7))
        assert node.long_links == (((0.9, 0.9), 3, (0.8, 0.7)),)
        assert node.long_link_neighbors() == [3]

    def test_a_gap_is_refused(self, node):
        """No caller leaves a gap, so no placeholder fills one: a slot past
        the next one is an error, and the links stay as they were."""
        node.set_long_link(0, target=(0.9, 0.9), neighbor=3, position=(0.8, 0.7))
        before = node.long_links
        with pytest.raises(IndexError):
            node.set_long_link(2, target=(0.1, 0.1), neighbor=5, position=(0.2, 0.2))
        assert node.long_links is before

    def test_next_index_allocates_only_the_link(self, node):
        """Appending and replacing: the next index adds exactly its record,
        with no placeholder, and a replaced slot keeps its neighbours."""
        node.set_long_link(0, target=(0.9, 0.9), neighbor=3, position=(0.8, 0.7))
        node.set_long_link(1, target=(0.2, 0.1), neighbor=4, position=(0.3, 0.1))
        node.set_long_link(0, target=(0.3, 0.3), neighbor=6, position=(0.3, 0.4))
        assert node.long_links == (((0.3, 0.3), 6, (0.3, 0.4)),
                                   ((0.2, 0.1), 4, (0.3, 0.1)))

    def test_retarget_long_link(self, node):
        node.set_long_link(0, target=(0.9, 0.9), neighbor=3, position=(0.8, 0.7))
        node.retarget_long_link(0, 11, (0.95, 0.85))
        assert node.long_links == (((0.9, 0.9), 11, (0.95, 0.85)),)

    def test_a_node_without_links_holds_the_empty_tuple(self, node):
        assert node.long_links == ()


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

    def test_a_node_without_close_neighbours_holds_the_sentinel(self, node):
        assert node.close_neighbors is NO_CLOSE_NEIGHBORS
        node.add_close_neighbor(7)
        node.add_close_neighbors(set())
        assert node.close_neighbors is NO_CLOSE_NEIGHBORS
        node.add_close_neighbors({3, 4})
        node.add_close_neighbor(5)
        assert type(node.close_neighbors) is set and node.close_neighbors == {3, 4, 5}
        for close_id in (3, 4, 5):
            node.discard_close_neighbor(close_id)
        assert node.close_neighbors is NO_CLOSE_NEIGHBORS
        node.add_close_neighbor(6)
        node.clear_close_neighbors()
        assert node.close_neighbors is NO_CLOSE_NEIGHBORS
        assert NO_CLOSE_NEIGHBORS == frozenset()

    def test_nodes_never_share_a_close_set(self):
        a = ObjectNode(object_id=1, position=(0.1, 0.1))
        b = ObjectNode(object_id=2, position=(0.2, 0.2))
        a.add_close_neighbor(2)
        b.add_close_neighbor(1)
        assert a.close_neighbors is not b.close_neighbors


class TestViewSize:
    def test_view_size_counts_everything(self, node):
        node.set_long_link(0, (0.9, 0.9), 3, (0.8, 0.7))
        node.add_back_link(4, 0, (0.2, 0.2))
        node.add_close_neighbor(5)
        assert node.view_size(voronoi_neighbor_count=6) == 6 + 1 + 1 + 1

    def test_view_size_empty(self, node):
        assert node.view_size(voronoi_neighbor_count=0) == 0


#: A 10⁻⁴ lattice over the unit square; with ``d_min`` = 0.2 about one object
#: in eight is a close neighbour of any other.
coordinate = st.integers(min_value=0, max_value=10**4).map(lambda v: v / 10**4)
point = st.tuples(coordinate, coordinate)


class CloseSentinelMachine(RuleBasedStateMachine):
    """Joins, leaves, crashes with repair and bulk loads never mutate the
    shared empty close set, never share a mutable one, and leave the
    sentinel wherever the last close neighbour left."""

    def __init__(self):
        super().__init__()
        self.overlay = VoroNet(VoroNetConfig(n_max=8, d_min=0.2, allow_overflow=True, seed=5))
        self.injector = CrashInjector(self.overlay, RandomSource(5))

    def _pick(self, token):
        ids = self.overlay.object_ids()
        return ids[token % len(ids)]

    @rule(position=point)
    def insert(self, position):
        try:
            self.overlay.insert(position)
        except DuplicateObjectError:
            pass

    @precondition(lambda self: len(self.overlay) > 0)
    @rule(positions=st.lists(point, min_size=1, max_size=6, unique=True))
    def bulk_load(self, positions):
        try:
            self.overlay.bulk_load(positions)
        except DuplicateObjectError:
            pass

    @precondition(lambda self: len(self.overlay) > 1)
    @rule(token=st.integers(min_value=0))
    def remove(self, token):
        self.overlay.remove(self._pick(token))

    @precondition(lambda self: len(self.overlay) > 1)
    @rule(token=st.integers(min_value=0))
    def crash_and_repair(self, token):
        self.injector.crash(self._pick(token))
        self.injector.repair()

    @invariant()
    def close_sets_are_sound(self):
        assert type(NO_CLOSE_NEIGHBORS) is frozenset and not NO_CLOSE_NEIGHBORS
        owned = set()
        for node in self.overlay.nodes():
            close = node.close_neighbors
            if not close:
                assert close is NO_CLOSE_NEIGHBORS
                continue
            assert type(close) is set
            assert id(close) not in owned
            owned.add(id(close))
        assert self.overlay.check_consistency() == []


TestCloseSentinel = CloseSentinelMachine.TestCase
TestCloseSentinel.settings = settings(max_examples=30, stateful_step_count=25, deadline=None)
