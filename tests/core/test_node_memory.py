"""What an oracle object costs, measured with ``tracemalloc``.

``VoroNet.bulk_load`` of 20 000 uniform points keeps 1 419 B per object:
the node, its links and registrations, its share of the kernel, the locate
grid and the routing cache (1 443 B while each link was a slotted object in
a per-node list).  Before the nodes were slotted, shared their position
tuple with the kernel and the grid, held the shared empty close set and the
introducer index became an array, it kept 1 836 B, and fails this guard.
Tracing every allocation makes this test slow (~5 s).
"""

import gc
import sys
import tracemalloc

import numpy as np

from repro.core import VoroNet, VoroNetConfig
from repro.core.node import NO_CLOSE_NEIGHBORS, ObjectNode
from repro.utils.rng import RandomSource
from repro.workloads.distributions import PowerLawDistribution
from repro.workloads.generators import generate_objects

OBJECTS = 20_000
BYTES_PER_OBJECT = 1_600
#: The summed ``sys.getsizeof`` of the close sets after the power-law load
#: below, when every node held a set of its own (all built by ``set()`` then
#: ``|=``).  Assigning ``set(found)`` instead reads 31.4 MB.
CLOSE_SET_BYTES = 19_792_512


def overlay_for(count):
    return VoroNet(VoroNetConfig(n_max=count * 5 // 4, num_long_links=1, seed=7))


def test_bulk_load_keeps_at_most_1600_bytes_per_object():
    points = [tuple(p) for p in np.random.default_rng(7).random((OBJECTS, 2)).tolist()]
    overlay = overlay_for(OBJECTS)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        overlay.bulk_load(points)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(overlay) == OBJECTS
    assert grown / OBJECTS <= BYTES_PER_OBJECT, grown / OBJECTS


def test_nodes_and_links_have_no_instance_dict():
    """A node is slotted; its links are plain tuples of atomics and tuples."""
    node = ObjectNode(object_id=1, position=(0.5, 0.5))
    node.set_long_link(0, (0.1, 0.1), 1, node.position)
    assert not hasattr(node, "__dict__")
    assert type(node.long_links) is tuple
    assert [type(link) for link in node.long_links] == [tuple]


def test_skewed_close_sets_are_no_larger_than_before():
    points = generate_objects(PowerLawDistribution(2.0), 2_000, RandomSource(7))
    overlay = overlay_for(len(points))
    overlay.bulk_load(points)
    close_sets = {id(node.close_neighbors): node.close_neighbors for node in overlay.nodes()}
    assert NO_CLOSE_NEIGHBORS in close_sets.values()
    assert sum(map(sys.getsizeof, close_sets.values())) <= CLOSE_SET_BYTES


def test_no_node_keeps_its_long_links_on_the_collectors_books():
    """A node's links are a tuple of atomics and tuples of atomics, which
    the collector untracks: after a bulk load and two full collections no
    link tuple, and no link, is tracked."""
    points = [tuple(p) for p in np.random.default_rng(11).random((2_000, 2)).tolist()]
    overlay = overlay_for(len(points))
    overlay.bulk_load(points)
    gc.collect()
    gc.collect()
    assert [node.object_id for node in overlay.nodes()
            if gc.is_tracked(node.long_links)
            or any(map(gc.is_tracked, node.long_links))] == []
