"""The routing caches allocate nothing the garbage collector keeps tracking.

A cold pass over a fresh overlay builds one routing table per object it
visits.  Each table is one tuple of the kernel's own ``(id, x, y)`` records
(``repro.geometry.delaunay``, "Caches"), held in one entry tuple, and it
reads the kernel's cached star where there is one.  Pinned here, at a size
where a regression shows as a failure rather than as a benchmark number:

* after one cold ``route_many`` batch and a collection, no cached kernel
  star, no routing-table entry and no protocol routing block is tracked by
  the collector (a list, or a copied tuple still holding a tracked item,
  would be);
* every scan-block record *is* the kernel's record for its id: a per-table
  copy fails here;
* the pass walks the star of each object it tables at most once, and only
  where the kernel had none cached; a second pass walks none and builds no
  table.  Walks are counted by wrapping ``star_ring``;
* the maps that hold them go the other way: the kernel's maps, its
  triangle slot lists and the locate grid's point map stay tracked through
  a full collection, so the next join puts none of them back in a young
  generation.
"""

import gc
from collections import Counter
from unittest import mock

import numpy as np

from repro.core import VoroNet, VoroNetConfig
from repro.geometry.delaunay import DelaunayTriangulation
from repro.geometry.locate_grid import VECTOR_SCAN_THRESHOLD
from repro.simulation.faults import HeartbeatDetector
from repro.simulation.network import KIND
from repro.simulation.protocol import ProtocolSimulator


def collect():
    """Two full collections.

    A tuple is untracked when the collector finds every item of it
    untracked.  A fresh tuple reached only through another fresh one (a
    table's block through its entry, a protocol block's ``(id, x, y)``
    items through the block) is moved behind its holder by the
    reachability pass that precedes the untracking one, so the holder is
    examined first and is untracked by the next collection.  Between young
    collections that next one is a generation-1 pass: such a holder is
    promoted once, never into the oldest generation.
    """
    gc.collect()
    gc.collect()


def counting_star_walks():
    """Patch ``star_ring`` to count the vertices it walks; the counter."""
    walked = Counter()
    original = DelaunayTriangulation.star_ring

    def star_ring(self, vertex_id):
        walked[vertex_id] += 1
        return original(self, vertex_id)

    return walked, mock.patch.object(DelaunayTriangulation, "star_ring", star_ring)


def test_a_cold_pass_builds_untracked_tables_over_the_kernels_records():
    rng = np.random.default_rng(2000)
    overlay = VoroNet(VoroNetConfig(n_max=4000, num_long_links=1, seed=2000))
    ids = overlay.bulk_load([tuple(p) for p in rng.random((2000, 2))])
    kernel = overlay.triangulation
    cached_before = set(kernel._stars)
    pairs = [(ids[int(s)], ids[int(t)]) for s, t in rng.integers(len(ids), size=(64, 2))]
    assert len(pairs) >= VECTOR_SCAN_THRESHOLD  # the frontier router's batch

    walked, patch = counting_star_walks()
    with patch:
        cold = overlay.route_many(pairs)
    tables = overlay.routing_cache.tables
    assert len(tables) > len(pairs)
    assert walked == Counter(set(tables) - cached_before)

    collect()
    records = kernel.records
    for object_id, entry in tables.items():
        block = entry[2]
        assert block is not None  # uniform views stay below the array threshold
        assert not gc.is_tracked(entry) and not gc.is_tracked(block), object_id
        assert all(record is records[record[0]] for record in block), object_id
    for vertex_id, star in kernel._stars.items():
        assert not gc.is_tracked(star), vertex_id

    rebuilds = overlay.stats.routing_table_rebuilds
    walked.clear()
    with patch:
        assert overlay.route_many(pairs) == cold
    assert not walked
    assert overlay.stats.routing_table_rebuilds == rebuilds
    assert overlay.check_consistency() == []


def test_the_kernel_and_grid_maps_stay_out_of_the_young_generations():
    """A full collection leaves the big maps and slot lists tracked; a join
    adds none of them to the youngest generation, where every young
    collection would walk them."""
    rng = np.random.default_rng(2002)
    overlay = VoroNet(VoroNetConfig(n_max=1000, num_long_links=1, seed=2002))
    overlay.bulk_load([tuple(p) for p in rng.random((500, 2))])
    kernel = overlay.triangulation
    maps = {name: getattr(kernel, name)
            for name in ("_points", "_records", "_coord_index", "_stars",
                         "_vertices", "_across", "_free", "_corners")}
    maps["grid _points"] = overlay.locate_index._points
    collect()
    assert all(gc.is_tracked(mapping) for mapping in maps.values())
    overlay.insert((0.5, 0.5))
    young = {id(obj) for generation in (0, 1) for obj in gc.get_objects(generation)}
    assert [name for name, mapping in maps.items() if id(mapping) in young] == []


def test_protocol_routing_blocks_are_untracked():
    rng = np.random.default_rng(2001)
    simulator = ProtocolSimulator(VoroNetConfig(n_max=1000, num_long_links=1, seed=2001),
                                  seed=2001)
    simulator.bulk_join([tuple(p) for p in rng.random((300, 2))])
    for target in rng.random((20, 2)):
        simulator.query(tuple(target))
    blocks = [simulator.node(object_id).routing_block() for object_id in simulator.object_ids()]
    collect()
    assert all(isinstance(block, tuple) and not gc.is_tracked(block) for block in blocks)


def test_a_heartbeat_send_phase_leaves_nothing_tracked_in_flight():
    """One sampled, piggy-backed send phase at N = 2 000, not drained: the
    whole phase is one lane run, and after a single young collection no
    queued PING — its message or a heap entry — is tracked, so a send phase
    of 10⁵ probes promotes nothing into the oldest generation."""
    rng = np.random.default_rng(2003)
    simulator = ProtocolSimulator(VoroNetConfig(n_max=4000, num_long_links=1, seed=2003),
                                  seed=2003)
    simulator.bulk_join([tuple(p) for p in rng.random((2000, 2))])
    detector = HeartbeatDetector(simulator)
    detector.run_round()  # plans derived, freshness in place
    engine = simulator.engine
    assert engine.quiescent
    sequence = engine._sequence
    pings = detector._send_pings()
    assert [run[1:] for run in engine._runs] == [[sequence, pings]]
    entries = [entry for entry in engine._queue if entry[3][KIND] == "PING"]
    messages = list(engine._lane_args) + [entry[3] for entry in entries]
    assert pings > 0 and len(messages) == pings
    assert all(message[KIND] == "PING" for message in messages)
    gc.collect(0)
    assert not any(gc.is_tracked(message) for message in messages)
    assert not any(gc.is_tracked(entry) for entry in entries)
