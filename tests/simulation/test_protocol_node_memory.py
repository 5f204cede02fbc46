"""What a protocol object costs, measured with ``tracemalloc``.

``ProtocolSimulator.bulk_join`` of 5 000 uniform points, then four rounds of
the benchmark's detector (``interval=8.0, miss_threshold=2,
sample_fraction=0.25``), keeps 2 790 B per object on CPython 3.11: the node
and its views, its liveness bookkeeping, its share of the kernel, the
locate grid and the engine.  While every node kept a probe stamp per peer
it kept 3 162 B, and before a node's empty containers were the shared
sentinels and a virtual instant's deliveries shared one delivery time,
more; both fail this guard.  Tracing every allocation makes this test slow
(~12 s).

A routed query costs only what it carries: a node's routing block is one
flat tuple (30 B per candidate at N = 5 000, against 78 B while each
candidate was its own ``(id, x, y)`` tuple), and a served answer retains
its owner, hop count and completion time (214 B per answer in the serve
below, against 514 B while it kept its path, target and query id)."""

import gc
import sys
import tracemalloc

import numpy as np

from repro.core import VoroNetConfig
from repro.serving.traffic import build_schedule, serve_protocol_closed_loop
from repro.simulation.faults import (FaultPlane, HeartbeatConfig, HeartbeatDetector,
                                     ProtocolCrashInjector, RepairProtocol)
from repro.simulation.protocol import NO_ENTRIES, NO_IDS, ProtocolNode, ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects
from repro.workloads.samplers import UniformTargets

OBJECTS = 5_000
BYTES_PER_OBJECT = 3_000
BYTES_PER_QUEUED_PING = 120
BYTES_PER_BLOCK_CANDIDATE = 36
BYTES_PER_ANSWER = 256
SERVED_QUERIES = 2_000
#: The benchmark's detector (``perf/systems.py``).
DETECTOR = HeartbeatConfig(interval=8.0, miss_threshold=2, sample_fraction=0.25)

#: The containers a node holds only while something is pending or
#: suspected, and the views that may end up empty.
SETS = ("pending_close_peers", "pending_link_indices", "suspects", "rehabilitated")
DICTS = ("last_heard", "missed_heartbeats", "close", "back_links")


def test_bulk_join_and_four_rounds_keep_at_most_3000_bytes_per_object():
    points = [tuple(p) for p in np.random.default_rng(7).random((OBJECTS, 2)).tolist()]
    simulator = ProtocolSimulator(
        VoroNetConfig(n_max=4 * OBJECTS, num_long_links=1, seed=7), seed=7)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        simulator.bulk_join(points)
        HeartbeatDetector(simulator, config=DETECTOR).run_rounds(4)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(simulator) == OBJECTS
    assert grown / OBJECTS <= BYTES_PER_OBJECT, grown / OBJECTS


def test_a_send_phase_keeps_at_most_120_bytes_per_queued_ping():
    """A lane entry is its port and its message.  After four rounds, the
    first send phase of a new benchmark detector — a heal cycle's, with no
    edge fresh yet — not drained, grows by the queued PINGs and the round's
    probe map only: 103 B per PING, against 199 B while each lane entry
    kept a key ``(time, sequence, port)``."""
    points = [tuple(p) for p in np.random.default_rng(7).random((OBJECTS, 2)).tolist()]
    simulator = ProtocolSimulator(
        VoroNetConfig(n_max=4 * OBJECTS, num_long_links=1, seed=7), seed=7)
    simulator.bulk_join(points)
    HeartbeatDetector(simulator, config=DETECTOR).run_rounds(4)
    detector = HeartbeatDetector(simulator, config=DETECTOR)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pings = detector._send_pings()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert pings > OBJECTS
    assert grown / pings <= BYTES_PER_QUEUED_PING, grown / pings


def held_bytes(dicts):
    """``sys.getsizeof`` of every dict in ``dicts`` and of every value one of
    them holds, each object counted once however many dicts hold it."""
    seen = set()
    total = 0
    for entry in dicts:
        for item in (entry, *entry.values()):
            if id(item) not in seen:
                seen.add(id(item))
                total += sys.getsizeof(item)
    return total


def test_a_routing_block_keeps_at_most_36_bytes_per_candidate():
    """Every block of a 5 000-object bulk join, with the tuples it holds,
    over the candidates it lists; the ids and coordinates are the view's
    own objects, so they are not counted."""
    points = [tuple(p) for p in np.random.default_rng(7).random((OBJECTS, 2)).tolist()]
    simulator = ProtocolSimulator(
        VoroNetConfig(n_max=4 * OBJECTS, num_long_links=1, seed=7), seed=7)
    simulator.bulk_join(points)
    nodes = simulator.nodes.values()
    blocks = [node.routing_block() for node in nodes]
    held = sum(sys.getsizeof(block) for block in blocks) + sum(
        sys.getsizeof(item) for block in blocks for item in block
        if isinstance(item, tuple))
    candidates = sum(len(node.routing_candidates()) for node in nodes)
    assert held / candidates <= BYTES_PER_BLOCK_CANDIDATE, held / candidates


def test_a_served_answer_keeps_at_most_256_bytes():
    """A closed-loop serve that records paths: ``query_answers`` holds one
    dict per query, and what the dicts hold is counted once."""
    simulator = ProtocolSimulator(VoroNetConfig(n_max=4_000, num_long_links=1, seed=8), seed=8)
    ids = simulator.bulk_join(
        generate_objects(UniformDistribution(), 1_000, RandomSource(8))).object_ids
    schedule = build_schedule(UniformTargets(len(ids), seed=9), SERVED_QUERIES, seed=10)
    serve_protocol_closed_loop(simulator, ids, schedule, concurrency=8, record_paths=True)
    answers = simulator.query_answers
    assert len(answers) == SERVED_QUERIES
    held = held_bytes(answers.values())
    assert held / SERVED_QUERIES <= BYTES_PER_ANSWER, held / SERVED_QUERIES


def test_nodes_and_links_have_no_instance_dict():
    """A node is slotted; its links are the oracle's plain triples."""
    simulator = ProtocolSimulator(VoroNetConfig(n_max=64, seed=1), seed=1)
    simulator.bulk_join([(0.2, 0.3), (0.7, 0.6), (0.4, 0.9)])
    node = simulator.node(0)
    assert not hasattr(node, "__dict__")
    assert type(node.long_links) is tuple
    assert [type(link) for link in node.long_links] == [tuple]
    assert ProtocolNode(object_id=9, position=(0.5, 0.5),
                        simulator=simulator).long_links == ()


def test_no_node_keeps_its_long_links_on_the_collectors_books():
    """As in the oracle plane: after a bulk join and two full collections no
    node's link tuple, and no link, is tracked by the collector."""
    simulator = ProtocolSimulator(
        VoroNetConfig(n_max=8_000, num_long_links=2, seed=11), seed=11)
    simulator.bulk_join(generate_objects(UniformDistribution(), 2_000, RandomSource(11)))
    gc.collect()
    gc.collect()
    assert [object_id for object_id, node in simulator.nodes.items()
            if gc.is_tracked(node.long_links)
            or any(map(gc.is_tracked, node.long_links))] == []


def test_every_empty_container_is_the_shared_sentinel_after_a_heal_cycle():
    """Crash, detect under loss, repair, verify: whatever a node held while
    suspicion or a join was pending, it holds nothing of its own once the
    cycle settles, and nothing ever wrote into the sentinels."""
    config = VoroNetConfig(n_max=1_200, num_long_links=2, seed=21)
    simulator = ProtocolSimulator(config, seed=21, faults=FaultPlane(seed=22))
    simulator.bulk_join(generate_objects(UniformDistribution(), 240, RandomSource(21)))
    for position in generate_objects(UniformDistribution(), 6, RandomSource(23)):
        assert simulator.join(position).outcome == "completed"
    simulator.faults.set_loss(0.1)
    ProtocolCrashInjector(simulator, rng=RandomSource(24)).crash_random(12)
    detector = HeartbeatDetector(simulator, config=DETECTOR)
    detector.run_rounds(4)
    nodes = simulator.nodes.values()
    assert any(node.suspects for node in nodes)
    assert any(node.missed_heartbeats for node in nodes)
    assert RepairProtocol(simulator, detector=detector).repair().converged
    assert simulator.verify_views() == []
    held = {name: 0 for name in SETS + DICTS}
    for node in nodes:
        for name in SETS:
            container = getattr(node, name)
            if container:
                assert isinstance(container, set), (node.object_id, name)
                held[name] += 1
            else:
                assert container is NO_IDS, (node.object_id, name)
        for name in DICTS:
            container = getattr(node, name)
            if container:
                assert isinstance(container, dict), (node.object_id, name)
                held[name] += 1
            else:
                assert container is NO_ENTRIES, (node.object_id, name)
    assert held["close"] and held["back_links"] and held["last_heard"]
    assert not NO_IDS and not NO_ENTRIES
