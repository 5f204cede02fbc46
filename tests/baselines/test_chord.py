"""Unit tests for the Chord DHT baseline."""

import math
from unittest import mock

import pytest

from repro.baselines.chord import ChordRing


@pytest.fixture
def ring():
    ring = ChordRing(bits=24)
    for i in range(64):
        ring.join(f"node-{i}")
    return ring


class TestMembership:
    def test_join_count(self, ring):
        assert len(ring) == 64

    def test_node_ids_sorted(self, ring):
        ids = ring.node_ids()
        assert ids == sorted(ids)

    def test_leave(self, ring):
        victim = ring.node_ids()[0]
        ring.leave(victim)
        assert len(ring) == 63
        assert victim not in ring.node_ids()

    def test_leave_unknown_raises(self, ring):
        with pytest.raises(KeyError):
            ring.leave(123456789)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            ChordRing(bits=2)

    def test_fingers_are_rebuilt_by_the_first_lookup_after_a_change(self):
        """Finger tables are derived state: building a ring costs one
        rebuild, not one per arrival."""
        ring = ChordRing(bits=24)
        with mock.patch.object(ChordRing, "_rebuild_fingers", autospec=True,
                               side_effect=ChordRing._rebuild_fingers) as rebuild:
            for i in range(64):
                ring.join(f"node-{i}")
            assert rebuild.call_count == 0
            ring.lookup(12345)
            ring.lookup(999)
            assert rebuild.call_count == 1
            ring.leave(ring.node_ids()[0])
            ring.lookup(12345)
            assert rebuild.call_count == 2


class TestLookups:
    def test_lookup_owner_is_successor(self, ring):
        key = 12345
        result = ring.lookup(key)
        ids = ring.node_ids()
        successors = [n for n in ids if n >= key]
        expected = successors[0] if successors else ids[0]
        assert result.owner == expected

    def test_lookup_deterministic(self, ring):
        assert ring.lookup_key("object-1").owner == ring.lookup_key("object-1").owner

    def test_lookup_hops_logarithmic(self, ring):
        """Finger-table lookups take O(log N) hops."""
        hops = [ring.lookup_key(f"key-{i}").hops for i in range(200)]
        assert max(hops) <= 2 * math.ceil(math.log2(len(ring))) + 2

    def test_lookup_from_every_start(self, ring):
        key = 999
        owners = {ring.lookup(key, start=s).owner for s in ring.node_ids()[:10]}
        assert len(owners) == 1

    def test_lookup_after_leave_still_correct(self, ring):
        key = 5555
        owner_before = ring.lookup(key).owner
        ring.leave(owner_before)
        owner_after = ring.lookup(key).owner
        assert owner_after != owner_before
        assert owner_after in ring.node_ids()

    def test_messages_equal_hops(self, ring):
        result = ring.lookup_key("x")
        assert result.messages == result.hops

    def test_lookup_on_empty_ring_raises(self):
        with pytest.raises(RuntimeError):
            ChordRing().lookup(5)


class TestRangeQueries:
    def test_range_query_costs_one_lookup_per_value(self, ring):
        values = [f"price-{v}" for v in range(20)]
        total_hops, results = ring.range_query_cost(values)
        assert len(results) == 20
        assert total_hops == sum(r.hops for r in results)

    def test_range_cost_grows_linearly_with_range_size(self, ring):
        small, _ = ring.range_query_cost([f"v-{i}" for i in range(5)])
        large, _ = ring.range_query_cost([f"v-{i}" for i in range(50)])
        assert large > small
