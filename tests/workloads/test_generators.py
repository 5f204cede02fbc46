"""Unit tests for workload generators."""

import pytest

from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects, generate_routing_pairs


class TestGenerateObjects:
    def test_count_and_uniqueness(self):
        points = generate_objects(UniformDistribution(), 300, RandomSource(1))
        assert len(points) == 300
        assert len(set(points)) == 300

    def test_deterministic(self):
        a = generate_objects(UniformDistribution(), 50, RandomSource(2))
        b = generate_objects(UniformDistribution(), 50, RandomSource(2))
        assert a == b


class TestRoutingPairs:
    def test_pair_count(self):
        pairs = generate_routing_pairs(list(range(40)), 100, RandomSource(3))
        assert len(pairs) == 100

    def test_pairs_are_distinct_objects(self):
        pairs = generate_routing_pairs(list(range(10)), 500, RandomSource(4))
        assert all(a != b for a, b in pairs)

    def test_pairs_reference_known_ids(self):
        ids = [5, 9, 11, 20]
        pairs = generate_routing_pairs(ids, 50, RandomSource(5))
        for a, b in pairs:
            assert a in ids and b in ids

    def test_requires_two_objects(self):
        with pytest.raises(ValueError):
            generate_routing_pairs([7], 5, RandomSource(6))

    def test_iterable(self):
        pairs = generate_routing_pairs(list(range(5)), 10, RandomSource(7))
        assert len(list(iter(pairs))) == 10
