"""Unit tests for the seeded random source."""

import numpy as np

from repro.utils.rng import RandomSource, spawn_rng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a, b = RandomSource(7), RandomSource(7)
        assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]

    def test_different_seeds_differ(self):
        a, b = RandomSource(7), RandomSource(8)
        assert [a.uniform() for _ in range(10)] != [b.uniform() for _ in range(10)]

    def test_seed_property(self):
        assert RandomSource(42).seed == 42
        assert RandomSource().seed is None

    def test_wrapping_generator_shares_stream(self):
        generator = np.random.default_rng(3)
        source = RandomSource(generator)
        assert source.generator is generator

    def test_wrapping_random_source_shares_stream(self):
        a = RandomSource(5)
        b = RandomSource(a)
        first = a.uniform()
        second = b.uniform()
        assert first != second  # both draws advanced the same stream


class TestDraws:
    def test_uniform_bounds(self):
        rng = RandomSource(1)
        values = [rng.uniform(2.0, 3.0) for _ in range(200)]
        assert all(2.0 <= v < 3.0 for v in values)

    def test_integer_bounds(self):
        rng = RandomSource(2)
        values = [rng.integer(3, 9) for _ in range(200)]
        assert all(3 <= v < 9 for v in values)
        assert set(values) == set(range(3, 9))

    def test_integers_array(self):
        values = RandomSource(2).integers(0, 5, 100)
        assert values.shape == (100,)
        assert values.min() >= 0 and values.max() < 5

    def test_choice_scalar_and_list(self):
        rng = RandomSource(3)
        sequence = ["a", "b", "c", "d"]
        assert rng.choice(sequence) in sequence
        picks = rng.choice(sequence, size=3, replace=False)
        assert len(picks) == 3 and len(set(picks)) == 3

    def test_shuffle_permutes_in_place(self):
        rng = RandomSource(4)
        items = list(range(20))
        rng.shuffle(items)
        assert sorted(items) == list(range(20))

    def test_random_point_in_unit_square(self):
        rng = RandomSource(5)
        for _ in range(50):
            x, y = rng.random_point()
            assert 0.0 <= x < 1.0 and 0.0 <= y < 1.0

    def test_random_points_shape(self):
        assert RandomSource(5).random_points(12).shape == (12, 2)

    def test_exponential_positive(self):
        rng = RandomSource(6)
        assert all(rng.exponential(2.0) > 0 for _ in range(100))


class TestSpawning:
    def test_spawn_children_are_independent(self):
        parent = RandomSource(9)
        child_a, child_b = parent.spawn(2)
        assert [child_a.uniform() for _ in range(5)] != [child_b.uniform() for _ in range(5)]

    def test_spawn_rng_yields_requested_count(self):
        children = list(spawn_rng(11, 4))
        assert len(children) == 4

    def test_fork_returns_single_child(self):
        assert isinstance(RandomSource(1).fork(), RandomSource)
