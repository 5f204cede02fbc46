"""Target samplers: seeded determinism and distribution shape."""

import numpy as np
import pytest

from repro.workloads.samplers import UniformTargets, ZipfTargets


class TestDeterminism:
    def test_same_seed_same_stream(self):
        for factory in (lambda s: UniformTargets(500, seed=s),
                        lambda s: ZipfTargets(500, alpha=1.1, seed=s)):
            a, b = factory(42), factory(42)
            np.testing.assert_array_equal(a.sample(1000), b.sample(1000))

    def test_different_seed_different_stream(self):
        a = ZipfTargets(500, alpha=1.1, seed=1)
        b = ZipfTargets(500, alpha=1.1, seed=2)
        assert not np.array_equal(a.sample(1000), b.sample(1000))

    def test_split_draws_match_one_draw(self):
        whole = UniformTargets(300, seed=5).sample(400)
        split = UniformTargets(300, seed=5)
        parts = np.concatenate([split.sample(150), split.sample(250)])
        np.testing.assert_array_equal(whole, parts)


class TestZipfShape:
    def test_top_rank_mass_matches_expected(self):
        population, alpha, draws = 200, 1.0, 60_000
        sampler = ZipfTargets(population, alpha=alpha, seed=7)
        samples = sampler.sample(draws)
        counts = np.bincount(samples, minlength=population)
        # Empirical frequency of the most popular objects must match the
        # analytic Zipf mass on this fixed seed.
        harmonic = sum(1.0 / rank ** alpha for rank in range(1, population + 1))
        for rank in (0, 1, 4):
            top_object = sampler.objects_by_rank[rank]
            empirical = counts[top_object] / draws
            expected = 1.0 / ((rank + 1) ** alpha * harmonic)
            assert empirical == pytest.approx(expected, rel=0.12), rank

    def test_ranking_is_a_seeded_permutation(self):
        sampler = ZipfTargets(100, alpha=1.0, seed=11)
        assert sorted(sampler.objects_by_rank.tolist()) == list(range(100))
        # rank_of inverts objects_by_rank
        for rank in (0, 42, 99):
            assert sampler.rank_of[sampler.objects_by_rank[rank]] == rank

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            ZipfTargets(10, alpha=0.0)
