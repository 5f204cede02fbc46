"""Navigability of the Kleinberg grid across exponents and sizes."""

from repro.baselines.kleinberg import KleinbergGrid
from repro.utils.rng import RandomSource


class TestMeasurement:
    def test_exponent_two_beats_large_exponents(self):
        """Kleinberg's result: s=2 is better than strongly local links (s=4+),
        which degenerate towards lattice-only routing."""
        rng = RandomSource(3)
        mean_hops = {
            exponent: KleinbergGrid(24, exponent=exponent, rng=rng)
            .mean_route_length(150, rng)
            for exponent in (2.0, 6.0)
        }
        assert mean_hops[2.0] < mean_hops[6.0]

    def test_larger_grids_have_longer_routes(self):
        small = KleinbergGrid(8, rng=RandomSource(4))
        large = KleinbergGrid(24, rng=RandomSource(4))
        assert large.mean_route_length(80) > small.mean_route_length(80)
