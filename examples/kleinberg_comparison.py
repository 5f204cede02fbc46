#!/usr/bin/env python3
"""VoroNet as a generalisation of Kleinberg's small world.

Section 2 of the paper presents Kleinberg's grid model; VoroNet's claim is
that the same harmonic long-link idea works for *arbitrary* object
placements once the grid is replaced by the Voronoi tessellation.  This
example puts the two side by side:

* the original grid model, with the clustering exponent swept around its
  navigable value s = 2 (the classic U-shaped curve),
* VoroNet on a regular grid placement (it matches the grid model),
* VoroNet on skewed placements the grid model cannot even express,
* the random-shortcut overlay, showing that shortcuts without the harmonic
  distribution are not navigable.

Run with::

    python examples/kleinberg_comparison.py
"""

from __future__ import annotations


from repro.analysis.hops import measure_routing
from repro.baselines.kleinberg import KleinbergGrid
from repro.baselines.random_graph import RandomGraphOverlay
from repro.core import VoroNet, VoroNetConfig
from repro.utils.rng import RandomSource
from repro.workloads.distributions import (
    ClusteredDistribution,
    GridDistribution,
    PowerLawDistribution,
    UniformDistribution,
)
from repro.workloads.generators import generate_objects


def kleinberg_exponent_sweep() -> None:
    print("=== Kleinberg grid: the clustering exponent s ===")
    rng = RandomSource(1)
    print(f"  {'exponent s':>10} {'mean hops':>10}")
    for exponent in (0.0, 1.0, 2.0, 3.0, 4.0):
        grid = KleinbergGrid(28, exponent=exponent, rng=rng)
        print(f"  {exponent:>10.1f} {grid.mean_route_length(250):>10.1f}")
    print("  Very local links (large s) clearly degrade navigability; the")
    print("  asymptotic advantage of s = 2 over s < 2 only shows at grid")
    print("  sizes far beyond this example (Kleinberg's bound is about the")
    print("  scaling in n, not about small grids).\n")


def voronet_on_arbitrary_placements() -> None:
    print("=== VoroNet: same idea, arbitrary object placements ===")
    num_objects = 900
    workloads = {
        "regular grid (Kleinberg's setting)": GridDistribution(jitter=1e-4),
        "uniform random": UniformDistribution(),
        "power-law α=2": PowerLawDistribution(alpha=2.0, cells_per_axis=8),
        "clustered hot spots": ClusteredDistribution(num_clusters=6, spread=0.03),
    }
    print(f"  {'placement':<36} {'mean hops':>10}")
    for name, distribution in workloads.items():
        overlay = VoroNet(VoroNetConfig(n_max=4 * num_objects, seed=5))
        overlay.insert_many(generate_objects(distribution, num_objects, RandomSource(5)))
        stats = measure_routing(overlay, 300, RandomSource(6))
        print(f"  {name:<36} {stats.mean:>10.1f}")
    grid = KleinbergGrid(30, exponent=2.0, rng=RandomSource(7))
    print(f"  {'(reference: 30×30 Kleinberg grid)':<36} "
          f"{grid.mean_route_length(300, RandomSource(8)):>10.1f}\n")


def shortcuts_need_the_right_distribution() -> None:
    print("=== shortcuts alone are not enough ===")
    positions = generate_objects(UniformDistribution(), 900, RandomSource(11))
    voronet = VoroNet(VoroNetConfig(n_max=3_600, seed=11))
    voronet.insert_many(positions)
    voronet_stats = measure_routing(voronet, 300, RandomSource(12))
    random_graph = RandomGraphOverlay(positions, links_per_node=7,
                                      connect_nearest=True, rng=RandomSource(13))
    random_report = random_graph.measure(300, RandomSource(14))
    print(f"  VoroNet (harmonic long links): {voronet_stats.mean:.1f} hops, "
          f"100% delivery")
    print(f"  random shortcuts             : "
          f"{random_report['mean_hops']:.1f} hops on successes, "
          f"{100 * random_report['success_rate']:.0f}% delivery")
    print("  → greedy routing needs the 1/d² link distribution, not just links\n")


def main() -> None:
    kleinberg_exponent_sweep()
    voronet_on_arbitrary_placements()
    shortcuts_need_the_right_distribution()


if __name__ == "__main__":
    main()
