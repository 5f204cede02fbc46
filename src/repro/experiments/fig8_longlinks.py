"""Figure 8 — influence of the number of long-range links on routing.

The paper varies the number of long-range links per object from 1 to 10
(all drawn with the same Choose-LRT distribution) for the uniform and the
α = 5 distributions and plots mean route length vs overlay size for each
link count: more links consistently help, with diminishing returns beyond
about 6.  This driver measures the same family of curves at one overlay
size per link count (plus the full per-size sweep when requested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.hops import HopStatistics, measure_routing
from repro.analysis.plots import ascii_series, format_table
from repro.experiments.common import EVALUATION_CELLS_PER_AXIS, Claim, build_overlay, scaled
from repro.utils.rng import RandomSource
from repro.workloads.distributions import PowerLawDistribution, UniformDistribution

__all__ = ["Fig8Result", "run_fig8", "format_fig8", "claims"]


@dataclass(frozen=True)
class Fig8Result:
    """Mean route length per (distribution, number of long links)."""

    seed: int
    overlay_size: int
    link_counts: List[int]
    num_pairs: int
    results: Dict[str, Dict[int, HopStatistics]]

    def mean_hops(self, distribution: str) -> List[float]:
        return [self.results[distribution][k].mean for k in self.link_counts]


def run_fig8(scale: float = 1.0, seed: int = 1008, *,
             link_counts: Sequence[int] = (1, 2, 3, 4, 6, 8, 10)) -> Fig8Result:
    """Run the Figure 8 experiment.

    Parameters
    ----------
    scale:
        Size multiplier; 1.0 uses 3 000-object overlays and 500 measured
        pairs per configuration.
    link_counts:
        Numbers of long links to evaluate (the paper sweeps 1–10).
    """
    count = scaled(3000, scale)
    num_pairs = scaled(500, scale, minimum=50)
    distributions = {
        "uniform": UniformDistribution(),
        "powerlaw-a5": PowerLawDistribution(alpha=5.0, cells_per_axis=EVALUATION_CELLS_PER_AXIS),
    }
    results: Dict[str, Dict[int, HopStatistics]] = {name: {} for name in distributions}
    for d_index, (name, distribution) in enumerate(distributions.items()):
        for k_index, k in enumerate(link_counts):
            cell = 10 * d_index + k_index
            overlay = build_overlay(distribution, count, seed + cell, num_long_links=k)
            results[name][k] = measure_routing(overlay, num_pairs,
                                               RandomSource(seed + 500 + cell))
    return Fig8Result(seed=seed, overlay_size=count, link_counts=list(link_counts),
                      num_pairs=num_pairs, results=results)


def format_fig8(result: Fig8Result) -> str:
    """Render the Figure 8 reproduction (table + ASCII curve for uniform)."""
    lines = [
        f"Figure 8 — routing vs number of long links ({result.overlay_size} objects, "
        f"{result.num_pairs} pairs)"
    ]
    headers = ["long links"] + list(result.results.keys())
    rows = []
    for k in result.link_counts:
        rows.append([k] + [result.results[name][k].mean for name in result.results])
    lines.append(format_table(headers, rows))
    uniform = result.results.get("uniform")
    if uniform:
        lines.append("")
        lines.append("[uniform] mean hops vs number of long links")
        lines.append(ascii_series(result.link_counts,
                                  [uniform[k].mean for k in result.link_counts],
                                  x_label="long links", y_label="hops"))
    return "\n".join(lines)


def claims(result: Fig8Result) -> List[Claim]:
    """Figure 8: more long links help, most significantly up to about 6.

    Reads the fewest, 6 and the most links of the sweep (1, 6 and 10 by
    default), so ``link_counts`` must include 6.
    """
    fewest, most = result.link_counts[0], result.link_counts[-1]
    rows = []
    for name, by_count in result.results.items():
        one, six, ten = by_count[fewest].mean, by_count[6].mean, by_count[most].mean
        rows.append(Claim(f"{name}: six long links route shorter than the fewest",
                          {fewest: round(one, 2), 6: round(six, 2)}, six < one))
        rows.append(Claim(f"{name}: the most long links route shorter than the fewest",
                          {fewest: round(one, 2), most: round(ten, 2)}, ten < one))
        rows.append(Claim(f"{name}: the gain beyond six links is smaller than the gain up to six",
                          {"up to six": round(one - six, 2), "beyond six": round(six - ten, 2)},
                          six - ten < one - six))
    return rows
