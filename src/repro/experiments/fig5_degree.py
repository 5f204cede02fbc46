"""Figure 5 — distribution of Voronoi out-degrees ``|vn(o)|``.

The paper builds a 300 000-object overlay under the uniform and the highly
sparse (α = 5) distributions and plots the histogram of the number of
Voronoi neighbours per object, observing that it is centred around 6
regardless of the distribution (planarity of the Delaunay graph).  This
driver reproduces the histogram for all four evaluation distributions at a
configurable scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.degree import DegreeSummary, degree_summary
from repro.analysis.plots import ascii_histogram, format_table
from repro.experiments.common import Claim, build_overlay, evaluation_distributions, scaled

__all__ = ["Fig5Result", "run_fig5", "format_fig5", "claims"]


@dataclass(frozen=True)
class Fig5Result:
    """Degree histograms and summaries, one per distribution."""

    seed: int
    overlay_size: int
    histograms: Dict[str, Dict[int, int]]
    summaries: Dict[str, DegreeSummary]

    @property
    def distributions(self) -> List[str]:
        return list(self.histograms.keys())


def run_fig5(scale: float = 1.0, seed: int = 1005) -> Fig5Result:
    """Run the Figure 5 experiment.

    Parameters
    ----------
    scale:
        Size multiplier; 1.0 builds 4 000-object overlays (the paper uses
        300 000 — pass ``scale=75`` to match, given time).
    seed:
        Base seed; each distribution gets a distinct derived seed.
    """
    count = scaled(4000, scale)
    histograms: Dict[str, Dict[int, int]] = {}
    summaries: Dict[str, DegreeSummary] = {}
    for index, distribution in enumerate(evaluation_distributions()):
        histogram = build_overlay(distribution, count, seed + index).degree_histogram()
        histograms[distribution.name] = histogram
        summaries[distribution.name] = degree_summary(histogram)
    return Fig5Result(seed=seed, overlay_size=count, histograms=histograms,
                      summaries=summaries)


def format_fig5(result: Fig5Result) -> str:
    """Render the Figure 5 reproduction as text (histograms + summary table)."""
    lines = [f"Figure 5 — Voronoi out-degree distribution ({result.overlay_size} objects)"]
    rows = []
    for name, summary in result.summaries.items():
        rows.append([name, summary.mean, summary.std, summary.mode,
                     summary.fraction_between(4, 8)])
    lines.append(format_table(
        ["distribution", "mean |vn|", "std", "mode", "frac in [4,8]"], rows))
    for name in ("uniform", "powerlaw-a5"):
        if name in result.histograms:
            lines.append("")
            lines.append(f"[{name}]")
            lines.append(ascii_histogram(result.histograms[name], label="out-degree"))
    return "\n".join(lines)


def claims(result: Fig5Result) -> List[Claim]:
    """Figure 5: the histogram is centred around 6 for every distribution."""
    rows = []
    for name, summary in result.summaries.items():
        rows.append(Claim(f"{name}: mean Voronoi out-degree within [5, 6]",
                          round(summary.mean, 3), 5.0 <= summary.mean <= 6.0))
        rows.append(Claim(f"{name}: modal out-degree within [4, 7]",
                          summary.mode, 4 <= summary.mode <= 7))
        share = summary.fraction_between(3, 9)
        rows.append(Claim(f"{name}: over 90% of objects have out-degree in [3, 9]",
                          round(share, 4), share > 0.9))
    return rows
