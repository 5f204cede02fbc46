"""Figure 6 — mean route length vs overlay size for the four distributions.

The paper grows overlays to 300 000 objects, measuring the mean greedy
route length over 100 000 random object pairs after every 10 000 joins,
for the uniform and the three power-law distributions, with one long link
per object.  The curves are poly-logarithmic and essentially independent of
the distribution.  This driver performs the same sweep at a configurable
scale, on both planes: every measured pair is routed by the oracle and as
a greedy ``QUERY`` walk over the bulk-joined protocol twin's local views
(:func:`~repro.analysis.hops.sweep_overlay_sizes`).  The series are the
oracle's; one claim per distribution and checkpoint states that the
protocol plane matched them route for route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.hops import RoutingSweepPoint, sweep_overlay_sizes
from repro.analysis.plots import ascii_series, format_table
from repro.core import VoroNet, VoroNetConfig
from repro.experiments.common import (
    CAPACITY_HEADROOM,
    Claim,
    checkpoint_schedule,
    evaluation_distributions,
    scaled,
)
from repro.utils.rng import RandomSource
from repro.workloads.distributions import ObjectDistribution
from repro.workloads.generators import generate_objects

__all__ = ["Fig6Result", "run_fig6", "format_fig6", "claims"]


@dataclass(frozen=True)
class Fig6Result:
    """Route-length sweeps, one series per distribution."""

    seed: int
    checkpoints: List[int]
    num_pairs: int
    series: Dict[str, List[RoutingSweepPoint]]

    def mean_hops(self, distribution: str) -> List[float]:
        """The mean-hop series of one distribution, in checkpoint order."""
        return [point.mean_hops for point in self.series[distribution]]


def _sweep_one_distribution(distribution: ObjectDistribution, index: int,
                            seed: int, max_size: int, checkpoints: List[int],
                            num_pairs: int) -> List[RoutingSweepPoint]:
    """One distribution's full sweep, seeded by its index."""
    rng = RandomSource(seed + index)
    positions = generate_objects(distribution, max_size, rng)

    def factory() -> VoroNet:
        return VoroNet(VoroNetConfig(
            n_max=CAPACITY_HEADROOM * max_size,
            seed=seed + 100 + index,
        ))

    return sweep_overlay_sizes(
        positions, checkpoints, rng,
        num_pairs=num_pairs,
        overlay_factory=factory,
    )


def run_fig6(scale: float = 1.0, seed: int = 1006) -> Fig6Result:
    """Run the Figure 6 sweep on both planes.

    Parameters
    ----------
    scale:
        Size multiplier; 1.0 sweeps up to 6 000 objects in 6 checkpoints with
        600 measured pairs per checkpoint (the paper: 300 000 / 30 / 100 000).
    """
    max_size = scaled(6000, scale)
    checkpoints = checkpoint_schedule(max_size, 6)
    num_pairs = scaled(600, scale, minimum=50)
    series: Dict[str, List[RoutingSweepPoint]] = {
        distribution.name: _sweep_one_distribution(
            distribution, index, seed, max_size, checkpoints, num_pairs)
        for index, distribution in enumerate(evaluation_distributions())
    }
    return Fig6Result(seed=seed, checkpoints=checkpoints, num_pairs=num_pairs,
                      series=series)


def format_fig6(result: Fig6Result) -> str:
    """Render the Figure 6 reproduction as a table plus an ASCII plot."""
    lines = [
        "Figure 6 — mean route length vs overlay size "
        f"({result.num_pairs} pairs per checkpoint)"
    ]
    headers = ["objects"] + list(result.series.keys())
    rows = []
    for i, size in enumerate(result.checkpoints):
        rows.append([size] + [result.series[name][i].mean_hops
                              for name in result.series])
    lines.append(format_table(headers, rows))
    uniform = result.series.get("uniform")
    if uniform:
        lines.append("")
        lines.append("[uniform] mean hops vs overlay size")
        lines.append(ascii_series(
            [p.size for p in uniform], [p.mean_hops for p in uniform],
            x_label="objects", y_label="hops"))
    return "\n".join(lines)


def claims(result: Fig6Result) -> List[Claim]:
    """Figure 6: poly-logarithmic routes, insensitive to the distribution,
    and the same routes on the message plane as on the oracle."""
    smallest, largest = result.checkpoints[0], result.checkpoints[-1]
    uniform_final = result.series["uniform"][-1].mean_hops
    rows = []
    for name in result.series:
        series = result.mean_hops(name)
        growth, growth_bound = series[-1] / max(series[0], 1e-9), math.sqrt(largest / smallest)
        rows.append(Claim(f"{name}: mean hops grow slower than sqrt(N) over the sweep",
                          {"hops": round(growth, 3), "sqrt(N)": round(growth_bound, 3)},
                          growth < growth_bound))
        final, final_bound = series[-1], math.sqrt(largest)
        rows.append(Claim(f"{name}: final mean hops stay below sqrt(N), the Delaunay-walk regime",
                          {"mean hops": round(final, 2), "sqrt(N)": round(final_bound, 2)},
                          final < final_bound))
        if name != "uniform":
            # The paper's curves almost coincide; skew may only help at small scale.
            rows.append(Claim(f"{name}: final mean hops under 1.6x the uniform overlay's",
                              round(final / uniform_final, 3), final < 1.6 * uniform_final))
    for name, points in result.series.items():
        for rung, point in enumerate(points, start=1):
            rows.append(Claim(
                f"{name}, checkpoint {rung} of {len(points)}: protocol QUERY "
                "walks match the oracle route for route",
                {"objects": point.size, "pairs": result.num_pairs,
                 "mismatches": point.mismatches},
                point.mismatches == 0))
    return rows
