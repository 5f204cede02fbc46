"""ABL1 — the role of the close-neighbour sets ``cn(o)``.

The paper introduces close neighbours so routing keeps making progress when
"many objects are gathered in a small area" (Section 3.1).  This ablation
builds heavily clustered overlays with and without close-neighbour
maintenance and compares routing cost and view size, quantifying what the
sets buy and what they cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.analysis.hops import HopStatistics, measure_routing
from repro.analysis.plots import format_table
from repro.experiments.common import Claim, build_overlay, scaled
from repro.utils.rng import RandomSource
from repro.workloads.distributions import ClusteredDistribution, PowerLawDistribution

__all__ = ["AblationCloseResult", "run_ablation_close", "format_ablation_close", "claims"]


@dataclass(frozen=True)
class AblationCloseResult:
    """Routing and view-size figures with and without close neighbours."""

    seed: int
    overlay_size: int
    num_pairs: int
    routing: Dict[str, Dict[str, HopStatistics]]      # workload -> variant -> stats
    mean_view_size: Dict[str, Dict[str, float]]       # workload -> variant -> mean


def run_ablation_close(scale: float = 1.0, seed: int = 2001) -> AblationCloseResult:
    """Run the close-neighbour ablation on two clustered workloads."""
    count = scaled(2000, scale)
    num_pairs = scaled(400, scale, minimum=50)
    workloads = {
        "clustered": ClusteredDistribution(num_clusters=5, spread=0.01),
        "powerlaw-a5": PowerLawDistribution(alpha=5.0),
    }
    routing: Dict[str, Dict[str, HopStatistics]] = {name: {} for name in workloads}
    views: Dict[str, Dict[str, float]] = {name: {} for name in workloads}
    for w_index, (workload_name, distribution) in enumerate(workloads.items()):
        for variant, keep_close in (("with-cn", True), ("without-cn", False)):
            overlay = build_overlay(distribution, count, seed + w_index,
                                    maintain_close_neighbors=keep_close)
            routing[workload_name][variant] = measure_routing(
                overlay, num_pairs, RandomSource(seed + 50 + w_index))
            views[workload_name][variant] = float(
                np.mean(list(overlay.view_sizes().values())))
    return AblationCloseResult(seed=seed, overlay_size=count, num_pairs=num_pairs,
                               routing=routing, mean_view_size=views)


def format_ablation_close(result: AblationCloseResult) -> str:
    """Render the ablation as a table."""
    lines = [
        f"Ablation ABL1 — close-neighbour sets ({result.overlay_size} objects, "
        f"{result.num_pairs} pairs)"
    ]
    rows = []
    for workload, variants in result.routing.items():
        for variant, stats in variants.items():
            rows.append([
                workload, variant, stats.mean, stats.p95, stats.maximum,
                result.mean_view_size[workload][variant],
            ])
    lines.append(format_table(
        ["workload", "variant", "mean hops", "p95 hops", "max hops", "mean view"],
        rows))
    return "\n".join(lines)


def claims(result: AblationCloseResult) -> List[Claim]:
    """Section 3.1: close neighbours never hurt routing; they cost view space."""
    rows = []
    for workload, variants in result.routing.items():
        with_cn, without_cn = variants["with-cn"], variants["without-cn"]
        views = result.mean_view_size[workload]
        # Greedy routing on the Delaunay graph always terminates.
        rows.append(Claim(f"{workload}: routing never fails, with or without close neighbours",
                          with_cn.failures + without_cn.failures,
                          with_cn.failures == 0 and without_cn.failures == 0))
        rows.append(Claim(f"{workload}: keeping close neighbours costs at most 5% in mean hops",
                          {"with-cn": round(with_cn.mean, 2),
                           "without-cn": round(without_cn.mean, 2)},
                          with_cn.mean <= without_cn.mean * 1.05))
        rows.append(Claim(f"{workload}: the close sets are what costs view space",
                          {variant: round(size, 2) for variant, size in views.items()},
                          views["with-cn"] >= views["without-cn"]))
    return rows
