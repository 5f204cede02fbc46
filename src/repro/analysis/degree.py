"""Voronoi out-degree analysis (the Figure 5 metric).

Figure 5 of the paper plots, for a 300 000-object overlay, the histogram of
the number of Voronoi neighbours ``|vn(o)|`` per object and observes it is
"centred around 6 regardless of the distribution" — the planarity argument
of Section 4.1.  This module computes the histogram and its summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping

import numpy as np

__all__ = ["DegreeSummary", "degree_summary", "merge_histograms"]


@dataclass(frozen=True)
class DegreeSummary:
    """Summary of an out-degree histogram.

    Attributes
    ----------
    histogram:
        Mapping ``degree → number of objects``.
    mean / std / mode / min_degree / max_degree:
        The usual summary statistics of the degree distribution.
    count:
        Total number of objects summarised.
    """

    histogram: Dict[int, int]
    mean: float
    std: float
    mode: int
    min_degree: int
    max_degree: int
    count: int

    def fraction_between(self, low: int, high: int) -> float:
        """Fraction of objects with degree in ``[low, high]`` inclusive."""
        if self.count == 0:
            return 0.0
        total = sum(count for degree, count in self.histogram.items()
                    if low <= degree <= high)
        return total / self.count


def degree_summary(histogram: Mapping[int, int]) -> DegreeSummary:
    """Summarise a ``degree → count`` histogram.

    The input is typically :meth:`repro.core.overlay.VoroNet.degree_histogram`
    or :meth:`repro.geometry.delaunay.DelaunayTriangulation.degree_histogram`.
    """
    cleaned = {int(k): int(v) for k, v in histogram.items() if v > 0}
    if not cleaned:
        return DegreeSummary(histogram={}, mean=0.0, std=0.0, mode=0,
                             min_degree=0, max_degree=0, count=0)
    degrees = np.array(sorted(cleaned))
    counts = np.array([cleaned[d] for d in degrees], dtype=np.float64)
    total = counts.sum()
    mean = float((degrees * counts).sum() / total)
    variance = float(((degrees - mean) ** 2 * counts).sum() / total)
    mode = int(degrees[int(np.argmax(counts))])
    return DegreeSummary(
        histogram=dict(cleaned),
        mean=mean,
        std=float(np.sqrt(variance)),
        mode=mode,
        min_degree=int(degrees.min()),
        max_degree=int(degrees.max()),
        count=int(total),
    )


def merge_histograms(histograms: Iterable[Mapping[int, int]]) -> Dict[int, int]:
    """Sum several degree histograms (e.g. across replicated runs)."""
    merged: Dict[int, int] = {}
    for histogram in histograms:
        for degree, count in histogram.items():
            merged[int(degree)] = merged.get(int(degree), 0) + int(count)
    return merged
