"""Analysis utilities turning raw overlay measurements into the paper's metrics.

* :mod:`repro.analysis.degree` — Voronoi out-degree histograms (Figure 5),
* :mod:`repro.analysis.hops` — routing-cost measurement and size sweeps
  (Figures 6 and 8),
* :mod:`repro.analysis.regression` — the ``log(H)`` vs ``log(log(N))``
  straight-line fit whose slope confirms the ``O(log² N)`` bound (Figure 7),
* :mod:`repro.analysis.plots` — ASCII rendering of histograms and series for
  the experiment runner's output.
"""

from repro.analysis.degree import DegreeSummary, degree_summary, merge_histograms
from repro.analysis.hops import (
    HopStatistics,
    RoutingSweepPoint,
    measure_routing,
    sweep_overlay_sizes,
)
from repro.analysis.regression import LogLogFit, fit_polylog_exponent
from repro.analysis.plots import ascii_histogram, ascii_series, format_table

__all__ = [
    "DegreeSummary",
    "degree_summary",
    "merge_histograms",
    "HopStatistics",
    "RoutingSweepPoint",
    "measure_routing",
    "sweep_overlay_sizes",
    "LogLogFit",
    "fit_polylog_exponent",
    "ascii_histogram",
    "ascii_series",
    "format_table",
]
