"""The Figure 7 fit: ``log(H)`` against ``log(log(N))``.

If greedy routes cost ``H = c · log^x(N)`` hops, then
``log H = x · log(log N) + log c``: plotting ``log H`` against
``log(log N)`` gives a straight line whose slope is the exponent ``x``.
The paper observes a slope close to 2, confirming the ``O(log² N)``
analysis.  This module performs that least-squares fit and reports the
slope, intercept and goodness of fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["LogLogFit", "fit_polylog_exponent"]


@dataclass(frozen=True)
class LogLogFit:
    """Result of the ``log(H) = slope · log(log(N)) + intercept`` fit.

    Attributes
    ----------
    slope:
        The fitted poly-log exponent ``x`` (the paper reports ≈ 2).
    intercept:
        Fitted intercept ``log c``.
    r_squared:
        Coefficient of determination of the fit.
    """

    slope: float
    intercept: float
    r_squared: float


def fit_polylog_exponent(sizes: Sequence[int],
                         mean_hops: Sequence[float]) -> LogLogFit:
    """Fit ``log(H)`` vs ``log(log(N))`` by ordinary least squares.

    Parameters
    ----------
    sizes:
        Overlay sizes ``N`` (each must exceed ``e`` so ``log(log N)`` is
        defined and positive).
    mean_hops:
        Mean hop counts ``H`` measured at those sizes (strictly positive).
    """
    if len(sizes) != len(mean_hops):
        raise ValueError("sizes and mean_hops must have the same length")
    if len(sizes) < 2:
        raise ValueError("need at least two points to fit a slope")
    sizes_array = np.asarray(sizes, dtype=np.float64)
    hops_array = np.asarray(mean_hops, dtype=np.float64)
    if np.any(sizes_array <= math.e):
        raise ValueError("every size must exceed e for log(log(N)) to be positive")
    if np.any(hops_array <= 0):
        raise ValueError("mean hop counts must be strictly positive")
    x = np.log(np.log(sizes_array))
    y = np.log(hops_array)
    slope, intercept = np.polyfit(x, y, deg=1)
    predicted = slope * x + intercept
    residual = float(np.sum((y - predicted) ** 2))
    total = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return LogLogFit(slope=float(slope), intercept=float(intercept),
                     r_squared=r_squared)
