"""Figure 7 — ``log(H)`` against ``log(log(N))``: the poly-log exponent.

The paper replots the Figure 6 data as ``log(H)`` vs ``log(log |O|)`` and
observes straight lines of slope ``x`` close to 2 for every distribution,
confirming the ``O(log² N)`` analysis.  This driver reuses the Figure 6
sweep and fits the slope per distribution on its oracle series — which is
the protocol plane's too, pair for pair, wherever Figure 6's parity claims
hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.plots import format_table
from repro.analysis.regression import LogLogFit, fit_polylog_exponent
from repro.experiments.common import Claim
from repro.experiments.fig6_routes import Fig6Result, run_fig6

__all__ = ["Fig7Result", "run_fig7", "format_fig7", "claims"]


@dataclass(frozen=True)
class Fig7Result:
    """Per-distribution fits of ``log H = x · log log N + c``."""

    sweep: Fig6Result
    fits: Dict[str, LogLogFit]

    @property
    def seed(self) -> int:
        """The seed of the sweep the fit was made on."""
        return self.sweep.seed

    def slope(self, distribution: str) -> float:
        return self.fits[distribution].slope


def run_fig7(scale: float = 1.0, seed: int = 1007,
             sweep: Optional[Fig6Result] = None) -> Fig7Result:
    """Run the Figure 7 fit (optionally reusing an existing Figure 6 sweep)."""
    if sweep is None:
        sweep = run_fig6(scale=scale, seed=seed)
    fits = {
        name: fit_polylog_exponent(
            [point.size for point in points],
            [point.mean_hops for point in points],
        )
        for name, points in sweep.series.items()
    }
    return Fig7Result(sweep=sweep, fits=fits)


def format_fig7(result: Fig7Result) -> str:
    """Render the Figure 7 reproduction (slope table)."""
    lines = ["Figure 7 — log(H) vs log(log N) linear fit (slope ≈ 2 expected)"]
    rows = [
        [name, fit.slope, fit.intercept, fit.r_squared]
        for name, fit in result.fits.items()
    ]
    lines.append(format_table(["distribution", "slope x", "intercept", "R^2"], rows))
    return "\n".join(lines)


def claims(result: Fig7Result) -> List[Claim]:
    """Figure 7: straight lines of slope close to 2 for every distribution.

    The paper reports x ≈ 2 at 300 000 objects.  At laptop scale the
    estimate is noisier; the band excludes logarithmic (slope ≈ 1 would
    need < 0.8) and polynomial (> 3.5) behaviour.
    """
    rows = []
    for name, fit in result.fits.items():
        rows.append(Claim(f"{name}: slope of log H against log log N within [0.8, 3.5]",
                          round(fit.slope, 3), 0.8 <= fit.slope <= 3.5))
        rows.append(Claim(f"{name}: the fit is close to a straight line (R^2 > 0.7)",
                          round(fit.r_squared, 3), fit.r_squared > 0.7))
    return rows
