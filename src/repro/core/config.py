"""Configuration of a VoroNet overlay.

The paper parameterises the protocol by a single global constant, the
maximal number of objects ``N_max``, from which the close-neighbour radius
``d_min`` is derived.  This module packages that plus the experiment knobs
used throughout the evaluation (number of long-range links, ablation
switches) into an immutable configuration object.

Note on ``d_min``
-----------------
Section 4.1 of the paper states ``d_min = 1 / (π N_max)`` but then derives
``π d_min² N_max = 1`` (expected ≤ 1 close neighbour under a uniform
distribution), which requires ``d_min = 1 / sqrt(π N_max)``.  We use the
value consistent with the derivation and expose the discrepancy here so it
is documented where the constant is defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["VoroNetConfig", "DEFAULT_N_MAX"]

#: Default maximum overlay size used when the caller does not specify one.
DEFAULT_N_MAX = 100_000


@dataclass(frozen=True)
class VoroNetConfig:
    """Immutable parameters of one VoroNet overlay.

    Attributes
    ----------
    n_max:
        Maximum number of objects the overlay is dimensioned for.  Routing
        is guaranteed poly-logarithmic in this value; ``d_min`` derives from
        it.
    num_long_links:
        Number of Kleinberg-style long-range links per object (the paper's
        Figure 8 sweeps 1–10; the default, 1, is the basic setting used in
        the analysis).
    d_min:
        Close-neighbour radius.  When ``None`` (default) it is derived as
        ``1 / sqrt(π · n_max)``, the value that keeps the expected number of
        close neighbours at one for near-uniform distributions.
    maintain_close_neighbors:
        Ablation switch: when False the overlay keeps no ``cn(o)`` sets.
        Disabling them voids the routing-termination guarantee for highly
        clustered data (benchmark ABL1 demonstrates exactly this).
    allow_overflow:
        Permit joining more than ``n_max`` objects (the routing bound then
        no longer applies; used by the dynamic-``N_max`` experiments).
    track_paths:
        Record full routing paths in :class:`~repro.core.routing.RouteResult`
        objects (memory-heavier; useful for debugging and examples).
    seed:
        Seed for the overlay's internal random source (long-link target
        selection).  ``None`` gives a non-deterministic overlay.
    """

    n_max: int = DEFAULT_N_MAX
    num_long_links: int = 1
    d_min: Optional[float] = None
    maintain_close_neighbors: bool = True
    allow_overflow: bool = False
    track_paths: bool = False
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.num_long_links < 0:
            raise ValueError(
                f"num_long_links must be >= 0, got {self.num_long_links}"
            )
        if self.d_min is not None and not 0.0 < self.d_min < math.sqrt(2.0):
            raise ValueError(
                f"d_min must lie in (0, sqrt(2)), got {self.d_min}"
            )

    @property
    def effective_d_min(self) -> float:
        """The close-neighbour radius actually used by the overlay."""
        if self.d_min is not None:
            return self.d_min
        return 1.0 / math.sqrt(math.pi * self.n_max)

