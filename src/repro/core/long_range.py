"""Long-range link selection — the generalised Kleinberg mechanism.

Algorithm 3 (`Choose-LRT`) draws a long-link *target point* around an
object ``x``:

* ``a`` uniform in ``[ln d_min, ln sqrt(2)]``,
* ``θ`` uniform in ``[0, 2π)``,
* target ``LRt = x + e^a (cos θ, sin θ)``.

Lemma 2 shows the induced density of the target over the plane is
``1 / (K d²)`` with ``K = 2π ln(√2 / d_min)`` — the two-dimensional
harmonic distribution Kleinberg proved optimal for navigability, but
defined over continuous space so it applies to *any* object distribution.
The actual long-range neighbour ``LRn`` is whichever object currently owns
the Voronoi region containing the target point; ownership is re-delegated
by the maintenance procedures as objects join and leave.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.point import Point
from repro.utils.rng import RandomSource

__all__ = [
    "choose_long_range_target",
    "choose_long_range_target_array",
    "link_length_density",
    "target_area_density",
    "expected_link_count_in_disk",
]

_SQRT2 = math.sqrt(2.0)


def choose_long_range_target(position: Point, d_min: float,
                             rng: RandomSource) -> Point:
    """Draw one long-link target point for an object at ``position``.

    The target may fall outside the unit square; per the paper the link is
    then simply attached to the closest object (the owner of the region the
    target falls into once clipped by the tessellation).

    Parameters
    ----------
    position:
        Coordinates of the object choosing the link.
    d_min:
        Minimum link length (the overlay's close-neighbour radius); below
        this distance the close-neighbour set already provides connectivity.
    rng:
        Random source.
    """
    if not 0.0 < d_min < _SQRT2:
        raise ValueError(f"d_min must lie in (0, sqrt(2)), got {d_min}")
    a = rng.uniform(math.log(d_min), math.log(_SQRT2))
    theta = rng.uniform(0.0, 2.0 * math.pi)
    radius = math.exp(a)
    return (
        position[0] + radius * math.cos(theta),
        position[1] + radius * math.sin(theta),
    )


def choose_long_range_target_array(positions: np.ndarray, d_min: float,
                                   count: int, rng: RandomSource) -> np.ndarray:
    """Draw ``count`` long-link targets for *every* position in one batch.

    The fully vectorised form of Choose-LRT used by
    :meth:`~repro.core.overlay.VoroNet.bulk_load`: all ``n × count`` draws
    come from two :class:`numpy.random.Generator` calls instead of
    ``2 n count`` scalar draws.  Each per-object, per-link draw follows the
    same distribution as :func:`choose_long_range_target`.

    Parameters
    ----------
    positions:
        ``(n, 2)`` array of object coordinates.
    d_min / rng:
        As in :func:`choose_long_range_target`.
    count:
        Links per object (the Figure 8 experiment keeps several, each drawn
        with the same distribution, as in the paper).

    Returns
    -------
    ``(n, count, 2)`` array of target points (possibly outside the unit
    square, as in the scalar sampler).
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"expected (n, 2) positions, got shape {positions.shape}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if not 0.0 < d_min < _SQRT2:
        raise ValueError(f"d_min must lie in (0, sqrt(2)), got {d_min}")
    n = positions.shape[0]
    if n == 0 or count == 0:
        return np.empty((n, count, 2), dtype=np.float64)
    generator = rng.generator
    a = generator.uniform(math.log(d_min), math.log(_SQRT2), size=(n, count))
    theta = generator.uniform(0.0, 2.0 * math.pi, size=(n, count))
    radius = np.exp(a)
    offsets = np.stack((radius * np.cos(theta), radius * np.sin(theta)), axis=-1)
    return positions[:, None, :] + offsets


def link_length_density(length: float, d_min: float) -> float:
    """Probability density of the link *length* ``d(x, LRt)``.

    From equation (1) of the paper: lengths are log-uniform on
    ``[d_min, sqrt(2)]`` so the density is ``1 / (ln(sqrt(2)/d_min) · r)``.
    Zero outside the support.
    """
    if length < d_min or length > _SQRT2:
        return 0.0
    return 1.0 / (math.log(_SQRT2 / d_min) * length)


def target_area_density(distance_value: float, d_min: float) -> float:
    """Spatial density ``1 / (K d²)`` of Lemma 2 (per unit area)."""
    if distance_value < d_min or distance_value > _SQRT2:
        return 0.0
    normalisation = 2.0 * math.pi * math.log(_SQRT2 / d_min)
    return 1.0 / (normalisation * distance_value ** 2)


def expected_link_count_in_disk(distance_value: float, fraction: float,
                                d_min: float) -> float:
    """Lower bound of Lemma 3 on the probability of hitting a remote disk.

    The probability that the target of one long link lands inside a disk of
    radius ``fraction · r`` centred at distance ``r = distance_value`` from
    the chooser is at least ``π f² / (K (1 + f)²)`` — independent of ``r``.
    """
    del distance_value  # the bound is distance-independent, kept for clarity
    normalisation = 2.0 * math.pi * math.log(_SQRT2 / d_min)
    return math.pi * fraction ** 2 / (normalisation * (1.0 + fraction) ** 2)
