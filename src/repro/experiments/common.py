"""Shared plumbing of the experiment drivers."""

from __future__ import annotations

from typing import List, NamedTuple

from repro.core import VoroNet, VoroNetConfig
from repro.utils.rng import RandomSource
from repro.workloads.distributions import ObjectDistribution
from repro.workloads.generators import generate_objects

__all__ = [
    "Claim",
    "scaled",
    "build_overlay",
    "checkpoint_schedule",
    "evaluation_distributions",
    "CAPACITY_HEADROOM",
    "EVALUATION_CELLS_PER_AXIS",
]

#: Value-grid resolution used by the figure experiments' power-law
#: workloads.  The paper's 300 000-object overlays have a close-neighbour
#: radius ``d_min ≈ 0.001``, so even its most popular attribute value spans
#: many ``d_min``; at laptop-scale populations ``d_min`` is an order of
#: magnitude larger, and a fine value grid would collapse the α=5 hot spot
#: into a single close-neighbour clique (routing inside it becomes one hop,
#: which the paper's setting never exhibits).  A coarser grid keeps the
#: ratio between the hot-value extent and ``d_min`` in the paper's regime.
EVALUATION_CELLS_PER_AXIS = 8

#: Overlays are dimensioned with this headroom factor over the number of
#: objects actually inserted.  The paper sets ``N_max`` to the final overlay
#: size; giving the capacity a small headroom (as a deployment would) keeps
#: ``d_min`` — and therefore close-neighbour upkeep in the extreme α=5 hot
#: spot — proportionally smaller without affecting any routing claim (the
#: poly-log bound is in ``N_max`` and only improves when ``N < N_max``).
CAPACITY_HEADROOM = 4


class Claim(NamedTuple):
    """One scorecard row: what the paper claims, what this run measured.

    Every experiment module exposes ``claims(result) -> List[Claim]``; the
    runner prints the rows after the tables, writes them to
    ``REPRODUCTION.json`` and exits non-zero when any ``holds`` is false.
    ``claim`` is the row's identity within its experiment, so its wording
    must not depend on the scale or the seed.
    """

    claim: str
    measured: object
    holds: bool


def scaled(base: int, scale: float, minimum: int = 8) -> int:
    """Scale an object/pair count, never below ``minimum``."""
    return max(minimum, int(round(base * scale)))


def build_overlay(distribution: ObjectDistribution, count: int, seed: int, *,
                  num_long_links: int = 1,
                  maintain_close_neighbors: bool = True,
                  capacity: int | None = None) -> VoroNet:
    """Build an overlay populated with ``count`` objects from a distribution.

    Construction is :meth:`~repro.core.overlay.VoroNet.bulk_load` — the
    Voronoi and close-neighbour structure of ``count`` routed joins, long
    links drawn from the same distribution — so this is for experiments
    that measure the *final* overlay; one that measures the join process
    itself (ABL3) calls ``insert_many``.
    """
    rng = RandomSource(seed)
    positions = generate_objects(distribution, count, rng)
    config = VoroNetConfig(
        n_max=capacity if capacity is not None else CAPACITY_HEADROOM * count,
        num_long_links=num_long_links,
        maintain_close_neighbors=maintain_close_neighbors,
        seed=seed,
    )
    overlay = VoroNet(config)
    overlay.bulk_load(positions)
    return overlay


def evaluation_distributions() -> List[ObjectDistribution]:
    """The paper's four evaluation distributions, tuned for laptop scale.

    Uniform plus power-law α ∈ {1, 2, 5}, the power-law families built on
    the coarser :data:`EVALUATION_CELLS_PER_AXIS` value grid (see its
    docstring for the scaling rationale).
    """
    from repro.workloads.distributions import PowerLawDistribution, UniformDistribution

    return [
        UniformDistribution(),
        PowerLawDistribution(alpha=1.0, cells_per_axis=EVALUATION_CELLS_PER_AXIS),
        PowerLawDistribution(alpha=2.0, cells_per_axis=EVALUATION_CELLS_PER_AXIS),
        PowerLawDistribution(alpha=5.0, cells_per_axis=EVALUATION_CELLS_PER_AXIS),
    ]


def checkpoint_schedule(max_size: int, steps: int) -> List[int]:
    """Evenly spaced overlay-size checkpoints ending at ``max_size``.

    Mirrors the paper's "measured after every 10 000 adds" protocol with a
    configurable number of steps.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return sorted({max(8, round(max_size * (i + 1) / steps)) for i in range(steps)})
