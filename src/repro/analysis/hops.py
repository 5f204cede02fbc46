"""Routing-cost measurement: the Figures 6 and 8 machinery.

The paper measures "mean route lengths for 100 000 random couples of
different objects in the overlay, computed after every 10 000 adds of
objects" — i.e. a sweep over overlay sizes, with a batch of random-pair
greedy routes measured at each size.  :func:`measure_routing` performs one
such batch; :func:`sweep_overlay_sizes` grows an overlay through a size
schedule, measuring at every checkpoint, and is the common engine behind
the Figure 6 and 7 experiments.

:func:`sweep_protocol_overlay_sizes` is the message-level twin: the
overlay grows through :meth:`ProtocolSimulator.bulk_join
<repro.simulation.protocol.ProtocolSimulator.bulk_join>` and every
measured route is an actual greedy ``QUERY`` walk over per-node local
views — ground truth for the oracle sweep's routing figures at sizes the
sequential join protocol could never reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

import numpy as np

from repro.core.overlay import VoroNet
from repro.utils.rng import RandomSource
from repro.workloads.generators import generate_routing_pairs

if TYPE_CHECKING:  # pragma: no cover - avoids a hard simulation dependency
    from repro.simulation.protocol import ProtocolSimulator

__all__ = ["HopStatistics", "RoutingSweepPoint", "measure_routing",
           "sweep_overlay_sizes", "measure_protocol_routing",
           "sweep_protocol_overlay_sizes"]


@dataclass(frozen=True)
class HopStatistics:
    """Summary of one batch of measured routes."""

    samples: int
    mean: float
    median: float
    p95: float
    maximum: int
    failures: int

    @classmethod
    def from_hops(cls, hops: Sequence[int], failures: int = 0) -> "HopStatistics":
        """Build the summary from a raw list of per-route hop counts."""
        if len(hops) == 0:
            return cls(samples=0, mean=0.0, median=0.0, p95=0.0, maximum=0,
                       failures=failures)
        array = np.asarray(hops, dtype=np.float64)
        return cls(
            samples=int(array.size),
            mean=float(array.mean()),
            median=float(np.median(array)),
            p95=float(np.percentile(array, 95)),
            maximum=int(array.max()),
            failures=failures,
        )


@dataclass(frozen=True)
class RoutingSweepPoint:
    """One checkpoint of a size sweep: overlay size plus its hop statistics."""

    size: int
    stats: HopStatistics

    @property
    def mean_hops(self) -> float:
        return self.stats.mean


def measure_routing(overlay: VoroNet, num_pairs: int,
                    rng: RandomSource) -> HopStatistics:
    """Measure greedy-route lengths between random pairs of distinct objects.

    Uses the overlay's batched :meth:`~repro.core.overlay.VoroNet.route_many`
    API; per-pair results are identical to individual
    :func:`~repro.core.routing.route_to_object` calls.
    """
    ids = overlay.object_ids()
    pairs = generate_routing_pairs(ids, num_pairs, rng)
    results = overlay.route_many(pairs)
    hops: List[int] = [r.hops for r in results if r.success]
    failures = sum(1 for r in results if not r.success)
    return HopStatistics.from_hops(hops, failures=failures)


def sweep_overlay_sizes(positions: Sequence, checkpoints: Sequence[int],
                        rng: RandomSource, *,
                        num_pairs: int = 1000,
                        overlay_factory: Optional[Callable[[], VoroNet]] = None,
                        ) -> List[RoutingSweepPoint]:
    """Grow an overlay through ``checkpoints`` and measure routing at each.

    The overlay grows between checkpoints through
    :meth:`~repro.core.overlay.VoroNet.bulk_load`: the Voronoi and close
    structure of the same objects joining one by one, long links from the
    same distribution, at a fraction of the construction cost — which is
    what lets the Figure 5–8 sweeps reach paper scale (N ≥ 10⁴) on laptops.

    Parameters
    ----------
    positions:
        The full stream of object positions; ``max(checkpoints)`` of them are
        consumed.
    checkpoints:
        Increasing overlay sizes at which a routing batch is measured (the
        paper uses every 10 000 objects up to 300 000).
    rng:
        Random source for pair selection.
    num_pairs:
        Routes measured per checkpoint.
    overlay_factory:
        Callable building the (empty) overlay; defaults to a
        :class:`VoroNet` dimensioned for the largest checkpoint.
    """
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    largest = checkpoints[-1]
    if len(positions) < largest:
        raise ValueError(
            f"need {largest} positions for the largest checkpoint, got {len(positions)}"
        )
    if overlay_factory is None:
        overlay = VoroNet(n_max=max(largest, 2), seed=rng.integer(0, 2**31 - 1))
    else:
        overlay = overlay_factory()
    results: List[RoutingSweepPoint] = []
    inserted = 0
    for checkpoint in checkpoints:
        overlay.bulk_load([positions[index]
                           for index in range(inserted, checkpoint)])
        inserted = checkpoint
        stats = measure_routing(overlay, num_pairs, rng)
        results.append(RoutingSweepPoint(size=checkpoint, stats=stats))
    return results


def measure_protocol_routing(simulator, num_pairs: int,
                             rng: RandomSource) -> HopStatistics:
    """Measure greedy route lengths between random pairs, message-level.

    Each pair ``(start, destination)`` routes one ``QUERY`` from ``start``
    to the destination's position; since the destination is a published
    object, the owner of its position is the destination itself, so a
    query answered by anyone else counts as a routing failure.
    """
    ids = simulator.object_ids()
    pairs = generate_routing_pairs(ids, num_pairs, rng)
    hops: List[int] = []
    failures = 0
    for start, destination in pairs:
        report = simulator.query(simulator.node(destination).position,
                                 start=start)
        if report.owner == destination:
            hops.append(report.routing_hops)
        else:
            failures += 1
    return HopStatistics.from_hops(hops, failures=failures)


def sweep_protocol_overlay_sizes(positions: Sequence, checkpoints: Sequence[int],
                                 rng: RandomSource, *,
                                 num_pairs: int = 1000,
                                 simulator_factory: Optional[Callable[[], "ProtocolSimulator"]] = None,
                                 ) -> List[RoutingSweepPoint]:
    """Message-level mirror of :func:`sweep_overlay_sizes`.

    The overlay grows between checkpoints through
    :meth:`~repro.simulation.protocol.ProtocolSimulator.bulk_join` — the
    batched message pipeline whose per-node views are pinned identical to
    ``bulk_load`` — and each checkpoint measures
    :func:`measure_protocol_routing` batches, so every reported hop count
    comes from greedy forwarding over strictly local views.  This is what
    gives the Figure 6/7 oracle sweeps message-level ground truth at
    N = 10⁴ and beyond.
    """
    from repro.core.config import VoroNetConfig
    from repro.simulation.protocol import ProtocolSimulator

    checkpoints = sorted(set(int(c) for c in checkpoints))
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    largest = checkpoints[-1]
    if len(positions) < largest:
        raise ValueError(
            f"need {largest} positions for the largest checkpoint, got {len(positions)}"
        )
    if simulator_factory is None:
        # Dimension exactly like the oracle sweep's default overlay:
        # d_min and the long-link distribution derive from n_max, so a
        # different capacity would measure a structurally different
        # overlay, not the oracle's message-level mirror.
        seed = rng.integer(0, 2**31 - 1)
        simulator = ProtocolSimulator(
            VoroNetConfig(n_max=max(largest, 2), seed=seed), seed=seed)
    else:
        simulator = simulator_factory()
    results: List[RoutingSweepPoint] = []
    inserted = 0
    for checkpoint in checkpoints:
        simulator.bulk_join([positions[index]
                             for index in range(inserted, checkpoint)])
        inserted = checkpoint
        stats = measure_protocol_routing(simulator, num_pairs, rng)
        results.append(RoutingSweepPoint(size=checkpoint, stats=stats))
    return results
