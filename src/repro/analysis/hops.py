"""Routing-cost measurement: the Figures 6 and 8 machinery.

The paper measures "mean route lengths for 100 000 random couples of
different objects in the overlay, computed after every 10 000 adds of
objects" — i.e. a sweep over overlay sizes, with a batch of random-pair
greedy routes measured at each size.  :func:`measure_routing` performs one
such batch on an oracle overlay; :func:`sweep_overlay_sizes` grows an
overlay through a size schedule, measuring at every checkpoint, and is the
one engine behind the Figure 6 and 7 experiments.

The sweep measures both planes.  Beside the oracle overlay it grows the
message-level twin, a :class:`~repro.simulation.protocol.ProtocolSimulator`
on the same config fed the same batches through ``bulk_join``, and routes
every measured pair a second time as a greedy ``QUERY`` walk over strictly
local views.  The reported hop statistics are the oracle's; the protocol
plane is held to them route for route, and each checkpoint counts the pairs
where it differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.overlay import VoroNet
from repro.core.routing import RouteResult
from repro.simulation.protocol import ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.generators import generate_routing_pairs

__all__ = ["HopStatistics", "RoutingSweepPoint", "measure_routing",
           "sweep_overlay_sizes"]


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
    """One checkpoint of a size sweep.

    ``stats`` summarises the oracle's routes; ``mismatches`` counts the
    measured pairs whose protocol ``QUERY`` walk ended at another owner or
    took another number of hops.
    """

    size: int
    stats: HopStatistics
    mismatches: int

    @property
    def mean_hops(self) -> float:
        return self.stats.mean


def _route_statistics(routes: Sequence[RouteResult]) -> HopStatistics:
    """Summarise routed results: successes count hops, the rest fail."""
    hops = [r.hops for r in routes if r.success]
    return HopStatistics.from_hops(hops, failures=len(routes) - len(hops))


def measure_routing(overlay: VoroNet, num_pairs: int,
                    rng: RandomSource) -> HopStatistics:
    """Measure greedy-route lengths between random pairs of distinct objects.

    Uses the overlay's batched :meth:`~repro.core.overlay.VoroNet.route_many`
    API; per-pair results are identical to individual
    :func:`~repro.core.routing.route_to_object` calls.
    """
    pairs = generate_routing_pairs(overlay.object_ids(), num_pairs, rng)
    return _route_statistics(overlay.route_many(pairs))


def sweep_overlay_sizes(positions: Sequence, checkpoints: Sequence[int],
                        rng: RandomSource, *,
                        num_pairs: int = 1000,
                        overlay_factory: Optional[Callable[[], VoroNet]] = None,
                        ) -> List[RoutingSweepPoint]:
    """Grow an overlay and its protocol twin through ``checkpoints``; route
    the same pairs on both at each.

    Both planes grow between checkpoints by the same batch: the oracle
    through :meth:`~repro.core.overlay.VoroNet.bulk_load` (the Voronoi and
    close structure of the same objects joining one by one, long links from
    the same distribution, at a fraction of the construction cost — which
    is what lets the Figure 5–8 sweeps reach paper scale, N ≥ 10⁴, on
    laptops) and the twin, ``ProtocolSimulator(overlay.config)``, through
    :meth:`~repro.simulation.protocol.ProtocolSimulator.bulk_join`, whose
    per-node views are pinned identical to ``bulk_load``'s.  Both assign
    ids in input order, so an id names the same object on both planes.

    At each checkpoint the pairs are drawn once, from the oracle's ids, and
    routed by :meth:`~repro.core.overlay.VoroNet.route_many` and, one at a
    time, by :meth:`~repro.simulation.protocol.ProtocolSimulator.query`
    from the source to the destination's position.  The twin draws nothing
    from ``rng``, so the oracle's statistics do not depend on it.

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
        Callable building the (empty) oracle overlay; defaults to a
        :class:`VoroNet` dimensioned for the largest checkpoint.  The twin
        is built from its config.
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
    simulator = ProtocolSimulator(overlay.config)
    results: List[RoutingSweepPoint] = []
    inserted = 0
    for checkpoint in checkpoints:
        batch = [positions[index] for index in range(inserted, checkpoint)]
        overlay.bulk_load(batch)
        simulator.bulk_join(batch)
        inserted = checkpoint
        pairs = generate_routing_pairs(overlay.object_ids(), num_pairs, rng)
        routes = overlay.route_many(pairs)
        mismatches = 0
        for (source, destination), route in zip(pairs, routes):
            report = simulator.query(overlay.position_of(destination),
                                     start=source)
            if (report.owner, report.routing_hops) != (route.owner, route.hops):
                mismatches += 1
        results.append(RoutingSweepPoint(size=checkpoint,
                                         stats=_route_statistics(routes),
                                         mismatches=mismatches))
    return results
