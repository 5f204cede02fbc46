"""Lightweight operation statistics collected by the overlay.

Every join, leave, route and query performed through
:class:`repro.core.overlay.VoroNet` updates these counters, so experiments
can report the *cost* of overlay maintenance (hops spent routing joins,
messages the distributed protocol would exchange) without re-instrumenting
call sites.  The message counts follow the accounting of Section 4.2: one
message per greedy forwarding step, one per neighbour notified during
``AddVoronoiRegion`` / ``RemoveVoronoiRegion``, and one per long-link
re-delegation.

Both classes are slotted dataclasses, so a mistyped counter — ``+=``, a
method call or a plain assignment — raises ``AttributeError`` at the write
instead of silently creating a fresh attribute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

__all__ = ["OperationStats", "OverlayStats"]


@dataclass(slots=True)
class OperationStats:
    """Aggregated statistics for one operation type (join, leave, route, ...)."""

    count: int = 0
    total_hops: int = 0
    total_messages: int = 0
    max_hops: int = 0
    max_messages: int = 0

    def record(self, hops: int, messages: int) -> None:
        """Record one operation with its hop and message cost."""
        self.count += 1
        self.total_hops += hops
        self.total_messages += messages
        self.max_hops = max(self.max_hops, hops)
        self.max_messages = max(self.max_messages, messages)

    def record_many(self, hops: Sequence[int]) -> None:
        """Record a batch of routes: one operation per entry, one message per hop."""
        if hops:
            total, longest = sum(hops), max(hops)
            self.count += len(hops)
            self.total_hops += total
            self.total_messages += total
            self.max_hops = max(self.max_hops, longest)
            self.max_messages = max(self.max_messages, longest)

    def record_repeated(self, count: int, hops: int, messages: int) -> None:
        """Record ``count`` operations of one cost, as ``count`` calls of
        :meth:`record` would."""
        if count:
            self.count += count
            self.total_hops += count * hops
            self.total_messages += count * messages
            self.max_hops = max(self.max_hops, hops)
            self.max_messages = max(self.max_messages, messages)

    @property
    def mean_hops(self) -> float:
        """Mean number of routing hops per operation (0 when unused)."""
        return self.total_hops / self.count if self.count else 0.0

    @property
    def mean_messages(self) -> float:
        """Mean number of protocol messages per operation (0 when unused)."""
        return self.total_messages / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict summary (handy for benchmark result tables)."""
        return {
            "count": self.count,
            "mean_hops": self.mean_hops,
            "max_hops": self.max_hops,
            "mean_messages": self.mean_messages,
            "max_messages": self.max_messages,
        }


@dataclass(slots=True)
class OverlayStats:
    """All per-overlay statistics, grouped by operation type.

    ``routing_table_rebuilds`` counts every build of a per-object flat
    routing table: the first request for it, and each request after a
    mutation named the object and dropped its table.  Divided by routes it
    is how cold routing runs (``perf/``'s ``table_rebuilds_per_route``).

    ``operation_timeouts`` / ``operation_retries`` are always 0: the
    oracle runs no multi-message operation, so it has no watchdog to
    expire.  The message-level simulator counts its expiries and retries
    under the same names on ``simulator.metrics``; the two fields stay
    because ``perf/systems.py`` reads them.

    ``kernel_rebuilds`` counts departures (leaves and crashes) that took
    the geometry kernel's slow door: the object sat on the convex hull, so
    the tessellation was rebuilt from all remaining points — O(N) against
    the O(1) of an interior departure
    (:attr:`DelaunayTriangulation.rebuild_count`, as a resettable delta).

    ``query_misses`` counts batch queries answered with the defined miss
    result because an endpoint departed before the query was served
    (``route_many(missing="miss")`` under traffic-time churn).
    """

    joins: OperationStats = field(default_factory=OperationStats)
    leaves: OperationStats = field(default_factory=OperationStats)
    routes: OperationStats = field(default_factory=OperationStats)
    queries: OperationStats = field(default_factory=OperationStats)
    long_link_searches: OperationStats = field(default_factory=OperationStats)
    routing_table_rebuilds: int = 0
    operation_timeouts: int = 0
    operation_retries: int = 0
    kernel_rebuilds: int = 0
    query_misses: int = 0

    def reset(self) -> None:
        """Zero every counter (e.g. between benchmark phases)."""
        self.joins = OperationStats()
        self.leaves = OperationStats()
        self.routes = OperationStats()
        self.queries = OperationStats()
        self.long_link_searches = OperationStats()
        self.routing_table_rebuilds = 0
        self.operation_timeouts = 0
        self.operation_retries = 0
        self.kernel_rebuilds = 0
        self.query_misses = 0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict summary: per-operation stat dicts plus flat counters.

        Values are per-operation dicts for the operation groups and a bare
        int for each flat counter.
        """
        return {
            "joins": self.joins.as_dict(),
            "leaves": self.leaves.as_dict(),
            "routes": self.routes.as_dict(),
            "queries": self.queries.as_dict(),
            "long_link_searches": self.long_link_searches.as_dict(),
            "routing_table_rebuilds": self.routing_table_rebuilds,
            "operation_timeouts": self.operation_timeouts,
            "operation_retries": self.operation_retries,
            "kernel_rebuilds": self.kernel_rebuilds,
            "query_misses": self.query_misses,
        }

    def describe(self) -> List[str]:
        """Human-readable one-line-per-operation summary."""
        lines = []
        for name, stats in self.as_dict().items():
            if not isinstance(stats, dict):
                lines.append(f"{name:>19}: {stats}")
                continue
            lines.append(
                f"{name:>19}: count={stats['count']:<8.0f}"
                f" mean_hops={stats['mean_hops']:<7.2f}"
                f" mean_messages={stats['mean_messages']:<8.2f}"
            )
        return lines
