"""Execution traces of simulation runs.

A :class:`TraceRecorder` keeps a bounded in-memory log of interesting
events (message sends, operation starts/ends, view updates) so integration
tests and examples can assert on protocol behaviour ("the join touched only
the region owner's neighbourhood") without printf-debugging the simulator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional

__all__ = ["TraceRecord", "TraceRecorder"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry."""

    time: float
    kind: str
    details: Dict[str, Any] = field(default_factory=dict)


class TraceRecorder:
    """Bounded, filterable event trace.

    Parameters
    ----------
    capacity:
        Maximum number of records kept (oldest are evicted first).
    enabled:
        A disabled recorder drops records immediately; recording can be
        toggled at runtime so only interesting phases are traced.
    """

    __slots__ = ("_records", "enabled", "dropped")

    def __init__(self, capacity: int = 100_000, enabled: bool = True) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._records: Deque[TraceRecord] = deque(maxlen=capacity)
        self.enabled = enabled
        self.dropped = 0

    def record(self, time: float, kind: str, **details: Any) -> None:
        """Append one record (no-op when disabled)."""
        if not self.enabled:
            self.dropped += 1
            return
        if len(self._records) == self._records.maxlen:
            self.dropped += 1
        self._records.append(TraceRecord(time=time, kind=kind, details=details))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def records(self, kind: Optional[str] = None,
                predicate: Optional[Callable[[TraceRecord], bool]] = None
                ) -> List[TraceRecord]:
        """Records matching an optional kind and/or predicate filter."""
        result: Iterable[TraceRecord] = self._records
        if kind is not None:
            result = (r for r in result if r.kind == kind)
        if predicate is not None:
            result = (r for r in result if predicate(r))
        return list(result)

    def count(self, kind: str) -> int:
        """Number of records of the given kind."""
        return sum(1 for r in self._records if r.kind == kind)

    def counts_by_kind(self) -> Dict[str, int]:
        """Record counts per kind — a one-glance summary of a run.

        Fault experiments lean on this: a harness run leaves ``crash``,
        ``suspect`` and ``repair_round`` records whose counts are the
        cheapest possible convergence cross-check.
        """
        counts: Dict[str, int] = {}
        for record in self._records:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        return counts

    def last(self, kind: str) -> Optional[TraceRecord]:
        """The most recent record of the given kind, or ``None``."""
        for record in reversed(self._records):
            if record.kind == kind:
                return record
        return None

    def clear(self) -> None:
        """Drop every record."""
        self._records.clear()
        self.dropped = 0
