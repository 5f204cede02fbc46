"""Metric collection for simulations.

A small registry of named counters, owned by the protocol simulator
(operation retries and timeouts, kernel rebuilds, crashes, ...).  Values
are plain Python numbers so the registry can be serialised (e.g. into
benchmark JSON) without ceremony.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Named counters.

    Examples
    --------
    >>> metrics = MetricsRegistry()
    >>> metrics.increment("joins")
    >>> metrics.counter("joins")
    1.0
    """

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}

    def increment(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the named counter (creating it at zero)."""
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def counter(self, name: str) -> float:
        """Current value of a counter (0 when never incremented)."""
        return self._counters.get(name, 0.0)

    def counters(self) -> Dict[str, float]:
        """Copy of every counter."""
        return dict(self._counters)
