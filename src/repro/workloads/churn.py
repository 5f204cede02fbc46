"""Churn traces: interleaved join/leave/crash sequences.

The paper's maintenance algorithms (Section 3.3 / 4.2) are exercised by
replaying traces of object arrivals and departures; this module generates
such traces with a controllable arrival/departure mix and replays them
against an oracle overlay — the repo's one oracle churn generator, driven
by ``examples/churn_simulation.py`` and the end-to-end integration test.
Traces can also carry *crash* events — abrupt,
non-graceful departures — which the replay hands to a caller-supplied
callable (typically ``CrashInjector.crash`` or
``ProtocolCrashInjector.crash``), so failure studies can mix graceful and
abrupt departures in one reproducible stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.geometry.point import Point
from repro.utils.rng import RandomSource
from repro.workloads.distributions import ObjectDistribution, UniformDistribution

__all__ = ["ChurnEvent", "ChurnTrace", "generate_churn_trace", "replay_churn"]


@dataclass(frozen=True)
class ChurnEvent:
    """One churn event: a join (with a position), a leave, or a crash."""

    kind: str  # "join", "leave" or "crash"
    position: Optional[Point] = None

    def __post_init__(self) -> None:
        if self.kind not in ("join", "leave", "crash"):
            raise ValueError(
                f"kind must be 'join', 'leave' or 'crash', got {self.kind!r}")
        if self.kind == "join" and self.position is None:
            raise ValueError("join events need a position")


@dataclass(frozen=True)
class ChurnTrace:
    """An ordered sequence of churn events."""

    events: Tuple[ChurnEvent, ...]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def join_count(self) -> int:
        return sum(1 for e in self.events if e.kind == "join")

    @property
    def leave_count(self) -> int:
        return sum(1 for e in self.events if e.kind == "leave")

    @property
    def crash_count(self) -> int:
        return sum(1 for e in self.events if e.kind == "crash")


def generate_churn_trace(num_events: int, rng: RandomSource, *,
                         leave_probability: float = 0.3,
                         crash_probability: float = 0.0,
                         warmup_joins: int = 16,
                         distribution: Optional[ObjectDistribution] = None) -> ChurnTrace:
    """Generate an interleaved join/leave/crash trace.

    Parameters
    ----------
    num_events:
        Total number of events (including the warm-up joins).
    leave_probability:
        Probability that a post-warm-up event is a graceful departure; the
        expected population therefore grows at rate
        ``1 - 2·(leave_probability + crash_probability)`` per event.
    crash_probability:
        Probability that a post-warm-up event is an *abrupt* departure.
        The default of zero keeps both the event mix and the random stream
        of pre-existing traces unchanged.
    warmup_joins:
        Number of guaranteed initial joins so the overlay never drains to
        zero during the trace.
    distribution:
        Placement distribution for joining objects (uniform by default).
    """
    if num_events < warmup_joins:
        raise ValueError("num_events must be at least warmup_joins")
    if not 0.0 <= leave_probability < 1.0:
        raise ValueError("leave_probability must be in [0, 1)")
    if not 0.0 <= crash_probability < 1.0:
        raise ValueError("crash_probability must be in [0, 1)")
    if leave_probability + crash_probability >= 1.0:
        raise ValueError("leave_probability + crash_probability must be < 1")
    distribution = distribution or UniformDistribution()
    positions = distribution.sample(num_events, rng)
    events: List[ChurnEvent] = []
    position_index = 0
    population = 0
    for event_index in range(num_events):
        # The draw is skipped during warm-up (and at minimum population),
        # exactly as before crash events existed, so a fixed seed keeps
        # producing the same trace when crash_probability is zero.
        draw = None if event_index < warmup_joins or population <= 2 \
            else rng.uniform()
        if draw is None or draw >= leave_probability + crash_probability:
            events.append(ChurnEvent(kind="join",
                                     position=positions[position_index]))
            position_index += 1
            population += 1
        elif draw < leave_probability:
            events.append(ChurnEvent(kind="leave"))
            population -= 1
        else:
            events.append(ChurnEvent(kind="crash"))
            population -= 1
    return ChurnTrace(events=tuple(events))


def replay_churn(overlay, trace: ChurnTrace, rng: RandomSource, *,
                 crash: Optional[Callable[[int], None]] = None) -> List[int]:
    """Replay a churn trace against an overlay.

    Joins publish the event's position; leaves withdraw a uniformly random
    currently-published object; crash events hand a uniformly random
    victim to the ``crash`` callable (e.g.
    :meth:`CrashInjector.crash <repro.simulation.failures.CrashInjector.crash>`),
    which performs the abrupt removal.  Returns the list of object ids
    that are still alive after the replay.

    Raises
    ------
    ValueError
        When the trace contains crash events and no ``crash`` callable is
        given — silently downgrading a crash to a graceful leave would
        erase exactly the damage a failure study measures.
    """
    if trace.crash_count > 0 and crash is None:
        raise ValueError("trace contains crash events; pass a crash callable")
    alive: List[int] = list(overlay.object_ids())
    for event in trace:
        if event.kind == "join":
            alive.append(overlay.insert(event.position))
        else:
            if len(alive) <= 1:
                continue
            victim_index = rng.integer(0, len(alive))
            victim = alive.pop(victim_index)
            if event.kind == "crash":
                crash(victim)
            else:
                overlay.remove(victim)
    return alive
