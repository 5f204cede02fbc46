"""The discrete-event simulation engine.

A minimal but complete event-driven core: a priority queue ordered by
virtual time with deterministic tie-breaking, cancellation, bounded runs
and basic accounting.  All higher layers (the network, churn injection,
the VoroNet protocol) only ever talk to :meth:`SimulationEngine.schedule`
and :meth:`SimulationEngine.run`.

Hot-path design
---------------
The engine is the floor under every message-level experiment, so the inner
loop is deliberately flat.  The heap holds 4-tuples
``(time, sequence, target, arg)``, compared entirely at C level, since the
unique ``(time, sequence)`` prefix settles every comparison:

* **API entries** carry a cancellable :class:`Event` in the target slot
  (marked by the sentinel arg ``_EVENT_ENTRY``): what :meth:`schedule` /
  :meth:`schedule_call` return, supporting ``cancel()`` and inspection.
  They always go on the heap.
* **Raw entries** carry an int *port* and the argument: the network's
  per-message delivery path (:meth:`push_call`).  A port indexes the
  engine's table of handlers (:meth:`open_port`), so a raw entry holds no
  callable.  Raw entries cannot be cancelled individually — the network
  voids a closed node's deliveries wholesale through
  :meth:`cancel_actions` (on ``unregister``), which filters both queues.

Beside the heap sits a **FIFO lane** for the raw entries due
:data:`LATENCY` after their push: every counted delivery, since one hop
costs one time unit.  The clock never runs backwards and sequence numbers
only grow, so entries appended at ``now + LATENCY`` arrive already sorted
by ``(time, sequence)``.  Every pop takes whichever head of the two queues
is smaller: exactly the single heap's order with the same sequence
numbers, at the price of an append and a ``popleft`` instead of two
``O(log n)`` heap walks.  The heap keeps the cancellable events (the
watchdogs) and the zero-delay local hand-offs.

The lane keeps each entry as a key ``(time, sequence, port)`` in one deque
and its argument in a second, moved in step, so that an in-flight message
costs the full collections nothing.  CPython untracks a tuple once it
finds every item untracked, and a message tuple of atomic values is
untracked at its first young collection.  But the collector examines a
holder before the fresh tuple only the holder reaches, so a heap entry
holding a fresh message is untracked one collection later than the
message, and every generation-1 pass promotes the entries of the last
young window (about 8 % of a 10⁴-node heartbeat round).  A lane key holds
only atomics, and a message the deque reaches directly is examined where
it sits, so both halves are untracked at their first young collection and
none is ever promoted.

Quiescence — the phase barrier of ``bulk_join`` and the repair protocol —
is O(1): a counter of cancelled-but-still-queued events is maintained
incrementally, and the heap is compacted in place when cancelled entries
outnumber live ones, so mass cancellation (churn teardown, heartbeat
``stop``) cannot leave the heap dominated by dead entries.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.simulation.events import NO_ARG, Event

__all__ = ["LATENCY", "SimulationEngine", "Watchdog"]

#: Delivery delay of every counted message, in virtual time units: one hop
#: costs one unit, so a routed operation's virtual duration is its hop count.
LATENCY = 1.0

#: Queues smaller than this are never compacted — rebuilding them costs
#: more than lazily popping the handful of cancelled entries.
_COMPACT_MIN_QUEUE = 64


class _EventEntry:
    """Sentinel: this heap entry's action slot holds an :class:`Event`."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "EVENT_ENTRY"


_EVENT_ENTRY = _EventEntry()


class SimulationEngine:
    """Priority-queue driven virtual-time simulator.

    Examples
    --------
    >>> engine = SimulationEngine()
    >>> fired = []
    >>> _ = engine.schedule(2.0, lambda: fired.append("b"))
    >>> _ = engine.schedule(1.0, lambda: fired.append("a"))
    >>> engine.run()
    2
    >>> fired
    ['a', 'b']
    """

    __slots__ = ("_queue", "_lane", "_lane_args", "_ports",
                 "_sequence", "_now", "_processed", "_cancelled")

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Any, Any]] = []
        #: The FIFO lane (module docstring): keys ``(time, sequence, port)``
        #: of the raw entries pushed with delay :data:`LATENCY`, in
        #: ``(time, sequence)`` order by construction, and their arguments.
        self._lane: Deque[Tuple[float, int, int]] = deque()
        self._lane_args: Deque[Any] = deque()
        #: Port → handler; a closed port holds ``None``.
        self._ports: List[Optional[Callable[[Any], None]]] = []
        self._sequence = 0
        self._now = 0.0
        self._processed = 0
        #: Cancelled events still sitting in the heap.  Maintained by
        #: Event.cancel() (via ``_note_cancelled``), the pop paths and
        #: compaction; ``quiescent`` is the O(1) comparison of this
        #: against the queue lengths.
        self._cancelled = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue) + len(self._lane)

    @property
    def runnable_events(self) -> int:
        """Number of non-cancelled events still queued (O(1))."""
        return len(self._queue) + len(self._lane) - self._cancelled

    @property
    def quiescent(self) -> bool:
        """Whether no runnable (non-cancelled) event is pending — in O(1).

        Batched operations such as the protocol simulator's ``bulk_join``
        use this as a precondition: their phase barriers assume each
        drain consumed *their* messages, which only holds when nothing
        unrelated was in flight to begin with.  The check compares the
        incrementally maintained cancelled-event count against the queue
        lengths, so polling it is free even with 10⁵ events queued.
        """
        return not self._lane and len(self._queue) == self._cancelled

    # ------------------------------------------------------------------
    def schedule(self, delay: float, action: Callable[[], None],
                 label: Optional[str] = None) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        time = self._now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, sequence, action, label)
        event._engine = self
        heapq.heappush(self._queue, (time, sequence, event, _EVENT_ENTRY))
        return event

    def schedule_call(self, delay: float, action: Callable[[Any], None],
                      arg: Any, label: Optional[str] = None) -> Event:
        """Schedule ``action(arg)`` on a cancellable event.

        Equivalent to ``schedule(delay, lambda: action(arg))`` without the
        per-call closure allocation.  For fire-and-forget work that needs
        no cancel handle at all (message delivery), :meth:`push_call` is
        cheaper still.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        time = self._now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, sequence, action, label, arg)
        event._engine = self
        heapq.heappush(self._queue, (time, sequence, event, _EVENT_ENTRY))
        return event

    def open_port(self, handler: Callable[[Any], None]) -> int:
        """Enter ``handler`` in the port table; returns its port."""
        self._ports.append(handler)
        return len(self._ports) - 1

    def close_port(self, port: int) -> None:
        """Retire ``port``; no entry addressed to it may still be queued."""
        self._ports[port] = None

    def push_call(self, delay: float, port: int, arg: Any) -> None:
        """Schedule ``handler(arg)`` for the handler behind ``port``, with
        no event object — the delivery path.

        The entry goes on the FIFO lane when ``delay`` is :data:`LATENCY`
        and on the heap otherwise; the run loop invokes the handler without
        cancellation or bookkeeping checks.  No handle
        is returned; such entries are only removable wholesale via
        :meth:`cancel_actions`.  The caller guarantees ``delay`` is
        non-negative.
        """
        time = self._now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        if delay == LATENCY:
            self._lane.append((time, sequence, port))
            self._lane_args.append(arg)
        else:
            heapq.heappush(self._queue, (time, sequence, port, arg))

    def schedule_at(self, time: float, action: Callable[[], None],
                    label: Optional[str] = None) -> Event:
        """Schedule ``action`` at an absolute virtual time (not before now)."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past ({time} < {self._now})")
        return self.schedule(time - self._now, action, label)

    # ------------------------------------------------------------------
    # cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """An in-queue event was cancelled; compact when they dominate."""
        self._cancelled += 1
        if (self._cancelled * 2 > len(self._queue)
                and len(self._queue) >= _COMPACT_MIN_QUEUE):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In place (slice assignment) so aliases of the queue held by a
        running drain loop stay valid; discarded events are detached from
        the engine so late ``cancel()`` calls on them cannot skew the
        runnable accounting.
        """
        live = []
        for entry in self._queue:
            if entry[3] is _EVENT_ENTRY and entry[2].cancelled:
                entry[2]._engine = None
            else:
                live.append(entry)
        self._queue[:] = live
        heapq.heapify(self._queue)
        self._cancelled = 0

    def cancel_actions(self, port: int) -> List[Any]:
        """Remove every pending raw entry addressed to ``port``.

        Returns the removed entries' arguments, so the caller can account
        for what was voided.  The network layer uses this on
        ``unregister`` to void in-flight deliveries to a node that just
        left or crashed.  Both queues are filtered in place (a running
        drain loop holds aliases of them); the heap pass doubles as a
        compaction: cancelled events are dropped too (unreported).
        """
        removed: List[Any] = []
        keep = []
        for entry in self._queue:
            if entry[3] is _EVENT_ENTRY:
                if entry[2].cancelled:
                    entry[2]._engine = None
                    continue
            elif entry[2] == port:
                removed.append(entry[3])
                continue
            keep.append(entry)
        if len(keep) != len(self._queue):
            self._queue[:] = keep
            heapq.heapify(self._queue)
        self._cancelled = 0
        lane, args = self._lane, self._lane_args
        if any(key[2] == port for key in lane):
            entries = list(zip(lane, args))
            lane.clear()
            args.clear()
            for key, arg in entries:
                if key[2] == port:
                    removed.append(arg)
                else:
                    lane.append(key)
                    args.append(arg)
        return removed

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event; returns False when none is left."""
        queue, lane = self._queue, self._lane
        while queue or lane:
            if lane and not (queue and queue[0] < lane[0]):
                time, _sequence, target = lane.popleft()
                arg = self._lane_args.popleft()
            else:
                time, _sequence, target, arg = heapq.heappop(queue)
            if arg is _EVENT_ENTRY:
                event = target
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event._engine = None
                self._now = time
                event_arg = event.arg
                if event_arg is NO_ARG:
                    event.action()
                else:
                    event.action(event_arg)
            else:
                self._now = time
                self._ports[target](arg)
            self._processed += 1
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` is hit); returns events run."""
        executed = 0
        if max_events is None:
            # The unbounded drain is the phase barrier of every protocol
            # operation — inline the step loop so a message delivery costs
            # one C-level tuple comparison, one pop and one call.
            queue, lane, ports = self._queue, self._lane, self._ports
            pop, popleft, popleft_arg = heapq.heappop, lane.popleft, self._lane_args.popleft
            event_entry = _EVENT_ENTRY
            no_arg = NO_ARG
            while True:
                if lane:
                    if queue and queue[0] < lane[0]:
                        time, _sequence, target, arg = pop(queue)
                    else:
                        time, _sequence, target = popleft()
                        arg = popleft_arg()
                elif queue:
                    time, _sequence, target, arg = pop(queue)
                else:
                    break
                if arg is event_entry:
                    event = target
                    if event.cancelled:
                        self._cancelled -= 1
                        continue
                    event._engine = None
                    self._now = time
                    arg = event.arg
                    if arg is no_arg:
                        event.action()
                    else:
                        event.action(arg)
                else:
                    self._now = time
                    ports[target](arg)
                executed += 1
            self._processed += executed
            return executed
        while executed < max_events and self.step():
            executed += 1
        return executed

    def run_until_quiescent(self, max_events: Optional[int] = None) -> int:
        """Drain every runnable event; returns how many were executed.

        The batched operations' phase barrier: ``bulk_join`` and the repair
        protocol call this between phases so each phase observes the
        complete effect of the previous one.  Functionally this is
        :meth:`run` — the queue is drained until :attr:`quiescent` — but
        the intent (barrier, not "run the simulation") is explicit at the
        call sites.
        """
        return self.run(max_events)

    def run_until(self, time: float) -> int:
        """Run every event scheduled up to and including ``time``."""
        executed = 0
        queue, lane = self._queue, self._lane
        while True:
            if queue and queue[0][3] is _EVENT_ENTRY and queue[0][2].cancelled:
                # Cancelled events (on the heap only) go as they surface.
                heapq.heappop(queue)[2]._engine = None
                self._cancelled -= 1
                continue
            if lane and not (queue and queue[0] < lane[0]):
                head_time = lane[0][0]
            elif queue:
                head_time = queue[0][0]
            else:
                break
            if head_time > time:
                break
            self.step()
            executed += 1
        self._now = max(self._now, time)
        return executed

    def reset(self) -> None:
        """Drop every pending event and rewind the clock to zero."""
        for entry in self._queue:
            if entry[3] is _EVENT_ENTRY:
                entry[2]._engine = None
        self._queue.clear()
        self._lane.clear()
        self._lane_args.clear()
        self._cancelled = 0
        self._now = 0.0
        self._processed = 0


class Watchdog:
    """Progress-aware timeout built on the engine's cancellable events.

    Arms one scheduled event ``timeout`` time units out.  :meth:`poke`
    records progress without touching the queue (an O(1) attribute write —
    safe to call once per message on the hot path); when the armed event
    fires, the watchdog compares the clock against the last recorded
    progress and either *re-schedules itself* at ``last_progress + timeout``
    (progress happened, so the operation is alive) or invokes ``on_expire``
    (nothing happened for a full timeout window: a genuine wedge).

    This is what lets the protocol layer put a timeout on multi-hop
    operations whose healthy duration is unbounded (a routed walk pokes the
    watchdog on every hop) while still detecting a crash-severed operation
    after exactly one quiet window.  An operation that completes cancels
    its watchdog, so a fault-free run schedules and cancels the same events
    regardless of outcome — byte-identical virtual time and message counts,
    which the deterministic-replay tests rely on.
    """

    __slots__ = ("_engine", "timeout", "_on_expire", "_label", "_event",
                 "_last_progress", "fired")

    def __init__(self, engine: SimulationEngine, timeout: float,
                 on_expire: Callable[[], None],
                 label: Optional[str] = "watchdog") -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self._engine = engine
        self.timeout = timeout
        self._on_expire = on_expire
        self._label = label
        self._last_progress = engine.now
        #: Number of genuine expiries delivered to ``on_expire`` so far.
        self.fired = 0
        self._event: Optional[Event] = engine.schedule(timeout, self._fire,
                                                       label=label)

    @property
    def active(self) -> bool:
        """Whether an expiry event is currently armed."""
        return self._event is not None

    def poke(self) -> None:
        """Record progress: the expiry check slides to ``now + timeout``."""
        self._last_progress = self._engine.now

    def cancel(self) -> None:
        """Disarm the watchdog (the operation completed)."""
        event = self._event
        if event is not None:
            event.cancel()
            self._event = None

    def rearm(self, timeout: Optional[float] = None) -> None:
        """Re-arm after an expiry (or re-start a cancelled watchdog).

        An optional new ``timeout`` implements per-retry backoff.  Progress
        is reset to *now*: the retry just issued counts as activity.
        """
        if timeout is not None:
            if timeout <= 0:
                raise ValueError(f"timeout must be positive, got {timeout}")
            self.timeout = timeout
        self.cancel()
        self._last_progress = self._engine.now
        self._event = self._engine.schedule(self.timeout, self._fire,
                                            label=self._label)

    def _fire(self) -> None:
        self._event = None
        deadline = self._last_progress + self.timeout
        if self._engine.now < deadline:
            # Progress since arming: slide the expiry check to one full
            # quiet window past the last recorded activity.
            self._event = self._engine.schedule_at(deadline, self._fire,
                                                   label=self._label)
            return
        self.fired += 1
        self._on_expire()
