"""The discrete-event simulation engine.

A virtual clock and one kind of entry, ``(time, sequence, port, arg)``:
when it is due, the engine calls the handler behind ``port`` with ``arg``.
Ties at one time break by sequence number, the order of scheduling, so
runs are deterministic.  :meth:`SimulationEngine.run` is the one drain.

Entries live in two queues.  The heap takes the thunks of
:meth:`~SimulationEngine.schedule` (the watchdogs) and every pushed entry
whose delay is not :data:`LATENCY` (the zero-delay local hand-offs).
Beside it a **FIFO lane** takes the pushed entries due :data:`LATENCY`
later: every counted delivery, since one hop costs one time unit.  The
clock never runs backwards and sequence numbers only grow, so these
arrive already sorted by ``(time, sequence)``, and every pop takes the
smaller of the two heads: exactly one heap's order, at the price of an
append and a ``popleft`` instead of two ``O(log n)`` heap walks.

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

A scheduled thunk's handle is its entry's sequence number.
:meth:`~SimulationEngine.cancel` voids the entry where it lies: its number
goes into a set that heap pops check before the clock moves, so a voided
entry neither advances ``now`` nor counts as processed.  Only the heap
holds thunks, so lane pops check nothing.  Quiescence — the phase barrier
of ``bulk_join`` and the repair protocol — is then O(1): nothing is
runnable when the lane is empty and every heap entry is void.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

__all__ = ["LATENCY", "SimulationEngine", "Watchdog"]

#: Delivery delay of every counted message, in virtual time units: one hop
#: costs one unit, so a routed operation's virtual duration is its hop count.
LATENCY = 1.0


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

    __slots__ = ("_queue", "_lane", "_lane_args", "_ports", "_calls",
                 "_call_port", "_void", "_sequence", "_now", "_processed")

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, int, Any]] = []
        #: The FIFO lane (module docstring): keys ``(time, sequence, port)``
        #: of the entries pushed with delay :data:`LATENCY`, in
        #: ``(time, sequence)`` order by construction, and their arguments.
        self._lane: Deque[Tuple[float, int, int]] = deque()
        self._lane_args: Deque[Any] = deque()
        #: Port → handler; a closed port holds ``None``.
        self._ports: List[Optional[Callable[[Any], None]]] = []
        #: Handle → thunk of every scheduled call neither fired nor voided.
        self._calls: Dict[int, Callable[[], None]] = {}
        self._call_port = self.open_port(self._call)
        #: Handles of voided calls whose entries are still on the heap.
        self._void: Set[int] = set()
        self._sequence = 0
        self._now = 0.0
        self._processed = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of entries dispatched so far (voided ones excluded)."""
        return self._processed

    @property
    def quiescent(self) -> bool:
        """Whether no runnable entry is pending — in O(1).

        Batched operations such as the protocol simulator's ``bulk_join``
        use this as a precondition: their phase barriers assume each
        drain consumed *their* messages, which only holds when nothing
        unrelated was in flight to begin with.
        """
        return not self._lane and len(self._queue) == len(self._void)

    # ------------------------------------------------------------------
    def schedule(self, delay: float, action: Callable[[], None]) -> int:
        """Schedule ``action()`` ``delay`` time units from now; returns the
        handle :meth:`cancel` takes."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        sequence = self._sequence
        self._sequence = sequence + 1
        self._calls[sequence] = action
        # On the heap even at delay LATENCY: only heap pops check the void.
        heapq.heappush(self._queue, (self._now + delay, sequence,
                                     self._call_port, sequence))
        return sequence

    def cancel(self, handle: int) -> None:
        """Void the call behind ``handle``; a no-op once it fired or was
        voided."""
        if self._calls.pop(handle, None) is not None:
            self._void.add(handle)

    def _call(self, handle: int) -> None:
        self._calls.pop(handle)()

    def open_port(self, handler: Callable[[Any], None]) -> int:
        """Enter ``handler`` in the port table; returns its port."""
        self._ports.append(handler)
        return len(self._ports) - 1

    def close_port(self, port: int) -> None:
        """Retire ``port``; no entry addressed to it may still be queued."""
        self._ports[port] = None

    def push_call(self, delay: float, port: int, arg: Any) -> None:
        """Schedule ``handler(arg)`` for the handler behind ``port`` — the
        delivery path, with no handle.

        The entry goes on the FIFO lane when ``delay`` is :data:`LATENCY`
        and on the heap otherwise.  It can only be removed wholesale, by
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

    def cancel_actions(self, port: int) -> List[Any]:
        """Remove every pending entry addressed to ``port``.

        Returns the removed entries' arguments, so the caller can account
        for what was voided.  The network layer uses this on
        ``unregister`` to void in-flight deliveries to a node that just
        left or crashed.  Both queues are filtered in place (a running
        drain loop holds aliases of them).
        """
        queue = self._queue
        removed = [entry[3] for entry in queue if entry[2] == port]
        if removed:
            queue[:] = [entry for entry in queue if entry[2] != port]
            heapq.heapify(queue)
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
    def run(self) -> int:
        """Dispatch every pending entry in ``(time, sequence)`` order,
        including those pushed meanwhile; returns how many ran.

        The phase barrier of every protocol operation, so a lane delivery
        costs one C-level tuple comparison, one pop and one call.
        """
        queue, lane, ports, void = self._queue, self._lane, self._ports, self._void
        pop, popleft, popleft_arg = heapq.heappop, lane.popleft, self._lane_args.popleft
        executed = 0
        while True:
            if lane and not (queue and queue[0] < lane[0]):
                time, _sequence, port = popleft()
                arg = popleft_arg()
            elif queue:
                time, sequence, port, arg = pop(queue)
                if sequence in void:
                    void.remove(sequence)
                    continue
            else:
                break
            self._now = time
            ports[port](arg)
            executed += 1
        self._processed += executed
        return executed


class Watchdog:
    """Progress-aware timeout on one scheduled engine call.

    Arms one call ``timeout`` time units out.  :meth:`poke` records
    progress without touching the queue (an O(1) attribute write — safe to
    call once per message on the hot path); when the armed call fires, the
    watchdog compares the clock against the last recorded progress and
    either *re-schedules itself* at ``last_progress + timeout`` (progress
    happened, so the operation is alive) or invokes ``on_expire`` (nothing
    happened for a full timeout window: a genuine wedge).

    This is what lets the protocol layer put a timeout on multi-hop
    operations whose healthy duration is unbounded (a routed walk pokes the
    watchdog on every hop) while still detecting a crash-severed operation
    after exactly one quiet window.  An operation that completes cancels
    its watchdog, so a fault-free run schedules and voids the same calls
    regardless of outcome — byte-identical virtual time and message counts,
    which the deterministic-replay tests rely on.
    """

    __slots__ = ("_engine", "timeout", "_on_expire", "_handle",
                 "_last_progress", "fired")

    def __init__(self, engine: SimulationEngine, timeout: float,
                 on_expire: Callable[[], None]) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self._engine = engine
        self.timeout = timeout
        self._on_expire = on_expire
        self._last_progress = engine.now
        #: Number of genuine expiries delivered to ``on_expire`` so far.
        self.fired = 0
        self._handle: Optional[int] = engine.schedule(timeout, self._fire)

    @property
    def active(self) -> bool:
        """Whether an expiry call is currently armed."""
        return self._handle is not None

    def poke(self) -> None:
        """Record progress: the expiry check slides to ``now + timeout``."""
        self._last_progress = self._engine.now

    def cancel(self) -> None:
        """Disarm the watchdog (the operation completed)."""
        if self._handle is not None:
            self._engine.cancel(self._handle)
            self._handle = None

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
        self._handle = self._engine.schedule(self.timeout, self._fire)

    def _fire(self) -> None:
        self._handle = None
        now = self._engine.now
        deadline = self._last_progress + self.timeout
        if now < deadline:
            # Progress since arming: slide the expiry check to one full
            # quiet window past the last recorded activity.
            self._handle = self._engine.schedule(deadline - now, self._fire)
            return
        self.fired += 1
        self._on_expire()
