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

The lane keeps an entry as its port and its argument, in two deques moved
in step, and what a key ``(time, sequence, port)`` would repeat per entry
once per **run**: a list ``[time, first_sequence, count]`` in a third,
short deque.  A run is the lane entries pushed one after another at one
delivery time, with no heap entry between them, so its sequence numbers are
consecutive and no heap entry's falls inside its span: one comparison with
the heap's head orders the whole run.  Since one virtual instant's sends
share one delivery time (``repro.simulation.network``), an instant is one
run, however many messages it sends.  An in-flight message costs two deque
slots and no object of its own (its port is the int the network's port
table holds), and a message of atomic values is untracked by CPython at its
first young collection, so 10⁵ queued probes cost the full collections
nothing.  :meth:`~SimulationEngine.cancel_actions` lowers a run's count
when it takes entries out (the span is still free of heap entries) and
drops the runs it empties.

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

    __slots__ = ("_queue", "_lane", "_lane_args", "_runs", "_ports", "_calls",
                 "_call_port", "_void", "_sequence", "_now", "_processed")

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, int, Any]] = []
        #: The FIFO lane (module docstring): the ports and the arguments of
        #: the entries pushed with delay :data:`LATENCY`, in
        #: ``(time, sequence)`` order by construction, and their runs
        #: ``[time, first_sequence, count]``.  Every run holds an entry,
        #: but the one being drained.
        self._lane: Deque[int] = deque()
        self._lane_args: Deque[Any] = deque()
        self._runs: Deque[List[Any]] = deque()
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
            runs = self._runs
            last = runs[-1] if runs else None
            if last is not None and last[1] + last[2] == sequence and last[0] == time:
                last[2] += 1
            else:
                runs.append([time, sequence, 1])
            self._lane.append(port)
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
        lane, args, runs = self._lane, self._lane_args, self._runs
        if port in lane:
            kept: List[int] = []
            kept_args: List[Any] = []
            for run in runs:
                for _ in range(run[2]):
                    target, arg = lane.popleft(), args.popleft()
                    if target == port:
                        removed.append(arg)
                        run[2] -= 1
                    else:
                        kept.append(target)
                        kept_args.append(arg)
            lane.extend(kept)
            args.extend(kept_args)
            live = [run for run in runs if run[2]]
            runs.clear()
            runs.extend(live)
        return removed

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Dispatch every pending entry in ``(time, sequence)`` order,
        including those pushed meanwhile; returns how many ran.

        The phase barrier of every protocol operation.  A run is checked
        against the heap's head once: an entry pushed while it drains is
        due no earlier and numbered later, so it sorts after the whole run,
        and a lane delivery then costs two ``popleft`` calls and one call.
        The run's count is lowered before each call, and the run leaves
        before its last entry's call, so a handler that voids entries
        (:meth:`cancel_actions`) finds the lane and its runs in step.
        """
        queue, runs, ports, void = self._queue, self._runs, self._ports, self._void
        pop, popleft, popleft_arg = heapq.heappop, self._lane.popleft, self._lane_args.popleft
        executed = 0
        while True:
            if runs:
                run = runs[0]
                time = run[0]
                if not queue or time < (head := queue[0])[0] or (
                        time == head[0] and run[1] < head[1]):
                    self._now = time
                    count = run[2]
                    while count:
                        run[2] = count - 1
                        if count == 1:
                            runs.popleft()
                        ports[popleft()](popleft_arg())
                        executed += 1
                        count = run[2]
                    continue
            elif not queue:
                break
            time, sequence, port, arg = pop(queue)
            if sequence in void:
                void.remove(sequence)
                continue
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
