"""Property tests of the discrete-event engine's ordering and accounting.

The engine (tuple-keyed heap, raw delivery entries on ports, the FIFO lane
beside the heap, incremental runnable counter, lazy compaction) must be
observationally identical to the specification — one heap: entries fire
in ``(time, sequence)`` order, cancellation
removes exactly the cancelled events, ``quiescent``/``runnable_events``
agree with a brute-force scan of the queue at every step, and compaction
never drops a runnable event.  A small interpreter drives random command
sequences against both the engine and a list-based oracle.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.engine import LATENCY, SimulationEngine, _EVENT_ENTRY


def _scan_runnable(engine):
    """Brute-force count of runnable entries in the engine's two queues."""
    count = len(engine._lane)  # raw deliveries only, never cancelled
    for entry in engine._queue:
        if entry[3] is _EVENT_ENTRY and entry[2].cancelled:
            continue
        count += 1
    return count


class _Oracle:
    """Specification model: one heap of ``[time, seq, port, cancelled]``
    (``port`` is ``None`` for a cancellable event), popped in ``(time,
    seq)`` order — what the engine's lane plus heap must be equivalent to.
    An entry's id is its sequence number."""

    def __init__(self):
        self.pending = []
        self.now = 0.0
        self.sequence = 0
        self.fired = []

    def schedule(self, delay, port=None):
        entry = [self.now + delay, self.sequence, port, False]
        self.sequence += 1
        heapq.heappush(self.pending, entry)
        return entry

    def step(self):
        while self.pending:
            entry = heapq.heappop(self.pending)
            if entry[3]:
                continue
            self.now = entry[0]
            self.fired.append((entry[0], entry[1]))
            return True
        return False

    def run(self, max_events=None):
        executed = 0
        while (max_events is None or executed < max_events) and self.step():
            executed += 1
        return executed

    def run_until(self, time):
        executed = 0
        while True:
            while self.pending and self.pending[0][3]:
                heapq.heappop(self.pending)
            if not self.pending or self.pending[0][0] > time:
                break
            self.step()
            executed += 1
        self.now = max(self.now, time)
        return executed

    def cancel_port(self, port):
        removed = sorted(entry[1] for entry in self.pending
                         if entry[2] == port and not entry[3])
        self.pending = [entry for entry in self.pending if entry[2] != port]
        heapq.heapify(self.pending)
        return removed

    def runnable(self):
        return sum(1 for entry in self.pending if not entry[3])


_DELAYS = st.floats(0.0, 10.0, allow_nan=False)

_COMMANDS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS),
        st.tuples(st.just("schedule_call"), _DELAYS),
        # Raw deliveries at varied delays take the heap; at LATENCY, the
        # FIFO lane.
        st.tuples(st.just("push_call"), st.tuples(_DELAYS, st.integers(0, 1))),
        st.tuples(st.just("push_lane"), st.integers(0, 1)),
        st.tuples(st.just("cancel"), st.integers(0, 200)),
        st.tuples(st.just("cancel_actions"), st.integers(0, 1)),
        st.tuples(st.just("run_until"), st.floats(0.0, 12.0, allow_nan=False)),
        st.tuples(st.just("run_bounded"), st.integers(0, 5)),
        st.tuples(st.just("step"), st.just(0)),
        st.tuples(st.just("run"), st.just(0)),
    ),
    min_size=1, max_size=80,
)


class TestEngineAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(commands=_COMMANDS)
    def test_interleaved_schedule_cancel_run(self, commands):
        """The FIFO lane plus the heap run the same ``(time, sequence)``
        sequence as one heap, reach the same ``now`` and give the same
        counts, under arbitrary interleavings of every entry point."""
        engine = SimulationEngine()
        oracle = _Oracle()
        fired = []
        ports = [engine.open_port(lambda sequence: fired.append(
            (engine.now, sequence))) for _ in range(2)]
        events = []  # (engine event, oracle entry) pairs, in creation order

        def make_action(sequence):
            return lambda: fired.append((engine.now, sequence))

        for command, value in commands:
            if command == "schedule":
                entry = oracle.schedule(value)
                events.append((engine.schedule(value, make_action(entry[1])),
                               entry))
            elif command == "schedule_call":
                entry = oracle.schedule(value)
                events.append((engine.schedule_call(
                    value, lambda sequence: fired.append((engine.now, sequence)),
                    entry[1]), entry))
            elif command in ("push_call", "push_lane"):
                delay, port = value if command == "push_call" else (LATENCY,
                                                                     value)
                entry = oracle.schedule(delay, port)
                engine.push_call(delay, ports[port], entry[1])
            elif command == "cancel":
                if events:
                    event, entry = events[value % len(events)]
                    event.cancel()
                    entry[3] = True
            elif command == "cancel_actions":
                assert sorted(engine.cancel_actions(ports[value])) == \
                    oracle.cancel_port(value)
            elif command == "run_until":
                target = engine.now + value
                assert engine.run_until(target) == oracle.run_until(target)
            elif command == "run_bounded":
                assert engine.run(max_events=value) == oracle.run(value)
            elif command == "step":
                assert engine.step() == oracle.step()
            else:
                assert engine.run() == oracle.run()
            assert fired == oracle.fired
            assert engine.now == oracle.now
            assert engine.processed_events == len(oracle.fired)
            # Quiescence bookkeeping is exact at every step.
            assert engine.runnable_events == _scan_runnable(engine) \
                == oracle.runnable()
            assert engine.quiescent == (engine.runnable_events == 0)
            assert engine.pending_events >= engine.runnable_events

        assert engine.run() == oracle.run()
        assert fired == oracle.fired
        assert engine.quiescent
        assert engine.now == oracle.now

    @settings(max_examples=60, deadline=None)
    @given(
        total=st.integers(70, 160),
        cancel_stride=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_compaction_never_drops_runnable_events(self, total,
                                                    cancel_stride, seed):
        """Cancelling more than half the queue triggers compaction (the
        queue shrinks in place); every surviving runnable event still
        fires, in (time, sequence) order."""
        engine = SimulationEngine()
        fired = []
        survivors = []
        events = []
        for index in range(total):
            delay = float((index * 7 + seed) % 23)
            events.append((engine.schedule(delay, lambda i=index: fired.append(i)),
                           delay, index))
        for position, (event, delay, index) in enumerate(events):
            if position % (cancel_stride + 1) != 0:
                event.cancel()
            else:
                survivors.append((engine.now + delay, index))
        if total - len(survivors) > total // 2:
            # Compaction must have removed the cancelled majority.
            assert engine.pending_events <= len(survivors) + total // 2
        assert engine.runnable_events == len(survivors)
        engine.run()
        assert fired == [index for _time, index in sorted(survivors)]
        assert engine.quiescent

    @settings(max_examples=60, deadline=None)
    @given(
        delays=st.lists(st.floats(0.0, 5.0, allow_nan=False),
                        min_size=1, max_size=40),
        horizon=st.floats(0.0, 6.0, allow_nan=False),
    )
    def test_run_until_boundary_inclusive(self, delays, horizon):
        """run_until fires exactly the events with time <= horizon."""
        engine = SimulationEngine()
        fired = []
        for index, delay in enumerate(delays):
            engine.schedule(delay, lambda i=index: fired.append(i))
        engine.run_until(horizon)
        expected = [index for index, delay in sorted(
            enumerate(delays), key=lambda pair: (pair[1], pair[0]))
            if delay <= horizon]
        assert fired == expected
        assert engine.now >= horizon


# ----------------------------------------------------------------------
# timeout events (crash-at-any-message hardening)
# ----------------------------------------------------------------------
class TestTimeoutEventAccounting:
    """Watchdog timeout events obey the engine's quiescence contract.

    Operation watchdogs are armed and cancelled on the protocol hot path,
    so the O(1) quiescence counter must stay exact under any mix of
    cancellations, pokes and re-arms — and a perpetually-retrying
    operation (a watchdog that re-arms itself on every expiry) must be
    boundable by ``run(max_events)``, the round budget the fuzzing
    harness leans on.
    """

    def test_quiescence_counter_exact_under_cancelled_watchdogs(self):
        from repro.simulation.engine import Watchdog

        engine = SimulationEngine()
        dogs = [Watchdog(engine, 5.0 + index, lambda: None)
                for index in range(40)]
        for dog in dogs[::2]:
            dog.cancel()
        assert engine.runnable_events == _scan_runnable(engine) == 20
        engine.run()
        assert engine.quiescent
        assert engine.runnable_events == _scan_runnable(engine) == 0
        assert sum(dog.fired for dog in dogs) == 20

    @settings(max_examples=50, deadline=None)
    @given(
        total=st.integers(1, 80),
        cancel_stride=st.integers(1, 4),
        poke_stride=st.integers(1, 4),
        horizon=st.floats(0.0, 30.0, allow_nan=False),
    )
    def test_counter_matches_scan_under_watchdog_churn(self, total,
                                                       cancel_stride,
                                                       poke_stride, horizon):
        """Arm N watchdogs, cancel and poke strided subsets, run part way:
        the O(1) counter equals the brute-force queue scan at every stage,
        and cancelled watchdogs never fire."""
        from repro.simulation.engine import Watchdog

        engine = SimulationEngine()
        dogs = [Watchdog(engine, 1.0 + (index % 7), lambda: None)
                for index in range(total)]
        cancelled = set()
        for index, dog in enumerate(dogs):
            if index % (cancel_stride + 1) == 0:
                dog.cancel()
                cancelled.add(index)
            elif index % (poke_stride + 1) == 0:
                dog.poke()
        assert engine.runnable_events == _scan_runnable(engine)
        engine.run_until(horizon)
        assert engine.runnable_events == _scan_runnable(engine)
        engine.run()
        assert engine.quiescent
        assert engine.runnable_events == _scan_runnable(engine) == 0
        for index, dog in enumerate(dogs):
            assert dog.fired == (0 if index in cancelled else 1)

    def test_perpetual_retry_bounded_by_event_budget(self):
        """A watchdog that re-arms on every expiry models an operation
        that retries forever; run(max_events) bounds termination, and the
        engine is honestly non-quiescent afterwards."""
        from repro.simulation.engine import Watchdog

        engine = SimulationEngine()
        fires = []

        def expire():
            fires.append(engine.now)
            dog.rearm(dog.timeout * 2.0)  # exponential backoff, forever

        dog = Watchdog(engine, 1.0, expire)
        executed = engine.run(max_events=25)
        assert executed == 25
        assert len(fires) == 25
        assert fires == sorted(fires)
        assert not engine.quiescent       # the retry loop is still armed
        assert engine.runnable_events == _scan_runnable(engine) == 1
        dog.cancel()                      # budget exhausted: caller aborts
        assert engine.quiescent

    def test_poked_watchdog_reschedules_without_firing(self):
        """A poke inside the quiet window defers expiry: the fire handler
        runs only once, at last_progress + timeout, and the intermediate
        rescheduled event keeps the quiescence accounting exact."""
        from repro.simulation.engine import Watchdog

        engine = SimulationEngine()
        fired = []
        dog = Watchdog(engine, 4.0, lambda: fired.append(engine.now))
        engine.schedule(3.0, dog.poke)
        engine.run_until(5.0)             # original deadline has passed
        assert fired == []                # ...but progress deferred it
        assert engine.runnable_events == _scan_runnable(engine) == 1
        engine.run()
        assert fired == [7.0]
        assert engine.quiescent
