"""Property tests of the discrete-event engine's ordering and accounting.

The engine (tuple-keyed heap, entries addressed to ports, the FIFO lane
beside the heap, scheduled calls voided by their sequence numbers) must be
observationally identical to the specification — one heap: entries fire
in ``(time, sequence)`` order, cancellation removes exactly the cancelled
calls and nothing else, a voided entry neither moves the clock nor counts,
and ``quiescent`` agrees with a brute-force scan of the queues at every
step.  A small interpreter drives random command sequences against both
the engine and a list-based oracle.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.engine import LATENCY, SimulationEngine


def _scan_runnable(engine):
    """Brute-force count of runnable entries in the engine's two queues."""
    return len(engine._lane) + sum(1 for entry in engine._queue
                                   if entry[1] not in engine._void)


class _Oracle:
    """Specification model: one heap of ``[time, seq, port, cancelled]``
    (``port`` is ``None`` for a scheduled call), popped in ``(time, seq)``
    order — what the engine's lane plus heap must be equivalent to.  An
    entry's id is its sequence number."""

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

    def run(self):
        executed = 0
        while self.pending:
            entry = heapq.heappop(self.pending)
            if entry[3]:
                continue
            self.now = entry[0]
            self.fired.append((entry[0], entry[1]))
            executed += 1
        return executed

    def cancel_port(self, port):
        removed = sorted(entry[1] for entry in self.pending if entry[2] == port)
        self.pending = [entry for entry in self.pending if entry[2] != port]
        heapq.heapify(self.pending)
        return removed

    def horizon(self):
        """A delay that puts a new entry past every pending one."""
        return max((entry[0] for entry in self.pending), default=self.now) \
            - self.now + 1.0

    def quiescent(self):
        return all(entry[3] for entry in self.pending)


_DELAYS = st.floats(0.0, 10.0, allow_nan=False)

_COMMANDS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS),
        # The network's two delays: a local hand-off (heap) and a counted
        # delivery (the FIFO lane).
        st.tuples(st.just("push_call"),
                  st.tuples(st.sampled_from((0.0, LATENCY)), st.integers(0, 1))),
        st.tuples(st.just("cancel"), st.integers(0, 200)),
        st.tuples(st.just("cancel_fired"), st.integers(0, 200)),
        st.tuples(st.just("cancel_twice"), st.integers(0, 200)),
        st.tuples(st.just("cancel_late"), st.just(0)),
        st.tuples(st.just("cancel_actions"), st.integers(0, 1)),
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
        counts, under arbitrary interleavings of every entry point —
        cancelling a call that already fired, cancelling one twice, and
        voiding a call due after every delivery included."""
        engine = SimulationEngine()
        oracle = _Oracle()
        fired = []
        ports = [engine.open_port(lambda sequence: fired.append(
            (engine.now, sequence))) for _ in range(2)]
        calls = []  # oracle entries of the scheduled calls, in creation order

        def schedule(delay):
            entry = oracle.schedule(delay)
            handle = engine.schedule(
                delay, lambda: fired.append((engine.now, entry[1])))
            assert handle == entry[1]
            calls.append(entry)
            return entry

        def cancel(entry):
            engine.cancel(entry[1])
            if entry in oracle.pending:
                entry[3] = True

        for command, value in commands:
            if command == "schedule":
                schedule(value)
            elif command == "push_call":
                delay, port = value
                entry = oracle.schedule(delay, port)
                engine.push_call(delay, ports[port], entry[1])
            elif command == "cancel":
                if calls:
                    cancel(calls[value % len(calls)])
            elif command == "cancel_fired":
                done = [entry for entry in calls
                        if (entry[0], entry[1]) in oracle.fired]
                if done:
                    cancel(done[value % len(done)])
            elif command == "cancel_twice":
                if calls:
                    entry = calls[value % len(calls)]
                    cancel(entry)
                    cancel(entry)
            elif command == "cancel_late":
                cancel(schedule(oracle.horizon()))
            elif command == "cancel_actions":
                assert sorted(engine.cancel_actions(ports[value])) == \
                    oracle.cancel_port(value)
            else:
                assert engine.run() == oracle.run()
            assert fired == oracle.fired
            assert engine.now == oracle.now
            assert engine.processed_events == len(oracle.fired)
            # Quiescence is exact at every step.
            assert engine.quiescent == oracle.quiescent() \
                == (_scan_runnable(engine) == 0)

        assert engine.run() == oracle.run()
        assert fired == oracle.fired
        assert engine.quiescent
        assert engine.now == oracle.now
        assert engine.processed_events == len(oracle.fired)


# ----------------------------------------------------------------------
# timeout events (crash-at-any-message hardening)
# ----------------------------------------------------------------------
class TestTimeoutEventAccounting:
    """Watchdog timeout calls obey the engine's quiescence contract.

    Operation watchdogs are armed and cancelled on the protocol hot path,
    so the O(1) quiescence check must stay exact under any mix of
    cancellations, pokes and re-arms.
    """

    def test_quiescence_counter_exact_under_cancelled_watchdogs(self):
        from repro.simulation.engine import Watchdog

        engine = SimulationEngine()
        dogs = [Watchdog(engine, 5.0 + index, lambda: None)
                for index in range(40)]
        for dog in dogs[::2]:
            dog.cancel()
        assert _scan_runnable(engine) == 20
        assert not engine.quiescent
        engine.run()
        assert engine.quiescent
        assert _scan_runnable(engine) == 0
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
        """Arm N watchdogs, cancel and poke strided subsets, run: the O(1)
        check agrees with the brute-force queue scan before the run, at
        ``horizon`` within it and after it, and cancelled watchdogs never
        fire."""
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
        assert engine.quiescent == (_scan_runnable(engine) == 0)
        midway = []
        engine.schedule(horizon, lambda: midway.append(
            (engine.quiescent, _scan_runnable(engine) == 0)))
        engine.run()
        assert len(midway) == 1 and midway[0][0] == midway[0][1]
        assert engine.quiescent
        assert _scan_runnable(engine) == 0
        for index, dog in enumerate(dogs):
            assert dog.fired == (0 if index in cancelled else 1)

    def test_poked_watchdog_reschedules_without_firing(self):
        """A poke inside the quiet window defers expiry: the fire handler
        runs only once, at last_progress + timeout, and the intermediate
        rescheduled call keeps the quiescence accounting exact."""
        from repro.simulation.engine import Watchdog

        engine = SimulationEngine()
        fired = []
        dog = Watchdog(engine, 4.0, lambda: fired.append(engine.now))
        engine.schedule(3.0, dog.poke)
        midway = []
        # At t=5 the original deadline has passed, but progress deferred it.
        engine.schedule(5.0, lambda: midway.append(
            (list(fired), _scan_runnable(engine), engine.quiescent)))
        engine.run()
        assert midway == [([], 1, False)]
        assert fired == [7.0]
        assert engine.quiescent
