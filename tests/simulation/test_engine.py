"""Unit tests for the discrete-event engine."""

import time as _time

import pytest

from repro.simulation.engine import LATENCY, SimulationEngine
from repro.simulation.events import NO_ARG, Event


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(3.0, lambda: fired.append("c"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_scheduling_order(self):
        engine = SimulationEngine()
        fired = []
        for label in "abc":
            engine.schedule(1.0, lambda tag=label: fired.append(tag))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SimulationEngine().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(5.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [5.0]

    def test_schedule_at_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule_at(0.5, lambda: None)

    def test_nested_scheduling(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: engine.schedule(1.0, lambda: fired.append("inner")))
        engine.run()
        assert fired == ["inner"]
        assert engine.now == 2.0


class TestExecution:
    def test_now_advances_to_event_time(self):
        engine = SimulationEngine()
        engine.schedule(4.5, lambda: None)
        engine.run()
        assert engine.now == 4.5

    def test_step_returns_false_when_empty(self):
        assert SimulationEngine().step() is False

    def test_run_returns_event_count(self):
        engine = SimulationEngine()
        for i in range(5):
            engine.schedule(float(i), lambda: None)
        assert engine.run() == 5
        assert engine.processed_events == 5

    def test_run_with_max_events(self):
        engine = SimulationEngine()
        for i in range(10):
            engine.schedule(float(i), lambda: None)
        assert engine.run(max_events=4) == 4
        assert engine.pending_events == 6

    def test_run_until(self):
        engine = SimulationEngine()
        fired = []
        for t in (1.0, 2.0, 3.0, 4.0):
            engine.schedule(t, lambda t=t: fired.append(t))
        engine.run_until(2.5)
        assert fired == [1.0, 2.0]
        assert engine.now == 2.5

    def test_cancelled_event_does_not_fire(self):
        engine = SimulationEngine()
        fired = []
        event = engine.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        engine.run()
        assert fired == []

    def test_reset(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        engine.reset()
        assert engine.now == 0.0
        assert engine.pending_events == 0
        assert engine.processed_events == 0


class TestFastPaths:
    def test_schedule_call_passes_argument(self):
        engine = SimulationEngine()
        received = []
        engine.schedule_call(1.0, received.append, "payload")
        engine.run()
        assert received == ["payload"]

    def test_schedule_call_event_is_cancellable(self):
        engine = SimulationEngine()
        received = []
        event = engine.schedule_call(1.0, received.append, "payload")
        event.cancel()
        engine.run()
        assert received == []

    def test_schedule_call_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SimulationEngine().schedule_call(-0.5, print, None)

    def test_push_call_fires_in_order_with_events(self):
        engine = SimulationEngine()
        fired = []
        port = engine.open_port(fired.append)
        engine.schedule(2.0, lambda: fired.append("event"))
        engine.push_call(1.0, port, "raw-early")
        engine.push_call(2.0, port, "raw-tie-later")
        engine.run()
        # Ties break by scheduling order: the event entry was pushed first.
        assert fired == ["raw-early", "event", "raw-tie-later"]

    def test_lane_interleaves_with_the_heap_in_sequence_order(self):
        engine = SimulationEngine()
        fired = []
        port = engine.open_port(fired.append)
        engine.push_call(LATENCY, port, "lane-1")
        engine.push_call(0.5, port, "heap-0.5")
        engine.push_call(LATENCY, port, "lane-2")
        engine.schedule(LATENCY, lambda: fired.append("event-1"))
        engine.push_call(2.0, port, "heap-2")
        assert len(engine._lane) == 2
        assert engine.pending_events == 5
        engine.run()
        assert fired == ["heap-0.5", "lane-1", "lane-2", "event-1", "heap-2"]
        assert engine.quiescent

    def test_cancel_actions_removes_matching_entries(self):
        engine = SimulationEngine()
        fired = []
        other = []
        port = engine.open_port(fired.append)
        other_port = engine.open_port(other.append)
        engine.push_call(0.5, port, "a")
        engine.push_call(LATENCY, port, "b")      # on the lane
        engine.schedule_call(3.0, fired.append, "c")
        engine.push_call(1.5, other_port, "other-action")
        removed = engine.cancel_actions(port)
        # Raw entries addressed to the port, from both queues; cancellable
        # events are the caller's to cancel.
        assert sorted(removed) == ["a", "b"]
        engine.close_port(port)
        engine.run()
        assert fired == ["c"]
        assert other == ["other-action"]
        assert engine.quiescent

    def test_run_until_quiescent_drains(self):
        engine = SimulationEngine()
        fired = []
        port = engine.open_port(fired.append)
        engine.schedule(1.0, lambda: engine.push_call(1.0, port, "x"))
        executed = engine.run_until_quiescent()
        assert executed == 2
        assert fired == ["x"]
        assert engine.quiescent


class TestQuiescenceAccounting:
    def test_runnable_events_tracks_cancellation(self):
        engine = SimulationEngine()
        events = [engine.schedule(float(i + 1), lambda: None) for i in range(4)]
        assert engine.runnable_events == 4
        events[0].cancel()
        events[2].cancel()
        assert engine.runnable_events == 2
        assert not engine.quiescent
        for event in events:
            event.cancel()
        assert engine.runnable_events == 0
        assert engine.quiescent

    def test_cancel_after_firing_does_not_corrupt_accounting(self):
        engine = SimulationEngine()
        event = engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.quiescent
        event.cancel()  # heartbeat stop() cancels already-fired ticks
        assert engine.runnable_events == 0
        assert engine.quiescent
        engine.schedule(1.0, lambda: None)
        assert engine.runnable_events == 1

    def test_mass_cancellation_compacts_queue(self):
        engine = SimulationEngine()
        keeper_fired = []
        events = [engine.schedule(float(i + 1), lambda: None)
                  for i in range(200)]
        keeper = engine.schedule(500.0, lambda: keeper_fired.append(1))
        for event in events:
            event.cancel()
        # Cancelled entries repeatedly outnumbered live ones: the queue was
        # compacted down (compaction stops below its minimum queue size,
        # so a few lazily-popped stragglers may remain).
        assert engine.pending_events < 64
        assert engine.runnable_events == 1
        engine.run()
        assert keeper_fired == [1]
        assert not keeper.cancelled

    def test_quiescent_is_constant_time_on_large_queues(self):
        """Regression: quiescent must answer from the incremental counter.

        10⁵ pending events, 10⁴ polls: an O(n) scan would need ~10⁹ steps
        (minutes); the counter comparison finishes in well under a second
        even on a slow machine.
        """
        engine = SimulationEngine()
        for index in range(100_000):
            engine.schedule(float(index % 97) + 1.0, lambda: None)
        started = _time.perf_counter()
        for _ in range(10_000):
            engine.quiescent
        elapsed = _time.perf_counter() - started
        assert elapsed < 1.0
        assert not engine.quiescent
        assert engine.pending_events == 100_000


class TestEvent:
    def test_ordering_by_time_then_sequence(self):
        early = Event(time=1.0, sequence=5, action=lambda: None)
        late = Event(time=2.0, sequence=1, action=lambda: None)
        tie = Event(time=1.0, sequence=6, action=lambda: None)
        assert early < late
        assert early < tie

    def test_fire_runs_action_unless_cancelled(self):
        fired = []
        event = Event(time=0.0, sequence=0, action=lambda: fired.append(1))
        event.fire()
        event.cancel()
        event.fire()
        assert fired == [1]

    def test_fire_passes_argument_when_present(self):
        fired = []
        event = Event(time=0.0, sequence=0, action=fired.append, arg="x")
        event.fire()
        assert fired == ["x"]
        assert Event(time=0.0, sequence=1, action=fired.append).arg is NO_ARG

    def test_events_are_slotted(self):
        event = Event(time=0.0, sequence=0, action=lambda: None)
        assert not hasattr(event, "__dict__")
        with pytest.raises(AttributeError):
            event.arbitrary_attribute = 1
