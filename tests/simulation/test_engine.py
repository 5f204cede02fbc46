"""Unit tests for the discrete-event engine."""

import time as _time

import pytest

from repro.simulation.engine import LATENCY, SimulationEngine


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

    def test_run_returns_event_count(self):
        engine = SimulationEngine()
        for i in range(5):
            engine.schedule(float(i), lambda: None)
        assert engine.run() == 5
        assert engine.processed_events == 5

    def test_cancelled_event_does_not_fire(self):
        engine = SimulationEngine()
        fired = []
        # At LATENCY too: a scheduled call never takes the FIFO lane.
        handle = engine.schedule(LATENCY, lambda: fired.append("x"))
        engine.cancel(handle)
        engine.run()
        assert fired == []

    def test_voided_entry_neither_moves_the_clock_nor_counts(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.cancel(engine.schedule(9.0, lambda: None))
        assert engine.run() == 1
        assert engine.now == 1.0
        assert engine.processed_events == 1
        assert engine.quiescent


class TestFastPaths:
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
        assert len(engine._queue) == 3
        engine.run()
        assert fired == ["heap-0.5", "lane-1", "lane-2", "event-1", "heap-2"]
        assert engine.quiescent

    def test_a_handler_voids_entries_of_the_run_it_drains(self):
        """A handler that voids a port mid-run (a crash at delivery) takes
        the rest of the run being drained, and a later run's entry, off the
        lane; the other entries still fire in order, and a hand-off pushed
        meanwhile sorts after the whole run."""
        engine = SimulationEngine()
        fired, voided = [], []
        victim = engine.open_port(lambda arg: fired.append(("victim", arg)))
        other = engine.open_port(lambda arg: fired.append(("other", arg)))

        def crash(arg):
            fired.append(("crash", arg))
            voided.extend(engine.cancel_actions(victim))
            engine.push_call(0.0, other, "after")

        trigger = engine.open_port(crash)
        for port, arg in ((other, 1), (trigger, 2), (victim, 3), (other, 4), (victim, 5)):
            engine.push_call(LATENCY, port, arg)
        engine.schedule(0.5, lambda: engine.push_call(LATENCY, victim, 6))
        assert [run[1:] for run in engine._runs] == [[0, 5]]
        assert engine.run() == 5
        assert fired == [("other", 1), ("crash", 2), ("other", 4), ("other", "after")]
        assert sorted(voided) == [3, 5, 6]
        assert engine.now == 1.0
        assert engine.quiescent and not engine._runs

    def test_cancel_actions_removes_matching_entries(self):
        engine = SimulationEngine()
        fired = []
        other = []
        port = engine.open_port(fired.append)
        other_port = engine.open_port(other.append)
        engine.push_call(0.5, port, "a")
        engine.push_call(LATENCY, port, "b")      # on the lane
        engine.schedule(3.0, lambda: fired.append("c"))
        engine.push_call(1.5, other_port, "other-action")
        removed = engine.cancel_actions(port)
        # Entries addressed to the port, from both queues; scheduled calls
        # are the caller's to cancel.
        assert sorted(removed) == ["a", "b"]
        engine.close_port(port)
        engine.run()
        assert fired == ["c"]
        assert other == ["other-action"]
        assert engine.quiescent

    def test_run_drains_entries_pushed_meanwhile(self):
        engine = SimulationEngine()
        fired = []
        port = engine.open_port(fired.append)
        engine.schedule(1.0, lambda: engine.push_call(1.0, port, "x"))
        executed = engine.run()
        assert executed == 2
        assert fired == ["x"]
        assert engine.quiescent


class TestQuiescenceAccounting:
    def test_quiescent_tracks_cancellation(self):
        engine = SimulationEngine()
        handles = [engine.schedule(float(i + 1), lambda: None) for i in range(4)]
        engine.cancel(handles[0])
        engine.cancel(handles[2])
        assert not engine.quiescent
        for handle in handles:
            engine.cancel(handle)
        assert engine.quiescent

    def test_cancel_after_firing_does_not_corrupt_accounting(self):
        engine = SimulationEngine()
        handle = engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.quiescent
        engine.cancel(handle)  # already fired: a no-op
        assert engine.quiescent
        engine.schedule(1.0, lambda: None)
        assert not engine.quiescent

    def test_double_cancel_voids_once(self):
        engine = SimulationEngine()
        handle = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.cancel(handle)
        engine.cancel(handle)
        assert not engine.quiescent
        assert engine.run() == 1
        assert engine.quiescent

    def test_quiescent_is_constant_time_on_large_queues(self):
        """Regression: quiescent must answer from the queue lengths.

        10⁵ pending events, 10⁴ polls: an O(n) scan would need ~10⁹ steps
        (minutes); the length comparison finishes in well under a second
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
        assert len(engine._queue) == 100_000
