"""Tests of the crash-at-any-message fuzzing harness.

Three layers: unit checks of the trace/outcome plumbing and the CLI,
replay determinism (the same trace produces byte-identical outcomes —
the property every failure report relies on), and a Hypothesis stateful
machine that interleaves joins, leaves and armed crash triggers against a
live :class:`~repro.simulation.scenario.Scenario`, healing through
``Scenario.heal`` and asserting clean convergence — Hypothesis shrinks
any failing interleaving to a minimal one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule)

import repro
from repro.simulation.fuzz import (
    MAX_DETECTION_ROUNDS,
    MAX_HEAL_CYCLES,
    CrashEvent,
    FuzzTrace,
    PartitionEvent,
    main,
    run_sweep,
    run_trace,
)
from repro.simulation.scenario import Scenario


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------
class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            run_trace(FuzzTrace(seed=0), num_objects=2)
        with pytest.raises(ValueError):
            run_sweep(0, 0)

    def test_baseline_runs_fault_free(self):
        size = dict(num_objects=10, churn_events=4)
        outcome = run_trace(FuzzTrace(seed=17), **size)
        assert outcome.victim is None
        assert outcome.crash_phase is None
        assert outcome.converged
        assert not outcome.failed
        assert outcome.messages > 0
        assert outcome.verify_problems == 0
        assert outcome.pending_operations == ()

    def test_crash_fires_and_converges(self):
        size = dict(num_objects=14, churn_events=4)
        baseline = run_trace(FuzzTrace(seed=23), **size).messages
        outcome = run_trace(FuzzTrace(seed=23, events=(
            CrashEvent(at_message=baseline // 2, victim_rank=5),)), **size)
        assert outcome.victim is not None
        assert outcome.crash_phase in ("build", "churn", "heal")
        assert outcome.converged, outcome
        assert outcome.residual_stale == 0

    def test_outcome_as_dict_is_json_ready(self):
        size = dict(num_objects=10, churn_events=2)
        outcome = run_trace(FuzzTrace(seed=3, events=(
            CrashEvent(at_message=30, victim_rank=1),)), **size)
        json.dumps(outcome.as_dict())  # must not raise


# ----------------------------------------------------------------------
# replay determinism — the property every failure report relies on
# ----------------------------------------------------------------------
class TestReplayDeterminism:
    def test_same_triple_same_fingerprint(self):
        size = dict(num_objects=14, churn_events=6)
        trace = FuzzTrace(seed=31, events=(
            CrashEvent(at_message=120, victim_rank=9),))
        first = run_trace(trace, **size)
        second = run_trace(trace, **size)
        assert first.fingerprint == second.fingerprint
        assert first == second

    def test_sweep_reproducible_from_master_seed(self):
        size = dict(num_objects=10, churn_events=4)
        first = run_sweep(5, 6, **size)
        second = run_sweep(5, 6, **size)
        assert [o.fingerprint for o in first.outcomes] == \
               [o.fingerprint for o in second.outcomes]
        assert first.failures == second.failures

    def test_sweep_converges(self):
        size = dict(num_objects=12, churn_events=4)
        report = run_sweep(77, 20, **size)
        assert report.schedules_run == 20
        assert report.converged, [f.trace.as_dict() for f in report.failures]
        assert report.crashes_fired > 0


# ----------------------------------------------------------------------
# trace language: multi-crash sequences + message-indexed partitions
# ----------------------------------------------------------------------
class TestFuzzTrace:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            CrashEvent(at_message=0)
        with pytest.raises(ValueError):
            CrashEvent(at_message=5, victim_rank=-1)
        with pytest.raises(ValueError):
            CrashEvent(at_message=5, victim="the-sender")
        with pytest.raises(ValueError):
            PartitionEvent(at_message=0)
        with pytest.raises(ValueError):
            PartitionEvent(at_message=5, fraction=1.0)
        with pytest.raises(ValueError):
            PartitionEvent(at_message=5, duration=0.0)

    def test_trace_round_trips_through_json(self):
        trace = FuzzTrace(seed=7, events=(
            CrashEvent(at_message=10, victim_rank=3),
            PartitionEvent(at_message=40, fraction=0.25, duration=12.5),
            CrashEvent(at_message=90, victim="coordinator")))
        data = json.loads(json.dumps(trace.as_dict()))
        assert FuzzTrace.from_dict(data) == trace
        with pytest.raises(ValueError):
            FuzzTrace.from_dict({"seed": 1, "events": [{"kind": "meteor"}]})

    def test_multi_crash_sequence_converges(self):
        size = dict(num_objects=16, churn_events=4)
        total = run_trace(FuzzTrace(seed=29), **size).messages
        trace = FuzzTrace(seed=29, events=(
            CrashEvent(at_message=total // 3, victim_rank=1),
            CrashEvent(at_message=2 * total // 3, victim_rank=5)))
        outcome = run_trace(trace, **size)
        assert outcome.error is None
        assert len(outcome.victims) == 2
        assert len(set(outcome.victims)) == 2        # two distinct deaths
        assert outcome.converged, outcome

    def test_partition_window_armed_at_message_index(self):
        size = dict(num_objects=14, churn_events=4)
        baseline = run_trace(FuzzTrace(seed=23), **size)
        marks = dict(baseline.phase_marks)
        trace = FuzzTrace(seed=23, events=(
            PartitionEvent(at_message=marks["churn"] + 2, fraction=0.3,
                           duration=100000.0),))
        outcome = run_trace(trace, **size)
        assert outcome.error is None
        assert outcome.partitions_opened == 1
        # The window was far too long to lapse on the clock: the heal
        # phase closed it explicitly, and the overlay still converged.
        assert outcome.partitions_healed == 1
        assert outcome.converged, outcome

    def test_coordinator_crash_during_repair_is_bounded(self):
        """Killing the sender of a heal-phase message mid-repair.

        The victim is whoever was coordinating the armed message's
        conversation (a probe, a scrub, a retarget search).  The run must
        terminate inside its configured bounds with a defined outcome —
        converged, or a populated divergence surface — never a hang.
        """
        size = dict(num_objects=14, churn_events=4)
        baseline = run_trace(FuzzTrace(seed=23), **size)
        marks = dict(baseline.phase_marks)
        trace = FuzzTrace(seed=23, events=(
            CrashEvent(at_message=marks["heal"] + 3, victim="coordinator"),))
        outcome = run_trace(trace, **size)
        assert outcome.error is None
        assert outcome.crash_phase == "heal"
        assert len(outcome.victims) == 1
        assert outcome.heal_cycles <= MAX_HEAL_CYCLES
        assert outcome.converged, outcome

    def test_crash_during_heal_is_waited_for(self):
        """A victim that dies *inside* the heal phase is detection's job too.

        Under piggy-backed, sampled probing a late victim takes several
        rounds to be suspected by every node that references it; the
        detect loop reads the crash list live, so it must keep going
        until then instead of leaving at the ``miss_threshold`` minimum
        with the pre-heal damage (here: none) accounted for.
        """
        size = dict(num_objects=30, seed=23, churn_events=4)
        baseline = Scenario(**size)
        baseline.build()
        baseline.churn()
        baseline.heal()
        heal_start = dict(baseline.phase_marks)["heal"]
        scenario = Scenario(events=(
            CrashEvent(at_message=heal_start + 40, victim_rank=5),), **size)
        scenario.build()
        scenario.churn()
        exits = []
        detect = scenario.detect

        def recording_detect(*args, **kwargs):
            rounds = detect(*args, **kwargs)
            exits.append((rounds, scenario.damage_suspected()))
            return rounds

        scenario.detect = recording_detect
        outcome = scenario.heal(max_detection_rounds=16)
        assert scenario.crash_phases == ["heal"]
        rounds, suspected = exits[0]
        assert suspected                   # left because the victim is suspected,
        # not at the minimum or the cap
        assert scenario.detector.miss_threshold < rounds < 16
        assert outcome.converged

    def test_trace_replay_is_deterministic(self):
        size = dict(num_objects=14, churn_events=4)
        trace = FuzzTrace(seed=31, events=(
            CrashEvent(at_message=60, victim_rank=4),
            PartitionEvent(at_message=100, fraction=0.4, duration=60.0),
            CrashEvent(at_message=150, victim="coordinator")))
        first = run_trace(trace, **size)
        second = run_trace(trace, **size)
        assert first.fingerprint == second.fingerprint
        assert first == second

    def test_sweep_with_partitions_and_multi_crash(self):
        size = dict(num_objects=12, churn_events=4)
        report = run_sweep(11, 4, crashes=2, partition_fraction=0.3,
                           partition_duration=5000.0, **size)
        assert report.schedules_run == 4
        assert report.partitions_opened == 4
        assert report.partitions_healed == 4     # every window closed
        assert report.crashes_fired >= 4
        assert report.converged, [o.trace.as_dict() for o in report.failures]


# ----------------------------------------------------------------------
# Hypothesis stateful machine
# ----------------------------------------------------------------------
class CrashRecoveryMachine(RuleBasedStateMachine):
    """Interleave joins, leaves and armed crash triggers; always heal clean.

    Any failing interleaving shrinks to a minimal rule sequence; the
    seeded substrate keeps each replay of that sequence deterministic.
    """

    _POSITIONS = st.tuples(
        st.floats(0.01, 0.99, allow_nan=False, allow_infinity=False),
        st.floats(0.01, 0.99, allow_nan=False, allow_infinity=False))

    @initialize(seed=st.integers(0, 2**20))
    def setup(self, seed):
        # 44 planned membership events: n_max = 4 · (12 + 44 + 8) = 256.
        self.scenario = Scenario(num_objects=12, seed=seed, churn_events=44)
        self.simulator = self.scenario.simulator
        self.scenario.build()

    @rule(position=_POSITIONS)
    def join(self, position):
        report = self.simulator.join(position)
        assert report.outcome in ("completed", "timed_out", "rejected")

    @rule(pick=st.integers(0, 10_000))
    def leave(self, pick):
        live = sorted(self.simulator.nodes)
        if len(live) > 6:
            report = self.simulator.leave(live[pick % len(live)])
            assert report.outcome in ("completed", "timed_out")

    @rule(offset=st.integers(0, 30), rank=st.integers(0, 100),
          position=_POSITIONS)
    def crash_during_join(self, offset, rank, position):
        simulator = self.simulator

        def trigger(_message):
            live = sorted(simulator.nodes)
            if len(live) > 6:
                self.scenario.injector.crash(live[rank % len(live)])

        simulator.network.at_message(
            simulator.network.messages_sent + 1 + offset, trigger)
        self.simulator.join(position)

    @rule()
    def heal_and_verify(self):
        outcome = self.scenario.heal(
            MAX_HEAL_CYCLES, max_detection_rounds=MAX_DETECTION_ROUNDS)
        assert outcome.repair.converged
        assert outcome.verify_problems == 0
        assert outcome.residual_damage.total_stale_entries == 0
        assert outcome.pending_operations == ()
        assert self.simulator.engine.quiescent
        assert outcome.converged

    @invariant()
    def cached_probe_plans_are_valid(self):
        # Heal cycles leave every survivor a cached probe plan; no join,
        # leave or crash after them may leave one stale.
        assert self.simulator.probe_plan_report() == []

    def teardown(self):
        # Whatever the interleaving left behind must still heal clean.
        if hasattr(self, "simulator"):
            self.heal_and_verify()


CrashRecoveryMachine.TestCase.settings = settings(
    max_examples=8, stateful_step_count=10, deadline=None)
TestCrashRecovery = CrashRecoveryMachine.TestCase


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_module_executes_once(self):
        """``python -m`` runs the module once, which runpy only does when
        importing the package has not imported the module already (it
        warns otherwise — an error here)."""
        src = Path(repro.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.simulation.fuzz", "--seed", "1", "--schedules", "2"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=False)
        assert result.returncode == 0, result.stderr
        assert "0 failures" in result.stdout

    def test_sweep_smoke_exits_zero(self, capsys):
        assert main(["--seed", "5", "--schedules", "4",
                     "--objects", "10", "--churn", "2"]) == 0
        out = capsys.readouterr().out
        assert "4 schedules" in out
        assert "0 failures" in out
        digest = run_sweep(5, 4, num_objects=10, churn_events=2).digest
        assert len(digest) == 64 and out.rstrip().endswith(f"digest={digest}")

    def test_replay_fault_free_index(self, tmp_path, capsys):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(FuzzTrace(seed=5).as_dict()),
                        encoding="utf-8")
        assert main(["--replay-trace", str(path), "--objects", "10",
                     "--churn", "2"]) == 0
        assert "victim=None" in capsys.readouterr().out

    def test_no_artifact_written_on_success(self, tmp_path, capsys):
        artifact = tmp_path / "failures.json"
        assert main(["--seed", "5", "--schedules", "2", "--objects", "10",
                     "--churn", "2", "--output", str(artifact)]) == 0
        assert not artifact.exists()

    def test_replay_trace_file(self, tmp_path, capsys):
        trace = FuzzTrace(seed=5, events=(
            CrashEvent(at_message=40, victim_rank=2),))
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace.as_dict()), encoding="utf-8")
        assert main(["--replay-trace", str(path), "--objects", "10",
                     "--churn", "2"]) == 0
        assert capsys.readouterr().out.startswith("ok seed=5")

    def test_replay_trace_accepts_failure_artifact_shape(self, tmp_path,
                                                         capsys):
        # The --output artifact nests the trace under "trace"; replay
        # must accept that file as-is.
        trace = FuzzTrace(seed=5, events=(
            CrashEvent(at_message=40, victim_rank=2),
            PartitionEvent(at_message=60, fraction=0.3, duration=30.0)))
        artifact = [{"converged": False, "trace": trace.as_dict()}]
        path = tmp_path / "failures.json"
        path.write_text(json.dumps(artifact), encoding="utf-8")
        assert main(["--replay-trace", str(path), "--objects", "10",
                     "--churn", "2"]) == 0
        assert "partitions=1" in capsys.readouterr().out

    def test_sweep_partition_and_multi_crash_flags(self, capsys):
        assert main(["--seed", "5", "--schedules", "2", "--objects", "10",
                     "--churn", "2", "--crashes", "2",
                     "--partition-fraction", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "2 partitions opened" in out
        assert "0 failures" in out
