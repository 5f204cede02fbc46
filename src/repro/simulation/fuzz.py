"""Fault-at-any-message fuzzing: deterministic Jepsen-style schedules.

The engine's virtual clock and the seeded :class:`~repro.simulation.faults.
FaultPlane` make every protocol run perfectly replayable; this module
turns that determinism into a correctness harness.  A
:class:`FuzzTrace` names one experiment — *with this seed, fire these
faults at exactly these global message indices* — as an ordered sequence
of :class:`CrashEvent`\\ s (victim by rank *or* "whoever sent the armed
message", i.e. the coordinator of the operation in flight) and
:class:`PartitionEvent`\\ s (a partition window opened at an exact
message index).  :func:`run_trace` runs a trace end to end through the
stages of a :class:`~repro.simulation.scenario.Scenario`: build an
overlay through ``bulk_join``, churn it with sequential joins and
leaves, fire the faults wherever their indices land (mid-carve,
mid-close-discovery, mid-search, mid-hand-over — the triggers sit inside
``Network.send`` itself), then heal any still-open windows and drive
bounded detect→repair cycles asserting convergence to a clean
``verify_views()`` with no leaked operation watchdogs.

Every failure reproduces from its serialized trace alone
(:meth:`FuzzTrace.as_dict` / :meth:`FuzzTrace.from_dict` — the CI
artifact shape): victims are resolved *at fire time* from the sorted
live ids (by rank) or the armed message's sender (coordinator), and
partition members are the first ``ceil(fraction · n)`` of the sorted
live ids, so no population knowledge is needed in advance.
:attr:`FuzzOutcome.fingerprint` digests the final overlay state so
replays can be checked byte-identical.

Two drivers share the pipeline:

* the Hypothesis stateful suite in ``tests/simulation/test_fuzz.py``,
  which shrinks a failing schedule to a minimal one, and
* the sweep CLI — ``python -m repro.simulation.fuzz --seed S
  --schedules K [--partition-fraction F] [--crashes C]`` — which derives
  ``K`` traces from one master seed, re-runs any failure to confirm it,
  and emits the failing traces (CI's ``fuzz-smoke`` job uploads them as
  an artifact; replay with ``--replay-trace artifact.json``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.simulation.network import SENDER, Message
from repro.simulation.protocol import ProtocolSimulator
from repro.simulation.scenario import MIN_POPULATION, HealOutcome, Scenario
from repro.utils.rng import RandomSource

__all__ = [
    "MAX_HEAL_CYCLES",
    "MAX_DETECTION_ROUNDS",
    "CrashEvent",
    "PartitionEvent",
    "FuzzTrace",
    "FuzzOutcome",
    "FuzzSweepReport",
    "fingerprint",
    "run_trace",
    "run_sweep",
    "main",
]

#: Detect→repair cycles a trace run may spend converging, and the
#: heartbeat rounds each cycle's detection may take.
MAX_HEAL_CYCLES = 3
MAX_DETECTION_ROUNDS = 6


@dataclass(frozen=True)
class CrashEvent:
    """Crash one victim when the ``at_message``-th global send occurs.

    ``victim`` selects the resolution rule at fire time:

    * ``"rank"`` — ``sorted(live ids)[victim_rank % population]``;
    * ``"coordinator"`` — the *sender of the armed message itself*: the
      node driving whatever multi-message operation that send belongs
      to.  Crashing the coordinator mid-conversation is the adversarial
      case the operation watchdogs exist for; when the sender is not a
      live node (already crashed by an earlier event), the rank rule is
      the fallback, keeping every trace total.
    """

    at_message: int
    victim_rank: int = 0
    victim: str = "rank"

    def __post_init__(self) -> None:
        if self.at_message < 1:
            raise ValueError(
                f"at_message is 1-based, got {self.at_message}")
        if self.victim_rank < 0:
            raise ValueError(
                f"victim_rank must be >= 0, got {self.victim_rank}")
        if self.victim not in ("rank", "coordinator"):
            raise ValueError(
                f"victim must be 'rank' or 'coordinator', got {self.victim!r}")

    def as_dict(self) -> Dict[str, object]:
        return {"kind": "crash", "at_message": self.at_message,
                "victim_rank": self.victim_rank, "victim": self.victim}

    def fire(self, scenario: Scenario, message: Message) -> None:
        """Resolve the victim now and crash it (the armed-send trigger)."""
        simulator = scenario.simulator
        live = sorted(simulator.nodes)
        if len(live) <= MIN_POPULATION:
            return  # too small to amputate; run continues fault-free
        if self.victim == "coordinator" and message[SENDER] in simulator.nodes:
            victim = message[SENDER]
        else:
            victim = live[self.victim_rank % len(live)]
        scenario.crash_phases.append(scenario.phase)
        scenario.injector.crash(victim)


@dataclass(frozen=True)
class PartitionEvent:
    """Open a partition window when the ``at_message``-th send occurs.

    At fire time the first ``ceil(fraction · n)`` of the sorted live ids
    (at least one node is always left on each side) are isolated from
    the rest for ``duration`` of virtual time from the current clock —
    a clock-windowed :class:`~repro.simulation.faults.PartitionSpec`, so
    messages crossing the cut feed the fault plane and in-flight
    semantics follow the pinned send-time rule.
    :meth:`Scenario.heal <repro.simulation.scenario.Scenario.heal>` closes
    any window still open when a heal cycle starts; the repair machinery
    must then converge the overlay exactly as it does after crashes.
    """

    at_message: int
    fraction: float = 0.5
    duration: float = 50.0

    def __post_init__(self) -> None:
        if self.at_message < 1:
            raise ValueError(
                f"at_message is 1-based, got {self.at_message}")
        if not 0.0 < self.fraction < 1.0:
            raise ValueError(
                f"fraction must be in (0, 1), got {self.fraction}")
        if self.duration <= 0:
            raise ValueError(
                f"duration must be positive, got {self.duration}")

    def as_dict(self) -> Dict[str, object]:
        return {"kind": "partition", "at_message": self.at_message,
                "fraction": self.fraction, "duration": self.duration}

    def fire(self, scenario: Scenario, _message: Message) -> None:
        """Resolve the members now and open the window (the armed-send trigger)."""
        live = sorted(scenario.simulator.nodes)
        if len(live) < 2:
            return  # nothing to cut
        count = max(1, math.ceil(len(live) * self.fraction))
        now = scenario.simulator.engine.now
        scenario.faults.partition(live[:min(count, len(live) - 1)],
                                  now, now + self.duration)
        scenario.partitions_opened += 1


#: One armed fault of a trace.
FuzzEvent = Union[CrashEvent, PartitionEvent]


@dataclass(frozen=True)
class FuzzTrace:
    """A full replayable experiment: one seed, an ordered fault sequence.

    The serialized form (:meth:`as_dict`/:meth:`from_dict`) is the CI
    failure artifact: everything the run did — which victims died, which
    nodes were cut, in which protocol phase — derives from it, because
    every resolution rule is a pure function of (seed, event list, fire
    time).  A trace with no events is the fault-free baseline run.
    """

    seed: int
    events: Tuple[FuzzEvent, ...] = ()

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready serialization (the replay-trace artifact shape)."""
        return {"seed": self.seed,
                "events": [event.as_dict() for event in self.events]}

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "FuzzTrace":
        """Rebuild a trace from :meth:`as_dict` output."""
        events: List[FuzzEvent] = []
        for raw in data.get("events", []):
            kind = raw.get("kind")
            if kind == "crash":
                events.append(CrashEvent(
                    at_message=int(raw["at_message"]),
                    victim_rank=int(raw.get("victim_rank", 0)),
                    victim=str(raw.get("victim", "rank"))))
            elif kind == "partition":
                events.append(PartitionEvent(
                    at_message=int(raw["at_message"]),
                    fraction=float(raw.get("fraction", 0.5)),
                    duration=float(raw.get("duration", 50.0))))
            else:
                raise ValueError(f"unknown trace event kind: {kind!r}")
        return FuzzTrace(seed=int(data["seed"]), events=tuple(events))


@dataclass(frozen=True)
class FuzzOutcome:
    """Everything one trace run produced (all derivable from the trace).

    ``victim``/``crash_phase`` describe the first crash that fired;
    ``victims`` lists every one.  ``phase_marks`` records the global
    message count at which each protocol phase began — the sweep uses the
    fault-free run's marks to aim partition windows at the churn phase.
    """

    trace: FuzzTrace
    converged: bool
    victim: Optional[int]
    crash_phase: Optional[str]
    messages: int
    virtual_time: float
    verify_problems: int
    residual_stale: int
    pending_operations: Tuple[Tuple[str, int], ...]
    heal_cycles: int
    operation_timeouts: int
    operation_retries: int
    fingerprint: str
    error: Optional[str] = None
    victims: Tuple[int, ...] = ()
    partitions_opened: int = 0
    partitions_healed: int = 0
    phase_marks: Tuple[Tuple[str, int], ...] = ()

    @property
    def seed(self) -> int:
        """The seed of the trace this outcome came from."""
        return self.trace.seed

    @property
    def failed(self) -> bool:
        """Whether the trace is a counterexample (crash or divergence)."""
        return self.error is not None or not self.converged

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary — the shape the CI artifact stores."""
        return {
            "seed": self.seed,
            "trace": self.trace.as_dict(),
            "victim": self.victim,
            "victims": list(self.victims),
            "crash_phase": self.crash_phase,
            "partitions_opened": self.partitions_opened,
            "partitions_healed": self.partitions_healed,
            "phase_marks": [list(mark) for mark in self.phase_marks],
            "converged": self.converged,
            "messages": self.messages,
            "virtual_time": self.virtual_time,
            "verify_problems": self.verify_problems,
            "residual_stale": self.residual_stale,
            "pending_operations": [list(key) for key in self.pending_operations],
            "heal_cycles": self.heal_cycles,
            "operation_timeouts": self.operation_timeouts,
            "operation_retries": self.operation_retries,
            "fingerprint": self.fingerprint,
            "error": self.error,
        }


@dataclass(frozen=True)
class FuzzSweepReport:
    """Aggregate of one seeded sweep."""

    master_seed: int
    schedules_run: int
    failures: Tuple[FuzzOutcome, ...]
    crashes_fired: int
    operation_timeouts: int
    operation_retries: int
    outcomes: Tuple[FuzzOutcome, ...] = field(repr=False, default=())
    partitions_opened: int = 0
    partitions_healed: int = 0

    @property
    def converged(self) -> bool:
        return not self.failures

    @property
    def digest(self) -> str:
        """SHA-256 over the outcome fingerprints in order: two runs of the
        same sweep are byte-identical iff this one string matches."""
        return hashlib.sha256("".join(
            outcome.fingerprint for outcome in self.outcomes).encode()
        ).hexdigest()


def fingerprint(simulator: ProtocolSimulator) -> str:
    """Digest of the final overlay state, for byte-identical replays."""
    digest = hashlib.sha256()
    digest.update(f"{simulator.network.messages_sent}".encode())
    digest.update(f"@{simulator.engine.now!r}".encode())
    for object_id in sorted(simulator.nodes):
        node = simulator.nodes[object_id]
        links = ";".join(
            f"{neighbor}@{target!r}" for target, neighbor, _position in node.long_links)
        digest.update(
            f"|{object_id}:{sorted(node.voronoi)}:{sorted(node.close)}"
            f":{links}:{node.view_version}".encode())
    return digest.hexdigest()


def run_trace(trace: FuzzTrace, *, num_objects: int = 20,
              churn_events: int = 8) -> FuzzOutcome:
    """Run one trace end to end; protocol errors are reported, not raised.

    ``num_objects`` are bulk-joined, ``churn_events`` sequential joins and
    leaves follow, then up to :data:`MAX_HEAL_CYCLES` detect→repair cycles
    of at most :data:`MAX_DETECTION_ROUNDS` heartbeat rounds each must
    converge the overlay; the trace's events fire wherever their message
    indices land.
    """
    scenario = Scenario(num_objects=num_objects, seed=trace.seed,
                        churn_events=churn_events, events=trace.events)
    healed: Optional[HealOutcome] = None
    error: Optional[str] = None
    try:
        scenario.build()
        scenario.churn()
        healed = scenario.heal(MAX_HEAL_CYCLES,
                               max_detection_rounds=MAX_DETECTION_ROUNDS)
    except Exception as exc:  # noqa: BLE001 — counterexamples must be reported, not raised
        error = f"{type(exc).__name__}: {exc}"
    simulator = scenario.simulator
    victims = tuple(scenario.injector.crashed)
    return FuzzOutcome(
        trace=trace,
        converged=healed is not None and healed.converged,
        victim=victims[0] if victims else None,
        crash_phase=scenario.crash_phases[0] if victims else None,
        messages=simulator.network.messages_sent,
        virtual_time=simulator.engine.now,
        verify_problems=healed.verify_problems if healed else -1,
        residual_stale=(healed.residual_damage.total_stale_entries
                        if healed else -1),
        pending_operations=healed.pending_operations if healed else (),
        heal_cycles=healed.cycles if healed else 0,
        operation_timeouts=int(
            simulator.metrics.counter("operation_timeouts")),
        operation_retries=int(
            simulator.metrics.counter("operation_retries")),
        fingerprint=fingerprint(simulator),
        error=error,
        victims=victims,
        partitions_opened=scenario.partitions_opened,
        partitions_healed=healed.partitions_healed if healed else 0,
        phase_marks=tuple(scenario.phase_marks),
    )


def run_sweep(master_seed: int, schedules: int, *, num_objects: int = 20,
              churn_events: int = 8, crashes: int = 1,
              partition_fraction: float = 0.0,
              partition_duration: float = 40.0) -> FuzzSweepReport:
    """Derive and run ``schedules`` traces from one master seed.

    Per trace the master stream draws a sub-seed, a victim rank and a
    message index uniform over the sub-seed's fault-free message
    count (measured once per sub-seed), so crashes land anywhere from
    the first carve to the last churn hand-over.  ``crashes > 1``
    draws that many independent (index, rank) crash events per trace;
    ``partition_fraction > 0`` additionally aims one partition window
    of ``partition_duration`` at the post-build range (the fault-free
    run's phase marks locate the churn phase), so the window overlaps
    live protocol operations rather than the batched construction.
    Every draw comes from the master stream in a fixed order — the
    whole sweep replays from ``master_seed`` alone, and each failure
    from its own serialized trace.
    """
    if schedules < 1:
        raise ValueError(f"schedules must be >= 1, got {schedules}")
    if crashes < 1:
        raise ValueError(f"crashes must be >= 1, got {crashes}")
    master = RandomSource(master_seed)
    baselines: Dict[int, FuzzOutcome] = {}
    outcomes: List[FuzzOutcome] = []
    for _ in range(schedules):
        sub_seed = master.integer(0, 2**31 - 1)
        rank = master.integer(0, 1 << 16)
        if sub_seed not in baselines:
            baselines[sub_seed] = run_trace(
                FuzzTrace(sub_seed), num_objects=num_objects,
                churn_events=churn_events)
        baseline = baselines[sub_seed]
        total = max(1, baseline.messages)
        index = master.integer(1, total + 1)
        events: List[FuzzEvent] = [
            CrashEvent(at_message=index, victim_rank=rank)]
        for _extra in range(crashes - 1):
            extra_rank = master.integer(0, 1 << 16)
            extra_index = master.integer(1, total + 1)
            events.append(CrashEvent(at_message=extra_index,
                                     victim_rank=extra_rank))
        if partition_fraction > 0.0:
            marks = dict(baseline.phase_marks)
            churn_start = max(1, marks.get("churn", 1))
            heal_start = max(1, marks.get("heal", total))
            # Aim at [churn_start, heal_start]: the window overlaps
            # live sequential operations, and the heal phase's cycle
            # boundaries are guaranteed to close it.
            part_index = master.integer(
                churn_start, max(churn_start + 1, heal_start + 1))
            events.append(PartitionEvent(at_message=part_index,
                                         fraction=partition_fraction,
                                         duration=partition_duration))
        outcomes.append(run_trace(
            FuzzTrace(seed=sub_seed, events=tuple(events)),
            num_objects=num_objects, churn_events=churn_events))
    return FuzzSweepReport(
        master_seed=master_seed,
        schedules_run=len(outcomes),
        failures=tuple(o for o in outcomes if o.failed),
        crashes_fired=sum(len(o.victims) for o in outcomes),
        operation_timeouts=sum(o.operation_timeouts for o in outcomes),
        operation_retries=sum(o.operation_retries for o in outcomes),
        outcomes=tuple(outcomes),
        partitions_opened=sum(o.partitions_opened for o in outcomes),
        partitions_healed=sum(o.partitions_healed for o in outcomes),
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.simulation.fuzz``; returns exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.simulation.fuzz",
        description="Seeded crash-at-any-message schedule sweeps.")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed of the sweep (default 0)")
    parser.add_argument("--schedules", type=int, default=50,
                        help="number of schedules to derive (default 50)")
    parser.add_argument("--replay-trace", type=str, action="append",
                        metavar="PATH", default=[],
                        help="replay serialized traces from a JSON file "
                             "instead of sweeping (one trace dict, a list of them, or a failure "
                             "artifact written by --output; repeatable)")
    parser.add_argument("--objects", type=int, default=20,
                        help="overlay size each schedule builds (default 20)")
    parser.add_argument("--churn", type=int, default=8,
                        help="churn events per schedule (default 8)")
    parser.add_argument("--crashes", type=int, default=1,
                        help="crash events per derived trace (default 1)")
    parser.add_argument("--partition-fraction", type=float, default=0.0,
                        help="isolate this fraction of the overlay in one "
                             "message-indexed partition window per trace "
                             "(default 0 = no partitions)")
    parser.add_argument("--partition-duration", type=float, default=40.0,
                        help="virtual-time length of each partition window "
                             "(default 40)")
    parser.add_argument("--output", type=str, default=None,
                        help="write failing traces as JSON to this path")
    args = parser.parse_args(argv)

    def describe(outcome: FuzzOutcome) -> str:
        count = len(outcome.trace.events)
        shape = "1 event" if count == 1 else f"{count} events"
        victims = (f"victims={list(outcome.victims)}"
                   if len(outcome.victims) > 1
                   else f"victim={outcome.victim}")
        return (f"seed={outcome.seed} {shape} {victims} "
                f"partitions={outcome.partitions_opened} "
                f"phase={outcome.crash_phase} "
                f"fingerprint={outcome.fingerprint[:16]}"
                + (f" error={outcome.error}" if outcome.error else ""))

    if args.replay_trace:
        traces: List[FuzzTrace] = []
        for path in args.replay_trace:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            records = data if isinstance(data, list) else [data]
            for record in records:
                # Failure artifacts nest the trace under "trace"; bare
                # trace dicts carry "seed"/"events" at top level.
                raw = record.get("trace") or record
                traces.append(FuzzTrace.from_dict(raw))
        failures = []
        for trace in traces:
            outcome = run_trace(trace, num_objects=args.objects,
                                churn_events=args.churn)
            status = "FAIL" if outcome.failed else "ok"
            print(f"{status} {describe(outcome)}")
            if outcome.failed:
                failures.append(outcome)
    else:
        report = run_sweep(args.seed, args.schedules,
                           num_objects=args.objects, churn_events=args.churn,
                           crashes=args.crashes,
                           partition_fraction=args.partition_fraction,
                           partition_duration=args.partition_duration)
        failures = list(report.failures)
        print(f"{report.schedules_run} schedules from master seed "
              f"{args.seed}: {report.crashes_fired} crashes fired, "
              f"{report.partitions_opened} partitions opened, "
              f"{report.operation_timeouts} operation timeouts, "
              f"{report.operation_retries} retries, "
              f"{len(failures)} failures, digest={report.digest}")
        for outcome in failures:
            print(f"FAIL {describe(outcome)}")

    if args.output and failures:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump([outcome.as_dict() for outcome in failures],
                      handle, indent=2)
        print(f"failing traces written to {args.output}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
