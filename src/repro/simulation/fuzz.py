"""Fault-at-any-message fuzzing: deterministic Jepsen-style schedules.

The engine's virtual clock and the seeded :class:`~repro.simulation.faults.
FaultPlane` make every protocol run perfectly replayable; this module
turns that determinism into a correctness harness.  A
:class:`FuzzTrace` names one experiment — *with this seed, fire these
faults at exactly these global message indices* — as an ordered sequence
of :class:`CrashEvent`\\ s (victim by rank *or* "whoever sent the armed
message", i.e. the coordinator of the operation in flight) and
:class:`PartitionEvent`\\ s (a partition window opened at an exact
message index).  :class:`CrashScheduleFuzzer` runs a trace end to end:
build an overlay through ``bulk_join``, churn it with sequential joins
and leaves, fire the faults wherever their indices land (mid-carve,
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

Two drivers share the harness:

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

from repro.core.config import VoroNetConfig
from repro.simulation.faults import (
    FaultPlane,
    HeartbeatDetector,
    ProtocolCrashInjector,
    RepairProtocol,
)
from repro.simulation.protocol import ProtocolSimulator, TimeoutPolicy
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects

__all__ = [
    "CrashEvent",
    "PartitionEvent",
    "FuzzTrace",
    "FuzzOutcome",
    "FuzzSweepReport",
    "CrashScheduleFuzzer",
    "main",
]


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


@dataclass(frozen=True)
class PartitionEvent:
    """Open a partition window when the ``at_message``-th send occurs.

    At fire time the first ``ceil(fraction · n)`` of the sorted live ids
    (at least one node is always left on each side) are isolated from
    the rest for ``duration`` of virtual time from the current clock —
    a clock-windowed :class:`~repro.simulation.faults.PartitionSpec`, so
    messages crossing the cut feed the fault plane and in-flight
    semantics follow the pinned send-time rule.  The
    harness heals any window still open when the heal phase starts; the
    repair machinery must then converge the overlay exactly as it does
    after crashes.
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


class CrashScheduleFuzzer:  # simlint: ignore[SIM003] — one per campaign, not per message
    """Runs fault traces against fresh, fully seeded simulators.

    Parameters size the experiment each trace runs: ``num_objects``
    bulk-joined to build, ``churn_events`` sequential joins/leaves (two
    joins for every leave, mirroring the churn harness rates), then up to
    ``max_heal_cycles`` detect→repair cycles, each bounded by
    ``max_detection_rounds`` heartbeat rounds and the repairer's
    ``max_repair_rounds``.  ``min_population`` stops the trigger from
    amputating an overlay too small to repair (the crash is skipped; the
    run still must converge fault-free).
    """

    def __init__(self, *, num_objects: int = 20, churn_events: int = 8,
                 num_long_links: int = 1, min_population: int = 6,
                 max_heal_cycles: int = 3, max_detection_rounds: int = 6,
                 max_repair_rounds: int = 8,
                 timeouts: Optional[TimeoutPolicy] = None) -> None:
        if num_objects < 4:
            raise ValueError(f"num_objects must be >= 4, got {num_objects}")
        if min_population < 4:
            raise ValueError(
                f"min_population must be >= 4, got {min_population}")
        if max_heal_cycles < 1:
            raise ValueError(
                f"max_heal_cycles must be >= 1, got {max_heal_cycles}")
        self.num_objects = num_objects
        self.churn_events = churn_events
        self.num_long_links = num_long_links
        self.min_population = min_population
        self.max_heal_cycles = max_heal_cycles
        self.max_detection_rounds = max_detection_rounds
        self.max_repair_rounds = max_repair_rounds
        self.timeouts = timeouts if timeouts is not None else TimeoutPolicy()

    # ------------------------------------------------------------------
    def baseline_messages(self, seed: int) -> int:
        """Total messages of the fault-free run — the index range for sweeps."""
        return self.run_trace(FuzzTrace(seed)).messages

    @staticmethod
    def _fingerprint(simulator: ProtocolSimulator) -> str:
        """Digest of the final overlay state, for byte-identical replays."""
        digest = hashlib.sha256()
        digest.update(f"{simulator.network.messages_sent}".encode())
        digest.update(f"@{simulator.engine.now!r}".encode())
        for object_id in sorted(simulator.nodes):
            node = simulator.nodes[object_id]
            links = ";".join(
                f"{link.neighbor}@{link.target!r}" for link in node.long_links)
            digest.update(
                f"|{object_id}:{sorted(node.voronoi)}:{sorted(node.close)}"
                f":{links}:{node.view_version}".encode())
        return digest.hexdigest()

    def run_trace(self, trace: FuzzTrace) -> FuzzOutcome:
        """Run one trace end to end; never raises — errors are reported."""
        seed = trace.seed
        capacity = 4 * (self.num_objects + self.churn_events + 8)
        config = VoroNetConfig(n_max=capacity,
                               num_long_links=self.num_long_links, seed=seed)
        faults = FaultPlane(seed=seed + 1)
        simulator = ProtocolSimulator(config, seed=seed, faults=faults,
                                      timeouts=self.timeouts)
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(seed + 2))
        positions = generate_objects(UniformDistribution(), self.num_objects,
                                     RandomSource(seed + 3))
        churn_rng = RandomSource(seed + 4)

        # Triggers fire synchronously inside Network.send, i.e. in the
        # middle of whatever protocol loop sent the indexed message — a
        # crash victim dies holding exactly the in-flight state that
        # message represents, and a partition window opens under it.
        # `phase` is a cell so triggers can record where the axe fell;
        # `phase_marks` records the message count at each phase boundary.
        phase: List[str] = ["build"]
        phase_marks: List[Tuple[str, int]] = [("build", 0)]
        crash_info: Dict[str, object] = {"victim": None, "phase": None}
        victims: List[int] = []
        partitions_opened: List[int] = [0]

        def enter_phase(name: str) -> None:
            phase[0] = name
            phase_marks.append((name, simulator.network.messages_sent))

        def make_crash_trigger(event: CrashEvent):
            def trigger(message) -> None:
                live = sorted(simulator.nodes)
                if len(live) <= self.min_population:
                    return  # too small to amputate; run continues fault-free
                if (event.victim == "coordinator"
                        and message.sender in simulator.nodes):
                    victim = message.sender
                else:
                    victim = live[event.victim_rank % len(live)]
                if crash_info["victim"] is None:
                    crash_info["victim"] = victim
                    crash_info["phase"] = phase[0]
                victims.append(victim)
                injector.crash(victim)
            return trigger

        def make_partition_trigger(event: PartitionEvent):
            def trigger(_message) -> None:
                live = sorted(simulator.nodes)
                if len(live) < 2:
                    return  # nothing to cut
                count = max(1, math.ceil(len(live) * event.fraction))
                members = live[:min(count, len(live) - 1)]
                now = simulator.engine.now
                faults.partition(members, now, now + event.duration)
                partitions_opened[0] += 1
            return trigger

        for event in trace.events:
            if isinstance(event, CrashEvent):
                simulator.network.at_message(event.at_message,
                                             make_crash_trigger(event))
            else:
                simulator.network.at_message(event.at_message,
                                             make_partition_trigger(event))

        converged = False
        heal_cycles = 0
        partitions_healed = 0
        error: Optional[str] = None
        verify_problems = -1
        residual_stale = -1
        pending: Tuple[Tuple[str, int], ...] = ()
        try:
            simulator.bulk_join(positions)

            enter_phase("churn")
            for _ in range(self.churn_events):
                if churn_rng.uniform() < 2.0 / 3.0:
                    simulator.join(churn_rng.random_point())
                else:
                    live = sorted(simulator.nodes)
                    if len(live) > self.min_population:
                        simulator.leave(
                            live[churn_rng.integer(0, len(live))])

            enter_phase("heal")
            detector = HeartbeatDetector(simulator)
            repairer = RepairProtocol(simulator, detector=detector,
                                      max_rounds=self.max_repair_rounds)
            dead = set(injector.crashed)

            def all_damage_suspected() -> bool:
                for object_id in sorted(simulator.nodes):
                    node = simulator.nodes[object_id]
                    for peer in sorted(node.monitored_peers()):
                        if peer in dead and peer not in node.suspects:
                            return False
                return True

            for _ in range(self.max_heal_cycles):
                heal_cycles += 1
                # Windows still open are closed at each cycle boundary:
                # the experiment asserts *post-partition* convergence, and
                # a window opened by a late-armed event (even by the heal
                # phase's own messages) must not leave the cut standing
                # for the remaining cycles to diverge against.
                partitions_healed += faults.heal_partitions()
                rounds = 0
                while rounds < self.max_detection_rounds:
                    detector.run_round()
                    rounds += 1
                    if (rounds >= detector.miss_threshold
                            and all_damage_suspected()):
                        break
                repair = repairer.repair()
                verify_problems = len(simulator.verify_views())
                residual_stale = injector.assess_damage().total_stale_entries
                pending = tuple(simulator.pending_operations())
                if (repair.converged and verify_problems == 0
                        and residual_stale == 0 and not pending
                        and simulator.engine.quiescent):
                    converged = True
                    break
        except Exception as exc:  # noqa: BLE001 — counterexamples must be reported, not raised
            error = f"{type(exc).__name__}: {exc}"

        return FuzzOutcome(
            trace=trace,
            converged=converged,
            victim=crash_info["victim"],
            crash_phase=crash_info["phase"],
            messages=simulator.network.messages_sent,
            virtual_time=simulator.engine.now,
            verify_problems=verify_problems,
            residual_stale=residual_stale,
            pending_operations=pending,
            heal_cycles=heal_cycles,
            operation_timeouts=int(
                simulator.metrics.counter("operation_timeouts")),
            operation_retries=int(
                simulator.metrics.counter("operation_retries")),
            fingerprint=self._fingerprint(simulator),
            error=error,
            victims=tuple(victims),
            partitions_opened=partitions_opened[0],
            partitions_healed=partitions_healed,
            phase_marks=tuple(phase_marks),
        )

    # ------------------------------------------------------------------
    def run_sweep(self, master_seed: int, schedules: int, *,
                  stop_on_failure: bool = False,
                  crashes: int = 1,
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
                baselines[sub_seed] = self.run_trace(FuzzTrace(sub_seed))
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
                churn_start, heal_start = 1, total
                for name, mark in baseline.phase_marks:
                    if name == "churn":
                        churn_start = max(1, mark)
                    elif name == "heal":
                        heal_start = max(1, mark)
                # Aim at [churn_start, heal_start]: the window overlaps
                # live sequential operations, and the heal phase's cycle
                # boundaries are guaranteed to close it.
                part_index = master.integer(
                    churn_start, max(churn_start + 1, heal_start + 1))
                events.append(PartitionEvent(at_message=part_index,
                                             fraction=partition_fraction,
                                             duration=partition_duration))
            outcomes.append(self.run_trace(
                FuzzTrace(seed=sub_seed, events=tuple(events))))
            if stop_on_failure and outcomes[-1].failed:
                break
        failures = tuple(o for o in outcomes if o.failed)
        return FuzzSweepReport(
            master_seed=master_seed,
            schedules_run=len(outcomes),
            failures=failures,
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

    fuzzer = CrashScheduleFuzzer(num_objects=args.objects,
                                 churn_events=args.churn)

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
            outcome = fuzzer.run_trace(trace)
            status = "FAIL" if outcome.failed else "ok"
            print(f"{status} {describe(outcome)}")
            if outcome.failed:
                failures.append(outcome)
    else:
        report = fuzzer.run_sweep(args.seed, args.schedules,
                                  crashes=args.crashes,
                                  partition_fraction=args.partition_fraction,
                                  partition_duration=args.partition_duration)
        failures = list(report.failures)
        print(f"{report.schedules_run} schedules from master seed "
              f"{args.seed}: {report.crashes_fired} crashes fired, "
              f"{report.partitions_opened} partitions opened, "
              f"{report.operation_timeouts} operation timeouts, "
              f"{report.operation_retries} retries, "
              f"{len(failures)} failures")
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
