"""One staged pipeline for protocol fault experiments.

The paper's join and leave protocols (Section 3.3) assume reliable
delivery and graceful departure; everything this repository claims
beyond that — crash repair, split-brain merge, crash-at-any-message
convergence — is the output of an experiment that wires a seeded stack,
builds a population, disturbs it, and drives detection and repair until
the views verify clean.  :class:`Scenario` owns that staging once:

* **wiring** — config, fault plane, simulator, crash injector, heartbeat
  detector and repair protocol all derive from one seed by the offset
  table below; ``n_max = 4 · (objects + churn events + 8)`` is the one
  capacity rule;
* **stages** — ``build()``, ``churn()``, ``crash(fraction)``,
  ``detect(until, max_rounds)`` and ``heal(max_cycles, …)`` are plain
  methods a script calls in the order its experiment needs, with
  per-phase message accounting and phase marks recorded here;
* **faults** — an optional tuple of :mod:`~repro.simulation.fuzz` trace
  events is armed on the network at construction and fires wherever its
  message index lands.

Seed offsets (every stream an experiment draws from)::

    seed      config, simulator        seed + 4   churn arrivals
    seed + 1  fault plane              seed + 5   split-era activity
    seed + 2  crash victims            seed + 9   liveness probe queries
    seed + 3  population layout        seed + 11  oracle parity queries

:func:`run_merge_scenario` scripts the partition/merge experiment on the
same :class:`Scenario`.  This module never imports ``repro.serving``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import VoroNetConfig
from repro.geometry.delaunay import DelaunayTriangulation
from repro.geometry.point import distance
from repro.simulation.failures import (CrashDamageReport,
                                       PartitionDamageReport,
                                       assess_partition_damage)
from repro.simulation.faults import (FaultPlane, HeartbeatDetector,
                                     ProtocolCrashInjector, RepairProtocol,
                                     RepairReport)
from repro.simulation.merge import MergeReport, PartitionRuntime
from repro.simulation.protocol import BulkJoinReport, ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects

__all__ = [
    "MIN_POPULATION",
    "Scenario",
    "HealOutcome",
    "measure_steady_state_liveness",
    "AvailabilityTracker",
    "MergeScenarioReport",
    "run_merge_scenario",
]

#: Below this population neither churn leaves nor trace-armed crashes
#: remove anyone: an overlay that small cannot be repaired around.
MIN_POPULATION = 6

#: Repair-round budget of each side's scoped repair while split.
_SIDE_REPAIR_ROUNDS = 6

#: Routed lookups compared against the never-split oracle after a merge.
_PARITY_QUERIES = 32


@dataclass(frozen=True)
class HealOutcome:
    """What :meth:`Scenario.heal` found, did and left behind.

    ``detection_rounds`` and ``repair`` describe the last cycle run;
    ``phase_messages`` is the scenario's per-phase message accounting at
    the moment healing ended (``build``, ``churn``, ``detect``,
    ``repair`` and the ``repair:<phase>`` breakdown).
    """

    converged: bool
    cycles: int
    detection_rounds: int
    repair: RepairReport
    damage: CrashDamageReport
    residual_damage: CrashDamageReport
    verify_problems: int
    pending_operations: Tuple[Tuple[str, int], ...]
    partitions_healed: int
    phase_messages: Dict[str, int]


class Scenario:  # simlint: ignore[SIM003] — one per experiment, not per message
    """A seeded protocol stack plus the stages of a fault experiment.

    Everything derives from ``seed`` and runs on the virtual clock, so a
    run is reproducible.  ``churn_events`` is the number of membership
    operations planned after :meth:`build` — it sizes ``n_max`` and is
    what :meth:`churn` runs (the merge script spends the same budget on
    split-era inserts).  ``events`` are armed immediately, so a trace may
    fire in any stage, including the bulk build.
    """

    def __init__(self, *, num_objects: int, seed: int, churn_events: int = 0,
                 events: Sequence = ()) -> None:
        if num_objects < 4:
            raise ValueError(f"num_objects must be >= 4, got {num_objects}")
        self.num_objects = num_objects
        self.seed = seed
        self.churn_events = churn_events
        self.config = VoroNetConfig(
            n_max=4 * (num_objects + churn_events + 8), seed=seed)
        self.faults = FaultPlane(seed=seed + 1)
        self.simulator = ProtocolSimulator(self.config, seed=seed,
                                           faults=self.faults)
        self.injector = ProtocolCrashInjector(self.simulator,
                                              rng=RandomSource(seed + 2))
        self.detector = HeartbeatDetector(self.simulator)
        self.repairer = RepairProtocol(self.simulator, detector=self.detector)
        #: Name of the stage running now, and the global message count at
        #: which each stage began (trace events record where they fired;
        #: the fuzz sweep aims partition windows with the marks).
        self.phase = "build"
        self.phase_marks: List[Tuple[str, int]] = [("build", 0)]
        self.phase_messages: Dict[str, int] = {}
        #: Stage in which each trace-armed crash fired, in firing order.
        self.crash_phases: List[str] = []
        self.partitions_opened = 0
        # Triggers fire synchronously inside Network.send, i.e. in the
        # middle of whatever protocol loop sent the indexed message — a
        # crash victim dies holding exactly the in-flight state that
        # message represents, and a partition window opens under it.
        for event in events:
            self.simulator.network.at_message(event.at_message,
                                              partial(event.fire, self))

    # ------------------------------------------------------------------
    def _enter(self, phase: str) -> None:
        self.phase = phase
        self.phase_marks.append((phase,
                                 self.simulator.network.messages_sent))

    def _count(self, phase: str, messages: int) -> None:
        self.phase_messages[phase] = (self.phase_messages.get(phase, 0)
                                      + messages)

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    def build(self) -> BulkJoinReport:
        """Bulk-join ``num_objects`` uniformly placed objects."""
        positions = generate_objects(UniformDistribution(), self.num_objects,
                                     RandomSource(self.seed + 3))
        network = self.simulator.network
        before = network.messages_sent
        report = self.simulator.bulk_join(positions)
        self._count("build", network.messages_sent - before)
        return report

    def churn(self) -> Tuple[int, int]:
        """Run ``churn_events`` graceful operations, two joins per leave.

        Sequential on purpose: protocol ``join``/``leave`` drain the
        engine to quiescence, so an arrival process on the virtual clock
        would only serialise the same operations.  A leave drawn while
        the population is at :data:`MIN_POPULATION` is skipped.  Returns
        the ``(joins, leaves)`` executed.
        """
        simulator = self.simulator
        self._enter("churn")
        before = simulator.network.messages_sent
        rng = RandomSource(self.seed + 4)
        joins = leaves = 0
        for _ in range(self.churn_events):
            if rng.uniform() < 2.0 / 3.0:
                simulator.join(rng.random_point())
                joins += 1
            else:
                live = sorted(simulator.nodes)
                if len(live) > MIN_POPULATION:
                    simulator.leave(live[rng.integer(0, len(live))])
                    leaves += 1
        self._count("churn", simulator.network.messages_sent - before)
        return joins, leaves

    def crash(self, fraction: float) -> List[int]:
        """Abruptly crash ``fraction`` of the live population; the victims."""
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"crash fraction must be in [0, 1), got {fraction}")
        return self.injector.crash_random(
            int(round(fraction * len(self.simulator))))

    def damage_suspected(self) -> bool:
        """Does every surviving reference to a crashed node sit on a suspect list?

        Reads the injector's crash list live, so a victim that dies while
        detection or repair is already running is waited for too.
        """
        crashed = set(self.injector.crashed)
        return _all_suspected(self.simulator, lambda _holder, peer: peer in crashed)

    def detect(self, until: Optional[Callable[[], bool]] = None,
               max_rounds: int = 8) -> int:
        """Run heartbeat rounds until ``until()`` holds; the rounds run.

        ``until`` defaults to :meth:`damage_suspected`.  At least
        ``miss_threshold`` rounds always run (no suspicion can form
        sooner), at most ``max_rounds``.
        """
        until = until if until is not None else self.damage_suspected
        network = self.simulator.network
        before = network.messages_sent
        rounds = 0
        while rounds < max_rounds:
            self.detector.run_round()
            rounds += 1
            if rounds >= self.detector.miss_threshold and until():
                break
        self._count("detect", network.messages_sent - before)
        return rounds

    def heal(self, max_cycles: int = 1, *, max_detection_rounds: int = 8,
             max_repair_rounds: int = 8,
             loss_probability: float = 0.0) -> HealOutcome:
        """Detect, repair and verify, up to ``max_cycles`` times.

        ``loss_probability`` applies while detecting and repairing (where
        retry-safety absorbs it), never to construction or churn, whose
        operations assume reliable delivery as the paper's do.  A cycle
        converges when repair converged, ``verify_views()`` is clean, no
        stale reference to a crashed node survives, no operation is
        pending and the engine is quiescent.
        """
        if max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
        simulator = self.simulator
        network = simulator.network
        self._enter("heal")
        damage = self.injector.assess_damage()
        healed = cycles = 0
        converged = False
        while not converged and cycles < max_cycles:
            cycles += 1
            # Windows still open are closed at each cycle boundary: the
            # experiment asserts *post-partition* convergence, and a
            # window opened by a late-armed event (even by the heal
            # phase's own messages) must not leave the cut standing for
            # the remaining cycles to diverge against.
            healed += self.faults.heal_partitions()
            self.faults.set_loss(loss_probability)
            rounds = self.detect(max_rounds=max_detection_rounds)
            before = network.messages_sent
            repair = self.repairer.repair(max_repair_rounds)
            self.faults.set_loss(0.0)
            self._count("repair", network.messages_sent - before)
            for phase, count in repair.phase_messages.items():
                self._count(f"repair:{phase}", count)
            problems = len(simulator.verify_views())
            residual = self.injector.assess_damage()
            pending = tuple(simulator.pending_operations())
            converged = (repair.converged and problems == 0
                         and residual.total_stale_entries == 0
                         and not pending and simulator.engine.quiescent)
        return HealOutcome(
            converged=converged, cycles=cycles, detection_rounds=rounds,
            repair=repair, damage=damage, residual_damage=residual,
            verify_problems=problems, pending_operations=pending,
            partitions_healed=healed,
            phase_messages=dict(self.phase_messages))


# ----------------------------------------------------------------------
# steady-state liveness cost
# ----------------------------------------------------------------------
def measure_steady_state_liveness(simulator: ProtocolSimulator, *,
                                  rounds: int = 4,
                                  queries_per_round: int = 25,
                                  ) -> Dict[str, float]:
    """Liveness message cost over a healthy overlay.

    Runs ``rounds`` synchronous rounds of a fresh detector over the
    current (healthy, loss-free) population, interleaving
    ``queries_per_round`` routed point queries per round as the ordinary
    protocol traffic freshness feeds on.  One uncounted warm-up round
    comes first: steady state is what's being measured, not the cold
    start.  Returns the ``PING`` + ``PONG`` count, its cost per
    member-round, and the inverse — member-rounds per liveness message,
    the higher-is-better form a floor can gate.
    """
    query_rng = RandomSource(simulator.config.seed + 9)
    kinds = simulator.network.sent_by_kind
    detector = HeartbeatDetector(simulator)

    def liveness_messages() -> int:
        return kinds.get("PING", 0) + kinds.get("PONG", 0)

    def run_round() -> int:
        before = liveness_messages()
        for _ in range(queries_per_round):
            simulator.query(query_rng.random_point())
        detector.run_round()
        return liveness_messages() - before

    run_round()  # warm-up (uncounted)
    spent = sum(run_round() for _ in range(rounds))
    member_rounds = len(simulator) * rounds
    return {
        "rounds": float(rounds),
        "queries_per_round": float(queries_per_round),
        "members": float(len(simulator)),
        "liveness_messages": float(spent),
        "messages_per_member_round": spent / member_rounds,
        # max(1, ·): a zero-message run (degenerate tiny overlay) must
        # not put a non-JSON Infinity in bench records.
        "member_rounds_per_message": member_rounds / max(spent, 1),
    }


# ----------------------------------------------------------------------
# the partition/merge experiment
# ----------------------------------------------------------------------
class AvailabilityTracker:
    """Split-era query availability, per side and phase, plus heal latency.

    The merge scenario records every split-era query as
    ``(side, phase, served)`` — ``phase`` is ``"degraded"`` (the cut is
    open but views still reference the far side, so walks die crossing
    it) or ``"stable"`` (each side has repaired against its own fork) —
    and brackets every heal with :meth:`mark_heal` /
    :meth:`mark_converged` so time-to-converge is measured on the same
    virtual clock as the queries.  :meth:`summary` is JSON-safe (string
    keys throughout) for the benchmark records.
    """

    __slots__ = ("_served", "_total", "_heals", "_pending_heal")

    def __init__(self) -> None:
        # (side, phase) -> counts; sides are small ints, phases strings.
        self._served: Dict[tuple, int] = {}
        self._total: Dict[tuple, int] = {}
        self._heals: List[Dict[str, float]] = []
        self._pending_heal: Optional[float] = None

    def record(self, side: int, phase: str, served: bool) -> None:
        """Count one split-era query outcome for ``side`` in ``phase``."""
        key = (side, phase)
        self._total[key] = self._total.get(key, 0) + 1
        if served:
            self._served[key] = self._served.get(key, 0) + 1

    def mark_heal(self, time: float) -> None:
        """The split healed at virtual ``time``; converge timing starts."""
        self._pending_heal = float(time)

    def mark_converged(self, time: float) -> None:
        """Views verified clean at ``time``; closes the pending heal."""
        if self._pending_heal is None:
            raise ValueError("mark_converged without a pending mark_heal")
        self._heals.append({
            "healed_at": self._pending_heal,
            "converged_at": float(time),
            "time_to_converge": float(time) - self._pending_heal,
        })
        self._pending_heal = None

    def success_rate(self, phase: Optional[str] = None) -> float:
        """Served fraction across all sides (optionally one phase)."""
        total = served = 0
        for key, count in self._total.items():
            if phase is not None and key[1] != phase:
                continue
            total += count
            served += self._served.get(key, 0)
        return served / total if total else 0.0

    def summary(self) -> Dict:
        """JSON-safe availability summary for benchmark records."""
        sides: Dict[str, Dict[str, Dict[str, float]]] = {}
        for key in sorted(self._total):
            side, phase = key
            total = self._total[key]
            served = self._served.get(key, 0)
            sides.setdefault(str(side), {})[phase] = {
                "queries": float(total),
                "served": float(served),
                "success_rate": served / total if total else 0.0,
            }
        times = [heal["time_to_converge"] for heal in self._heals]
        return {
            "sides": sides,
            "degraded_success_rate": self.success_rate("degraded"),
            "stable_success_rate": self.success_rate("stable"),
            "heals": list(self._heals),
            "time_to_converge_max": max(times) if times else 0.0,
        }


@dataclass(frozen=True)
class MergeScenarioReport:
    """One full split/serve/heal/merge experiment (possibly flapping)."""

    num_objects: int
    cycles: int
    sides: int
    converged: bool
    cycle_reports: Tuple[MergeReport, ...]
    damage_reports: Tuple[PartitionDamageReport, ...]
    availability: Dict
    final_verify_problems: int
    oracle_view_parity: bool
    routing_parity_queries: int
    routing_parity_mismatches: int
    messages: int
    virtual_time: float


def _assign_sides(live: List[int], rng: RandomSource,
                  fractions: Sequence[float]) -> List[List[int]]:
    """Seeded side assignment of the sorted ids ``live``, every side ≥ 4."""
    # Fisher–Yates over the sorted ids with the activity stream: the
    # assignment depends only on (seed, population), not dict order.
    for i in range(len(live) - 1, 0, -1):
        j = rng.integer(0, i + 1)
        live[i], live[j] = live[j], live[i]
    total = sum(fractions)
    sides: List[List[int]] = []
    offset = 0
    for index, fraction in enumerate(fractions):
        if index == len(fractions) - 1:
            chunk = live[offset:]
        else:
            count = max(4, int(round(len(live) * fraction / total)))
            chunk = live[offset:offset + count]
        offset += len(chunk)
        if len(chunk) < 4:
            raise RuntimeError(f"side {index} too small ({len(chunk)}); "
                               f"grow num_objects or rebalance fractions")
        sides.append(chunk)
    return sides


def _all_suspected(simulator: ProtocolSimulator,
                   dead: Callable[[int, int], bool]) -> bool:
    """Does every node suspect each peer it monitors that ``dead(node, peer)``
    holds dead — a crashed peer, or one across a split's cut?"""
    for object_id, node in simulator.nodes.items():
        for peer in node.monitored_peers():
            if peer not in node.suspects and dead(object_id, peer):
                return False
    return True


def run_merge_scenario(*, num_objects: int = 120, seed: int = 7,
                       num_sides: int = 2,
                       side_fractions: Optional[Sequence[float]] = None,
                       cycles: int = 1,
                       inserts_per_side: int = 2,
                       queries_per_side: int = 12,
                       degraded_queries_per_side: int = 4,
                       ) -> MergeScenarioReport:
    """Split, serve on every side, heal, merge, and compare with an oracle.

    Each cycle (``cycles > 1`` models flapping partitions): assign every
    live object a side (seeded shuffle honouring ``side_fractions``),
    open the split, measure *degraded* availability (queries issued while
    views still reference the far side feed the fault plane), let
    detection suspect the cut and run a **scoped repair per side** so
    each half converges to its own fork, insert ``inserts_per_side``
    objects on *every* side (minting colliding published ids), measure
    *stable* per-side availability, then heal (one union kernel) and
    settle the union with the scenario's repairer.  After the last
    cycle the overlay must be byte-identical to a never-split oracle
    tessellation built from the union, including routing parity on
    sampled lookups.
    """
    if num_sides < 2:
        raise ValueError(f"need at least 2 sides, got {num_sides}")
    if side_fractions is None:
        side_fractions = (1.0,) * num_sides
    if len(side_fractions) != num_sides:
        raise ValueError("side_fractions must name every side")
    if any(fraction <= 0 for fraction in side_fractions):
        raise ValueError("side fractions must be positive")
    if num_objects < 8 * num_sides:
        raise ValueError(f"{num_objects} objects cannot sustain "
                         f"{num_sides} independently serving sides")
    scenario = Scenario(num_objects=num_objects, seed=seed,
                        churn_events=cycles * num_sides * inserts_per_side)
    simulator = scenario.simulator
    runtime = PartitionRuntime(simulator)
    availability = AvailabilityTracker()
    activity = RandomSource(seed + 5)

    def serve_side_queries(phase: str, count: int) -> None:
        for index in range(num_sides):
            for _ in range(count):
                owner = runtime.side_query(index, activity.random_point())
                availability.record(index, phase, owner is not None)

    scenario.build()
    cycle_reports: List[MergeReport] = []
    damage_reports: List[PartitionDamageReport] = []
    for _cycle in range(cycles):
        spec = runtime.open_split(
            _assign_sides(sorted(simulator.nodes), activity, side_fractions))
        damage_reports.append(
            assess_partition_damage(simulator.nodes, spec.sides))
        # Degraded phase: views still reference the far side, so a walk
        # whose greedy next hop crosses the cut dies silently.
        serve_side_queries("degraded", degraded_queries_per_side)
        # Detection, then per-side stabilisation against each fork.
        scenario.detect(until=partial(_all_suspected, simulator, spec.separates))
        for index in range(num_sides):
            with runtime.side(index):
                RepairProtocol(simulator, detector=scenario.detector,
                               max_rounds=_SIDE_REPAIR_ROUNDS,
                               scope=runtime.side_members(index)).repair()
        # Both-side inserts: every side publishes against its own fork,
        # minting colliding side-local ids.
        for _ in range(inserts_per_side):
            for index in range(num_sides):
                runtime.side_join(index, activity.random_point())
        # Stable phase: each side serves from its own tessellation.
        serve_side_queries("stable", queries_per_side)
        # Heal: one union kernel, then the standing repair settles every
        # view against it.
        summary = runtime.heal()
        healed_at = simulator.engine.now
        availability.mark_heal(healed_at)
        before = simulator.network.messages_sent
        repair = scenario.repairer.repair()
        converged = repair.converged and not simulator.verify_views()
        if converged:
            availability.mark_converged(simulator.engine.now)
        cycle_reports.append(MergeReport(
            converged=converged, rounds=repair.rounds,
            time_to_converge=simulator.engine.now - healed_at,
            messages=simulator.network.messages_sent - before,
            union_inserts=summary.union_inserts,
            coordinate_conflicts=summary.coordinate_conflicts,
            id_collisions_resolved=summary.id_collisions_resolved))
    # Never-split oracle: one tessellation built from the union
    # population.  Delaunay triangulations are unique in general
    # position, so insertion order cannot matter — byte-identical views
    # here mean the merge truly erased the split.  Close sets are held to
    # every live peer inside the d_min disc, found by brute force.
    oracle = DelaunayTriangulation()
    live = sorted(simulator.nodes)
    for object_id in live:
        oracle.insert(simulator.nodes[object_id].position,
                      vertex_id=object_id)
    d_min = simulator.config.effective_d_min
    nodes = simulator.nodes
    view_parity = all(
        set(node.voronoi) == set(oracle.neighbors(object_id))
        and set(node.close) == {peer for peer in live if peer != object_id
                                and distance(nodes[peer].position,
                                             node.position) <= d_min}
        for object_id, node in nodes.items())
    mismatches = 0
    parity_rng = RandomSource(seed + 11)
    for k in range(_PARITY_QUERIES):
        target = parity_rng.random_point()
        start = live[parity_rng.integer(0, len(live))]
        query_id = (1 << 41) + k
        simulator.start_query(target, start=start, query_id=query_id)
        simulator.engine.run()
        answer = simulator.query_answers.pop(query_id, None)
        if answer is None or answer["owner"] != oracle.nearest_vertex(target):
            mismatches += 1
    problems = simulator.verify_views()
    return MergeScenarioReport(
        num_objects=num_objects, cycles=cycles, sides=num_sides,
        converged=(all(report.converged for report in cycle_reports)
                   and not problems),
        cycle_reports=tuple(cycle_reports),
        damage_reports=tuple(damage_reports),
        availability=availability.summary(),
        final_verify_problems=len(problems),
        oracle_view_parity=view_parity,
        routing_parity_queries=_PARITY_QUERIES,
        routing_parity_mismatches=mismatches,
        messages=simulator.network.messages_sent,
        virtual_time=simulator.engine.now)
