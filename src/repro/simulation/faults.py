"""Message-level fault injection and the self-healing repair protocol.

The paper (Section 3.3) specifies a *graceful* departure protocol — a
leaving object hands its region, its close-neighbour declarations and its
hosted back-long-range registrations to the survivors before withdrawing —
and explicitly leaves crash recovery open.  The oracle-mode
:class:`~repro.simulation.failures.CrashInjector` quantifies that gap by
mutating overlay state directly; this module closes it *at the message
level*: crashes, message loss and partitions are injected into the network
layer, and the survivors detect and repair the damage entirely through
counted protocol messages.

Four pieces compose the subsystem:

* :class:`FaultPlane` — the injection point, consulted by
  :meth:`Network.send <repro.simulation.network.Network.send>` for every
  non-local message.  It drops traffic to/from crashed nodes, cuts
  messages crossing an active partition (a set of ids isolated for a
  window of the virtual clock), and loses messages probabilistically
  from a dedicated seeded random source, so delivery decisions are
  reproducible end to end.
* :class:`ProtocolCrashInjector` — crashes live protocol nodes abruptly.
  Exactly mirroring the oracle injector, the *substrate* is repaired (the
  shared kernel, the locate grid and the network handler table forget the
  victim — the hosting infrastructure notices the peer vanished) while
  every protocol-level hand-over of Section 3.3 is skipped, stranding the
  survivors' local views.
* :class:`HeartbeatDetector` — periodic ``PING``/``PONG`` probing of each
  node's reference set (Voronoi neighbours, close neighbours, long-link
  endpoints and back-link sources).  A peer missing ``miss_threshold``
  consecutive rounds lands on the prober's local suspect list; a live
  suspect that later answers a probe is exonerated by the ``PONG``
  handler, so lost heartbeats self-correct.  Freshness is piggy-backed on
  ordinary protocol traffic (any delivered message exonerates its sender,
  recently heard peers are not probed, crossed probes suppress the
  redundant ``PONG``) and long-link/back-link edges are probed on a
  deterministic sampling stride instead of every round — the one liveness
  policy, its detection latency bounded (:class:`HeartbeatConfig`).  Who
  a node probes is a function of its view, so a round iterates each
  node's :meth:`ProtocolNode.probe_plan
  <repro.simulation.protocol.ProtocolNode.probe_plan>`, cached against
  ``view_epoch``, instead of rebuilding the sets.
* :class:`RepairProtocol` — the crash-mode extension of the Section 3.3
  departure protocol.  Where a graceful leaver *pushes* its state out, the
  repair protocol lets the survivors *pull* the overlay back together in
  phased rounds made of the protocol moves
  (:mod:`repro.simulation.protocol` lists them): suspicion gossip
  (``SUSPECT_NOTIFY``), ``send_snapshot`` of a ``VIEW_SCRUB`` — the
  survivors' ``RemoveVoronoiRegion``, whose handler also ``hand_over``-s
  mis-held back registrations — ``reissue_long_link`` for every dangling
  link and ``discover_close``.  Rounds are retry-safe: a node keeps a
  suspect until no local reference to it survives, so repair messages
  lost to the fault plane are simply re-attempted next round.

What a heal cycle caches, against what
--------------------------------------
A crash → detect → repair → verify cycle should cost what it sends, so
the three things its drivers used to recompute are each kept against the
token that invalidates them — and each leaves the message stream bit for
bit where recomputing put it (``tests/simulation/test_heal_golden.py``):

=====================  ================================  ==================
cached                 valid while                       checked by
=====================  ================================  ==================
a node's probe plan    its ``view_epoch`` stands         ``verify_views()``
a member's clean       ``(kernel.version, view_epoch)``  recomputed by every
vn and link owners     stands, within one ``repair()``   ``repair()`` call
the plane's doubles    always (the next stretch of the   the scalar-stream
                       one seeded stream, drawn early)   Hypothesis test
=====================  ================================  ==================

:class:`~repro.simulation.scenario.Scenario` wires the pieces into one
reproducible experiment — bulk-join a population, churn it gracefully,
crash a fraction, detect, repair, verify — with per-phase message
accounting; the ``ablation_churn_protocol`` experiment and the
``bench_protocol_churn`` benchmark script its stages.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.maintenance import Family, Finding
from repro.simulation.failures import CrashDamageReport, crash_damage_report
from repro.simulation.protocol import NO_ENTRIES, ProtocolSimulator
from repro.utils.rng import RandomSource

__all__ = [
    "FaultDecision",
    "FaultPlane",
    "attach_fault_plane",
    "PartitionSpec",
    "SplitSpec",
    "ProtocolCrashInjector",
    "HeartbeatConfig",
    "HeartbeatDetector",
    "RepairProtocol",
    "RepairReport",
]


# ----------------------------------------------------------------------
# the fault plane
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultDecision:
    """Verdict of the fault plane on one message."""

    deliver: bool
    reason: str = "ok"


_DELIVER = FaultDecision(deliver=True)

#: Doubles the fault plane draws from its generator per refill.
_DRAW_BLOCK = 1024


@dataclass(frozen=True)
class PartitionSpec:
    """One partition: ``members`` are cut off from everyone else in a window.

    The window is half-open on the virtual clock: messages sent at
    ``start <= now < end`` with exactly one endpoint inside ``members``
    are dropped.  Traffic *within* the isolated group (and within its
    complement) flows normally.
    """

    members: frozenset
    start: float
    end: float

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def separates(self, sender: int, recipient: int) -> bool:
        return (sender in self.members) != (recipient in self.members)


class SplitSpec:  # simlint: ignore[SIM003] — one per partition event, not per message
    """A k-way network split with explicit side membership.

    Unlike :class:`PartitionSpec` (one group cut off from *everyone*),
    a split names every side: traffic within a side flows, traffic
    between any two different sides is cut while the window is active.
    Nodes joining mid-split are assigned a side with :meth:`assign`, so
    side membership tracks the population the heal must reconcile.

    The fault decision is made at *send* time only: a message sent before
    the window opens is a packet already on the wire and is delivered even
    if its delivery lands mid-split (see ``TESTING.md`` "Partitions &
    merge").
    """

    __slots__ = ("sides", "start", "end", "_side_of", "healed")

    def __init__(self, sides: Sequence[Sequence[int]], start: float,
                 end: float) -> None:
        if end < start:
            raise ValueError(f"split window ends before it starts: "
                             f"[{start}, {end})")
        if len(sides) < 2:
            raise ValueError("a split needs at least two sides")
        self.sides: List[Set[int]] = [set(side) for side in sides]
        self._side_of: Dict[int, int] = {}
        for index, side in enumerate(self.sides):
            for object_id in side:
                if object_id in self._side_of:
                    raise ValueError(f"object {object_id} appears on "
                                     f"two sides of the split")
                self._side_of[object_id] = index
        self.start = float(start)
        self.end = float(end)
        self.healed = False

    def __repr__(self) -> str:
        sizes = "/".join(str(len(side)) for side in self.sides)
        return (f"SplitSpec(sides={sizes}, start={self.start!r}, "
                f"end={self.end!r})")

    def active(self, now: float) -> bool:
        return not self.healed and self.start <= now < self.end

    def side_of(self, object_id: int) -> Optional[int]:
        """Side index of ``object_id``, or ``None`` if unassigned."""
        return self._side_of.get(object_id)

    def assign(self, object_id: int, side: int) -> None:
        """Place a split-era joiner on ``side`` (idempotent re-assign is an error)."""
        if not 0 <= side < len(self.sides):
            raise ValueError(f"no side {side} in a {len(self.sides)}-way split")
        current = self._side_of.get(object_id)
        if current is not None and current != side:
            raise ValueError(f"object {object_id} already on side {current}")
        self.sides[side].add(object_id)
        self._side_of[object_id] = side

    def separates(self, sender: int, recipient: int) -> bool:
        """True when both endpoints are assigned and sit on different sides.

        Unassigned endpoints (objects that predate the split machinery or
        external observers) are never cut — the split only severs traffic
        between *known* sides, matching how a WAN partition separates
        whole sites rather than individual flows.
        """
        sender_side = self._side_of.get(sender)
        recipient_side = self._side_of.get(recipient)
        return (sender_side is not None and recipient_side is not None
                and sender_side != recipient_side)


class FaultPlane:
    """Message-level fault injection for the protocol simulator.

    Attach via ``ProtocolSimulator(..., faults=FaultPlane(seed=...))`` (or
    by setting :attr:`Network.faults <repro.simulation.network.Network.faults>`
    directly).  Every non-local send is then submitted to :meth:`decide`.

    Decision order is fixed — crashed sender, crashed recipient, partition
    cut, probabilistic loss — and random draws come from a dedicated
    :class:`~repro.utils.rng.RandomSource`, so for a given seed and message
    sequence the decisions are deterministic (the Hypothesis suite pins
    this).  A message the plane lets through is delivered at the one
    latency, :data:`~repro.simulation.engine.LATENCY`.

    The plane owns that source exclusively and draws its doubles
    ``_DRAW_BLOCK`` at a time.  The stream is the scalar one, bit for bit:
    one draw per message that reaches the loss check with
    ``loss_probability > 0``, equal to what one ``Generator.uniform()``
    call would return.  A loss probability toggled mid-block changes which
    messages draw, never what the next draw returns.

    Parameters
    ----------
    seed:
        Seed of the loss random source.
    loss_probability:
        Per-message probability of silent loss (applied after crash and
        partition checks).
    """

    __slots__ = ("_rng", "_doubles", "seed", "_crashed", "_partitions",
                 "_splits", "loss_probability",
                 "decisions", "drops_by_reason")

    def __init__(self, *, seed: Optional[int] = None,
                 loss_probability: float = 0.0) -> None:
        self._rng = RandomSource(seed)
        #: Drawn but not yet consumed doubles, next one last.
        self._doubles: List[float] = []
        #: The seed the decision stream was built from (``None`` when the
        #: plane was deliberately left unseeded) — kept so reprs and
        #: experiment reports can state how to replay the fault schedule.
        self.seed = seed
        self._crashed: Set[int] = set()
        self._partitions: List[PartitionSpec] = []
        self._splits: List[SplitSpec] = []
        self.set_loss(loss_probability)
        self.decisions = 0
        self.drops_by_reason: Dict[str, int] = {}

    def __repr__(self) -> str:
        return (f"FaultPlane(seed={self.seed!r}, "
                f"loss_probability={self.loss_probability!r})")

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def set_loss(self, probability: float) -> None:
        """Set the per-message loss probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {probability}")
        self.loss_probability = probability

    def crash(self, object_id: int) -> None:
        """Mark a node crashed: every message to or from it is dropped."""
        self._crashed.add(object_id)

    @property
    def crashed(self) -> frozenset:
        """Ids currently marked crashed."""
        return frozenset(self._crashed)

    def partition(self, members: Sequence[int], start: float,
                  end: float) -> PartitionSpec:
        """Isolate ``members`` from the rest of the overlay on ``[start, end)``."""
        if end < start:
            raise ValueError(f"partition window ends before it starts: "
                             f"[{start}, {end})")
        spec = PartitionSpec(members=frozenset(members), start=float(start),
                             end=float(end))
        self._partitions.append(spec)
        return spec

    def split(self, sides: Sequence[Sequence[int]], start: float,
              end: float = math.inf) -> SplitSpec:
        """Open a k-way split: traffic between different ``sides`` is cut.

        Returns the :class:`SplitSpec`, whose :meth:`~SplitSpec.assign`
        tracks split-era joiners.  ``end`` defaults to +inf — a split is
        normally closed explicitly via :meth:`heal_partitions` rather than
        by the clock.
        """
        spec = SplitSpec(sides, start, end)
        self._splits.append(spec)
        return spec

    def active_split(self, now: float) -> Optional[SplitSpec]:
        """The first split whose window covers ``now``, if any."""
        for spec in self._splits:
            if spec.active(now):
                return spec
        return None

    def side_of(self, object_id: int, now: float) -> Optional[int]:
        """Side of ``object_id`` under the split active at ``now``."""
        spec = self.active_split(now)
        return None if spec is None else spec.side_of(object_id)

    def heal_partitions(self) -> int:
        """Drop every partition/split spec; returns how many were open.

        Windows that merely expire on the virtual clock are pruned
        passively on the ``decide`` hot path instead.
        """
        count = len(self._partitions) + len(self._splits)
        self._partitions.clear()
        for spec in self._splits:
            spec.healed = True
        self._splits.clear()
        return count

    # ------------------------------------------------------------------
    # the decision hook
    # ------------------------------------------------------------------
    def decide(self, sender: int, recipient: int, now: float) -> FaultDecision:
        """Fate of one message from ``sender`` to ``recipient`` sent at
        virtual time ``now``."""
        self.decisions += 1
        if sender in self._crashed:
            return self._drop("crashed_sender")
        if recipient in self._crashed:
            return self._drop("crashed_recipient")
        if self._partitions:
            # Prune expired windows first: decide() sits on the per-message
            # hot path, and the virtual clock never goes backwards.
            self._partitions = [spec for spec in self._partitions
                                if spec.end > now]
            for spec in self._partitions:
                if spec.active(now) and spec.separates(sender, recipient):
                    return self._drop("partition")
        if self._splits:
            self._splits = [spec for spec in self._splits if spec.end > now]
            for spec in self._splits:
                if spec.active(now) and spec.separates(sender, recipient):
                    return self._drop("partition")
        if self.loss_probability > 0.0 and self._draw() < self.loss_probability:
            return self._drop("loss")
        return _DELIVER

    def _draw(self) -> float:
        """The stream's next double in ``[0, 1)``."""
        doubles = self._doubles
        if not doubles:
            doubles = self._doubles = (
                self._rng.generator.random(_DRAW_BLOCK)[::-1].tolist())
        return doubles.pop()

    def _drop(self, reason: str) -> FaultDecision:
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1
        return FaultDecision(deliver=False, reason=reason)


def attach_fault_plane(simulator: ProtocolSimulator) -> FaultPlane:
    """The simulator's fault plane, attached first if it has none.

    An attached plane is seeded from ``simulator.config.seed``, so a loss
    probability set on it later draws the same decisions on every run.
    """
    if simulator.network.faults is None:
        simulator.network.faults = FaultPlane(seed=simulator.config.seed)
    return simulator.network.faults


# ----------------------------------------------------------------------
# protocol-mode crash injection
# ----------------------------------------------------------------------
class ProtocolCrashInjector:  # simlint: ignore[SIM003] — one per experiment, not per message
    """Abruptly removes objects from a message-level overlay.

    The substrate semantics mirror the oracle-mode
    :class:`~repro.simulation.failures.CrashInjector` exactly: the shared
    kernel, the locate grid and the network handler table forget the victim
    (the hosting infrastructure notices the peer vanished), and the fault
    plane starts dropping any traffic addressed to it — but none of the
    Section 3.3 hand-overs run, so every surviving local view that
    referenced the victim is left stale.  :meth:`assess_damage` quantifies
    the wreckage in the same :class:`CrashDamageReport` terms the oracle
    injector uses, which is what the protocol-vs-oracle parity tests pin.
    """

    def __init__(self, simulator: ProtocolSimulator,
                 rng: Optional[RandomSource] = None) -> None:
        self._simulator = simulator
        attach_fault_plane(simulator)
        # Interactive/standalone default; experiments pass a seeded stream.
        self._rng = rng if rng is not None else RandomSource()  # simlint: ignore[SIM002]
        self._crashed: List[int] = []

    @property
    def crashed(self) -> List[int]:
        """Ids crashed so far, in crash order."""
        return list(self._crashed)

    def crash_random(self, count: int) -> List[int]:
        """Crash ``count`` uniformly random objects; returns their ids."""
        victims: List[int] = []
        for _ in range(count):
            ids = self._simulator.object_ids()
            if len(ids) <= 3:
                break
            victim = ids[self._rng.integer(0, len(ids))]
            self.crash(victim)
            victims.append(victim)
        return victims

    def crash(self, object_id: int) -> None:
        """Crash one object: substrate repaired, protocol hand-overs skipped.

        A leave without the hand-over: the simulator's ``uncarve`` and
        ``detach_node``, and nothing else.  Safe at *any* message index: a
        victim caught mid-join may not be carved yet, one caught mid-leave
        has already withdrawn its region, and a join it still had pending
        surfaces as ``timed_out`` on the caller's
        :class:`~repro.simulation.protocol.JoinReport`.
        """
        simulator = self._simulator
        if object_id not in simulator.nodes:
            raise KeyError(f"unknown object {object_id}")
        simulator.network.faults.crash(object_id)
        simulator.uncarve(object_id)
        simulator.detach_node(object_id)
        self._crashed.append(object_id)
        simulator.metrics.increment("crashes")

    def assess_damage(self) -> CrashDamageReport:
        """Count stale references the crashes left in surviving views."""
        crashed = set(self._crashed)
        return crash_damage_report(crashed, (
            (crashed, node.voronoi, node.close, node.long_links, node.back_links)
            for node in self._simulator.nodes.values()))


# ----------------------------------------------------------------------
# heartbeat failure detection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HeartbeatConfig:
    """Parameters of the liveness policy — piggy-backed, sampled probing.

    There is one policy.  Freshness rides on ordinary protocol traffic:
    every delivered message counts as proof of life for its sender (and
    exonerates a suspected one), peers heard from within the last
    ``miss_threshold`` rounds are not probed at all — evidence that recent
    cannot support a suspicion anyway — and a ``PONG`` is suppressed when
    the recipient's own ``PING`` of the same round is already in flight to
    the sender (crossed probes prove liveness both ways).  On an idle
    overlay probing therefore alternates instead of firing every round; on
    a busy one, edges carrying traffic are never probed.  Long-link and
    back-link edges are probed on a stride (``sample_fraction``).

    Detection latency is bounded: no peer is suspected before
    ``miss_threshold`` rounds, and every stale reference to a crashed peer
    is suspected within ``2 · miss_threshold + sample_period + 2`` rounds
    — the freshness window doubles the threshold and the stride adds one
    period.

    None of the parameters is read per node: what depends on a node's view
    (its reference set in probing order, and which of it is
    ``sample_fraction``'s long/back part) is its probe plan, cached per
    view epoch; what depends on the round (stride, freshness, pending
    suspicion) is tested per edge as the plan is walked.

    Attributes
    ----------
    interval:
        Init-only and positive: ``perf/systems.py`` still passes it.
        Rounds are synchronous (:meth:`HeartbeatDetector.run_round`), so
        nothing reads it.
    miss_threshold:
        Consecutive unanswered rounds before a peer is suspected.
    sample_fraction:
        Fraction of *long-link/back-link* edges probed per round (Voronoi
        and close neighbours — the structural core — are always probed).
        Sampled edges are probed on a deterministic per-edge stride of
        period ``round(1 / sample_fraction)``, so every edge is covered
        once per period.  A peer with a missed heartbeat or on the suspect
        list is always probed, so suspicion in progress resolves at full
        speed.
    piggyback:
        Init-only and ``True`` only: ``perf/systems.py`` still names the
        policy it times.
    """

    interval: InitVar[float] = 8.0
    miss_threshold: int = 2
    sample_fraction: float = 0.25
    piggyback: InitVar[bool] = True

    def __post_init__(self, interval: float, piggyback: bool) -> None:
        if not piggyback:
            raise ValueError("piggy-backed, sampled probing is the only "
                             "liveness policy; piggyback must be True")
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if self.miss_threshold < 1:
            raise ValueError(
                f"miss_threshold must be >= 1, got {self.miss_threshold}")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError(
                f"sample_fraction must be in (0, 1], got {self.sample_fraction}")

    @property
    def sample_period(self) -> int:
        """Stride (in rounds) between probes of one sampled edge."""
        return max(1, int(round(1.0 / self.sample_fraction)))


class HeartbeatDetector:  # simlint: ignore[SIM003] — one per experiment, not per message
    """Periodic ``PING``/``PONG`` probing with per-node suspect lists.

    Each round every live node probes the part of its reference set
    (:meth:`ProtocolNode.monitored_peers
    <repro.simulation.protocol.ProtocolNode.monitored_peers>`) that is
    neither fresh nor off its sampling stride (:class:`HeartbeatConfig`);
    a peer that misses ``miss_threshold`` consecutive rounds is added to
    the prober's local suspect list.  Attaching a detector turns on the
    simulator's ``detector_attached`` switch for good: from then on every
    delivery stamps a contact at its recipient, which is what freshness
    reads.  Rounds are numbered by the simulator's ``heartbeat_round``
    counter, shared by every detector on it; the stride and the freshness
    window count this detector's own rounds.  A round's probes, prober →
    peers in send order, are published as the simulator's
    ``heartbeat_probes`` from the send phase to the sweep: a ``PING``
    handler suppresses its ``PONG`` when the round is the current one and
    it probed the sender itself, so one detector's probes can never
    suppress a ``PONG`` owed to another, and no node keeps a probe stamp.

    A round walks each node's :meth:`ProtocolNode.probe_plan
    <repro.simulation.protocol.ProtocolNode.probe_plan>` — the sorted
    reference set and its long/back part, derived once per ``view_epoch``
    — so it builds no set and sorts nothing per node; freshness is kept
    per prober and edge (and dropped with the prober), one read-only
    ``PING`` payload serves the whole round, and the sweep settles the
    probes in the order they were sent.  Every probe still goes through
    :meth:`ProtocolSimulator.send
    <repro.simulation.protocol.ProtocolSimulator.send>`, in the order and
    number the per-round recomputation produced.  Rounds are synchronous
    (:meth:`run_round`: send the probes, drain the engine, sweep the
    answers), so detection runs in bounded, countable rounds.
    """

    #: Multiplier on ``object_id``/``peer`` in the deterministic stride
    #: phase of sampled edges (two odd constants decorrelate the two ids).
    _PHASE_A = 2654435761
    _PHASE_B = 40503

    def __init__(self, simulator: ProtocolSimulator, *,
                 config: Optional[HeartbeatConfig] = None) -> None:
        if config is None:
            config = HeartbeatConfig()
        self.simulator = simulator
        self.config = config
        self.miss_threshold = config.miss_threshold
        #: This detector's rounds so far (stride and freshness age on it),
        #: and the simulator-wide number of its current round (the PING
        #: payload, and what the PONG carries back).
        self._round = 0
        self._stamp = 0
        #: Probes of the round in flight: prober → peers in send order; the
        #: simulator's ``heartbeat_probes`` until the sweep releases them.
        self._outstanding: Mapping[int, Tuple[int, ...]] = NO_ENTRIES
        #: Virtual start times of the last two rounds ([-1] is the current
        #: round's; the sweep treats contact during the round as an answer).
        self._round_starts: List[float] = []
        #: Per prober, the round at which each of its edges was last
        #: observed fresh.  Freshness is aged in
        #: *rounds*, not virtual time — synchronous rounds on an idle
        #: overlay do not advance the clock, so a time-based window would
        #: freeze and a crash on a quiet overlay would never be probed
        #: again.  A departed prober's map is dropped at the next round
        #: (ids are never re-issued, so nobody could read it again); a live
        #: prober keeps its per-peer entries, so an edge that disappears
        #: and returns inside the freshness window is still fresh.  The
        #: marks are per edge, not a window over ``last_contact``: contact
        #: received while an edge is out of the probe plan marks nothing,
        #: so the edge is probed when it enters the plan.
        self._fresh_round: Dict[int, Dict[int, int]] = {}
        simulator.detector_attached = True

    # ------------------------------------------------------------------
    def _send_pings(self) -> int:
        simulator = self.simulator
        config = self.config
        self._round += 1
        simulator.heartbeat_round += 1
        stamp = self._stamp = simulator.heartbeat_round
        self._round_starts.append(simulator.engine.now)
        del self._round_starts[:-2]
        outstanding = self._outstanding = simulator.heartbeat_probes = {}
        pings = 0
        period = config.sample_period
        current_round = self._round
        # Contact strictly after the previous round began re-marks an edge
        # fresh (strict: with a frozen clock the previous round's start
        # equals the old contact timestamp, which must *not* count again).
        previous_start = (self._round_starts[-2]
                          if len(self._round_starts) >= 2 else math.inf)
        # An edge marked fresh in a later round than this is still fresh.
        fresh_after = current_round - config.miss_threshold
        nodes = simulator.nodes
        fresh_rounds = self._fresh_round
        for departed in [prober for prober in fresh_rounds
                         if prober not in nodes]:
            del fresh_rounds[departed]
        # One payload serves the whole round.
        payload = (stamp,)
        send = simulator.send
        phase_b = self._PHASE_B
        sampling = period > 1
        never = -math.inf
        # A node that crashes mid-round is still probed from: the round
        # walks the membership it started with.
        for node in tuple(nodes.values()):
            peers, sampled = node.probe_plan()
            if not peers:
                continue
            object_id = node.object_id
            missed = node.missed_heartbeats
            suspects = node.suspects
            # Suspicion in progress (a standing suspect, a missed heartbeat)
            # is probed every round; most probers have none to look up.
            pending = suspects or missed
            last_contact = node.last_contact
            fresh = fresh_rounds.get(object_id)
            # The stride test below is ``(round + phase(edge)) % period``,
            # with the prober's half of the phase folded in once.
            stride_base = current_round + object_id * self._PHASE_A
            probed: List[int] = []
            for peer in peers:
                if not pending or (peer not in suspects and not missed.get(peer, 0)):
                    if last_contact.get(peer, never) > previous_start:
                        # Heard since last round began: fresh now, and
                        # for the next miss_threshold rounds.
                        if fresh is None:
                            fresh = fresh_rounds[object_id] = {}
                        fresh[peer] = current_round
                        continue
                    if fresh is not None and fresh.get(peer, never) > fresh_after:
                        continue  # within the freshness window
                    # A sampled long/back edge probes on its own stride:
                    # the round its deterministic phase comes up.
                    if (sampling and peer in sampled
                            and (stride_base + peer * phase_b) % period):
                        continue  # off-stride round
                probed.append(peer)
                send(node, peer, "PING", payload)
            if probed:
                # Published before any delivery: sends only queue.
                outstanding[object_id] = (peers if len(probed) == len(peers)
                                          else tuple(probed))
                pings += len(probed)
        return pings

    def _sweep(self) -> List[Tuple[int, int]]:
        """Settle the round just drained; returns newly created (prober, suspect)."""
        simulator = self.simulator
        stamp = self._stamp
        round_started = self._round_starts[-1]
        new_suspects: List[Tuple[int, int]] = []
        for object_id, peers in self._outstanding.items():
            node = simulator.nodes.get(object_id)
            if node is None:  # the prober itself crashed mid-round
                continue
            last_heard = node.last_heard
            last_contact = node.last_contact
            for peer in peers:  # in send order, which is id order
                if last_heard.get(peer) == stamp:
                    continue
                if last_contact.get(peer, -math.inf) >= round_started:
                    continue  # any message during the round is an answer
                if node.miss_heartbeat(peer, self.miss_threshold):
                    new_suspects.append((object_id, peer))
        self._outstanding = simulator.heartbeat_probes = NO_ENTRIES
        return new_suspects

    # ------------------------------------------------------------------
    def run_round(self) -> List[Tuple[int, int]]:
        """One synchronous round: probe, drain, sweep.

        Returns the (prober, suspect) pairs created by this round.
        """
        self._send_pings()
        self.simulator.engine.run()
        return self._sweep()

    def run_rounds(self, count: int) -> List[Tuple[int, int]]:
        """Run ``count`` synchronous rounds; returns all new suspicions."""
        created: List[Tuple[int, int]] = []
        for _ in range(count):
            created.extend(self.run_round())
        return created

    # ------------------------------------------------------------------
    def suspected(self) -> Dict[int, Set[int]]:
        """Current per-node suspect lists (non-empty ones only)."""
        return {object_id: set(node.suspects)
                for object_id, node in self.simulator.nodes.items()
                if node.suspects}


# ----------------------------------------------------------------------
# the repair protocol
# ----------------------------------------------------------------------
#: A repair-phase probe's ``PING`` payload: round 0, which no detector
#: round is numbered, so a crossed probe never suppresses its ``PONG``.
_REPAIR_PING = (0,)


@dataclass(frozen=True)
class RepairReport:
    """Outcome of a repair session."""

    rounds: int
    converged: bool
    suspects_processed: int
    reissued_long_links: int
    phase_messages: Dict[str, int] = field(default_factory=dict)
    residual_suspects: int = 0


class RepairProtocol:  # simlint: ignore[SIM003] — one per experiment, not per message
    """Heals surviving views after crashes, in phased message rounds.

    One :meth:`repair_round` runs five drained phases — ``probe`` (every
    suspect receives direct ``PING``s from its suspecter; a live suspect's
    ``PONG`` exonerates it *before* any destructive phase acts on the
    suspicion, which is what keeps lossy heartbeats from amputating live
    nodes), ``notify`` (suspicion gossip to the local neighbourhood; the
    handler scrubs close entries and dangling back registrations),
    ``scrub`` (version-stamped ``VIEW_SCRUB`` refreshes every Voronoi view
    that still references a suspect; the handler also hands mis-held back
    registrations one greedy step towards their owner), ``retarget``
    (dangling long links re-run the routed ``SEARCH_LONG_LINK``) and
    ``close`` (locate-grid-seeded close re-discovery, restoring entries
    dropped on false suspicion) — then garbage-collects suspect entries
    that no local reference supports any more.

    :meth:`repair` iterates rounds until every suspect list drains and
    the view walk ``verify_views()`` prints finds nothing over the in-scope
    members, or ``max_rounds`` is exhausted — one predicate, asked the same
    way at both exits.  It settles the walk's findings (:meth:`_settle`)
    once the suspect lists drain, and after a round that left every
    holder's suspect list as it found it: damage nobody suspects can keep
    a retargeted search failing round after round.  Because nodes keep a
    suspect while any stale reference survives, rounds are idempotent and
    retry-safe under message loss.

    Repair acts on the suspect lists the nodes hold, whoever filled them;
    it drives no detection itself.  With no detector the walk is the only
    evidence: a link it finds pointing at a departed endpoint makes its
    holder suspect that endpoint while the settlement re-searches it.
    ``detector`` is stored as passed (no detector is built when it is
    omitted) and read by nothing here: the parameter stays because
    ``perf/systems.py`` passes it.
    """

    PHASES = ("probe", "notify", "scrub", "retarget", "close", "audit")

    #: Direct probes per suspect in the exoneration phase; with loss
    #: probability ``p`` a live suspect survives all of them (and is
    #: wrongly repaired around) with probability ``(1 - (1-p)²)^PROBES`` —
    #: the final audit phase settles those stragglers.
    PROBES_PER_SUSPECT = 2

    def __init__(self, simulator: ProtocolSimulator, *,
                 detector: Optional[HeartbeatDetector] = None,
                 max_rounds: int = 8,
                 scope: Optional[Set[int]] = None) -> None:
        self.simulator = simulator
        self.detector = detector
        self.max_rounds = max_rounds
        #: Optional id set this repairer confines itself to.  A scoped
        #: repairer (one side of a network split healing against its own
        #: kernel fork) only probes, scrubs, retargets and settles members
        #: of the scope; unscoped behaviour is byte-identical to before
        #: the parameter existed.
        self.scope = frozenset(scope) if scope is not None else None
        self._reissued = 0
        #: Re-searches per ``(holder, link index)``, and member →
        #: ``(kernel.version, view_epoch)`` at which the walk last found
        #: nothing of it; both live for one :meth:`repair` call, emptied when
        #: it starts and when it returns.
        self._reissue_attempts: Dict[Tuple[int, int], int] = {}
        self._settled: Dict[int, Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    def _members(self) -> List[int]:
        """Live ids this repairer is responsible for, in id order."""
        nodes = self.simulator.nodes
        if self.scope is None:
            return sorted(nodes)
        return sorted(object_id for object_id in self.scope
                      if object_id in nodes)

    def _holders(self, members: List[int]) -> List[int]:
        """Those of ``members`` still live with a non-empty suspect list."""
        nodes = self.simulator.nodes
        return [object_id for object_id in members
                if object_id in nodes and nodes[object_id].suspects]

    def repair_round(self) -> Optional[Dict[str, int]]:
        """Run one phased repair round; ``None`` when nothing is suspected."""
        simulator = self.simulator
        members = self._members()
        holders = self._holders(members)
        rehabilitation_pending = any(simulator.nodes[object_id].rehabilitated
                                     for object_id in members)
        if not holders and not rehabilitation_pending:
            return None
        phase_messages: Dict[str, int] = {}

        # ---- probe: give every suspect a chance to exonerate itself -----
        # Heartbeat rounds under message loss routinely cross the miss
        # threshold for live peers; acting on such a suspicion would repair
        # *around* a healthy node.  Direct probes first: a live suspect's
        # PONG clears the suspicion (and its miss counter) before any
        # destructive phase runs.
        if holders:
            with simulator.counted_phase(phase_messages, "probe"):
                for object_id in holders:
                    node = simulator.nodes.get(object_id)
                    if node is None:
                        continue
                    for suspect in sorted(node.suspects):
                        for _ in range(self.PROBES_PER_SUSPECT):
                            simulator.send(node, suspect, "PING", _REPAIR_PING)
            holders = self._holders(members)

        suspected_set = frozenset().union(*(
            simulator.nodes[object_id].suspects for object_id in holders))

        if holders:
            # ---- notify: gossip suspicion to the local neighbourhood ----
            with simulator.counted_phase(phase_messages, "notify"):
                for object_id in holders:
                    node = simulator.nodes.get(object_id)
                    if node is None:
                        continue
                    recipients = sorted((set(node.voronoi) | set(node.close))
                                        - node.suspects - {object_id})
                    payload = (frozenset(node.suspects),)
                    for recipient in recipients:
                        simulator.send(node, recipient, "SUSPECT_NOTIFY", payload)

            # ---- scrub: refresh Voronoi views referencing a suspect -----
            # The sender — a node that detected the crash — plays the role
            # the departing node plays in Section 3.3: it consults its
            # local topologically consistent Voronoi computation (the
            # shared kernel, exactly as AddVoronoiRegion does) and
            # distributes version-stamped views to the wounded survivors.
            with simulator.counted_phase(phase_messages, "scrub"):
                kernel = simulator.kernel
                degenerate = len(kernel) <= 8 or not kernel.has_triangulation
                if degenerate:
                    affected = [object_id for object_id in members
                                if object_id in kernel]
                else:
                    affected = [object_id for object_id in members
                                if object_id in kernel
                                and not suspected_set.isdisjoint(
                                    simulator.nodes[object_id].voronoi)]
                version = kernel.version
                scrub = (suspected_set,)
                for object_id in affected:
                    if object_id not in simulator.nodes:
                        continue  # crashed while this phase was being sent
                    sender_id = next((h for h in holders
                                      if h != object_id and h in simulator.nodes),
                                     object_id)
                    simulator.send_snapshot(simulator.nodes[sender_id], object_id,
                                            "VIEW_SCRUB", version, scrub)

            # ---- retarget: dangling long links re-run the routed search -
            # First attempt per link routes from the requester (the join
            # protocol's own walk); a retry — the previous attempt lost a
            # hop or its reply to the fault plane — escalates to a
            # locate-grid seed next to the target, so each further attempt
            # needs only O(1) deliveries to land.
            with simulator.counted_phase(phase_messages, "retarget"):
                for object_id in members:
                    node = simulator.nodes.get(object_id)
                    if node is None:
                        continue  # crashed while this phase was being sent
                    for index, (_target, neighbor, _position) in enumerate(
                            node.long_links):
                        if neighbor in node.suspects:
                            key = (object_id, index)
                            attempts = self._reissue_attempts.get(key, 0)
                            node.reissue_long_link(index, seeded=attempts > 0)
                            self._reissue_attempts[key] = attempts + 1
                            self._reissued += 1

        # ---- close: grid-seeded re-discovery (false-suspicion healing) --
        # Covers exonerated suspects too: suspicion scrubbed their close
        # entry destructively, and by now the probe phase has already
        # emptied the suspect list that would otherwise select the node.
        with simulator.counted_phase(phase_messages, "close"):
            for object_id in members:
                node = simulator.nodes.get(object_id)
                if node is None:
                    continue  # crashed while this phase was being sent
                if node.suspects or node.rehabilitated:
                    node.rediscover_close()

        # ---- GC: drop suspicion no surviving reference supports ---------
        for object_id in members:
            node = simulator.nodes.get(object_id)
            if node is not None:
                node.gc_suspects()
        return phase_messages

    # ------------------------------------------------------------------
    def _findings(self) -> List[Finding]:
        """The view walk over the in-scope members, in id order; a peer
        outside the scope reads as departed.  Within one :meth:`repair`
        call a member's vn and link owners are a function of
        ``(kernel.version, view_epoch)`` alone, so a member the walk found
        nothing of is stamped with that pair and settled until it moves."""
        simulator = self.simulator
        nodes = simulator.nodes
        version = simulator.kernel.version
        members = {object_id: nodes[object_id] for object_id in self._members()}
        memo = self._settled
        settled = {object_id for object_id, node in members.items()
                   if memo.get(object_id) == (version, node.view_epoch)}
        findings = list(simulator.view_findings(members, settled))
        flagged = {finding.object_id for finding in findings}
        for object_id, node in members.items():
            if object_id not in flagged:
                memo[object_id] = (version, node.view_epoch)
        return findings

    @staticmethod
    def _work_lists(findings: List[Finding]) -> Tuple[List, List, List, List, List]:
        """In walk order: each long link with a finding, once, as
        ``(holder, index)``; stale vns; ``(holder, dead peers)``; orphan
        registrations as ``(holder, (source, index))``; and in id order the
        peers not holding a member that holds them as a close neighbour.  A
        close entry beyond ``d_min`` has none: no protocol move adopts or
        settles one, so the repair reports it unconverged."""
        def of(*families: Family) -> List[Finding]:
            return [finding for finding in findings if finding.family in families]

        dead: Dict[int, Set[int]] = {}
        for finding in of(Family.STALE_CLOSE, Family.DEPARTED_BACK):
            dead.setdefault(finding.object_id, set()).add(finding.peer)
        links = of(Family.DEPARTED_LINK, Family.MISOWNED_LINK, Family.UNREGISTERED_LINK)
        return (list(dict.fromkeys((finding.object_id, finding.index) for finding in links)),
                [finding.object_id for finding in of(Family.STALE_VN)],
                list(dead.items()),
                [(finding.object_id, (finding.peer, finding.index))
                 for finding in of(Family.ORPHAN_BACK)],
                sorted({finding.peer for finding in of(Family.ONE_SIDED_CLOSE)}))

    def _settle(self, findings: List[Finding], totals: Dict[str, int]) -> None:
        """Settle the walk's findings with the protocol moves alone."""
        simulator = self.simulator
        nodes = simulator.nodes
        links, stale_views, dead_refs, orphans, lonely = self._work_lists(findings)
        # What is message-free first: a crash fires inside a counted send,
        # so every member the walk listed is still there.  References
        # serving a departed peer (a crash that landed mid-repair, past the
        # suspicion machinery) get the local scrub suspicion would have
        # applied; an orphan registration is dropped by its holder, a local
        # hand-off.
        for object_id, dead in dead_refs:
            nodes[object_id].apply_suspicion(dead)
        # A link whose endpoint has left: while this pass's searches run,
        # its holder suspects the endpoint, as detection would have, so no
        # search is forwarded along that link into the dead node — the
        # search for a target the holder now owns routes back through it.
        # The suspicion ends with the pass; a link still dangling is
        # settled again on the next.  A peer outside the scope is alive
        # across a cut, and no suspicion is made of it.
        departed = [(nodes[finding.object_id], frozenset({finding.peer}))
                    for finding in findings
                    if finding.family is Family.DEPARTED_LINK
                    and finding.peer not in nodes
                    and finding.peer not in nodes[finding.object_id].suspects]
        for node, peer in departed:
            node.suspect(peer)
        for object_id, (source, index) in orphans:
            simulator.send(nodes[object_id], object_id, "BACKLINK_REMOVE",
                           (source, index))
        # Stale views (a lost snapshot with no suspect to blame): the node
        # re-reads the version-stamped kernel truth — the VIEW_SCRUB of the
        # scrub phase, self-addressed, with nothing to scrub.
        version = simulator.kernel.version
        for object_id in stale_views:
            simulator.send_snapshot(nodes[object_id], object_id,
                                    "VIEW_SCRUB", version, (frozenset(),))
        # Mis-held or unregistered links: re-issue the routed search for
        # exactly those links — grid-seeded, this is the settlement pass.
        # A node a peer holds as a close neighbour but that does not hold
        # the peer re-runs close discovery.
        with simulator.counted_phase(totals, "audit"):
            for object_id, index in links:
                node = nodes.get(object_id)
                if node is None:
                    continue  # crashed while this pass was being sent
                node.reissue_long_link(index, seeded=True)
                self._reissued += 1
            for object_id in lonely:
                node = nodes.get(object_id)
                if node is not None:
                    node.discover_close()
        for node, peer in departed:
            node.unsuspect(peer)

    def _suspicion(self, members: List[int]) -> Dict[int, FrozenSet[int]]:
        """The holders' suspect lists, copied."""
        nodes = self.simulator.nodes
        return {object_id: frozenset(nodes[object_id].suspects)
                for object_id in self._holders(members)}

    def repair(self, max_rounds: Optional[int] = None) -> RepairReport:
        """Iterate repair rounds until the overlay converges (or the cap)."""
        simulator = self.simulator
        cap = max_rounds if max_rounds is not None else self.max_rounds
        totals: Dict[str, int] = {}
        processed: Set[int] = set()
        self._reissued = 0
        self._reissue_attempts = {}
        self._settled = {}
        rounds = 0
        converged = False
        while rounds < cap:
            members = self._members()
            suspicion = self._suspicion(members)
            processed.update(*suspicion.values())
            result = self.repair_round()
            for phase, count in (result or {}).items():
                totals[phase] = totals.get(phase, 0) + count
            # Settle the walk's findings once the suspect lists drain, and
            # when a round moved none of them: damage nobody suspects, which
            # only the walk sees, can keep them from draining.
            if result is None or suspicion and self._suspicion(members) == suspicion:
                findings = self._findings()
                if result is None and not findings:
                    converged = True
                    break
                if findings:
                    self._settle(findings, totals)
            rounds += 1
        else:
            # Out of rounds: the same predicate, asked one last time.
            converged = (not self._holders(self._members())
                         and not self._findings())
        residual = sum(len(simulator.nodes[object_id].suspects)
                       for object_id in self._members())
        self._reissue_attempts = {}
        self._settled = {}
        return RepairReport(rounds=rounds, converged=converged,
                            suspects_processed=len(processed),
                            reissued_long_links=self._reissued,
                            phase_messages=totals,
                            residual_suspects=residual)
