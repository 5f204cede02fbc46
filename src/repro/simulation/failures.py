"""Churn and failure injection.

Two injectors drive dynamism experiments:

* :class:`ChurnScheduler` replays *graceful* joins and leaves (objects run
  the departure protocol of Section 3.3) against either the oracle overlay
  or the protocol simulator, at configurable rates on the virtual clock;
* :class:`CrashInjector` removes objects *abruptly* — without running the
  leave protocol — and then reports how much state (dangling long links,
  stale close neighbours, dangling back registrations) the survivors are
  left with.  The paper does not give a crash-repair protocol; quantifying
  the damage is how we exercise the limitation it acknowledges.

Both injectors speak the *oracle* overlay.  The message-level counterpart —
crash/loss/partition injection through the network layer, heartbeat failure
detection and the self-healing repair protocol — lives in
:mod:`repro.simulation.faults`.  :func:`assess_partition_damage` is the
shared census both the fault harnesses and the partition-merge runtime
(:mod:`repro.simulation.merge`) use to quantify cross-side divergence in
the same stale-reference terms as :class:`CrashDamageReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.overlay import VoroNet
from repro.geometry.point import Point
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import Event
from repro.utils.rng import RandomSource
from repro.workloads.distributions import ObjectDistribution, UniformDistribution

__all__ = ["ChurnScheduler", "CrashInjector", "CrashDamageReport",
           "PartitionDamageReport", "assess_partition_damage"]


class ChurnScheduler:  # simlint: ignore[SIM003] — one per experiment, not per message
    """Schedules graceful joins and leaves on a simulation engine.

    Joins and leaves are drawn from **one merged arrival process**: a
    single Poisson stream at rate ``join_rate + leave_rate`` whose arrivals
    are classified join/leave with probability proportional to their rates
    (the superposition theorem).  Two independent streams — the obvious
    alternative — share no ordering guarantee when the rates differ: every
    join would be scheduled before any leave at equal timestamps, and the
    relative interleaving would drift with the rate ratio instead of being
    exchangeable.

    Parameters
    ----------
    engine:
        The virtual clock driving the churn.
    join / leave:
        Callables performing one join (given a position) / one leave (given
        nothing; the callee picks the victim).
    join_rate / leave_rate:
        Mean number of joins / leaves per unit of virtual time (events are
        spaced by exponential inter-arrival times).
    distribution:
        Placement distribution for joining objects.
    """

    def __init__(self, engine: SimulationEngine, *,
                 join: Callable[[Point], None],
                 leave: Callable[[], None],
                 join_rate: float = 1.0,
                 leave_rate: float = 0.5,
                 distribution: Optional[ObjectDistribution] = None,
                 rng: Optional[RandomSource] = None) -> None:
        if join_rate <= 0 or leave_rate < 0:
            raise ValueError("join_rate must be > 0 and leave_rate >= 0")
        self._engine = engine
        self._join = join
        self._leave = leave
        self._join_rate = join_rate
        self._leave_rate = leave_rate
        self._distribution = distribution or UniformDistribution()
        # Interactive/standalone default; experiments pass a seeded stream.
        self._rng = rng if rng is not None else RandomSource()  # simlint: ignore[SIM002]
        self._scheduled: List[Event] = []
        self.joins_executed = 0
        self.leaves_executed = 0

    def start(self, horizon: float) -> int:
        """Schedule churn events over the next ``horizon`` time units.

        Times are relative to the engine's *current* clock, so a scheduler
        can be started on a warm simulator (e.g. after a ``bulk_join``
        advanced the virtual time).  Returns the number of events
        scheduled; the handles are kept so :meth:`stop` can cancel them.
        """
        begin = self._engine.now
        total_rate = self._join_rate + self._leave_rate
        join_share = self._join_rate / total_rate
        time = begin
        scheduled = 0
        while True:
            time += self._rng.exponential(1.0 / total_rate)
            if time > begin + horizon:
                break
            if self._rng.uniform() < join_share:
                position = self._distribution.sample(1, self._rng)[0]
                event = self._engine.schedule_at(time, self._make_join(position),
                                                 label="churn-join")
            else:
                event = self._engine.schedule_at(time, self._make_leave(),
                                                 label="churn-leave")
            self._scheduled.append(event)
            scheduled += 1
        return scheduled

    def stop(self) -> int:
        """Cancel every churn event still pending; returns how many.

        Harness teardown calls this so a partially drained schedule cannot
        leak stale joins/leaves into a later phase (the engine's
        ``quiescent`` check ignores cancelled events, so batched operations
        remain usable immediately after stopping).
        """
        cancelled = 0
        for event in self._scheduled:
            if not event.cancelled and event.time > self._engine.now:
                cancelled += 1
            event.cancel()
        self._scheduled.clear()
        return cancelled

    def _make_join(self, position: Point) -> Callable[[], None]:
        def action() -> None:
            self._join(position)
            self.joins_executed += 1
        return action

    def _make_leave(self) -> Callable[[], None]:
        def action() -> None:
            self._leave()
            self.leaves_executed += 1
        return action


@dataclass(frozen=True)
class CrashDamageReport:
    """State damage observed after abrupt (non-graceful) departures.

    ``dangling_back_links`` counts back-registrations whose *source*
    crashed (the reverse pointer now serves nobody); ``stale_voronoi_entries``
    counts local Voronoi-view entries pointing at crashed ids — always zero
    in oracle mode, where views are derived from the shared kernel, but
    nonzero for the message-level simulator until the repair protocol
    scrubs them.
    """

    crashed: int
    dangling_long_links: int
    stale_close_neighbors: int
    affected_objects: int
    dangling_back_links: int = 0
    stale_voronoi_entries: int = 0

    @property
    def total_stale_entries(self) -> int:
        return (self.dangling_long_links + self.stale_close_neighbors
                + self.dangling_back_links + self.stale_voronoi_entries)


class CrashInjector:  # simlint: ignore[SIM003] — one per experiment, not per message
    """Abruptly removes objects from an oracle-mode overlay.

    The triangulation itself is repaired (the hosting substrate notices the
    peer vanished), but none of the protocol-level hand-overs run, so other
    objects are left with dangling long links and stale close-neighbour
    entries — exactly what :meth:`assess_damage` quantifies.
    """

    def __init__(self, overlay: VoroNet, rng: Optional[RandomSource] = None) -> None:
        self._overlay = overlay
        # Interactive/standalone default; experiments pass a seeded stream.
        self._rng = rng if rng is not None else RandomSource()  # simlint: ignore[SIM002]
        self._crashed: List[int] = []

    def crash_random(self, count: int) -> List[int]:
        """Crash ``count`` uniformly random objects; returns their ids."""
        victims: List[int] = []
        for _ in range(count):
            ids = self._overlay.object_ids()
            if len(ids) <= 3:
                break
            victim = ids[self._rng.integer(0, len(ids))]
            self.crash(victim)
            victims.append(victim)
        return victims

    def crash(self, object_id: int) -> None:
        """Crash one object: drop it from the tessellation, skip the protocol."""
        # Bypass VoroNet.remove on purpose: no detach_object, no notifications.
        overlay = self._overlay
        overlay._remove_from_kernel(object_id)  # noqa: SLF001
        del overlay._nodes[object_id]  # noqa: SLF001 - deliberate fault injection
        # The *substrate* state (tessellation, locate grid, shard store,
        # caches) is repaired — only the protocol-level hand-overs are
        # skipped.  Per the overlay's epoch contract, direct mutation must
        # invalidate the routing tables, or survivors would greedily
        # forward to crashed ids; likewise the grid and the sharded store
        # must drop the id or lookups would enter the overlay at a dead
        # peer.  The invalidation is overlay-wide (bare call): any
        # survivor, anywhere, may hold a long link at the victim, and a
        # crash by definition runs none of the hand-overs that would
        # enumerate them.
        overlay.locate_index.discard(object_id)
        overlay.shard_store.discard(object_id)
        overlay.invalidate_routing_tables()
        self._crashed.append(object_id)

    def assess_damage(self) -> CrashDamageReport:
        """Count dangling references the crashes left in surviving objects."""
        overlay = self._overlay
        crashed = set(self._crashed)
        dangling_links = 0
        stale_close = 0
        dangling_back = 0
        affected = set()
        for object_id in overlay.object_ids():
            node = overlay.node(object_id)
            for link in node.long_links:
                if link.neighbor in crashed:
                    dangling_links += 1
                    affected.add(object_id)
            for close_id in node.close_neighbors:
                if close_id in crashed:
                    stale_close += 1
                    affected.add(object_id)
            for back_link in node.back_links:
                if back_link.source in crashed:
                    dangling_back += 1
                    affected.add(object_id)
        return CrashDamageReport(
            crashed=len(crashed),
            dangling_long_links=dangling_links,
            stale_close_neighbors=stale_close,
            affected_objects=len(affected),
            dangling_back_links=dangling_back,
        )

    def repair(self) -> int:
        """Scrub dangling references (a minimal anti-entropy pass).

        Returns the number of entries fixed.  Long links pointing at crashed
        objects are re-resolved by looking up the owner of their target
        point; stale close neighbours and back registrations whose source
        crashed are dropped.
        """
        overlay = self._overlay
        crashed = set(self._crashed)
        fixed = 0
        affected: List[int] = []
        for object_id in overlay.object_ids():
            node = overlay.node(object_id)
            touched = False
            for index, link in enumerate(node.long_links):
                if link.neighbor in crashed:
                    new_owner = overlay.owner_of(link.target)
                    node.retarget_long_link(index, new_owner)
                    if overlay.config.maintain_back_links:
                        overlay.node(new_owner).add_back_link(object_id, index,
                                                              link.target)
                    touched = True
                    fixed += 1
            stale = {c for c in node.close_neighbors if c in crashed}
            for close_id in sorted(stale):
                node.discard_close_neighbor(close_id)
                touched = True
                fixed += 1
            dangling_back = {bl for bl in node.back_links if bl.source in crashed}
            if dangling_back:
                # Back registrations are not routed on — no epoch impact.
                node.back_links -= dangling_back
                fixed += len(dangling_back)
            if touched:
                affected.append(object_id)
        # Retargeted links / dropped close entries changed forwarding
        # candidates (epoch contract); unlike the crash itself, the scrub
        # knows exactly whose, so the bump is per-shard targeted.
        overlay.invalidate_routing_tables(affected)
        return fixed


@dataclass(frozen=True)
class PartitionDamageReport:
    """Cross-side divergence census during (or after) a network split.

    The partition analogue of :class:`CrashDamageReport`: instead of
    references to *crashed* peers it counts references that cross the cut
    — entries each side must scrub while split (the peer is unreachable
    and presumed dead) and the merge protocol must restore on heal.
    ``boundary_objects`` is how many live objects hold at least one
    cross-side reference: the population the anti-entropy flood starts
    from.
    """

    sides: int
    cross_voronoi_entries: int
    cross_close_entries: int
    cross_long_links: int
    cross_back_links: int
    boundary_objects: int

    @property
    def total_cross_references(self) -> int:
        return (self.cross_voronoi_entries + self.cross_close_entries
                + self.cross_long_links + self.cross_back_links)


def assess_partition_damage(nodes: Dict[int, object],
                            side_of: Callable[[int], Optional[int]],
                            ) -> PartitionDamageReport:
    """Count the cross-side references a split leaves in protocol views.

    ``nodes`` maps live object ids to protocol nodes (``voronoi`` /
    ``close`` / ``long_links`` / ``back_links`` attributes, the
    :class:`~repro.simulation.protocol.ProtocolNode` shape);``side_of``
    returns a node's side index or ``None`` for unassigned ids (which
    never count as cross-side, matching ``SplitSpec.separates``).  Used
    by the merge harness both to measure divergence right after a split
    opens and to assert the per-side repairs scrubbed every cross
    reference before heal.
    """
    sides = set()
    cross_voronoi = cross_close = cross_long = cross_back = 0
    boundary = 0
    for object_id in sorted(nodes):
        node = nodes[object_id]
        own_side = side_of(object_id)
        if own_side is not None:
            sides.add(own_side)
        if own_side is None:
            continue

        def crosses(peer: int) -> bool:
            peer_side = side_of(peer)
            return peer_side is not None and peer_side != own_side  # noqa: B023

        voronoi = sum(1 for peer in node.voronoi
                      if peer != object_id and crosses(peer))
        close = sum(1 for peer in node.close if crosses(peer))
        longs = sum(1 for link in node.long_links
                    if link.neighbor != object_id and crosses(link.neighbor))
        backs = sum(1 for source, _index in node.back_links if crosses(source))
        cross_voronoi += voronoi
        cross_close += close
        cross_long += longs
        cross_back += backs
        if voronoi or close or longs or backs:
            boundary += 1
    return PartitionDamageReport(sides=len(sides),
                                 cross_voronoi_entries=cross_voronoi,
                                 cross_close_entries=cross_close,
                                 cross_long_links=cross_long,
                                 cross_back_links=cross_back,
                                 boundary_objects=boundary)
