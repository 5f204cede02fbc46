"""Oracle-mode crash injection and the shared stale-reference census.

:class:`CrashInjector` removes objects from the oracle overlay *abruptly* —
the substrate forgets them, but the Section 3.3 leave protocol does not run
— and reports how much state (dangling long links, stale close neighbours,
dangling back registrations) the survivors are left with.  The paper gives
no crash-repair protocol; quantifying the damage is how we exercise the
limitation it acknowledges.  (``examples/churn_simulation.py`` mixes
graceful churn with crashes in one seeded stream.)

A crash costs only its victim's neighbourhood, as ``RemoveVoronoiRegion``
does (Section 4.2).  Every oracle reference is registered both ways —
close neighbours are symmetric, each long link has a back registration at
its endpoint — so the victim's view, read as it crashes, names every
survivor that can hold a reference to it: :meth:`CrashInjector.crash`
records those *holders*, and :meth:`CrashInjector.repair` scrubs them
alone: a close neighbour drops its close entry, a back-link source
re-resolves its long link, a long-link endpoint drops the victim's back
registration.  :meth:`CrashInjector.assess_damage` stays a census of every
survivor, which is what says whether a repair healed.

The message-level counterpart — fault plane, heartbeat detection, repair
protocol — lives in :mod:`repro.simulation.faults`.  Both modes and the
partition-merge scenario measure damage with one walk,
:func:`count_stale_references`: :class:`CrashDamageReport` counts
references to crashed ids, :class:`PartitionDamageReport` references to
ids on another side of a split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.overlay import VoroNet
from repro.utils.rng import RandomSource

__all__ = ["CrashInjector", "CrashDamageReport", "PartitionDamageReport",
           "assess_partition_damage", "count_stale_references",
           "crash_damage_report"]


def count_stale_references(views: Iterable[Tuple]) -> Tuple[int, int, int, int, int]:
    """The reference census every damage report is built from.

    ``views`` yields one row per live holder: the *set* of ids it must not
    reference (the crashed ids; the ids on another side of a split), then
    its Voronoi ids, close ids, long links (``(target, neighbor, position)``
    triples) and back registrations (tuples led by source).  Returns how many
    ``(voronoi, close, long-link, back-registration)`` entries name a stale
    peer and how many holders have at least one.  Stale is a set probe,
    not a predicate call: the walk sits inside the measured heal cycle.
    """
    voronoi = close = longs = backs = holders = 0
    for stale, voronoi_ids, close_ids, long_links, back_links in views:
        hit = False
        # Ids are distinct within a view, and damage is rare: the C-level
        # disjointness test settles most views without a Python loop.
        if voronoi_ids and not stale.isdisjoint(voronoi_ids):
            voronoi += len(stale.intersection(voronoi_ids))
            hit = True
        if close_ids and not stale.isdisjoint(close_ids):
            close += len(stale.intersection(close_ids))
            hit = True
        for _target, neighbor, _position in long_links:
            if neighbor in stale:
                longs += 1
                hit = True
        for registration in back_links:
            if registration[0] in stale:
                backs += 1
                hit = True
        if hit:
            holders += 1
    return voronoi, close, longs, backs, holders


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


def crash_damage_report(crashed: AbstractSet[int],
                        views: Iterable[Tuple]) -> CrashDamageReport:
    """Census of references to ``crashed`` ids (oracle and protocol mode)."""
    voronoi, close, longs, backs, holders = count_stale_references(views)
    return CrashDamageReport(
        crashed=len(crashed),
        dangling_long_links=longs,
        stale_close_neighbors=close,
        affected_objects=holders,
        dangling_back_links=backs,
        stale_voronoi_entries=voronoi,
    )


class CrashInjector:  # simlint: ignore[SIM003] — one per experiment, not per message
    """Abruptly removes objects from an oracle-mode overlay.

    The triangulation itself is repaired (the hosting substrate notices the
    peer vanished), but none of the protocol-level hand-overs run, so other
    objects are left with dangling long links and stale close-neighbour
    entries — exactly what :meth:`assess_damage` quantifies.  Each crash
    records the survivors that can reference its victim (its *holders*),
    and :meth:`repair` scrubs only those, as ``RemoveVoronoiRegion``
    touches only the departing object's neighbours (Section 4.2).
    """

    def __init__(self, overlay: VoroNet, rng: Optional[RandomSource] = None) -> None:
        self._overlay = overlay
        # Interactive/standalone default; experiments pass a seeded stream.
        self._rng = rng if rng is not None else RandomSource()  # simlint: ignore[SIM002]
        self._crashed: List[int] = []
        #: Ids that referenced a victim when it crashed, until the next repair.
        self._holders: Set[int] = set()

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
        """Crash one object: :meth:`VoroNet.remove` minus the hand-over.

        Every oracle reference has a reverse registration — close
        neighbours are symmetric, and each long link is registered at its
        endpoint (the invariants ``check_consistency`` checks) — so the
        victim's own view, read before the withdrawal, names every survivor
        that can reference it: its close neighbours (each lists it back),
        the sources of its back registrations (each has a long link at it)
        and the endpoints of its long links (each holds a registration
        from it).  Those holders are recorded for :meth:`repair`.

        The invalidation is local, like :meth:`VoroNet.remove`'s: the
        holders (a table that names the victim belongs to one of them) and
        the ex-Voronoi-neighbours, read before the kernel removal, whose
        adjacency the withdrawal changes.  A hull victim's kernel rebuild
        still drops every table, inside :meth:`VoroNet.withdraw_substrate`.
        """
        overlay = self._overlay
        node = overlay.node(object_id)
        holders = node.back_link_sources()
        holders.update(node.long_link_neighbors())
        holders |= node.close_neighbors
        ex_neighbors = overlay.voronoi_neighbors(object_id)
        overlay.withdraw_substrate(object_id)
        overlay.invalidate_routing_tables(holders.union(ex_neighbors))
        self._holders |= holders
        self._crashed.append(object_id)

    def assess_damage(self) -> CrashDamageReport:
        """Count dangling references the crashes left in surviving objects.

        A census of every survivor, independent of the holders the crashes
        recorded: it is what says whether a repair healed.
        """
        crashed = set(self._crashed)
        # Voronoi views are derived from the shared kernel: never stale.
        return crash_damage_report(crashed, (
            (crashed, (), node.close_neighbors, node.long_links, node.back_links)
            for node in self._overlay.nodes()))

    def repair(self) -> int:
        """Scrub dangling references (a minimal anti-entropy pass).

        Returns the number of entries fixed.  Only the holders recorded
        since the last repair can reference a crashed id, so only those
        still members are visited, in id order — the node table's order,
        since ids are issued in increasing order and never reused, so the
        scrub runs in the order a scan of every survivor would.  Each
        holder re-resolves its long links at crashed ids to the owner of
        their target point (and registers them there), and drops its close
        neighbours that crashed and its back registrations whose source
        crashed.
        """
        overlay = self._overlay
        crashed = set(self._crashed)
        fixed = 0
        affected: List[int] = []
        for object_id in sorted(self._holders):
            if object_id not in overlay:
                continue
            node = overlay.node(object_id)
            touched = False
            for index, (target, neighbor, _position) in enumerate(node.long_links):
                if neighbor in crashed:
                    new_owner = overlay.node(overlay.owner_of(target))
                    node.retarget_long_link(index, new_owner.object_id,
                                            new_owner.position)
                    new_owner.add_back_link(object_id, index, target)
                    touched = True
                    fixed += 1
            stale = crashed.intersection(node.close_neighbors)
            if stale:
                for close_id in sorted(stale):
                    node.discard_close_neighbor(close_id)
                touched = True
                fixed += len(stale)
            dangling_back = [registration for registration in node.back_links
                             if registration[0] in crashed]
            for source, index in dangling_back:
                # Back registrations are not routed on — no table to drop.
                node.remove_back_link(source, index)
            fixed += len(dangling_back)
            if touched:
                affected.append(object_id)
        self._holders.clear()
        # Retargeted links / dropped close entries changed forwarding
        # candidates (routing-cache contract): drop exactly those tables.
        overlay.invalidate_routing_tables(affected)
        return fixed


@dataclass(frozen=True)
class PartitionDamageReport:
    """Cross-side divergence census during (or after) a network split.

    The partition analogue of :class:`CrashDamageReport`: instead of
    references to *crashed* peers it counts references that cross the cut
    — entries each side must scrub while split (the peer is unreachable
    and presumed dead) and the repair after the heal must restore.
    ``boundary_objects`` is how many live objects hold at least one
    cross-side reference.
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
                            sides: Sequence[AbstractSet[int]],
                            ) -> PartitionDamageReport:
    """Count the cross-side references a split leaves in protocol views.

    ``nodes`` maps live object ids to protocol nodes; ``sides`` are the
    split's disjoint id sets (``SplitSpec.sides``).  A holder holds a cross
    reference for every entry naming an id of another side; ids — and
    holders — on no side never count, matching ``SplitSpec.separates``.
    The merge scenario measures divergence with it as a split opens.
    """
    assigned = set().union(*sides)
    views: List[Tuple] = []
    live_sides = 0
    for members in sides:
        across = assigned - members
        live = [nodes[object_id] for object_id in members if object_id in nodes]
        live_sides += bool(live)
        views.extend((across, node.voronoi, node.close, node.long_links,
                      node.back_links) for node in live)
    voronoi, close, longs, backs, holders = count_stale_references(views)
    return PartitionDamageReport(sides=live_sides,
                                 cross_voronoi_entries=voronoi,
                                 cross_close_entries=close,
                                 cross_long_links=longs,
                                 cross_back_links=backs,
                                 boundary_objects=holders)
