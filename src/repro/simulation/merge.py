"""Partition merge: split-brain service, then one union and one repair.

The fault plane can *open* clock-windowed partitions; this module is the
other half of the WAN story — what happens while the overlay is split,
and how the two (or k) diverged halves become one overlay again:

* :class:`PartitionRuntime` forks the shared substrate per side when a
  :meth:`~repro.simulation.faults.FaultPlane.split` opens: each side gets
  a deep-copied kernel with the other sides' vertices removed (its
  members presume everyone across the cut dead and recompute) and its own
  locate grid, so **both sides keep serving queries and accepting
  inserts** against their own topologically consistent tessellation.
  Split-era inserts publish side-local ids drawn from the id space every
  side believes is next — the collision the heal resolves.
* On heal, :meth:`PartitionRuntime.heal` rebuilds the union: the
  pre-split kernel absorbs every side's inserts (ascending id — the
  deterministic lowest-id rule — with coordinate-overlap losers torn
  down and re-carved ids re-assigned from the healed allocator) and its
  version is advanced past every side's fork, so the union dominates the
  kernel-version partial order.  Close pairs across the cut are marked
  for re-discovery; no message is sent.
* Once the substrate is whole again a heal needs nothing beyond the
  paper's local procedures: the standing
  :class:`~repro.simulation.faults.RepairProtocol` settles it.  Its probe
  phase exonerates the peers each side presumed dead, its scrub and audit
  re-send every stale view from the union kernel, and its retarget and
  close phases re-resolve long links and close pairs across the healed
  cut, until ``verify_views()`` is clean.

:func:`~repro.simulation.scenario.run_merge_scenario` scripts the whole
experiment — split, per-side stabilisation (a *scoped* repair against
the side kernel), both-side inserts and queries (availability measured
per side and phase), heal, repair, and a final parity check against a
never-split oracle overlay built from the union — for the test-suite and
``benchmarks/bench_partition_merge.py``.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.geometry.delaunay import DelaunayTriangulation, DuplicatePointError
from repro.geometry.locate_grid import LocateGrid
from repro.geometry.point import Point
from repro.simulation.faults import SplitSpec, attach_fault_plane
from repro.simulation.protocol import JoinReport, ProtocolSimulator

__all__ = [
    "PartitionRuntime",
    "HealSummary",
    "MergeReport",
]


class _SideState:  # simlint: ignore[SIM003] — one per split side, not per message
    """One side's forked substrate while a split is open."""

    __slots__ = ("index", "members", "kernel", "locate", "inserted")

    def __init__(self, index: int, members: Set[int],
                 kernel: DelaunayTriangulation, locate: LocateGrid) -> None:
        self.index = index
        self.members = members
        self.kernel = kernel
        self.locate = locate
        #: Object ids published on this side while split, in join order —
        #: the population whose side-local published ids can collide.
        self.inserted: List[int] = []


@dataclass(frozen=True)
class HealSummary:
    """Union-rebuild accounting from one :meth:`PartitionRuntime.heal`."""

    spec: SplitSpec
    union_inserts: int
    union_removals: int
    coordinate_conflicts: int
    id_collisions_resolved: int
    side_versions: Tuple[int, ...]
    union_version: int


class PartitionRuntime:  # simlint: ignore[SIM003] — one per experiment, not per message
    """Keeps both sides of a split serving, then rebuilds the union on heal.

    The runtime owns the *substrate divergence* model: the message plane
    is already cut by the fault plane's :class:`SplitSpec`; what the
    protocol additionally needs is for each side's kernel consultations
    (``complete_insertion``, repair scrubs, locate-grid seeding) to see
    only that side's world.  :meth:`side` swaps the simulator's kernel and
    locate grid for a side's fork — the global pair is set aside
    unmutated, so :meth:`heal` can rebuild the union against the pre-split
    truth plus per-side deltas instead of reconciling two full forks.
    """

    def __init__(self, simulator: ProtocolSimulator) -> None:
        self.simulator = simulator
        self.faults = attach_fault_plane(simulator)
        self.spec: Optional[SplitSpec] = None
        self._sides: List[_SideState] = []
        self._global_kernel: Optional[DelaunayTriangulation] = None
        self._global_locate: Optional[LocateGrid] = None
        self._published_base = 0

    # ------------------------------------------------------------------
    # split lifecycle
    # ------------------------------------------------------------------
    def open_split(self, sides: Sequence[Sequence[int]]) -> SplitSpec:
        """Open a k-way split and fork the substrate per side.

        ``sides`` must partition the live population.  Each side's kernel
        fork starts as a deep copy of the shared kernel with every other
        side's vertex removed — the removals bump the fork's version, so
        each side's scrub stamps strictly dominate the pre-split ones.
        """
        simulator = self.simulator
        if self.spec is not None:
            raise RuntimeError("a split is already open")
        if not simulator.engine.quiescent:
            raise RuntimeError("cannot open a split with messages in flight")
        assigned = set()
        for side in sides:
            assigned.update(side)
        live = set(simulator.nodes)
        if assigned != live:
            raise ValueError("split sides must partition the live population")
        spec = self.faults.split(sides, simulator.engine.now)
        self.spec = spec
        self._published_base = simulator._next_id
        self._global_kernel = simulator.kernel
        self._global_locate = simulator.locate
        self._sides = []
        for index, members in enumerate(spec.sides):
            kernel = copy.deepcopy(self._global_kernel)
            for other in sorted(set(kernel.vertex_ids()) - set(members)):
                simulator.remove_vertex(kernel, other)
            locate = LocateGrid()
            locate.bulk_insert(
                (object_id, simulator.nodes[object_id].position)
                for object_id in sorted(members))
            self._sides.append(_SideState(index, set(members), kernel, locate))
        return spec

    @property
    def num_sides(self) -> int:
        return len(self._sides)

    def side_members(self, index: int) -> Set[int]:
        """Current membership of one side (split-era joiners included)."""
        return set(self._sides[index].members)

    @contextmanager
    def side(self, index: int) -> Iterator[_SideState]:
        """Swap the simulator's kernel/locate for one side's fork.

        Everything run under the context — joins, scoped repairs — sees
        the side's world; the previous pair is restored on exit.  The
        engine must be quiescent at the swap boundaries (an in-flight
        message delivered under the wrong kernel would consult the wrong
        tessellation).
        """
        simulator = self.simulator
        if not simulator.engine.quiescent:
            raise RuntimeError("cannot switch sides with messages in flight")
        state = self._sides[index]
        previous = (simulator.kernel, simulator.locate)
        simulator.kernel = state.kernel
        simulator.locate = state.locate
        try:
            yield state
        finally:
            simulator.kernel, simulator.locate = previous

    # ------------------------------------------------------------------
    # split-era service
    # ------------------------------------------------------------------
    def side_join(self, index: int, position: Point, *,
                  introducer: Optional[int] = None) -> JoinReport:
        """Publish an object on one side while the split is open.

        The join runs the full distributed protocol against the side's
        fork.  The new object's *published* identity is the next id in
        the side-local sequence every side believes is free (base = the
        allocator value when the split opened), which is exactly how two
        isolated halves mint colliding ids; its object id stays globally
        unique, which is what lets the heal resolve the collision
        deterministically.
        """
        state = self._sides[index]
        simulator = self.simulator
        with self.side(index):
            if introducer is None:
                live = sorted(object_id for object_id in state.members
                              if object_id in simulator.nodes)
                if not live:
                    raise RuntimeError(f"side {index} has no live members")
                introducer = live[0]
            report = simulator.join(position, introducer=introducer)
            object_id = report.object_id
            if report.outcome == "completed" and object_id in simulator.nodes:
                node = simulator.nodes[object_id]
                node.published_id = self._published_base + len(state.inserted)
                state.members.add(object_id)
                state.inserted.append(object_id)
                assert self.spec is not None
                self.spec.assign(object_id, index)
        return report

    def side_query(self, index: int, target: Point, *,
                   start: Optional[int] = None) -> Optional[int]:
        """Serve one query from a side: the owner that answered, ``None``
        when no answer arrived — the honest availability signal during a
        split (a walk whose next hop crosses the cut feeds the fault plane
        and never answers).  Starts at the side's lowest live id unless
        ``start`` is given.
        """
        if start is None:
            simulator = self.simulator
            live = [object_id for object_id in self._sides[index].members
                    if object_id in simulator.nodes]
            if not live:
                return None
            start = min(live)
        return self.simulator.query(target, start=start).owner

    # ------------------------------------------------------------------
    # heal: union rebuild
    # ------------------------------------------------------------------
    def heal(self) -> HealSummary:
        """Close the split and rebuild the shared substrate as the union.

        Restores the pre-split kernel/locate, heals the fault plane, then
        applies every side's delta: departed vertices are removed,
        split-era inserts are carved into the union in ascending object-id
        order — the deterministic lowest-id rule; an insert whose exact
        coordinates are already taken (both sides carved the same point: a
        region overlap) loses and is torn down.  The union kernel's
        version is advanced past every side fork, so its snapshots
        dominate the partial order at every node; close pairs across the
        cut are marked for re-discovery, and published-id collisions are
        re-assigned from the healed allocator.  No message is sent: the
        caller settles the views with ``RepairProtocol.repair()``.
        """
        simulator = self.simulator
        spec = self.spec
        if spec is None:
            raise RuntimeError("no split is open")
        if not simulator.engine.quiescent:
            raise RuntimeError("cannot heal with messages in flight")
        assert self._global_kernel is not None
        assert self._global_locate is not None
        simulator.kernel = self._global_kernel
        simulator.locate = self._global_locate
        side_versions = tuple(state.kernel.version for state in self._sides)
        self.faults.heal_partitions()
        kernel = simulator.kernel
        removals = 0
        for object_id in sorted(kernel.vertex_ids()):
            if object_id not in simulator.nodes:
                simulator.uncarve(object_id)
                removals += 1
        inserts = 0
        conflicts = 0
        for object_id in sorted(simulator.nodes):
            if object_id in kernel:
                continue
            position = simulator.nodes[object_id].position
            try:
                simulator.carve(object_id, position,
                                hint=simulator.locate.hint(position))
            except DuplicatePointError:
                # Region overlap: an earlier (lower) id already carved
                # these exact coordinates on the other side.  Lowest id
                # keeps the region; the loser is torn down, exactly as a
                # duplicate-coordinate join is refused in steady state.
                conflicts += 1
                simulator.detach_node(object_id)
                continue
            inserts += 1
        kernel.advance_version(max(side_versions, default=0) + 1)
        # The cut hid every close pair straddling it: the pre-split pairs
        # each side scrubbed as dead, and every pair a split-era joiner
        # would have formed across it.  Nothing suspects those peers any
        # more, so the lower id of each pair is marked rehabilitated — the
        # mark a refuted suspicion leaves — and the repair's close
        # re-discovery restores the pair.
        d_min = simulator.config.effective_d_min
        for object_id in sorted(simulator.nodes):
            node = simulator.nodes[object_id]
            side = spec.side_of(object_id)
            for peer in simulator.locate.within(node.position, d_min):
                if peer > object_id and spec.side_of(peer) != side:
                    node.rehabilitate(peer)
        # Published-id collisions: objects inserted on different sides
        # minted the same side-local id.  The lowest object id keeps the
        # published identity; every loser re-publishes under a fresh id
        # from the healed allocator (its region was already re-carved
        # into the union above).
        claims: Dict[int, List[int]] = {}
        for state in self._sides:
            for object_id in state.inserted:
                if object_id not in simulator.nodes:
                    continue
                published = simulator.nodes[object_id].published_id
                if published is not None:
                    claims.setdefault(published, []).append(object_id)
        collisions = 0
        for published in sorted(claims):
            claimants = sorted(claims[published])
            for loser in claimants[1:]:
                simulator.nodes[loser].published_id = simulator._next_id
                simulator._next_id += 1
                collisions += 1
        summary = HealSummary(spec=spec,
                              union_inserts=inserts, union_removals=removals,
                              coordinate_conflicts=conflicts,
                              id_collisions_resolved=collisions,
                              side_versions=side_versions,
                              union_version=kernel.version)
        self.spec = None
        self._sides = []
        return summary


@dataclass(frozen=True)
class MergeReport:
    """Outcome of one heal: the union rebuild, then the repair settling it.

    ``rounds`` are the repair's rounds; ``time_to_converge`` runs on the
    virtual clock from the heal to the end of the repair, and
    ``messages`` counts every message sent in between.
    """

    converged: bool
    rounds: int
    time_to_converge: float
    messages: int
    union_inserts: int
    coordinate_conflicts: int
    id_collisions_resolved: int
