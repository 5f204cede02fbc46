"""Message-level (distributed) implementation of the VoroNet protocol.

This module runs Algorithms 1–5 of the paper the way a deployment would:
every object is a :class:`ProtocolNode` owning *only its local view*
(positions of its Voronoi neighbours, close neighbours, long-range contacts
and back registrations), and every interaction between objects is an
explicit message (:mod:`repro.simulation.network`) delivered through the
event engine and counted.  Greedy forwarding decisions are taken purely
from the local view of the node currently holding the message.

One shared :class:`~repro.geometry.delaunay.DelaunayTriangulation` instance
acts as each object's *local* topologically consistent Voronoi computation
(the role Sugihara–Iri plays in the paper): when a region owner executes
``AddVoronoiRegion`` / ``RemoveVoronoiRegion`` it consults the kernel to
obtain the updated neighbourhoods it must distribute.  This substitution
changes no message: the set of objects that must be informed — the new
object's Voronoi neighbours — is exactly the set the kernel reports, and
each is notified with one counted ``REGION_UPDATE`` message, as in the
paper.  What the simulation therefore measures faithfully is the paper's
own cost model: hops per routed operation and messages per maintenance
operation.

Protocol moves
--------------
A join, a departure or a repair round (a healed split included) is a
handful of local procedures (``AddVoronoiRegion`` /
``RemoveVoronoiRegion``, Sections 3.3 and 4.2).  Each is written once —
on :class:`ProtocolNode` when it edits a view, on
:class:`ProtocolSimulator` when it consults the kernel (``kernel_view``,
``send_snapshot``, ``_send_carve``; no node method reads the kernel) —
and the drivers are sequences of calls to them.  Nothing outside
:class:`ProtocolNode` writes ``voronoi`` / ``close`` / ``long_links`` /
``back_links`` (simlint SIM001 holds that), so the ``touch_view()`` an
edit owes sits beside the edit.

================  ======================  ====================================
move              written once as         called by
================  ======================  ====================================
adopt a snapshot  ``apply_snapshot``      ``CREATE_OBJECT``, ``REGION_UPDATE``,
                                          ``VIEW_SCRUB``
send a snapshot   ``send_snapshot`` of    ``complete_insertion``, ``leave``,
                  a ``kernel_view``       bulk views, repair scrub and audit
hand over a back  ``hand_over``           ``REGION_UPDATE``, ``VIEW_SCRUB``,
registration                              bulk handover, ``leave``
close discovery   ``discover_close``      bulk close, repair close and audit
long-link search  ``_search_long_link``   ``add_long_link`` (join, bulk),
                                          ``reissue_long_link`` (retry, repair)
proof of life     ``exonerate``           ``handle``, ``PONG``
corroboration     ``corroborated``        ``SUSPECT_NOTIFY``, ``VIEW_SCRUB``
carve entry       ``_send_carve``         join retry, bulk carve and its audit
================  ======================  ====================================

Message layouts
---------------
A payload is a tuple with one fixed layout per kind, unpacked whole by the
kind's handler.  A routed kind starts with the point it is routed to and
ends with its hop count; the handler that forwards it builds the next
payload once, from the fields it unpacked, with the count one higher, and
sends it on — one tuple per hop.  A view snapshot starts with the view —
``(id, position)`` pairs — and its version stamp.  Heartbeats, queries,
routed joins and link searches hold only numbers and tuples of numbers, so
the collector untracks them in flight (``repro.simulation.network``).

=========================  ===============================================
kind                       payload
=========================  ===============================================
``ADD_OBJECT``             ``(position, new_id, bulk, hops)``
``CREATE_OBJECT``          ``(view, version, bulk)``
``REGION_UPDATE``          ``(view, version, new_id, new_position)``;
                           ``new_id`` is ``None`` when nothing is stolen
``VIEW_SCRUB``             ``(view, version, crashed)``, a frozenset
``CLOSE_REQUEST``          ``(position,)``
``CLOSE_REPLY``            ``(candidates,)``, a dict id → position
``CLOSE_DECLARE``          ``(position,)``
``CLOSE_LEAVE``            ``()``
``SEARCH_LONG_LINK``       ``(target, requester, link_index, hops)``
``LONG_LINK_ESTABLISHED``  ``(link_index, neighbor, neighbor_position, hops)``
``LONG_LINK_RETARGET``     ``(link_index, neighbor, neighbor_position)``
``BACKLINK_TRANSFER``      ``(source, link_index, target)``
``BACKLINK_REMOVE``        ``(source, link_index)``
``PING``                   ``(round,)``, the simulator-wide heartbeat round
                           (``0`` for a repair-phase probe)
``PONG``                   ``(round,)``
``SUSPECT_NOTIFY``         ``(accused,)``, a frozenset
``QUERY``                  ``(target, requester, query_id, path, hops)``;
                           ``path`` (a tuple of the ids visited) is
                           ``None`` unless recorded
``QUERY_ANSWER``           ``(target, owner, query_id, path, hops)``
=========================  ===============================================

:meth:`ProtocolSimulator.bulk_join` is the message-level mirror of
:meth:`~repro.core.overlay.VoroNet.bulk_load`: the same moves pipelined
across a Morton-sorted batch, one engine drain per phase instead of one
per join (its docstring lists the phases); every message is still explicit
and counted.

Per-node routing cache
----------------------
Greedy forwarding reads each node's candidates from a lazily built flat
block cached against the node's :attr:`ProtocolNode.view_epoch`, which
every view-mutating message handler bumps — the protocol-mode analogue of
the oracle's routing-table cache (there a mutation drops exactly the
tables it names; here it moves one node's epoch).  The block is one flat
tuple ``(id, x, y, id, x, y, …)`` built from the node's own view (positions
it was sent, not the kernel's records), which
:meth:`ProtocolNode.greedy_next_hop` walks as triples: one object of
numbers per node instead of one per candidate, which the collector stops
tracking at its first pass, so blocks never reach the oldest generation,
as the oracle's tables do not.  Its triples always equal the freshly
assembled :meth:`ProtocolNode.routing_candidates`, which is what the
parity tests compare it against.  The heartbeat
detector's per-node probe plan (:meth:`ProtocolNode.probe_plan`) is cached
against the same epoch, and :meth:`ProtocolSimulator.verify_views` compares
every cached plan with its fresh derivation.

Memory
------
A node costs only what it holds, as an oracle node does
(``repro.core.node``, "Memory"):

* :class:`ProtocolNode` is a slotted dataclass, with no per-instance
  ``__dict__``;
* its long links are the oracle's one form (``repro.core.node``, "Memory"):
  a tuple of ``(target, neighbor, neighbor_position)`` triples, the shared
  empty ``()`` while there are none, replaced whole through
  :func:`~repro.core.node.with_link` — a slot opened, established or
  retargeted — and never edited in place;
* a set the node holds only while something is pending or suspected —
  ``pending_close_peers``, ``pending_link_indices``, ``suspects``,
  ``rehabilitated`` — is the shared empty :data:`NO_IDS` while it is empty;
* so is a dict that is empty — ``last_heard``, ``missed_heartbeats`` and
  the ``close`` / ``back_links`` views — the shared read-only
  :data:`NO_ENTRIES`;
* the counted sends of one virtual instant share one delivery time
  (``repro.simulation.network``, "Hot-path design"), so the contact stamps
  their deliveries leave in ``last_contact`` hold no float of their own;
* a node keeps no probe stamps: the probes of the heartbeat round in flight
  are the detector's own map, which the simulator publishes
  (``heartbeat_probes``) for the ``PING`` handler and drops at the sweep;
* a served query leaves behind only what its readers read:
  ``query_answers[query_id]`` is ``{"owner", "hops", "completed_at"}``.
  Its visited path and its id reach the ``on_query_answer`` hook, and
  nothing retains them or its target.

Only :class:`ProtocolNode`'s methods write these containers (simlint SIM001
holds that): the detector's sweep calls :meth:`ProtocolNode.miss_heartbeat`,
the repair's close phase :meth:`ProtocolNode.rediscover_close` and a heal
:meth:`ProtocolNode.rehabilitate`.  Each write goes through ``_with_id`` /
``_with_ids`` / ``_without_id`` or ``_with_entry`` / ``_without_entry``,
which swap a real container in on the first entry and put the sentinel back
when the last entry leaves, so a container is empty exactly when it is the
sentinel.  A batch of suspects is added to a fresh ``set()`` with ``|=``,
as it was added to a node's own empty set before the sentinel: a set's
table, and with it the set's size and iteration order, depends on how the
set was built, and ``set(batch)`` builds another one.  ``last_contact``
stays a plain dict: the first detector round fills it at every node.

Fault tolerance
---------------
Crash/loss/partition injection and the self-healing protocol live in
:mod:`repro.simulation.faults`.  The message side is implemented here as
ordinary handlers — ``PING``/``PONG`` heartbeats, ``SUSPECT_NOTIFY``
suspicion gossip, ``VIEW_SCRUB`` view repair, and the reuse of the routed
``SEARCH_LONG_LINK`` machinery to re-resolve dangling long links — each
respecting the ``view_epoch`` contract above.

The oracle-mode overlay (:class:`repro.core.overlay.VoroNet`) is the fast
path for large sweeps; integration tests check that both executions produce
the same neighbour structure on identical inputs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter
from types import MappingProxyType
from typing import (TYPE_CHECKING, AbstractSet, Callable, ClassVar, Container, Dict,
                    FrozenSet, Iterator, List, Mapping, Optional, Sequence, Set, Tuple)

import numpy as np

from repro.core.config import VoroNetConfig
from repro.core.maintenance import (Finding, MemberOrder, membership_report,
                                    view_report)
from repro.core.long_range import choose_long_range_target, choose_long_range_target_array
from repro.core.node import LinkRecord, with_link
from repro.geometry.delaunay import DelaunayTriangulation, DuplicatePointError, morton_order
from repro.geometry.locate_grid import LocateGrid
from repro.geometry.point import Point, as_point, distance
from repro.geometry.predicates import DISTANCE_FLOOR, FARTHER, NEARER, greedy_hop, settle
from repro.simulation.engine import SimulationEngine, Watchdog
from repro.simulation.metrics import MetricsRegistry
from repro.simulation.network import Message, Network
from repro.utils.rng import RandomSource

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.simulation.faults import FaultPlane

__all__ = ["ProtocolSimulator", "ProtocolNode", "JoinReport", "LeaveReport",
           "QueryReport", "BulkJoinReport"]

#: Number of ``ADD_OBJECT`` sends pipelined between engine drains in
#: :meth:`ProtocolSimulator.bulk_join`.  View snapshots are deferred to the
#: dedicated views phase, so routing during the carve runs over pre-batch
#: views either way (harmless: a stale view only shortens the walk to
#: wherever the hint landed, the kernel carve is exact); what the drain
#: between chunks refreshes is the locate grid, keeping the next chunk's
#: introducer hints O(1) from their targets, and it bounds how many
#: messages sit in flight at once.
DEFAULT_BULK_CHUNK = 128

#: Quiet window of every watchdog-tracked operation (join, close
#: discovery, long links).  It is not an operation budget: the watchdog is
#: poked on every forwarding hop and partial reply, so a long but healthy
#: routed walk never expires; only a wedged one does (its in-flight
#: message fed to a crash, loss or partition).
OPERATION_TIMEOUT = 12.0
#: Expiries an operation survives: each re-issues its idempotent,
#: version-stamped messages and stretches the window by
#: ``OPERATION_BACKOFF``; the next one abandons it as ``timed_out``.  The
#: bulk join's carve, view and search audits run this many re-drives too.
OPERATION_RETRIES = 3
OPERATION_BACKOFF = 2.0

#: The id set of every node whose pending or liveness set is empty: one
#: shared, immutable empty set (module docstring, Memory).
NO_IDS: FrozenSet[int] = frozenset()
#: Likewise for the node's dicts: one shared, read-only empty mapping.
NO_ENTRIES: Mapping = MappingProxyType({})


def _with_id(ids: AbstractSet[int], member: int) -> Set[int]:
    """``ids`` plus ``member``; a set of the node's own replaces the sentinel."""
    if ids is NO_IDS:
        ids = set()
    ids.add(member)
    return ids


def _with_ids(ids: AbstractSet[int], members: AbstractSet[int]) -> AbstractSet[int]:
    """``ids`` plus ``members``, added by ``|=`` (module docstring, Memory)."""
    if members:
        if ids is NO_IDS:
            ids = set()
        ids |= members
    return ids


def _without_id(ids: AbstractSet[int], member: int) -> AbstractSet[int]:
    """``ids`` minus ``member``; the sentinel once nothing is left."""
    if member in ids:
        ids.discard(member)
        if not ids:
            return NO_IDS
    return ids


def _with_entry(entries: Mapping, key, value) -> Dict:
    """``entries`` with ``key`` mapped to ``value``; a dict of the node's own
    replaces the sentinel."""
    if entries is NO_ENTRIES:
        entries = {}
    entries[key] = value
    return entries


def _without_entry(entries: Mapping, key) -> Mapping:
    """``entries`` minus ``key``; the sentinel once nothing is left."""
    if key in entries:
        del entries[key]
        if not entries:
            return NO_ENTRIES
    return entries


def _unsuspected(block: Tuple, suspects: Container[int]
                 ) -> Iterator[Tuple[int, float, float]]:
    """A flat routing block's ``(id, x, y)`` records bar the suspects',
    made only when read."""
    it = iter(block)
    for neighbor, x, y in zip(it, it, it):
        if neighbor not in suspects:
            yield neighbor, x, y


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JoinReport:
    """Cost of one distributed join.

    ``outcome`` is ``"completed"`` on the happy path, ``"timed_out"`` when
    the operation's watchdog exhausted its retries (e.g. the only node
    holding the pending join's starter state crashed mid-conversation) and
    ``"rejected"`` when the position duplicated a published object.  A
    non-completed join never hangs the caller: the engine drains, the
    report states what happened, and the repair protocol's audits own any
    residual cleanup.
    """

    object_id: int
    routing_hops: int
    messages: int
    virtual_time: float
    outcome: str = "completed"


@dataclass(frozen=True)
class BulkJoinReport:
    """Cost of one batched distributed construction.

    ``phase_messages`` breaks the total down by protocol phase
    (``carve`` / ``views`` / ``handover`` / ``close`` / ``long_links``).

    ``timed_out`` lists batch members that never made it into the overlay
    (they crashed mid-batch, or their carve could not be re-driven within
    the audit budget); empty in every fault-free run.
    """

    object_ids: List[int]
    messages: int
    phase_messages: Dict[str, int]
    virtual_time: float
    timed_out: Tuple[int, ...] = ()


@dataclass(frozen=True)
class LeaveReport:
    """Cost of one distributed (graceful) departure.

    ``outcome`` is ``"timed_out"`` when the leaver crashed while its own
    hand-over was still draining — the survivors saw an abrupt crash, not
    a graceful departure, and the detect/repair pipeline owns the cleanup.
    """

    object_id: int
    messages: int
    virtual_time: float
    outcome: str = "completed"


@dataclass(frozen=True)
class QueryReport:
    """Cost and answer of one distributed point query; ``owner`` is
    ``None`` when no answer arrived (the walk fed the fault plane)."""

    target: Point
    owner: Optional[int]
    routing_hops: int
    messages: int


# ----------------------------------------------------------------------
# per-object state
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ProtocolNode:
    """One object and its strictly local view.

    ``view_epoch`` counts local view mutations: every message handler that
    changes the view bumps it (via :meth:`touch_view`), invalidating the
    node's cached flat routing block.  ``view_version`` tracks the newest
    kernel version whose snapshot this node has applied, so a view update
    overtaken in flight (possible under the pipelined bulk join) can never
    overwrite a fresher one.

    An empty pending, liveness or view container is a shared sentinel
    (:data:`NO_IDS`, :data:`NO_ENTRIES`), and only the node's own methods
    write one (module docstring, Memory).
    """

    object_id: int
    position: Point
    simulator: "ProtocolSimulator" = field(repr=False)
    voronoi: Dict[int, Point] = field(default_factory=dict)
    close: Mapping[int, Point] = field(default_factory=lambda: NO_ENTRIES)
    long_links: Tuple[LinkRecord, ...] = ()
    back_links: Mapping[Tuple[int, int], Point] = field(default_factory=lambda: NO_ENTRIES)
    #: Voronoi neighbours whose ``CLOSE_REPLY`` is still awaited, and
    #: whether the close phase already completed.  Set-based (not a bare
    #: counter) so duplicate and late replies are idempotent: a reply from
    #: a peer not in the set changes nothing, and the long-link phase can
    #: never be double-started by a retried request's second answer.
    pending_close_peers: AbstractSet[int] = NO_IDS
    close_phase_done: bool = False
    #: Long-link slots whose ``LONG_LINK_ESTABLISHED`` is still awaited.
    #: First establishment wins; a late duplicate (a retried search whose
    #: original answer survived after all) is told to drop its redundant
    #: back registration instead of overwriting the link.
    pending_link_indices: AbstractSet[int] = NO_IDS
    #: Whether this node already applied its first ``CREATE_OBJECT`` view
    #: snapshot.  A duplicate (retried carve re-sending the snapshot)
    #: refreshes the view but must not restart close discovery or append
    #: another batch of long links.
    bootstrapped: bool = False
    view_epoch: int = 0
    view_version: int = -1
    #: Failure-detection bookkeeping (driven by the fault subsystem,
    #: :mod:`repro.simulation.faults`).  ``last_heard`` maps a monitored
    #: peer to the newest heartbeat round it answered, ``missed_heartbeats``
    #: counts its consecutive unanswered rounds, and ``suspects`` is this
    #: node's local list of peers presumed crashed.  None of these are part
    #: of the routing view, so they never bump ``view_epoch``.
    last_heard: Mapping[int, int] = field(default_factory=lambda: NO_ENTRIES)
    missed_heartbeats: Mapping[int, int] = field(default_factory=lambda: NO_ENTRIES)
    suspects: AbstractSet[int] = NO_IDS
    #: Piggy-backed liveness: virtual time this node last received *any*
    #: message from a peer (stamped only while the simulator's
    #: ``detector_attached`` switch is on).  Every key and value is a
    #: number, so the collector untracks this map for good; like the
    #: detector bookkeeping above, not part of the routing view.  The probes
    #: this node sent in the current heartbeat round are the detector's,
    #: published as the simulator's ``heartbeat_probes``.
    last_contact: Dict[int, float] = field(default_factory=dict)
    #: Peers exonerated after being suspected (their PONG refuted the
    #: suspicion), and after a heal the peers across the healed cut inside
    #: the ``d_min`` disc.  Suspicion or the cut scrubbed their close entry
    #: destructively, so the repair protocol's close re-discovery must
    #: revisit this node even once its suspect list is empty; the repair
    #: round spends the marks when it re-discovers.
    rehabilitated: AbstractSet[int] = NO_IDS
    #: Externally published identity.  Normally ``None`` (the object id is
    #: the identity); objects inserted *during* a network split publish a
    #: side-local id drawn from the id space both sides believe is next —
    #: the collision the heal resolves deterministically (lowest object id
    #: keeps the claim, losers are re-assigned from the healed allocator).
    published_id: Optional[int] = None
    _block_epoch: int = field(default=-1, repr=False, init=False)
    _block: Optional[Tuple] = field(default=None, repr=False, init=False)
    _plan_epoch: int = field(default=-1, repr=False, init=False)
    _plan: Tuple[Tuple[int, ...], Tuple[int, ...]] = field(
        default=((), ()), repr=False, init=False)

    # ------------------------------------------------------------------
    # view helpers
    # ------------------------------------------------------------------
    def touch_view(self) -> None:
        """Mark the local view changed: the cached routing block and probe
        plan are both stamped with the epoch and rebuilt on next use."""
        self.view_epoch += 1

    def routing_candidates(self) -> Dict[int, Point]:
        """Every neighbour usable for greedy forwarding, with its position."""
        candidates: Dict[int, Point] = {}
        candidates.update(self.voronoi)
        candidates.update(self.close)
        for _target, neighbor, position in self.long_links:
            if neighbor != self.object_id:
                candidates[neighbor] = position
        candidates.pop(self.object_id, None)
        return candidates

    def routing_block(self) -> Tuple:
        """Flat ``(id, x, y, id, x, y, …)`` forwarding candidates in id order
        — the oracle's table order, so equal float minima break alike —
        cached per view epoch.

        Rebuilt lazily from :meth:`routing_candidates` whenever the view
        epoch moved, so the block is always equal to the freshly assembled
        candidate dict — the invariant the protocol-level cache tests pin.
        One tuple of numbers, which the collector stops tracking before it
        reaches the oldest generation (``geometry.delaunay``, "Caches").
        """
        if self._block is None or self._block_epoch != self.view_epoch:
            candidates = self.routing_candidates()
            block: List = []
            # Sorting the bare ids (int comparisons) costs about what the
            # unsorted walk over items() does; sorting the items does not.
            for neighbor in sorted(candidates):
                x, y = candidates[neighbor]
                block += (neighbor, x, y)
            self._block = tuple(block)
            self._block_epoch = self.view_epoch
        return self._block

    def greedy_next_hop(self, target: Point) -> Optional[int]:
        """Neighbour the descent rule forwards to, if any
        (:func:`~repro.geometry.predicates.greedy_hop` with the scan inlined:
        the block's float minimum hops while clearly below this node's
        distance, and :func:`~repro.geometry.predicates.settle` decides a
        stop or a near-tie).

        Peers on the local suspect list are never selected: forwarding to a
        presumed-crashed node would silently lose the message, so routed
        repair traffic (and any operation racing a repair) detours around
        suspects instead.  Suspicion is not view state, so the cached
        routing block is filtered at selection time rather than rebuilt —
        and only for a candidate that beats the minimum so far: a suspect
        never becomes the best, so skipping it there or up front selects
        the same neighbour.
        """
        tx, ty = target
        px, py = self.position
        current_d = (px - tx) * (px - tx) + (py - ty) * (py - ty)
        best, best_d = None, current_d * FARTHER + DISTANCE_FLOOR
        block = self._block
        if block is None or self._block_epoch != self.view_epoch:
            block = self.routing_block()
        suspects = self.suspects
        it = iter(block)
        for neighbor, x, y in zip(it, it, it):
            d = (x - tx) * (x - tx) + (y - ty) * (y - ty)
            if d < best_d and neighbor not in suspects:
                best, best_d = neighbor, d
        if best_d < current_d * NEARER - DISTANCE_FLOOR:
            return best
        # Not a clear hop: a stop or a near-tie, which settle decides.
        return settle(best, best_d, current_d, target, self.position,
                      _unsuspected(block, suspects))[0]

    def view_size(self) -> int:
        """Total number of entries stored at this object."""
        return (len(self.voronoi) + len(self.close) + len(self.long_links)
                + len(self.back_links))

    def monitored_peers(self) -> Set[int]:
        """Every peer this node holds a reference to, and therefore monitors.

        The heartbeat detector pings exactly this set: Voronoi neighbours,
        close neighbours, long-link endpoints *and* back-link sources — a
        crash is only observable by the nodes left holding a reference to
        the victim, so monitoring the full reference set is what makes
        detection complete.
        """
        peers = set(self.voronoi)
        peers.update(self.close)
        peers.update([neighbor for _target, neighbor, _position in self.long_links])
        peers.update([source for source, _index in self.back_links])
        peers.discard(self.object_id)
        return peers

    def derive_probe_plan(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """``(peers, sampled)`` assembled from the view as it stands now.

        ``peers`` is :meth:`monitored_peers` in id order — the order the
        heartbeat detector probes in — and ``sampled`` the ones among them
        that are neither a Voronoi nor a close neighbour: the long-link
        endpoints and back-link sources a sampling detector probes on a
        stride instead of every round.
        """
        peers = self.monitored_peers()
        sampled = peers.difference(self.voronoi)
        sampled.difference_update(self.close)
        return tuple(sorted(peers)), tuple(sorted(sampled))

    def probe_plan(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """:meth:`derive_probe_plan`, cached per view epoch.

        The same contract as :meth:`routing_block`: whoever mutates
        ``voronoi``, ``close``, ``long_links`` or ``back_links`` calls
        :meth:`touch_view`, so a cached plan is a valid plan —
        :meth:`ProtocolSimulator.verify_views` checks exactly that.
        """
        if self._plan_epoch != self.view_epoch:
            self._plan = self.derive_probe_plan()
            self._plan_epoch = self.view_epoch
        return self._plan

    def references(self, peer: int) -> bool:
        """Whether any local view entry still points at ``peer``."""
        return (peer in self.voronoi or peer in self.close
                or any(neighbor == peer
                       for _target, neighbor, _position in self.long_links)
                or any(source == peer for source, _index in self.back_links))

    def apply_suspicion(self, peers: Set[int]) -> bool:
        """Locally scrub state that only serves a now-suspected peer.

        Close entries for suspects and back registrations *sourced* at
        suspects are dropped: both are pure services to the peer, so a
        node presuming it dead stops providing them — a local decision
        needing no message, like the paper's local functions.  A false
        suspicion costs only a close entry, which the repair protocol's
        grid-seeded re-discovery (and the peer's own declarations)
        restores.  Voronoi entries are *not* touched here: replacing them
        needs a fresh consistent view, which only a version-stamped
        ``VIEW_SCRUB``/``REGION_UPDATE`` can deliver.  Returns whether the
        view changed (the epoch is bumped if so).
        """
        changed = False
        for peer in sorted(peers):
            if peer in self.close:
                self.close = _without_entry(self.close, peer)
                changed = True
        stale_back = [key for key in self.back_links if key[0] in peers]
        for key in stale_back:
            self.back_links = _without_entry(self.back_links, key)
            changed = True
        if changed:
            self.touch_view()
        return changed

    def gc_suspects(self) -> None:
        """Drop suspects no longer referenced by any local view entry.

        Called by the repair driver after a round drains: once every stale
        reference to a suspect has been scrubbed or retargeted, the node's
        part in that suspect's repair is over.  A suspect with a surviving
        reference is kept, which is what makes repair retry-safe when
        repair messages are themselves lost.  A list left empty is the
        shared :data:`NO_IDS` (module docstring, Memory): a fresh empty set
        per member per round is what the collector would otherwise promote
        into its oldest generation, 10⁴ at a time.
        """
        if self.suspects:
            self.suspects = ({peer for peer in self.suspects if self.references(peer)}
                             or NO_IDS)

    # ------------------------------------------------------------------
    # protocol moves (the module docstring's table: each written once)
    # ------------------------------------------------------------------
    def apply_snapshot(self, view: Sequence[Tuple[int, Point]],
                       version: int) -> bool:
        """Adopt a version-stamped vn snapshot unless a fresher one was applied.

        ``view`` is the snapshot's ``(id, position)`` pairs.  An overtaken
        snapshot (possible under the pipelined bulk join) must not roll the
        view back; returns whether this one was adopted.
        """
        if version < self.view_version:
            return False
        self.voronoi = dict(view)
        self.view_version = version
        self.touch_view()
        return True

    def hand_over(self, key: Tuple[int, int], holder: int,
                  holder_position: Point, notify_source: bool = True) -> None:
        """Hand one hosted back registration over to ``holder``.

        The Section 3.3 hand-over: the registration leaves this node, the
        new holder is told to host it and the link's source to re-point.
        ``notify_source`` is the omniscient caller's guard (``bulk_join``
        knows a source that is gone); a handler cannot know and always
        sends — the plane drops it, counted.
        """
        target = self.back_links[key]
        self.back_links = _without_entry(self.back_links, key)
        self.touch_view()
        source, link_index = key
        self.simulator.send(self, holder, "BACKLINK_TRANSFER",
                            (source, link_index, target))
        if notify_source:
            self.simulator.send(self, source, "LONG_LINK_RETARGET",
                                (link_index, holder, holder_position))

    def discover_close(self) -> None:
        """Grid-exact close discovery: adopt and declare to every live peer
        inside the ``d_min`` disc the view does not hold yet.

        The locate-grid radius query produces the very set Lemma 1's
        routed discovery would; each adopted peer hears one counted
        ``CLOSE_DECLARE``.
        """
        simulator = self.simulator
        found = False
        for close_id in simulator.locate.within(
                self.position, simulator.config.effective_d_min):
            peer = simulator.nodes.get(close_id)
            if (close_id == self.object_id or close_id in self.close
                    or peer is None):  # crashed since the radius query ran
                continue
            self.close = _with_entry(self.close, close_id, peer.position)
            found = True
            simulator.send(self, close_id, "CLOSE_DECLARE", (self.position,))
        if found:
            self.touch_view()

    def add_long_link(self, target: Point, seeded: bool) -> None:
        """Open a long-link slot for ``target`` and start its routed search.

        The slot holds a self-loop placeholder (never a dangling id) until
        ``LONG_LINK_ESTABLISHED`` lands.
        """
        index = len(self.long_links)
        self.long_links = with_link(self.long_links, index, target,
                                    self.object_id, self.position)
        self.touch_view()
        self._search_long_link(index, seeded)

    def _search_long_link(self, index: int, seeded: bool) -> None:
        """Send the routed ``SEARCH_LONG_LINK`` for slot ``index``.

        The search starts at this node — the join protocol's own walk —
        or, ``seeded``, at the live locate-grid neighbour of the target:
        O(1) greedy hops from the exact region owner, so a retry under
        message loss needs few deliveries to land.
        """
        self.pending_link_indices = _with_id(self.pending_link_indices, index)
        target, _neighbor, _position = self.long_links[index]
        start = self.simulator.locate.hint(target) if seeded else None
        if start is None or start not in self.simulator.nodes:
            start = self.object_id
        self.simulator.send(self, start, "SEARCH_LONG_LINK",
                            (target, self.object_id, index, 0))

    def exonerate(self, peer: int) -> None:
        """Proof of life from ``peer``: clear its miss counter and refute any
        standing suspicion (false positives from lost heartbeats heal
        themselves here).  The suspicion already scrubbed state
        destructively, so the exoneration is remembered for the repair
        round's close re-discovery."""
        self.missed_heartbeats = _without_entry(self.missed_heartbeats, peer)
        if peer in self.suspects:
            self.suspects = _without_id(self.suspects, peer)
            self.rehabilitate(peer)

    def rehabilitate(self, peer: int) -> None:
        """Mark ``peer`` for the repair round's close re-discovery: a refuted
        suspicion, or a close pair across a healed cut, scrubbed its close
        entry destructively."""
        self.rehabilitated = _with_id(self.rehabilitated, peer)

    def rediscover_close(self) -> None:
        """The repair round's close phase at this node: spend the
        rehabilitation marks and re-run grid-exact close discovery."""
        self.rehabilitated = NO_IDS
        self.discover_close()

    def suspect(self, peers: AbstractSet[int]) -> None:
        """Add ``peers`` to the local suspect list.  Scrubbing what served
        them is :meth:`apply_suspicion`, the caller's next step."""
        self.suspects = _with_ids(self.suspects, peers)

    def unsuspect(self, peers: AbstractSet[int]) -> None:
        """Take ``peers`` off the local suspect list.  No proof of life came
        from them, so unlike :meth:`exonerate` nothing is rehabilitated."""
        for peer in sorted(peers):
            self.suspects = _without_id(self.suspects, peer)

    def miss_heartbeat(self, peer: int, threshold: int) -> bool:
        """``peer`` left a probe unanswered: count the miss and, at
        ``threshold`` consecutive ones, suspect it and scrub what served it.
        Returns whether a suspicion was created."""
        misses = self.missed_heartbeats.get(peer, 0) + 1
        self.missed_heartbeats = _with_entry(self.missed_heartbeats, peer, misses)
        if misses < threshold or peer in self.suspects:
            return False
        self.suspect({peer})
        self.apply_suspicion({peer})
        return True

    def corroborated(self, accused: AbstractSet[int]) -> Set[int]:
        """The accused peers local evidence supports: a standing suspicion,
        or at least one missed heartbeat of our own.

        Adopting accusations blindly would let one false suspicion — a
        couple of heartbeats lost to an unreliable network — infect the
        whole neighbourhood faster than probing exonerates it.  Read from
        this node's side: its evidence is a handful of peers, while one
        accused set serves a whole repair phase.
        """
        found = {peer for peer in self.suspects if peer in accused}
        found.update(peer for peer, misses in self.missed_heartbeats.items()
                     if misses > 0 and peer in accused)
        found.discard(self.object_id)
        return found

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    #: Message kind → unbound handler, resolved once per kind instead of
    #: rebuilding the ``_on_<kind>`` attribute name on every delivery.
    #: Per-class (see ``__init_subclass__``): a subclass overriding a
    #: handler gets its own cache, so the override is actually dispatched.
    _DISPATCH: ClassVar[Dict[str, Callable]] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        # Explicit: ``slots=True`` rebuilds the class, which a zero-argument
        # ``super()`` would not see.
        super(ProtocolNode, cls).__init_subclass__(**kwargs)
        cls._DISPATCH = {}

    def handle(self, message: Message) -> None:
        """Dispatch an incoming message to its kind's handler, which is
        called with the sender and the payload."""
        sender, _recipient, kind, payload = message
        simulator = self.simulator
        if simulator.detector_attached and sender != self.object_id:
            # Any delivered message is proof of life: record the contact
            # and exonerate a suspected sender (the generalisation of the
            # PONG handler's exoneration to all protocol traffic).
            self.last_contact[sender] = simulator.engine.now
            if self.missed_heartbeats or self.suspects:
                self.exonerate(sender)
        cls = type(self)
        handler = cls._DISPATCH.get(kind)
        if handler is None:
            handler = getattr(cls, f"_on_{kind.lower()}", None)
            if handler is None:
                raise ValueError(f"unknown message kind {kind!r}")
            cls._DISPATCH[kind] = handler
        handler(self, sender, payload)

    # ---------------- join phase 1: routing the ADD_OBJECT -------------
    def _on_add_object(self, _sender: int, payload: tuple) -> None:
        target, new_id, bulk, hops = payload
        self.simulator.operation_progress(("join", new_id))
        next_hop = self.greedy_next_hop(target)
        if next_hop is not None:
            self.simulator.send(self, next_hop, "ADD_OBJECT",
                                (target, new_id, bulk, hops + 1))
            return
        # This node owns the region containing the new object: carve it out.
        self.simulator.complete_insertion(owner=self, new_id=new_id,
                                          position=target,
                                          routing_hops=hops, bulk=bulk)

    # ---------------- join phase 2: new node bootstraps ---------------
    def _on_create_object(self, _sender: int, payload: tuple) -> None:
        view, version, bulk = payload
        self.apply_snapshot(view, version)
        if self.bootstrapped:
            # Duplicate snapshot from a retried carve: the fresher view was
            # applied above (or rejected by the version stamp); the phases
            # below already ran and must not run twice.
            return
        self.bootstrapped = True
        if bulk:
            # bulk_join drives close discovery and long links as its own
            # pipelined phases; the view snapshot is all this message carries.
            return
        self.simulator.finish_operation(("join", self.object_id))
        # Close-neighbour discovery (Lemma 1): ask every Voronoi neighbour.
        if self.simulator.config.maintain_close_neighbors and self.voronoi:
            self.pending_close_peers = set(self.voronoi)
            self.simulator.start_operation(
                ("close", self.object_id),
                retry=self._retry_close_phase, fail=self._abandon_close_phase)
            for neighbor in sorted(self.voronoi):
                self.simulator.send(self, neighbor, "CLOSE_REQUEST",
                                    (self.position,))
        else:
            self._start_long_link_phase()

    def _on_close_request(self, origin: int, payload: tuple) -> None:
        (origin_position,) = payload
        d_min = self.simulator.config.effective_d_min
        candidates: Dict[int, Point] = {self.object_id: self.position}
        candidates.update(self.voronoi)
        candidates.update(self.close)
        close = {
            oid: pos for oid, pos in candidates.items()
            if oid != origin and distance(pos, origin_position) <= d_min
        }
        self.simulator.send(self, origin, "CLOSE_REPLY", (close,))

    def _on_close_reply(self, sender: int, payload: tuple) -> None:
        (candidates,) = payload
        d_min = self.simulator.config.effective_d_min
        for oid, pos in sorted(candidates.items()):
            if oid != self.object_id and distance(pos, self.position) <= d_min:
                self.close = _with_entry(self.close, oid, pos)
        self.touch_view()
        if sender in self.pending_close_peers:
            self.pending_close_peers = _without_id(self.pending_close_peers, sender)
            self.simulator.operation_progress(("close", self.object_id))
            if not self.pending_close_peers:
                self._finish_close_phase()

    def _finish_close_phase(self) -> None:
        """Declare close membership and move on to long links — once."""
        if self.close_phase_done:
            return
        self.close_phase_done = True
        self.simulator.finish_operation(("close", self.object_id))
        for neighbor in sorted(self.close):
            self.simulator.send(self, neighbor, "CLOSE_DECLARE", (self.position,))
        self._start_long_link_phase()

    def _retry_close_phase(self) -> bool:
        """Watchdog retry: drop dead peers, re-request the live stragglers.

        Peers that left or crashed can never answer, so waiting on them is
        the wedge this retry clears; the re-sent ``CLOSE_REQUEST`` is
        idempotent (the reply handler merges candidates and discards the
        peer from the pending set at most once).
        """
        dead = [peer for peer in sorted(self.pending_close_peers)
                if peer not in self.simulator.nodes]
        for peer in dead:
            self.pending_close_peers = _without_id(self.pending_close_peers, peer)
        if not self.pending_close_peers:
            self._finish_close_phase()
            return True
        for peer in sorted(self.pending_close_peers):
            self.simulator.send(self, peer, "CLOSE_REQUEST", (self.position,))
        return True

    def _abandon_close_phase(self) -> None:
        """Retries exhausted: proceed degraded rather than wedge the join.

        The close set misses whatever the silent peers would have
        contributed; the repair protocol's grid-seeded close re-discovery
        is the standing mechanism that restores such entries.
        """
        self.pending_close_peers = NO_IDS
        self._finish_close_phase()

    def _on_close_declare(self, sender: int, payload: tuple) -> None:
        (position,) = payload
        self.close = _with_entry(self.close, sender, position)
        self.touch_view()

    def _on_close_leave(self, sender: int, _payload: tuple) -> None:
        self.close = _without_entry(self.close, sender)
        self.touch_view()

    # ---------------- join phase 3: long links ------------------------
    def _start_long_link_phase(self) -> None:
        count = self.simulator.config.num_long_links
        if count == 0:
            return
        self.simulator.start_operation(
            ("long_links", self.object_id),
            retry=self._retry_long_links, fail=self._abandon_long_links)
        d_min = self.simulator.config.effective_d_min
        for _ in range(count):
            self.add_long_link(choose_long_range_target(
                self.position, d_min, self.simulator.rng), seeded=False)

    def _retry_long_links(self) -> bool:
        """Watchdog retry: re-run the routed search for unresolved slots.

        Grid-seeded next to the target (the repair protocol's escalation
        idiom), so a retry needs O(1) deliveries even when the original
        walk fed the fault plane hop by hop.  ``reissue_long_link`` keeps
        the pending set consistent, and first-established-wins makes a
        racing duplicate answer harmless.
        """
        if not self.pending_link_indices:
            return False
        for index in sorted(self.pending_link_indices):
            self.reissue_long_link(index, seeded=True)
        return True

    def _abandon_long_links(self) -> None:
        """Retries exhausted: surface the join as timed out.

        The unresolved slots keep their self-loop placeholder (never a
        dangling id); the repair protocol's long-link audit re-resolves
        them whenever it next runs.
        """
        self.simulator._join_outcomes[self.object_id] = "timed_out"

    def _on_search_long_link(self, _sender: int, payload: tuple) -> None:
        target, requester, link_index, hops = payload
        self.simulator.operation_progress(("long_links", requester))
        next_hop = self.greedy_next_hop(target)
        if next_hop is not None:
            self.simulator.send(self, next_hop, "SEARCH_LONG_LINK",
                                (target, requester, link_index, hops + 1))
            return
        # This node owns the target's region: it becomes the long-range contact.
        self.back_links = _with_entry(self.back_links, (requester, link_index), target)
        self.touch_view()
        self.simulator.send(self, requester, "LONG_LINK_ESTABLISHED",
                            (link_index, self.object_id, self.position, hops))

    def _on_long_link_established(self, _sender: int, payload: tuple) -> None:
        index, neighbor, neighbor_position, _hops = payload
        if index >= len(self.long_links):
            return
        if index not in self.pending_link_indices:
            # Late duplicate: a retried search's original answer landed
            # after all.  First establishment won; tell the late owner to
            # drop the registration it just created for us (unless it *is*
            # the established endpoint, whose registration must stand).
            _target, established, _position = self.long_links[index]
            if (neighbor != established
                    and neighbor in self.simulator.nodes):
                self.simulator.send(self, neighbor, "BACKLINK_REMOVE",
                                    (self.object_id, index))
            return
        target, _neighbor, _position = self.long_links[index]
        self.long_links = with_link(self.long_links, index, target, neighbor,
                                    neighbor_position)
        self.touch_view()
        self.pending_link_indices = _without_id(self.pending_link_indices, index)
        self.simulator.operation_progress(("long_links", self.object_id))
        if not self.pending_link_indices:
            self.simulator.finish_operation(("long_links", self.object_id))

    # ---------------- maintenance updates ------------------------------
    def _on_region_update(self, _sender: int, payload: tuple) -> None:
        view, version, new_id, new_position = payload
        # The back-registration steal below compares positions, not
        # snapshots, so it runs whether or not the snapshot was adopted.
        self.apply_snapshot(view, version)
        if new_id is None:
            return
        # Hand over back registrations whose target the new object now owns.
        stolen = [
            key for key, target in self.back_links.items()
            if distance(new_position, target) < distance(self.position, target)
        ]
        for key in stolen:
            self.hand_over(key, new_id, new_position)

    def _on_backlink_transfer(self, _sender: int, payload: tuple) -> None:
        source, link_index, target = payload
        self.back_links = _with_entry(self.back_links, (source, link_index), target)
        self.touch_view()

    def _on_long_link_retarget(self, _sender: int, payload: tuple) -> None:
        index, neighbor, neighbor_position = payload
        if index < len(self.long_links):
            target, _neighbor, _position = self.long_links[index]
            self.long_links = with_link(self.long_links, index, target, neighbor,
                                        neighbor_position)
            self.touch_view()

    def _on_backlink_remove(self, _sender: int, payload: tuple) -> None:
        source, link_index = payload
        self.back_links = _without_entry(self.back_links, (source, link_index))
        self.touch_view()

    # ---------------- failure detection & repair ------------------------
    # The handlers below implement the message side of the fault subsystem
    # (:mod:`repro.simulation.faults`): heartbeat probing, suspicion
    # gossip, and view scrubbing.  Every view-mutating one bumps the view
    # epoch, per the routing-cache contract.
    def _on_ping(self, sender: int, payload: tuple) -> None:
        (round_number,) = payload
        simulator = self.simulator
        if (round_number == simulator.heartbeat_round
                and sender in simulator.heartbeat_probes.get(self.object_id, ())):
            # Crossed probes: our own PING of the same round is already in
            # flight to the sender, and its delivery is proof of life — the
            # PONG would be redundant.  Rounds are numbered simulator-wide,
            # so another detector's probes never match, and a repair-phase
            # probe (round 0) never does either.
            return
        self.simulator.send(self, sender, "PONG", (round_number,))

    def _on_pong(self, sender: int, payload: tuple) -> None:
        (round_number,) = payload
        self.last_heard = _with_entry(self.last_heard, sender, round_number)
        self.exonerate(sender)

    def _on_suspect_notify(self, _sender: int, payload: tuple) -> None:
        (accused,) = payload
        corroborated = self.corroborated(accused)
        if corroborated:
            self.suspect(corroborated)
            self.apply_suspicion(corroborated)

    def _on_view_scrub(self, _sender: int, payload: tuple) -> None:
        view, version, crashed = payload
        # Same corroboration rule as SUSPECT_NOTIFY: the version-stamped
        # view below is kernel truth either way, but close/back scrubbing
        # of the listed ids only happens with local evidence.
        corroborated = self.corroborated(crashed)
        if not self.apply_snapshot(view, version):
            # Overtaken snapshot: keep the fresher view but still scrub
            # the corroborated ids.
            for peer in sorted(corroborated):
                if self.voronoi.pop(peer, None) is not None:
                    self.touch_view()
        self.suspect(corroborated)
        self.apply_suspicion(corroborated)
        # Re-check hosted registrations against the refreshed view: a crash
        # may have routed a repair search to this node while its view was
        # still stale, leaving it holding a link whose target a neighbour
        # is strictly closer to.  Handing such links one greedy step over
        # (the generalised Section 3.3 hand-over) moves every mis-held
        # registration monotonically towards the target's true owner; a
        # suspected best neighbour gets nothing.
        if not self.back_links:
            return
        neighbors = sorted([(neighbor, x, y) for neighbor, (x, y) in self.voronoi.items()])
        for key, target in list(self.back_links.items()):
            best_id = greedy_hop(target, self.position, neighbors)
            if best_id is not None and best_id not in self.suspects:
                self.hand_over(key, best_id, self.voronoi[best_id])

    def reissue_long_link(self, index: int, seeded: bool) -> None:
        """Re-run the routed ``SEARCH_LONG_LINK`` for one dangling link.

        The repair protocol's ``LONG_LINK_RETARGET`` path: the link's fixed
        target point is re-resolved through the exact machinery a join
        uses — greedy routing to the target's region owner, which registers
        the back link and answers ``LONG_LINK_ESTABLISHED``.  An endpoint
        still believed alive is asked to drop its now-superseded back
        registration first (for a suspected endpoint the message would
        only feed the fault plane).
        """
        _target, neighbor, _position = self.long_links[index]
        if (neighbor != self.object_id
                and neighbor not in self.suspects
                and neighbor in self.simulator.nodes):
            self.simulator.send(self, neighbor, "BACKLINK_REMOVE",
                                (self.object_id, index))
        self._search_long_link(index, seeded)

    # ---------------- queries ------------------------------------------
    def _on_query(self, _sender: int, payload: tuple) -> None:
        target, requester, query_id, path, hops = payload
        if path is not None:
            # Path recording for load accounting: each holder appends
            # itself to the tuple of visited ids.
            path += (self.object_id,)
        next_hop = self.greedy_next_hop(target)
        if next_hop is not None:
            self.simulator.send(self, next_hop, "QUERY",
                                (target, requester, query_id, path, hops + 1))
            return
        # Serving-layer extensions ride along as payload fields (no new
        # message kind — the pinned kind set only grows for genuinely new
        # protocol phases): the query id lets many QUERYs contend in
        # flight, the path feeds per-node load counters.
        self.simulator.send(self, requester, "QUERY_ANSWER",
                            (target, self.object_id, query_id, path, hops))

    def _on_query_answer(self, _sender: int, payload: tuple) -> None:
        self.simulator.record_query_answer(*payload)


# ----------------------------------------------------------------------
# the simulator
# ----------------------------------------------------------------------
class _PendingOperation:
    """Bookkeeping of one watchdog-tracked multi-message operation."""

    __slots__ = ("key", "watchdog", "attempts", "timeout", "retry", "fail")

    def __init__(self, key: Tuple[str, int], retry: Callable[[], bool],
                 fail: Optional[Callable[[], None]]) -> None:
        self.key = key
        self.watchdog: Optional[Watchdog] = None
        self.attempts = 0
        self.timeout = OPERATION_TIMEOUT
        self.retry = retry
        self.fail = fail


class ProtocolSimulator:  # simlint: ignore[SIM003] — one per experiment, not per message
    """Drives the message-level VoroNet protocol over the event engine.

    Parameters
    ----------
    config:
        Overlay configuration (``n_max``, ``d_min``, number of long links).
    seed:
        Seed of the simulator's random source (long-link targets,
        introducer selection).
    faults:
        Optional :class:`~repro.simulation.faults.FaultPlane` attached to
        the network layer; crash/loss/partition decisions are applied to
        every protocol message.

    Examples
    --------
    >>> simulator = ProtocolSimulator(VoroNetConfig(n_max=64, seed=1), seed=1)
    >>> report = simulator.join((0.25, 0.5))
    >>> report.messages >= 0
    True
    """

    def __init__(self, config: Optional[VoroNetConfig] = None, *,
                 seed: Optional[int] = None,
                 faults: Optional["FaultPlane"] = None) -> None:
        self.config = config if config is not None else VoroNetConfig()
        self.engine = SimulationEngine()
        self.network = Network(self.engine, faults=faults)
        self.metrics = MetricsRegistry()
        self.rng = RandomSource(seed if seed is not None else self.config.seed)
        #: Set for good by the first HeartbeatDetector attached: every
        #: delivered message then records a last-contact timestamp and
        #: exonerates a suspected sender.  Runs with no detector pay for
        #: neither.
        self.detector_attached = False
        #: Heartbeat rounds sent so far by every detector on this simulator;
        #: a round's number is its ``PING`` payload.  The probes of the
        #: round in flight, prober → peers, published by its detector and
        #: released at its sweep: what the ``PING`` handler reads to
        #: suppress the ``PONG`` of a crossed probe.
        self.heartbeat_round = 0
        self.heartbeat_probes: Mapping[int, Tuple[int, ...]] = NO_ENTRIES
        self.kernel = DelaunayTriangulation()
        self.locate = LocateGrid()
        self.nodes: Dict[int, ProtocolNode] = {}
        #: :attr:`nodes` in its own order, for the k-th member in O(log N).
        self._member_order = MemberOrder()
        self._next_id = 0
        self._last_routing_hops = 0
        #: Id of the next :meth:`query`, far above the serving layer's ids so
        #: the two never collide in :attr:`query_answers`.
        self._query_seq = 1 << 40
        #: Answers of queries, keyed by ``query_id``: ``{"owner", "hops",
        #: "completed_at"}`` (virtual completion time), nothing else;
        #: :meth:`query` pops its own.
        self.query_answers: Dict[int, Dict] = {}
        #: Serving-driver hook: called as ``hook(query_id, answer, path)``
        #: with each query's answer as it lands, while the
        #: engine is still running — the mechanism a closed-loop driver
        #: uses to inject the next query and keep a fixed number contending
        #: in flight.  ``path`` (the ids visited, or ``None`` unless
        #: recorded) reaches the hook only; nothing retains it.
        self.on_query_answer: Optional[
            Callable[[int, Dict, Optional[Tuple[int, ...]]], None]] = None
        self._bulk_owners: Dict[int, int] = {}
        self._pending_ops: Dict[Tuple[str, int], _PendingOperation] = {}
        #: Non-completed outcome recorded for a join in flight (read and
        #: cleared by :meth:`join` when building its report).
        self._join_outcomes: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # plumbing used by nodes
    # ------------------------------------------------------------------
    @property
    def faults(self) -> Optional["FaultPlane"]:
        """The fault plane attached to the network layer, if any."""
        return self.network.faults

    def send(self, sender: ProtocolNode, recipient: int, kind: str,
             payload: tuple) -> None:
        """Send one protocol message from ``sender`` to ``recipient``;
        ``payload`` has ``kind``'s layout (the module docstring's table)."""
        self.network.send(sender.object_id, recipient, kind, payload)

    def kernel_view(self, object_id: int) -> Tuple[Tuple[int, Point], ...]:
        """``object_id``'s Voronoi neighbours as ``(id, position)`` pairs,
        as the shared kernel — each object's local Voronoi computation —
        has them."""
        kernel = self.kernel
        point = kernel.point
        return tuple([(nid, point(nid)) for nid in kernel.neighbors(object_id)])

    def send_snapshot(self, sender: ProtocolNode, recipient: int, kind: str,
                      version: int, extra: tuple) -> None:
        """Send ``recipient`` the kernel's view of itself, stamped ``version``.

        The caller reads ``kernel.version`` once where its loop starts: a
        fault-plane crash can land between two sends of one loop and move
        the kernel's version, and every snapshot of the loop must carry
        the same stamp.  ``extra`` is the rest of the kind's layout.
        """
        self.send(sender, recipient, kind,
                  (self.kernel_view(recipient), version) + extra)

    @contextmanager
    def counted_phase(self, counts: Dict[str, int], name: str) -> Iterator[None]:
        """One drained phase of a batched operation: run the block, drain
        the engine, add the messages sent meanwhile to ``counts[name]``."""
        before = self.network.messages_sent
        yield
        self.engine.run()
        counts[name] = counts.get(name, 0) + self.network.messages_sent - before

    # ------------------------------------------------------------------
    # operation timeout/retry tracking
    # ------------------------------------------------------------------
    def start_operation(self, key: Tuple[str, int], retry: Callable[[], bool],
                        fail: Optional[Callable[[], None]] = None) -> None:
        """Arm a progress-aware watchdog over one multi-message operation.

        ``key`` is ``(operation_name, object_id)``.  While the operation
        makes progress (:meth:`operation_progress` is called from its
        message handlers) the watchdog never fires; after a full quiet
        window (``OPERATION_TIMEOUT``) it does, ``retry()`` is invoked to
        re-issue the operation's idempotent messages (returning ``False``
        declines — e.g. the subject crashed), and the window is stretched
        by ``OPERATION_BACKOFF``.  After ``OPERATION_RETRIES`` expiries —
        or a declined retry — the operation is abandoned and ``fail()``
        (if any) runs.  Tracking is idempotent per key.
        """
        if key in self._pending_ops:
            return
        op = _PendingOperation(key, retry, fail)
        self._pending_ops[key] = op
        op.watchdog = Watchdog(self.engine, op.timeout,
                               lambda: self._operation_expired(key))

    def operation_progress(self, key: Tuple[str, int]) -> None:
        """Record progress on a tracked operation (no-op when untracked)."""
        op = self._pending_ops.get(key)
        if op is not None:
            op.watchdog.poke()

    def finish_operation(self, key: Tuple[str, int]) -> None:
        """Complete a tracked operation: disarm and forget its watchdog."""
        op = self._pending_ops.pop(key, None)
        if op is not None:
            op.watchdog.cancel()

    def pending_operations(self) -> List[Tuple[str, int]]:
        """Keys of operations still under watchdog tracking, sorted.

        Empty at quiescence in every healthy run; the fuzzing harness
        asserts exactly that (a non-empty result at quiescence means an
        operation leaked its tracking entry).
        """
        return sorted(self._pending_ops)

    def _operation_expired(self, key: Tuple[str, int]) -> None:
        op = self._pending_ops.get(key)
        if op is None:  # completed between fire and dispatch; nothing to do
            return
        op.attempts += 1
        self.metrics.increment("operation_timeouts")
        if op.attempts <= OPERATION_RETRIES and op.retry():
            self.metrics.increment("operation_retries")
            if key in self._pending_ops:
                # The retry may itself have finished the operation (e.g.
                # every awaited peer turned out dead); only a still-pending
                # one re-arms, with backoff.
                op.timeout *= OPERATION_BACKOFF
                op.watchdog.rearm(op.timeout)
            return
        self._pending_ops.pop(key, None)
        op.watchdog.cancel()
        self.metrics.increment("operation_failures")
        if op.fail is not None:
            op.fail()

    def record_query_answer(self, target: Point, owner: int, query_id: int,
                            path: Optional[Tuple[int, ...]], hops: int) -> None:
        """File one ``QUERY_ANSWER`` as the answer dict readers expect:
        ``owner``, ``hops`` and ``completed_at``, which is all
        :attr:`query_answers` retains of it.
        Its ``query_id`` and ``path`` reach only the :attr:`on_query_answer`
        hook; the ``target`` is the asker's own."""
        answer = {"owner": owner, "hops": hops, "completed_at": self.engine.now}
        self.query_answers[query_id] = answer
        if self.on_query_answer is not None:
            self.on_query_answer(query_id, answer, path)

    # ------------------------------------------------------------------
    # membership operations
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def object_ids(self) -> List[int]:
        """Ids of the currently published objects, in attach order — Morton
        order inside a :meth:`bulk_join` batch, so not id order as in
        ``VoroNet.object_ids``; sort it, or draw from the oracle's ids, to
        name the same objects on both planes."""
        return list(self.nodes.keys())

    def node(self, object_id: int) -> ProtocolNode:
        """The local state of one object."""
        return self.nodes[object_id]

    def _attach_node(self, object_id: int, position: Point) -> ProtocolNode:
        """Create a node's local state and register its message handler."""
        node = ProtocolNode(object_id=object_id, position=position, simulator=self)
        self.nodes[object_id] = node
        self._member_order.append(object_id)
        self.network.register(object_id, node.handle)
        return node

    def detach_node(self, object_id: int) -> None:
        """Tear a node down — the one place an object stops being a member.

        Whatever the door (leave, refused or timed-out join, crash,
        merge-heal loser): the handler goes, voiding in-flight deliveries,
        the local state goes, and every operation the id still owns is
        closed out, a pending join surfacing as ``timed_out``.  Idempotent.
        """
        self.network.unregister(object_id)
        if self.nodes.pop(object_id, None) is not None:
            self._member_order.discard(object_id)
        for kind, owner in self.pending_operations():
            if owner == object_id:
                self.finish_operation((kind, owner))
                if kind == "join":
                    self._join_outcomes.setdefault(object_id, "timed_out")

    def carve(self, object_id: int, position: Point,
              hint: Optional[int] = None) -> None:
        """Place a region in the live kernel and locate grid (both or neither)."""
        self.kernel.insert(position, vertex_id=object_id, hint=hint)
        self.locate.insert(object_id, position)

    def uncarve(self, object_id: int) -> None:
        """Withdraw a region from the live kernel and locate grid.

        The kernel removal is conditional: a joiner caught before its
        carve, or a leaver crashed mid-hand-over, backs no vertex.
        """
        if object_id in self.kernel:
            self.remove_vertex(self.kernel, object_id)
        self.locate.discard(object_id)

    def join(self, position: Point, introducer: Optional[int] = None) -> JoinReport:
        """Publish an object through the full distributed join protocol."""
        position = as_point(position)
        object_id = self._next_id
        self._next_id += 1
        self._attach_node(object_id, position)
        before = self.network.messages_sent

        if len(self.nodes) == 1:
            # First object: nothing to route, no neighbours to discover.
            self.carve(object_id, position)
            self.metrics.increment("joins")
            return JoinReport(object_id=object_id, routing_hops=0, messages=0,
                              virtual_time=self.engine.now)

        if introducer is None:
            # A uniform draw among the others: the joiner, attached a moment
            # ago, is the last key, so the draw never reaches it.
            introducer = self._member_order.kth(
                self.rng.integer(0, len(self.nodes) - 1))
        self._last_routing_hops = 0
        self._join_outcomes.pop(object_id, None)
        self.start_operation(("join", object_id),
                             retry=lambda: self._retry_join(object_id, position),
                             fail=lambda: self._fail_join(object_id))
        starter = self.nodes[introducer]
        self.send(starter, introducer, "ADD_OBJECT", (position, object_id, False, 0))
        self.engine.run()
        self.metrics.increment("joins")
        messages = self.network.messages_sent - before
        outcome = self._join_outcomes.pop(object_id, "completed")
        return JoinReport(object_id=object_id,
                          routing_hops=self._last_routing_hops,
                          messages=messages, virtual_time=self.engine.now,
                          outcome=outcome)

    def _retry_join(self, object_id: int, position: Point) -> bool:
        """Watchdog retry: re-route the ``ADD_OBJECT`` from a fresh starter.

        The carve is idempotent — ``complete_insertion`` detects an
        already-carved region and merely re-sends the version-stamped view
        snapshot — so re-walking the whole request is safe whether the
        original died before, during or after the kernel insertion.  The
        locate-grid hint lands the retry next to the region (or on the
        joiner itself once carved, degenerating to a free local hand-off).
        """
        if object_id not in self.nodes:
            return False  # the joiner itself crashed; nothing to finish
        return self._send_carve(object_id, position, bulk=False)

    def _send_carve(self, object_id: int, position: Point, bulk: bool) -> bool:
        """Send one ``ADD_OBJECT`` for ``object_id`` from the node its carve
        request enters at: the locate-grid hint next to ``position``, else
        the lowest live id.  ``False`` when no other node is left to route
        through."""
        introducer = self.locate.hint(position)
        if introducer is None or introducer not in self.nodes:
            live = sorted(oid for oid in self.nodes if oid != object_id)
            if not live:
                return False
            introducer = live[0]
        self.send(self.nodes[introducer], introducer, "ADD_OBJECT",
                  (position, object_id, bulk, 0))
        return True

    def _fail_join(self, object_id: int) -> None:
        """Retries exhausted: abort the join and surface ``timed_out``.

        A joiner whose region was never carved is torn back down (no
        zombie handler, no stray view); one that *was* carved stays — it
        is a live member whose bootstrap snapshot the repair protocol's
        view audit re-delivers.
        """
        self._join_outcomes[object_id] = "timed_out"
        if object_id in self.nodes and object_id not in self.kernel:
            self.detach_node(object_id)

    def _send_bulk_carve(self, object_id: int, position: Point) -> None:
        """Send (or re-send) one bulk carve request for ``object_id``.

        Used by both the phase-1 chunk pipeline and its audit rounds: the
        carve is idempotent (see :meth:`complete_insertion`), so a re-send
        for a request whose original survived merely re-delivers the
        version-stamped snapshot.  If every other node is dead the carve
        degenerates to the bootstrap direct insertion — there is nobody
        left to route through, but the joiner itself is still live.
        """
        if not self._send_carve(object_id, position, bulk=True):
            self.carve(object_id, position)
            self._bulk_owners[object_id] = object_id

    def _bulk_snapshot_sender(self, recipient: int) -> int:
        """Pick the live node that sends ``recipient`` its phase-2 snapshot.

        Prefers the owner that carved the recipient's region (matching the
        fault-free accounting exactly); falls back to the first live kernel
        neighbour when the owner has crashed, and to the recipient itself
        when it is isolated (a self-send still counts one message, keeping
        re-drive rounds honest).
        """
        owner = self._bulk_owners.get(recipient)
        if owner is not None and owner in self.nodes:
            return owner
        for neighbor_id in sorted(self.kernel.neighbors(recipient)):
            if neighbor_id != recipient and neighbor_id in self.nodes:
                return neighbor_id
        return recipient

    def bulk_join(self, positions: Sequence[Point]) -> BulkJoinReport:
        """Publish a batch of objects through the batched message pipeline.

        The message-level mirror of :meth:`VoroNet.bulk_load
        <repro.core.overlay.VoroNet.bulk_load>`: instead of running each
        join to quiescence, the batch moves through five pipelined phases,
        each drained once by the event engine:

        1. **carve** — the batch is Morton-sorted and,
           :data:`DEFAULT_BULK_CHUNK` sends at a time, routed as
           ``ADD_OBJECT`` messages from locate-grid hinted introducers
           (already adjacent to the new region, so the routing walk is
           O(1) expected hops); region owners carve the
           kernel but defer view snapshots to the next phase — a join run
           to quiescence resends a node's view on every insertion touching
           it, which a batch attach consolidates away;
        2. **views** — every batch object receives its final view in one
           version-stamped ``CREATE_OBJECT`` from the owner that carved its
           region, and every pre-existing object bordering the batch
           receives one consolidated ``REGION_UPDATE``;
        3. **handover** — pre-existing back-long-range registrations whose
           target a batch object now owns change holder
           (:meth:`ProtocolNode.hand_over`), the batched equivalent of the
           per-join steal in ``REGION_UPDATE``;
        4. **close** — every batch object discovers and declares its close
           neighbours (:meth:`ProtocolNode.discover_close`);
        5. **long_links** — Choose-LRT targets for the whole batch come
           from one vectorised draw, and each search is grid-seeded
           (:meth:`ProtocolNode.add_long_link`).

        The resulting per-node views are identical to the oracle's
        ``bulk_load`` on the same positions and seed (the integration suite
        asserts views, close sets and long links), and
        :meth:`verify_views` stays clean.  Ids are assigned in input order.

        Raises
        ------
        ValueError
            When protocol messages are still in flight (the engine must be
            quiescent so the phase barriers drain only this batch), on a
            position duplicating a published object or another batch entry
            (checked up front; nothing is mutated).
        """
        batch = [as_point(p) for p in positions]
        if not batch:
            return BulkJoinReport(object_ids=[], messages=0, phase_messages={},
                                  virtual_time=self.engine.now)
        if not self.engine.quiescent:
            raise ValueError("bulk_join requires a quiescent engine "
                             "(pending protocol messages in flight)")
        seen: set = set()
        for point in batch:
            existing = self.kernel.vertex_at(point)
            if existing is not None:
                raise ValueError(
                    f"position {point} duplicates published object {existing}")
            if point in seen:
                raise ValueError(f"position {point} appears twice in the batch")
            seen.add(point)

        had_existing = bool(self.nodes)
        ids = list(range(self._next_id, self._next_id + len(batch)))
        self._next_id = ids[-1] + 1
        before_all = self.network.messages_sent
        phase_messages: Dict[str, int] = {}

        # ---- phase 1: region carving (chunked ADD_OBJECT pipeline) ----
        with self.counted_phase(phase_messages, "carve"):
            order = morton_order(batch)
            self._bulk_owners = {}
            start = 0
            if not self.nodes:
                # Bootstrap exactly like the sequential first join: direct
                # insertion, no messages (its long links come from phase 5).
                first = order[0]
                self._attach_node(ids[first], batch[first])
                self.carve(ids[first], batch[first])
                self._bulk_owners[ids[first]] = ids[first]
                start = 1
            for chunk_start in range(start, len(order), DEFAULT_BULK_CHUNK):
                for index in order[chunk_start:chunk_start + DEFAULT_BULK_CHUNK]:
                    object_id, position = ids[index], batch[index]
                    self._attach_node(object_id, position)
                    self._send_bulk_carve(object_id, position)
                self.engine.run()
            # Carve audit: a victim crashing mid-chunk can swallow ADD_OBJECT
            # walks wholesale (a crashed carrier drops everything it holds), so
            # re-drive uncarved survivors for a bounded number of rounds.  In a
            # fault-free run every batch member carved on the first pass and
            # the audit costs nothing.
            for _ in range(OPERATION_RETRIES):
                stalled = [i for i, oid in enumerate(ids)
                           if oid in self.nodes and oid not in self.kernel]
                if not stalled:
                    break
                for i in stalled:
                    self._send_bulk_carve(ids[i], batch[i])
                self.engine.run()
            timed_out = [oid for oid in ids
                         if oid not in self.nodes or oid not in self.kernel]
            if timed_out:
                dead = set(timed_out)
                for object_id in timed_out:
                    # Crashed mid-batch (already torn down), or uncarvable
                    # within the budget: no zombie handler outlives the batch.
                    self.detach_node(object_id)
                survivors = [(oid, batch[i]) for i, oid in enumerate(ids)
                             if oid not in dead]
                ids = [oid for oid, _position in survivors]
                batch = [position for _oid, position in survivors]

        # ---- phase 2: consolidated view distribution --------------------
        # A sequential join resends a node's view on every insertion that
        # touches it; the batch attach sends each recipient its *final*
        # view exactly once.  New objects hear from the owner that carved
        # their region; pre-existing objects bordering the batch hear from
        # a live kernel neighbour.  The phase is driven as stale-view
        # rounds: everyone owed a snapshot is sent one, and recipients
        # whose ``view_version`` still lags (their snapshot — or its
        # sender — fed a crash) are re-sent in bounded re-drive rounds.
        # Version stamps make re-sends idempotent; a fault-free run takes
        # exactly one round with exactly the original message count.
        with self.counted_phase(phase_messages, "views"):
            new_ids = set(ids)
            recipients: Set[int] = set(ids)
            for object_id in ids:
                for neighbor_id in self.kernel.neighbors(object_id):
                    if neighbor_id not in new_ids and neighbor_id in self.nodes:
                        recipients.add(neighbor_id)
            for _ in range(1 + OPERATION_RETRIES):
                version = self.kernel.version
                stale = [
                    object_id for object_id in sorted(recipients)
                    if object_id in self.nodes
                    and self.nodes[object_id].view_version < version]
                if not stale:
                    break
                for object_id in stale:
                    if object_id not in self.nodes:
                        continue  # crashed while this round was being sent
                    sender = self.nodes[self._bulk_snapshot_sender(object_id)]
                    if object_id in new_ids:
                        self.send_snapshot(sender, object_id, "CREATE_OBJECT",
                                           version, (True,))
                    else:
                        self.send_snapshot(sender, object_id, "REGION_UPDATE",
                                           version, (None, None))
                self.engine.run()

        # ---- phase 3: back-registration hand-over ----------------------
        # Bulk-mode REGION_UPDATEs carry no ``new_id`` (pipelined steals
        # could race each other under interleaved insertions), so settle
        # every pre-existing registration once against the final
        # tessellation — the batched equivalent of the per-join steal.
        if had_existing:
            with self.counted_phase(phase_messages, "handover"):
                for holder_id, holder in list(self.nodes.items()):
                    if holder_id in new_ids or not holder.back_links:
                        continue
                    for (source, link_index), target in list(holder.back_links.items()):
                        if holder_id not in self.nodes:
                            break  # the holder crashed while handing over
                        owner = self.kernel.nearest_vertex(target, hint=holder_id)
                        if owner == holder_id or owner not in self.nodes:
                            continue
                        holder.hand_over((source, link_index), owner,
                                         self.nodes[owner].position,
                                         notify_source=source in self.nodes)

        # ---- phase 4: close neighbours ---------------------------------
        if self.config.maintain_close_neighbors:
            with self.counted_phase(phase_messages, "close"):
                for object_id in ids:
                    node = self.nodes.get(object_id)
                    if node is not None:  # else crashed while the phase was being sent
                        node.discover_close()

        # ---- phase 5: long links ---------------------------------------
        k = self.config.num_long_links
        if k > 0 and ids:
            with self.counted_phase(phase_messages, "long_links"):
                targets = choose_long_range_target_array(
                    np.asarray(batch, dtype=np.float64),
                    self.config.effective_d_min, k, self.rng)
                flat = targets.reshape(-1, 2)
                for i, object_id in enumerate(ids):
                    node = self.nodes.get(object_id)
                    if node is None:
                        continue  # crashed while the phase was being sent
                    for index in range(k):
                        target = (float(flat[i * k + index][0]),
                                  float(flat[i * k + index][1]))
                        node.add_long_link(target, seeded=True)
                self.engine.run()
                # Search audit: a crashed carrier or endpoint swallowed a walk;
                # re-drive the unresolved slots, grid-seeded, bounded like the
                # carve audit.  Free in fault-free runs (nothing is pending).
                for _ in range(OPERATION_RETRIES):
                    unresolved = [
                        object_id for object_id in ids
                        if object_id in self.nodes
                        and self.nodes[object_id].pending_link_indices]
                    if not unresolved:
                        break
                    for object_id in unresolved:
                        node = self.nodes.get(object_id)
                        if node is not None:
                            node._retry_long_links()
                    self.engine.run()

        self.metrics.increment("joins", len(ids))
        messages = self.network.messages_sent - before_all
        return BulkJoinReport(object_ids=ids, messages=messages,
                              phase_messages=phase_messages,
                              virtual_time=self.engine.now,
                              timed_out=tuple(sorted(timed_out)))

    def complete_insertion(self, owner: ProtocolNode, new_id: int,
                           position: Point, routing_hops: int,
                           bulk: bool = False) -> None:
        """Region owner's ``AddVoronoiRegion``: carve the region, notify views.

        Idempotent under retries: a request whose region was already carved
        (a retried ``ADD_OBJECT`` whose original completed after all, or
        whose ``CREATE_OBJECT`` answer was lost) only re-sends the
        version-stamped view snapshot, and a request for a joiner that has
        since crashed is abandoned — the kernel must never hold a vertex no
        live node backs.
        """
        self._last_routing_hops = routing_hops
        if new_id not in self.nodes:
            # The joiner crashed while its ADD_OBJECT was still walking.
            self._join_outcomes[new_id] = "timed_out"
            self.finish_operation(("join", new_id))
            self.metrics.increment("joins_abandoned")
            return
        if self.kernel.vertex_at(position) == new_id:
            # Duplicate retry: the region exists; re-deliver the snapshot
            # (heals a lost CREATE_OBJECT without touching the kernel).
            self.metrics.increment("duplicate_carves")
            self.send_snapshot(owner, new_id, "CREATE_OBJECT",
                               self.kernel.version, (bulk,))
            return
        try:
            self.carve(new_id, position, hint=owner.object_id)
        except DuplicatePointError:
            # Duplicate coordinates: refuse the join, tear the joiner down.
            self._join_outcomes[new_id] = "rejected"
            self.detach_node(new_id)
            return
        if bulk:
            # Bulk joins distribute consolidated final views, settle back
            # registrations and establish long links in their own phases;
            # the carve phase only places the region and remembers who
            # carved it (the sender of the eventual CREATE_OBJECT).
            self._bulk_owners[new_id] = owner.object_id
            return
        affected = set(self.kernel.neighbors(new_id))
        if len(self.kernel) <= 8 or not self.kernel.has_triangulation:
            # Bootstrapping a (near-)degenerate tessellation can change
            # adjacency beyond the immediate neighbourhood; refresh every
            # vertex the kernel holds.
            affected = set(self.kernel.vertex_ids()) - {new_id}
        version = self.kernel.version
        self.send_snapshot(owner, new_id, "CREATE_OBJECT", version, (False,))
        steal = (new_id, position)
        for neighbor_id in sorted(affected):
            if neighbor_id == new_id or neighbor_id not in self.nodes:
                continue
            self.send_snapshot(owner, neighbor_id, "REGION_UPDATE", version,
                               steal)

    def remove_vertex(self, kernel: DelaunayTriangulation,
                      object_id: int) -> None:
        """Drop a vertex from ``kernel`` (the shared one or a split fork).

        The one place departures reach a kernel — :meth:`uncarve` for the
        live one, the split fork for its copies — so the one place a hull
        departure's rebuild is counted (``kernel_rebuilds``).
        """
        rebuilds = kernel.rebuild_count
        kernel.remove(object_id)
        if kernel.rebuild_count != rebuilds:
            self.metrics.increment("kernel_rebuilds")

    def leave(self, object_id: int) -> LeaveReport:
        """Withdraw an object through the distributed departure protocol."""
        if object_id not in self.nodes:
            raise KeyError(f"unknown object {object_id}")
        node = self.nodes[object_id]
        before = self.network.messages_sent
        former_neighbors = [nid for nid in self.kernel.neighbors(object_id)
                            if nid in self.nodes and nid != object_id]
        self.uncarve(object_id)
        version = self.kernel.version
        affected = set(former_neighbors)
        if len(self.kernel) <= 8 or not self.kernel.has_triangulation:
            affected = set(self.kernel.vertex_ids())
        # 1. Region updates to the neighbours inheriting the region.
        for neighbor_id in sorted(affected):
            if neighbor_id in self.nodes:
                self.send_snapshot(node, neighbor_id, "REGION_UPDATE", version,
                                   (None, None))
        # 2. Close-neighbour notifications.
        for close_id in list(node.close):
            if close_id in self.nodes:
                self.send(node, close_id, "CLOSE_LEAVE", ())
        # 3. Delegate hosted long links to the neighbour owning their target.
        for (source, link_index), target in list(node.back_links.items()):
            if source not in self.nodes or source == object_id:
                continue
            candidates = [nid for nid in former_neighbors if nid in self.nodes]
            if not candidates:
                candidates = [nid for nid in self.nodes if nid != object_id]
            if not candidates:
                continue
            new_holder = min(candidates,
                             key=lambda nid: distance(self.nodes[nid].position, target))
            node.hand_over((source, link_index), new_holder,
                           self.nodes[new_holder].position)
        # 4. Deregister our own long links at their endpoints.
        for index, (_target, neighbor, _position) in enumerate(node.long_links):
            if neighbor in self.nodes and neighbor != object_id:
                self.send(node, neighbor, "BACKLINK_REMOVE", (object_id, index))
        self.engine.run()
        # A leaver that crashed while its own hand-over was draining was
        # already torn down by the injector: to the survivors this became
        # an abrupt crash, so report the graceful leave as timed out.
        outcome = "completed" if object_id in self.nodes else "timed_out"
        self.detach_node(object_id)
        self.metrics.increment("leaves")
        messages = self.network.messages_sent - before
        return LeaveReport(object_id=object_id, messages=messages,
                           virtual_time=self.engine.now, outcome=outcome)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, target: Point, start: Optional[int] = None) -> QueryReport:
        """Distributed point query: :meth:`start_query`, one drain, and the
        answer popped from :attr:`query_answers` — greedy routing plus one
        answer message.  A query whose answer never arrived reports
        ``owner=None`` and no hops."""
        before = self.network.messages_sent
        query_id = self._query_seq
        self._query_seq += 1
        self.start_query(target, start, query_id=query_id)
        self.engine.run()
        answer = self.query_answers.pop(query_id, {"owner": None, "hops": 0})
        return QueryReport(target=(float(target[0]), float(target[1])),
                           owner=answer["owner"], routing_hops=answer["hops"],
                           messages=self.network.messages_sent - before)

    def start_query(self, target: Point, start: Optional[int] = None, *,
                    query_id: int, record_path: bool = False) -> int:
        """Inject one identified query without draining the engine.

        The serving-layer primitive behind genuinely contending traffic,
        and the first step of :meth:`query` (inject, drain, pop the answer
        — one query at a time).  Alone it only *launches* the query: the
        caller runs the engine, typically with many queries in flight at
        once, and collects answers — ``owner``, ``hops`` and the virtual
        ``completed_at`` — from :attr:`query_answers` or reactively
        through the :attr:`on_query_answer` hook.  ``record_path`` makes
        the query carry the ids of the nodes it visits, which the hook
        receives for per-node load accounting; no answer retains them.
        Returns the id of the node the query entered the overlay at.
        """
        if not self.nodes:
            raise RuntimeError("the overlay holds no objects")
        target = (float(target[0]), float(target[1]))
        if start is None:
            start = self._member_order.kth(self.rng.integer(0, len(self.nodes)))
        self.send(self.nodes[start], start, "QUERY",
                  (target, start, query_id, () if record_path else None, 0))
        self.metrics.increment("queries")
        return start

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify_views(self) -> List[str]:
        """Compare every local view against the shared kernel; list problems.

        Membership first, as in ``VoroNet.check_consistency``: kernel, locate
        grid and handlers ≡ :attr:`nodes`; no operation owned by a non-member.
        Then :meth:`view_findings` in words: vn ≡ the kernel's stars, and the
        oracle checker's families under its own definition (close symmetry,
        long links at their target's owner, links ⇄ back registrations).
        Last, as there, the cache contracts: the probe plans
        (:meth:`probe_plan_report`) and the kernel's cached stars
        (:meth:`~repro.geometry.delaunay.DelaunayTriangulation.star_cache_report`).
        """
        problems = self._membership_report()
        problems.extend(str(finding) for finding in self.view_findings(self.nodes))
        problems.extend(self.probe_plan_report())
        problems.extend(self.kernel.star_cache_report())
        return problems

    def view_findings(self, members: Mapping[int, "ProtocolNode"],
                      settled: Container[int] = ()) -> Iterator[Finding]:
        """:func:`~repro.core.maintenance.view_report` over ``members``
        against the kernel installed now: what :meth:`verify_views` prints
        and what ``RepairProtocol`` settles."""
        kernel = self.kernel
        return view_report(
            members, attrgetter("position", "close", "long_links", "back_links"),
            lambda target, hint: kernel.nearest_vertex(target, hint=hint),
            self.config.effective_d_min,
            lambda object_id, node: ((node.voronoi, kernel.neighbors(object_id))
                                     if object_id in kernel else None),
            settled)

    def probe_plan_report(self) -> List[str]:
        """Every cached probe plan that is not a valid one (deriving none anew).

        A plan stamped with its node's current view epoch is what the next
        heartbeat round probes from, so it must equal the fresh derivation
        (``sorted(monitored_peers())`` and its part outside vn ∪ cn).  SIM001
        holds every view edit to the ``touch_view()`` contract statically;
        this sees, at run time, a plan an edit slipped past.
        """
        problems: List[str] = []
        for object_id, node in self.nodes.items():
            if node._plan_epoch != node.view_epoch:
                continue  # no plan yet, or one the next round re-derives
            fresh = node.derive_probe_plan()
            if node._plan != fresh:
                problems.append(
                    f"{object_id}: cached probe plan is stale: probes "
                    f"{list(node._plan[0])} (sampled {list(node._plan[1])}), "
                    f"the view says {list(fresh[0])} (sampled {list(fresh[1])})")
        return problems

    def _membership_report(self) -> List[str]:
        nodes = self.nodes
        problems = membership_report(nodes, self.locate, (
            ("kernel", self.kernel),
            ("handler table", self.network.registered_ids())))
        problems.extend(f"{owner}: pending {kind} operation of a non-member"
                        for kind, owner in self.pending_operations()
                        if owner not in nodes)
        return problems

    def mean_view_size(self) -> float:
        """Average number of view entries per object."""
        if not self.nodes:
            return 0.0
        return sum(node.view_size() for node in self.nodes.values()) / len(self.nodes)
