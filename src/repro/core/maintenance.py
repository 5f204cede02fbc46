"""Overlay maintenance: the local work around ``AddVoronoiRegion`` and
``RemoveVoronoiRegion``.

These functions implement Section 4.2's local procedures in the library's
oracle execution mode: the shared Delaunay kernel plays the role of each
object's topologically consistent local Voronoi computation (Sugihara–Iri
in the paper), while this module performs the *protocol-visible* state
changes — close-neighbour discovery, back-long-range hand-over, long-link
re-delegation — and accounts for the messages the distributed version
would exchange, so maintenance-cost experiments (ABL3) can report them.

Message accounting follows the paper:

* one message per Voronoi neighbour informed of its new region boundaries,
* one message per close neighbour declared / notified of a departure,
* one message per long link re-delegated (plus one to its source),
* the routing phase of a join is counted separately by the overlay.
"""

from __future__ import annotations

from array import array
from enum import Enum
from itertools import repeat
from operator import attrgetter
from typing import (Any, Callable, Container, Iterable, Iterator, List, Mapping,
                    NamedTuple, Optional, Sized, TYPE_CHECKING, Tuple)

import numpy as np

from repro.core.neighbors import compute_close_neighbors, register_close_neighbors
from repro.geometry.point import Point, distance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.overlay import VoroNet
    from repro.geometry.locate_grid import LocateGrid

__all__ = ["integrate_new_object", "bulk_integrate_objects", "detach_object",
           "MemberOrder"]


def integrate_new_object(overlay: "VoroNet", object_id: int) -> int:
    """Complete the insertion of ``object_id`` after its region was carved.

    Performs the non-routing part of ``AddVoronoiRegion`` executed by the
    region owner in the paper:

    1. every new Voronoi neighbour is informed of its updated region
       boundaries (the kernel already updated the tessellation);
    2. the close-neighbour set ``cn(object_id)`` is discovered through the
       Voronoi neighbours (Lemma 1) and registered symmetrically;
    3. back-long-range registrations whose target point now falls closer to
       the new object than to their previous holder are handed over, and the
       corresponding long links re-pointed at the new object.

    Returns the number of messages the distributed protocol would exchange.
    """
    node = overlay.node(object_id)
    voronoi_neighbors = overlay.voronoi_neighbors(object_id)
    messages = len(voronoi_neighbors)  # region-update notifications
    # Ids whose forwarding candidates this attach changes: the new object
    # itself plus every long-link source re-pointed at it.  Close
    # registrations name both ends of each new pair themselves, inside
    # register_close_neighbors; back-registration moves alone change no
    # routing candidates (BLRn is not routed on).
    affected: List[int] = [object_id]

    # Close neighbours (skipped entirely under the ABL1 ablation).
    if overlay.config.maintain_close_neighbors:
        close = compute_close_neighbors(overlay, object_id)
        messages += register_close_neighbors(overlay, object_id, close)

    # Back-long-range hand-over: only the new Voronoi neighbours can lose
    # ownership of a long-link target to the new object, because the new
    # region is carved exclusively out of theirs.
    position = node.position
    for neighbor_id in voronoi_neighbors:
        neighbor = overlay.node(neighbor_id)
        if not neighbor.back_links:
            continue
        stolen = [(source, link_index, target)
                  for (source, link_index), target in neighbor.back_links.items()
                  if distance(position, target) < distance(neighbor.position, target)]
        for source, link_index, target in stolen:
            neighbor.remove_back_link(source, link_index)
            node.add_back_link(source, link_index, target)
            overlay.node(source).retarget_long_link(link_index, object_id, position)
            affected.append(source)
            messages += 2  # hand-over to the new holder + notify the source
    overlay.invalidate_routing_tables(affected)
    return messages


def bulk_integrate_objects(overlay: "VoroNet", object_ids: List[int]) -> int:
    """Attach a bulk-loaded batch: close neighbours and back-link hand-over.

    The batch is already in the Delaunay kernel and the locate index when
    this runs, so instead of per-object neighbourhood exploration:

    * close neighbours come from one batched exact grid radius query
      (:meth:`LocateGrid.within_many`; re-registering an existing pair is
      a set no-op), which produces exactly the ``cn`` sets Lemma 1's routed
      discovery would;
    * back-long-range registrations held by *pre-existing* objects are
      re-checked against the updated tessellation and handed to the new
      owner of their target point where ownership changed — the batched
      equivalent of the per-join hand-over in :func:`integrate_new_object`.

    Returns the number of messages the distributed protocol would exchange
    for the close declarations and hand-overs.
    """
    messages = 0
    new_ids = set(object_ids)
    if overlay.config.maintain_close_neighbors:
        locate = overlay.locate_index
        positions = locate.coordinates(np.asarray(object_ids, dtype=np.int64))
        pairs_within_batch = 0
        for index, found in locate.within_many(positions, overlay.config.effective_d_min):
            object_id = object_ids[index]
            node = overlay.node(object_id)
            declared = set(found)
            declared.discard(object_id)
            declared -= node.close_neighbors
            node.add_close_neighbors(declared)
            # Two batch members find each other, each in its own query
            # (hypot is symmetric); only a pre-existing object has to be
            # told.  One declaration per new pair either way.
            pre_existing = declared - new_ids
            for candidate in sorted(pre_existing):
                overlay.node(candidate).add_close_neighbor(object_id)
            messages += len(pre_existing)
            pairs_within_batch += len(declared) - len(pre_existing)
        messages += pairs_within_batch // 2
    for object_id in overlay.object_ids():
        if object_id in new_ids:
            continue
        holder = overlay.node(object_id)
        if not holder.back_links:
            continue
        for (source, link_index), target in list(holder.back_links.items()):
            owner = overlay.owner_of(target, hint=object_id)
            if owner == object_id:
                continue
            holder.remove_back_link(source, link_index)
            overlay.node(owner).add_back_link(source, link_index, target)
            overlay.node(source).retarget_long_link(link_index, owner, overlay.position_of(owner))
            messages += 2  # hand-over to the new holder + notify the source
    # A batch attach touches close sets and link sources across the whole
    # overlay; the caller (bulk_load) already operates at overlay-wide
    # invalidation scope, so stay with the bare form here.
    overlay.invalidate_routing_tables()
    return messages


def detach_object(overlay: "VoroNet", object_id: int) -> int:
    """Perform the protocol-visible work of ``RemoveVoronoiRegion``.

    Must be called *before* the object is removed from the tessellation so
    its Voronoi neighbours are still known.  The steps mirror Section 3.3 /
    4.2.2:

    1. Voronoi neighbours are informed of the new boundaries between them;
    2. close neighbours are told about the departure (and drop the entry);
    3. every long link registered at the departing object (its ``BLRn``) is
       delegated to the Voronoi neighbour now closest to the link's target
       point, and the link's source is re-pointed there (reachable thanks to
       the back link);
    4. the departing object's own long links are deregistered at their
       endpoints.

    Returns the number of messages the distributed protocol would exchange.
    """
    node = overlay.node(object_id)
    voronoi_neighbors = overlay.voronoi_neighbors(object_id)
    messages = len(voronoi_neighbors)  # boundary updates
    # Ids whose forwarding candidates this detach changes: the departing
    # object, every close neighbour that drops it, and every long-link
    # source re-pointed at a delegate.  (Back-registration moves and
    # deregistrations alone change no routing candidates.)  The caller
    # names the ex-Voronoi-neighbours after the kernel removal.
    affected: List[int] = [object_id]

    # Close-neighbour notifications.
    for close_id in list(node.close_neighbors):
        if close_id in overlay:
            overlay.node(close_id).discard_close_neighbor(object_id)
            affected.append(close_id)
            messages += 1
    node.clear_close_neighbors()

    # Delegate hosted long links to the neighbour now owning their target.
    if node.back_links:
        candidates = [nid for nid in voronoi_neighbors if nid in overlay]
        for (source_id, link_index), target in node.back_links.items():
            if source_id not in overlay or source_id == object_id:
                continue
            if candidates:
                new_holder_id = min(
                    candidates,
                    key=lambda nid: distance(overlay.position_of(nid), target),
                )
            elif len(overlay) > 1:
                new_holder_id = min(
                    (oid for oid in overlay.object_ids() if oid != object_id),
                    key=lambda oid: distance(overlay.position_of(oid), target),
                )
            else:
                continue
            overlay.node(new_holder_id).add_back_link(source_id, link_index, target)
            overlay.node(source_id).retarget_long_link(link_index, new_holder_id,
                                                       overlay.position_of(new_holder_id))
            affected.append(source_id)
            messages += 2  # delegate to the neighbour + notify the source
    node.back_links.clear()

    # Deregister our own long links at their endpoints.
    for index, (_target, endpoint, _position) in enumerate(node.long_links):
        if endpoint in overlay and endpoint != object_id:
            overlay.node(endpoint).remove_back_link(object_id, index)
            messages += 1
    overlay.invalidate_routing_tables(affected)
    return messages


def view_consistency_report(overlay: "VoroNet") -> List[str]:
    """:func:`view_report` over the oracle overlay's nodes, in words."""
    return [str(finding) for finding in view_report(
        {node.object_id: node for node in overlay.nodes()},
        attrgetter("position", "close_neighbors", "long_links", "back_links"),
        overlay.owner_of, overlay.config.effective_d_min)]


class Family(Enum):
    """One family of view defect; its value is the words a checker prints."""

    STALE_CLOSE = "{object_id}: stale close neighbour {peer}"
    ONE_SIDED_CLOSE = "close-neighbour relation {object_id} → {peer} not symmetric"
    FAR_CLOSE = "{object_id}: close neighbour {peer} farther than d_min"
    DEPARTED_LINK = "{object_id}: long link {index} points at departed {peer}"
    MISOWNED_LINK = "{object_id}: long link {index} points at {peer} but {detail} owns its target"
    UNREGISTERED_LINK = "{object_id}: long link {index} missing back registration at {peer}"
    DEPARTED_BACK = "{object_id}: back link from departed {peer}"
    ORPHAN_BACK = ("{object_id}: back link from {peer}#{index} "
                   "does not match the source's long link")
    STALE_VN = "{object_id}: local vn view {detail[0]} != kernel {detail[1]}"


class Finding(NamedTuple):
    """One view defect: ``object_id`` holds the entry, ``peer`` is its other
    end and ``index`` its long link; ``detail`` is the owner of a mis-owned
    link's target, or a stale vn's sorted ``(local view, kernel star)``."""

    family: Family
    object_id: int
    peer: int = -1
    index: int = -1
    detail: Any = None

    def __str__(self) -> str:
        return self.family.value.format(**self._asdict())


def view_report(members: Mapping[int, Any], view_of: Callable[[Any], Tuple],
                owner_of: Callable[[Point, int], int], d_min: float,
                vn_of: Optional[Callable[[int, Any], Optional[Tuple]]] = None,
                settled: Container[int] = ()) -> Iterator[Finding]:
    """Walk the cross-object view invariants; yields one finding per defect.

    One definition for both planes' checkers (``VoroNet.check_consistency``
    and ``ProtocolSimulator.verify_views`` print the findings) and for the
    protocol plane's repair (``RepairProtocol`` settles them).  ``members``
    maps every member id to its node, in the order walked; a peer missing
    from it has departed.  ``view_of(node)`` gives ``(position, close ids,
    long links, back registrations)``, built as read so a check of 10⁴
    members holds none for the collector to promote (each link is a
    :data:`~repro.core.node.LinkRecord`); ``owner_of(point, hint)`` names a
    point's owner.  Member by member:

    * vn (protocol plane): ``vn_of(object_id, node)`` is the local view and
      the kernel's star, or ``None`` without a star; both name the same ids;
    * close entries: the peer is a member, holds this one, within ``d_min``;
    * long links: the endpoint is a member, owns the link's target point
      and holds the link's back registration;
    * back registrations: the source's long link at that index points here.

    A member in ``settled`` is not asked the two kernel consultations (vn,
    link owners): its caller knows their verdict still holds.
    """
    for object_id, member in members.items():
        position, close, long_links, back_links = view_of(member)
        kernel_checked = object_id not in settled
        if vn_of is not None and kernel_checked:
            views = vn_of(object_id, member)
            if views is not None:
                local, star = set(views[0]), set(views[1])
                if local != star:
                    yield Finding(Family.STALE_VN, object_id,
                                  detail=(sorted(local), sorted(star)))
        for close_id in close:
            peer = members.get(close_id)
            if peer is None:
                yield Finding(Family.STALE_CLOSE, object_id, close_id)
                continue
            peer_position, peer_close, _links, _back = view_of(peer)
            if object_id not in peer_close:
                yield Finding(Family.ONE_SIDED_CLOSE, object_id, close_id)
            if distance(position, peer_position) > d_min * (1 + 1e-9):
                yield Finding(Family.FAR_CLOSE, object_id, close_id)
        for index, (target, neighbor, _position) in enumerate(long_links):
            endpoint = members.get(neighbor)
            if endpoint is None:
                yield Finding(Family.DEPARTED_LINK, object_id, neighbor, index)
                continue
            if kernel_checked:
                owner = owner_of(target, neighbor)
                if owner != neighbor:
                    yield Finding(Family.MISOWNED_LINK, object_id, neighbor,
                                  index, owner)
            if neighbor != object_id and (object_id, index) not in view_of(endpoint)[3]:
                yield Finding(Family.UNREGISTERED_LINK, object_id, neighbor, index)
        for source, link_index in back_links:
            holder = members.get(source)
            if holder is None:
                yield Finding(Family.DEPARTED_BACK, object_id, source)
                continue
            holder_links = view_of(holder)[2]
            if link_index < len(holder_links):
                _target, holder_neighbor, _position = holder_links[link_index]
                if holder_neighbor == object_id:
                    continue
            yield Finding(Family.ORPHAN_BACK, object_id, source, link_index)


class MemberOrder:
    """The members in node-table order, for the k-th one in O(log N).

    Both planes draw a join's introducer as the k-th key of their node
    table (``VoroNet._sample_object_id``, ``ProtocolSimulator.join``).  A
    node table is a dict, so it iterates in insertion order: a departure
    leaves a hole, an insertion goes last.  Both planes issue ids in
    increasing order and never reuse one, so that order is id order.
    Each insertion takes the next *slot*, and a Fenwick tree over the
    slots' live flags finds the slot of the k-th live member in O(log N),
    where walking the dict took O(k).  Once most slots are holes, the live
    ones are numbered afresh, in order.

    Ids are row numbers, as in the locate grid's coordinate column, so the
    id → slot map is an ``array('q')`` indexed by id, ``-1`` for an id that
    is not a member: 8 bytes per id ever seen instead of a dict entry and
    an int per member.
    """

    __slots__ = ("_ids", "_slots", "_tree", "_live")

    def __init__(self) -> None:
        #: Slot → member id, or ``None`` once the member left.
        self._ids: List[Optional[int]] = []
        #: Member id → slot, ``-1`` for a non-member.
        self._slots = array("q")
        #: 1-based Fenwick tree over the slots' live flags.
        self._tree: List[int] = [0]
        #: Number of live slots.
        self._live = 0

    def reset(self, object_ids: Iterable[int]) -> None:
        """Number ``object_ids`` afresh, in order: every slot is live."""
        slots = self._slots
        for object_id in self._ids:
            if object_id is not None:
                slots[object_id] = -1
        self._ids = list(object_ids)
        self._live = len(self._ids)
        if self._ids:
            self._reserve(max(self._ids))
        for slot, object_id in enumerate(self._ids):
            slots[object_id] = slot
        # A tree of live flags only: node i covers the lowbit(i) slots up to i.
        self._tree = [i & -i for i in range(len(self._ids) + 1)]

    def append(self, object_id: int) -> None:
        """Give a new member the next slot."""
        tree = self._tree
        node = len(tree)
        self._reserve(object_id)
        self._slots[object_id] = len(self._ids)
        self._ids.append(object_id)
        self._live += 1
        # Node ``node`` covers (node - lowbit(node), node]: the live slots
        # before this one there are a difference of two prefix counts.
        tree.append(1 + self._prefix(node - 1) - self._prefix(node - (node & -node)))

    def discard(self, object_id: int) -> None:
        """Vacate a departed member's slot."""
        slot = self._slots[object_id] if object_id < len(self._slots) else -1
        if slot < 0:
            raise KeyError(object_id)
        self._slots[object_id] = -1
        self._ids[slot] = None
        self._live -= 1
        tree = self._tree
        node = slot + 1
        while node < len(tree):
            tree[node] -= 1
            node += node & -node
        if 2 * self._live < len(self._ids):
            self.reset([member for member in self._ids if member is not None])

    def _reserve(self, object_id: int) -> None:
        """Grow the id → slot map to hold ``object_id``."""
        missing = object_id + 1 - len(self._slots)
        if missing > 0:
            self._slots.extend(repeat(-1, missing))

    def kth(self, k: int) -> int:
        """The member ``k`` places into the node table's order (0-based)."""
        tree = self._tree
        size = len(tree)
        node = 0
        step = 1 << size.bit_length()
        while step:
            ahead = node + step
            if ahead < size and tree[ahead] <= k:
                node = ahead
                k -= tree[ahead]
            step >>= 1
        return self._ids[node]

    def _prefix(self, node: int) -> int:
        """Live members in the first ``node`` slots."""
        tree = self._tree
        count = 0
        while node:
            count += tree[node]
            node &= node - 1
        return count


def membership_report(nodes: Mapping[int, object], locate: "LocateGrid",
                      records: Iterable[Tuple[str, Sized]]) -> List[str]:
    """Problems for each per-member record that disagrees with ``nodes``.

    ``nodes`` maps member id → node (anything with a ``position``).  The
    locate grid and every named id record (``len`` + ``in``) must hold
    exactly the members' ids, and the grid's coordinate column exactly
    their positions.
    """
    problems: List[str] = []
    for name, record in (("locate grid", locate), *records):
        # Same size and every member present: the id sets are equal.
        if len(record) != len(nodes):
            problems.append(
                f"{name} holds {len(record)} objects, not the {len(nodes)} members")
        problems.extend(f"{object_id}: missing from the {name}"
                        for object_id in nodes if object_id not in record)
    problems.extend(locate.column_problems(
        {object_id: node.position for object_id, node in nodes.items()}))
    return problems
