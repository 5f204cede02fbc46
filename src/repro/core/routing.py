"""Greedy routing over the VoroNet neighbour views.

Routing (Section 3.2 and 4.2.3) is deliberately simple: the object holding
a message for target point ``P`` forwards it to whichever of its neighbours
— Voronoi, close, or long-range — is closest to ``P`` in Euclidean
distance, stopping when no neighbour is closer than the current object.
Because the Voronoi neighbours alone already guarantee that greedy descent
reaches the object whose region contains ``P``, the algorithm always
terminates at the correct owner; the long links are pure acceleration and
give the ``O(log² N_max)`` expected hop count of Lemma 5.  Every router here
forwards over that one view, ``vn ∪ cn ∪ LRn``: routing over the bare
tessellation is routing on an overlay built with ``num_long_links=0``
(the Delaunay-only baseline of :mod:`repro.baselines`), not a mode.

**The rule** is :func:`repro.geometry.predicates.greedy_hop`: a hop goes to
the candidate with the smallest float squared distance ``dx*dx + dy*dy``,
the first of equal minima in the table's ascending id order, while that
minimum is clearly below the holder's distance; a minimum within the
float error bound of the holder's is a near-tie, settled exactly.  Each
descent scans inline and takes a clear hop there; a stop or a near-tie
goes to :func:`~repro.geometry.predicates.settle`.  Every hop is exactly
closer, so a route ends at an owner of the target's region — the kernel's
``nearest_vertex`` and a protocol node's ``greedy_next_hop`` decide by the
same rule.

One router, in two traffic shapes:

* :func:`greedy_route` runs one route to its owner — the measure of the
  paper's evaluation (Figures 6–8), and the route insertion and long-link
  search take;
* :func:`greedy_route_many` is :func:`greedy_route` for a batch — what the
  paper's sweeps, the serving layer and ``VoroNet.route_many`` route.  From
  ``VECTOR_SCAN_THRESHOLD`` pairs up the batch is one *frontier*: per step,
  every route still moving takes one hop, its candidates gathered by id
  from the routing cache's arena (:mod:`repro.core.shards`) and their
  positions from the locate grid's coordinate column, so a hop costs a
  share of a dozen numpy calls instead of a Python loop over a block.  Its
  *tail* is :func:`greedy_route`'s own loop (``_descend``), entered from
  where a route stands: by every route still moving once fewer than the
  threshold are, at once by a route that steps onto an object whose table
  is held as arrays (a scalar hop there is one argmin already), and by a
  route whose hop is a near-tie.  The frontier's minimum is the scalar
  scan's, so owners, hops, paths, distances and the tables built on the
  way are those of the loop, bit for bit (``TESTING.md``, "A batch answers
  what the loop answers").
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.errors import EmptyOverlayError, ObjectNotFoundError, RoutingError
from repro.core.shards import NO_ROW, segment_indices
from repro.geometry.locate_grid import CHUNK_ELEMENTS, VECTOR_SCAN_THRESHOLD
from repro.geometry.point import Point, distance, distance_sq
from repro.geometry.predicates import DISTANCE_FLOOR, FARTHER, NEARER, settle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.overlay import VoroNet

__all__ = ["RouteResult", "greedy_route", "greedy_route_many", "missed_route",
           "route_to_object"]


@dataclass
class RouteResult:
    """Outcome of one routed message.

    Attributes
    ----------
    source:
        Object the route started from.
    target:
        The target point of the message.
    owner:
        Object at which routing terminated (the owner of the Voronoi region
        containing ``target`` when routing to a point; the destination
        object itself when routing to an object).
    hops:
        Number of forwarding steps taken (0 when source already terminal).
    success:
        Whether ``owner``'s Voronoi region contains ``target``.  Every
        descent ends at such an owner, so only a :func:`missed_route` — a
        query whose endpoint departed — reports ``False``.
    path:
        The sequence of object ids visited, including source and owner —
        only recorded when the overlay is configured with ``track_paths``.
    final_distance:
        Euclidean distance between ``owner`` and ``target``.
    """

    source: int
    target: Point
    owner: int
    hops: int
    success: bool = True
    path: Optional[List[int]] = None
    final_distance: float = 0.0

    @property
    def messages(self) -> int:
        """Number of point-to-point messages the route costs (one per hop)."""
        return self.hops


#: Owner id reported by a :func:`missed_route` result — no object ever
#: holds a negative id, so a miss can never be mistaken for a real owner.
MISS_OWNER = -1


def missed_route(source: int, target) -> RouteResult:
    """The defined outcome of a query whose endpoint has departed.

    Sustained traffic over a churning overlay races query batches against
    remove/insert updates: a schedule sampled up front may reference an
    object that is gone by the time its query is served.  Production
    serving must answer such a query with a *miss*, not tear down the whole
    batch, so :meth:`VoroNet.route_many(missing="miss")
    <repro.core.overlay.VoroNet.route_many>` maps departed endpoints onto
    this sentinel result: ``success=False``, ``owner=MISS_OWNER``, zero
    hops and infinite final distance.  A point target is echoed back; a
    departed object id has no known coordinates, reported as NaNs.
    """
    if isinstance(target, numbers.Integral):
        point: Point = (float("nan"), float("nan"))
    else:
        point = (float(target[0]), float(target[1]))
    return RouteResult(source=int(source), target=point, owner=MISS_OWNER,
                       hops=0, success=False, path=None,
                       final_distance=float("inf"))


def greedy_route(overlay: "VoroNet", source: int, target: Point, *,
                 max_hops: Optional[int] = None) -> RouteResult:
    """Route greedily from ``source`` towards ``target`` until a local minimum.

    The local minimum of the greedy potential is, by the Delaunay property,
    the object whose Voronoi region contains ``target``.

    Parameters
    ----------
    overlay:
        The overlay to route on.
    source:
        Starting object id.
    target:
        Target point (any finite point of the plane; objects' positions
        included).  A non-finite one raises :class:`ValueError`.
    max_hops:
        Safety cap; defaults to the overlay size plus a margin.  Exceeding
        it raises :class:`RoutingError` since greedy progress is strictly
        monotone and can never revisit an object.
    """
    if len(overlay) == 0:
        raise EmptyOverlayError("cannot route on an empty overlay")
    if source not in overlay:
        raise ObjectNotFoundError(source)
    if max_hops is not None and max_hops <= 0:
        raise ValueError(f"max_hops must be positive, got {max_hops}")
    target = (float(target[0]), float(target[1]))
    if not (math.isfinite(target[0]) and math.isfinite(target[1])):
        # No comparison with a NaN or infinite distance is true: the
        # descent would stop at ``source`` and call it the owner.
        raise ValueError(f"cannot route to a non-finite target {target}")
    limit = max_hops if max_hops is not None else len(overlay) + 16
    path = [source] if overlay.config.track_paths else None
    owner, hops = _descend(overlay, source, target, source,
                           distance_sq(overlay.position_of(source), target), 0, path, limit)
    return RouteResult(
        source=source,
        target=target,
        owner=owner,
        hops=hops,
        success=True,
        path=path,
        final_distance=distance(overlay.position_of(owner), target),
    )


def _descend(overlay: "VoroNet", source: int, target: Point,
             current: int, current_d: float, hops: int,
             path: Optional[List[int]], limit: int) -> Tuple[int, int]:
    """Forward a route from where it stands to its local minimum.

    The scalar forwarding loop, entered by :func:`greedy_route` at the
    source and by :func:`greedy_route_many` wherever a route left the
    frontier: ``current`` is ``current_d`` (squared) from ``target`` after
    ``hops`` hops, ``path`` (when recorded) ends with it.  Returns
    ``(owner, hops)``; ``path`` is extended in place.
    """
    # Hot loop over the cached tables: the squared distance of the chosen
    # candidate is carried into the next hop and the block scan is
    # inlined, so each hop costs one dict probe plus one pass over an
    # O(1)-size block — no per-hop view assembly, no re-measuring of the
    # current object, no per-hop function calls.  The scan keeps the
    # block's float minimum below a bar just past the carried distance; a
    # clear hop is taken here, and a stop or a near-tie goes to
    # predicates.settle (predicates.greedy_hop with the scan inlined).
    tx, ty = target
    # A cached table is a valid table, so the per-hop probe is one
    # dict.get with nothing to compare.  The table dict is hoisted once:
    # the cache only ever mutates it in place, so the reference stays live.
    tables = overlay._routing_cache.tables
    build_entry = overlay._routing_entry
    while True:
        entry = tables.get(current)
        if entry is None:
            entry = build_entry(current)
        block = entry[2]
        # A candidate at or past the bar is clearly farther than ``current``.
        nxt, best_d = None, current_d * FARTHER + DISTANCE_FLOOR
        if block is None:
            # A table of VECTOR_SCAN_THRESHOLD or more candidates holds
            # arrays only: argmin straight off the entry the loop holds.
            positions = entry[1]
            dx = positions[:, 0] - tx
            dy = positions[:, 1] - ty
            distances = dx * dx + dy * dy
            index = distances.argmin()
            if distances[index] < best_d:
                best_d = float(distances[index])
                nxt = int(entry[0][index])
        else:
            for cid, x, y in block:
                dx = x - tx
                dy = y - ty
                d = dx * dx + dy * dy
                if d < best_d:
                    best_d = d
                    nxt = cid
        if not best_d < current_d * NEARER - DISTANCE_FLOOR:
            # Not a clear hop: a stop or a near-tie, which settle decides.
            nxt, best_d = settle(nxt, best_d, current_d, target, overlay.position_of(current),
                                 block if block is not None else _records(entry))
            if nxt is None:
                return current, hops
        current = nxt
        current_d = best_d
        hops += 1
        if path is not None:
            path.append(current)
        if hops > limit:
            raise RoutingError(
                f"greedy route from {source} to {target} exceeded {limit} hops"
            )


def _column_rows(overlay: "VoroNet", ids: np.ndarray) -> np.ndarray:
    """Positions of ``ids`` from the coordinate column; a non-member is the overlay's error."""
    try:
        return overlay._locate_index.coordinates(ids)
    except KeyError as exc:
        raise ObjectNotFoundError(exc.args[0]) from None


def _records(entry) -> Iterator[Tuple[int, float, float]]:
    """An array-form table's ``(id, x, y)`` records, made only when read."""
    yield from zip(entry[0].tolist(), *entry[1].T.tolist())


def greedy_route_many(overlay: "VoroNet", sources: Sequence[int],
                      targets: Sequence[Point]) -> List[RouteResult]:
    """``greedy_route(overlay, source, target)`` per pair, advanced as one frontier.

    A batch below ``VECTOR_SCAN_THRESHOLD`` pairs is that loop — numpy's
    fixed cost per call against a Python loop per element, the trade the
    threshold names everywhere.  From the threshold up, every route still
    in the frontier takes one hop per step: the candidate ids of the
    objects the routes stand on are gathered from the routing cache's id
    arena (:meth:`RoutingTableCache.sync
    <repro.core.shards.RoutingTableCache.sync>`), their positions from the
    locate grid's coordinate column, and one ``dx*dx + dy*dy`` plus one
    segmented minimum picks each route's next object — the first candidate,
    in table order, attaining a minimum strictly below the carried
    distance, which is what the scalar scan picks.  A route leaves the
    frontier where it reaches its local minimum, or for the scalar loop of
    :func:`greedy_route` — continued from where the route stands — when it
    steps onto an object whose table is held as arrays, and the frontier
    dissolves into that loop once fewer than ``VECTOR_SCAN_THRESHOLD``
    routes are left in it.  Results, and the tables built on the way, are
    those of the per-pair calls, bit for bit.

    ``targets`` are ``(float, float)`` tuples and are reported as given (a
    batch allocates no second tuple per route).
    """
    count = len(sources)
    if count < VECTOR_SCAN_THRESHOLD:
        return [greedy_route(overlay, source, target)
                for source, target in zip(sources, targets)]
    if len(overlay) == 0:
        raise EmptyOverlayError("cannot route on an empty overlay")
    goals = np.array(targets, dtype=np.float64).reshape(count, 2)
    owner = np.fromiter(sources, dtype=np.int64, count=count)
    delta = _column_rows(overlay, owner) - goals
    delta *= delta
    #: Squared distance of each route's present object from its target.
    carried = delta[:, 0] + delta[:, 1]
    hops = np.zeros(count, dtype=np.int64)
    limit = len(overlay) + 16
    cache = overlay._routing_cache
    build_entry = overlay._routing_entry
    id_bound = overlay._next_id
    #: Per step, the routes that moved and where to (when paths are recorded).
    trail: Optional[list] = [] if overlay.config.track_paths else None
    scalar: List[int] = []
    active = np.arange(count)
    step = 0
    # A row is shorter than the threshold, so chunks cut at multiples of
    # this many candidate pairs stay below CHUNK_ELEMENTS.
    span = CHUNK_ELEMENTS - VECTOR_SCAN_THRESHOLD
    while len(active) >= VECTOR_SCAN_THRESHOLD:
        if step > limit:
            raise RoutingError(
                f"greedy route from {sources[active[0]]} to {targets[active[0]]} "
                f"exceeded {limit} hops")
        start, length, ids = cache.sync(id_bound)
        current = owner[active]
        rows = start[current]
        cold = rows == NO_ROW
        if cold.any():
            for object_id in sorted(set(current[cold].tolist())):
                # Keyed by the node's own id object, not this transient one:
                # the table dict keeps its key alive.
                build_entry(overlay.node(object_id).object_id)
            start, length, ids = cache.sync(id_bound)
            rows = start[current]
        lengths = length[current]
        # An array-form table (or an empty one: a lone object) is the
        # scalar loop's; so would be a row the arena failed to serve.
        leaving = (rows < 0) | (lengths == 0)
        if leaving.any():
            scalar.extend(active[leaving].tolist())
            staying = ~leaving
            active, rows, lengths = active[staying], rows[staying], lengths[staying]
            if not len(active):
                break
        following = np.empty(len(active), dtype=ids.dtype)
        nearest = np.empty(len(active), dtype=np.float64)
        ends = np.cumsum(lengths)
        cuts = np.searchsorted(ends, np.arange(span, int(ends[-1]) + span, span), side="right")
        low = 0
        for high in cuts.tolist():
            indices, begins = segment_indices(rows[low:high], lengths[low:high])
            candidates = ids[indices]
            delta = _column_rows(overlay, candidates)
            delta -= np.repeat(goals.take(active[low:high], axis=0), lengths[low:high], axis=0)
            delta *= delta
            distances = delta[:, 0] + delta[:, 1]
            best = np.minimum.reduceat(distances, begins)
            attaining = np.flatnonzero(distances == np.repeat(best, lengths[low:high]))
            following[low:high] = candidates[attaining[np.searchsorted(attaining, begins)]]
            nearest[low:high] = best
            low = high
        ahead = carried[active]
        moved = nearest < ahead * NEARER - DISTANCE_FLOOR
        # A near-tie is the scalar loop's to settle, from where it stands.
        tied = ~moved & (nearest < ahead * FARTHER + DISTANCE_FLOOR)
        if tied.any():
            scalar.extend(active[tied].tolist())
        active = active[moved]
        following = following[moved]
        owner[active] = following
        carried[active] = nearest[moved]
        step += 1
        hops[active] = step
        if trail is not None:
            trail.append((active, following))
    scalar.extend(active.tolist())

    owners = owner.tolist()
    hop_counts = hops.tolist()
    paths: List[Optional[List[int]]] = [None] * count
    if trail is not None:
        # Route i took hops[i] frontier steps, the first hops[i] there were:
        # its stretch of ``visited`` is filled one scatter per step.
        ends = np.cumsum(hops)
        begins = ends - hops
        visited = np.empty(int(hops.sum()), dtype=np.int32)
        for taken, (slots, following) in enumerate(trail):
            visited[begins[slots] + taken] = following
        visited = visited.tolist()
        paths = [[source, *visited[begin:end]] for source, begin, end
                 in zip(sources, begins.tolist(), ends.tolist())]
    for slot in scalar:
        owners[slot], hop_counts[slot] = _descend(
            overlay, sources[slot], targets[slot], owners[slot],
            float(carried[slot]), hop_counts[slot], paths[slot], limit)
    delta = _column_rows(overlay, np.array(owners, dtype=np.int64)) - goals
    return [RouteResult(source, target, reached, taken, True, path, final_distance)
            for source, target, reached, taken, path, final_distance
            in zip(sources, targets, owners, hop_counts, paths,
                   map(math.hypot, delta[:, 0].tolist(), delta[:, 1].tolist()))]


def route_to_object(overlay: "VoroNet", source: int, destination: int, *,
                    max_hops: Optional[int] = None) -> RouteResult:
    """Route from one object to another (the Figure 6/8 measurement).

    Routing to an object's own coordinates terminates exactly at that
    object: a duplicate position is refused with ``DuplicateObjectError``,
    so the destination is the one object closest to its own position.
    """
    if destination not in overlay:
        raise ObjectNotFoundError(destination)
    return greedy_route(overlay, source, overlay.position_of(destination),
                        max_hops=max_hops)
