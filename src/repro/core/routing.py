"""Greedy routing over the VoroNet neighbour views.

Routing (Section 3.2 and 4.2.3) is deliberately simple: the object holding
a message for target point ``P`` forwards it to whichever of its neighbours
— Voronoi, close, or long-range — is closest to ``P`` in Euclidean
distance, stopping when no neighbour improves on the current object.
Because the Voronoi neighbours alone already guarantee that greedy descent
reaches the object whose region contains ``P``, the algorithm always
terminates at the correct owner; the long links are pure acceleration and
give the ``O(log² N_max)`` expected hop count of Lemma 5.

Two termination rules are provided:

* :func:`greedy_route` runs until no neighbour is closer — the rule used to
  measure route lengths in the paper's evaluation (Figures 6–8);
* :func:`route_with_stopping_rule` implements the weaker stopping condition
  of Algorithm 5 (``d(z, Target) ≤ 1/3 · d(Target, Current)`` or
  ``d(Target, Current) ≤ d_min``), the form used by object insertion,
  long-link establishment and query handling, which Lemma 4 proves is
  enough to finish the operation locally.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

from repro.core.errors import EmptyOverlayError, ObjectNotFoundError, RoutingError
from repro.geometry.point import Point, distance, distance_sq

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.overlay import VoroNet

__all__ = ["RouteResult", "greedy_route", "missed_route", "route_to_object",
           "route_with_stopping_rule"]


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
        Whether routing terminated normally (always True for well-formed
        overlays; kept for baseline comparisons where greedy can fail).
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


def _greedy_step(overlay: "VoroNet", current: int, target: Point,
                 use_long_links: bool) -> Optional[int]:
    """Neighbour of ``current`` strictly closer to ``target``, or ``None``.

    One argmin over the cached routing table of ``current``, in the form
    the entry holds: a scan block is walked inline, a position array
    goes through the vectorised argmin.
    """
    tx, ty = target
    best_d = distance_sq(overlay.position_of(current), target)
    ids, positions, block = overlay._routing_entry(current, use_long_links)
    if block is None:
        dx = positions[:, 0] - tx
        dy = positions[:, 1] - ty
        distances = dx * dx + dy * dy
        index = distances.argmin()
        return int(ids[index]) if distances[index] < best_d else None
    best = None
    for cid, x, y in block:
        dx = x - tx
        dy = y - ty
        d = dx * dx + dy * dy
        if d < best_d:
            best, best_d = cid, d
    return best


def greedy_route(overlay: "VoroNet", source: int, target: Point, *,
                 use_long_links: bool = True,
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
        Target point (any point of the plane; objects' positions included).
    use_long_links:
        When False only Voronoi and close neighbours are used — the
        "Delaunay-only" baseline of the ablation benchmarks.
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
    limit = max_hops if max_hops is not None else len(overlay) + 16
    record = overlay.config.track_paths
    path = [source] if record else None
    current = source
    hops = 0
    # Hot loop over the cached tables: the squared distance of the chosen
    # candidate is carried into the next hop and the block scan is
    # inlined, so each hop costs one dict probe plus one pass over an
    # O(1)-size block — no per-hop view assembly, no re-measuring of the
    # current object, no per-hop function calls.
    tx, ty = target
    cx, cy = overlay.position_of(current)
    current_d = (cx - tx) * (cx - tx) + (cy - ty) * (cy - ty)
    # A cached table is a valid table, so the per-hop probe is one
    # dict.get with nothing to compare.  The variant's table dict is
    # hoisted once: the cache only ever mutates it in place, so the
    # reference stays live.
    tables = overlay._routing_cache.tables[use_long_links]
    build_entry = overlay._routing_entry
    while True:
        entry = tables.get(current)
        if entry is None:
            entry = build_entry(current, use_long_links)
        block = entry[2]
        nxt = None
        if block is None:
            # A table of VECTOR_SCAN_THRESHOLD or more candidates holds
            # arrays only: argmin straight off the entry the loop holds.
            positions = entry[1]
            dx = positions[:, 0] - tx
            dy = positions[:, 1] - ty
            distances = dx * dx + dy * dy
            index = distances.argmin()
            d = distances[index]
            if d < current_d:
                current_d = float(d)
                nxt = int(entry[0][index])
        else:
            for cid, x, y in block:
                dx = x - tx
                dy = y - ty
                d = dx * dx + dy * dy
                if d < current_d:
                    current_d = d
                    nxt = cid
        if nxt is None:
            break
        current = nxt
        hops += 1
        if record:
            path.append(current)
        if hops > limit:
            raise RoutingError(
                f"greedy route from {source} to {target} exceeded {limit} hops"
            )
    return RouteResult(
        source=source,
        target=target,
        owner=current,
        hops=hops,
        success=True,
        path=path,
        final_distance=distance(overlay.position_of(current), target),
    )


def route_to_object(overlay: "VoroNet", source: int, destination: int, *,
                    use_long_links: bool = True,
                    max_hops: Optional[int] = None) -> RouteResult:
    """Route from one object to another (the Figure 6/8 measurement).

    Routing to an object's own coordinates always terminates exactly at that
    object, since it is the unique closest object to its own position.
    """
    if destination not in overlay:
        raise ObjectNotFoundError(destination)
    result = greedy_route(
        overlay, source, overlay.position_of(destination),
        use_long_links=use_long_links, max_hops=max_hops,
    )
    result.success = result.owner == destination
    return result


def route_with_stopping_rule(overlay: "VoroNet", source: int, target: Point, *,
                             max_hops: Optional[int] = None) -> RouteResult:
    """Greedy routing with the Algorithm 5 stopping condition.

    Forwarding stops as soon as the current object ``y`` satisfies
    ``d(z, Target) ≤ 1/3 · d(Target, y)`` where ``z`` is the point of
    ``y``'s Voronoi region closest to the target, or when the current object
    is within ``d_min`` of the target.  Lemma 4 shows the target's region
    can then be carved out locally at ``y``; Lemma 5 bounds the number of
    forwarding steps by ``O(ln² N_max)``.
    """
    if len(overlay) == 0:
        raise EmptyOverlayError("cannot route on an empty overlay")
    if source not in overlay:
        raise ObjectNotFoundError(source)
    if max_hops is not None and max_hops <= 0:
        raise ValueError(f"max_hops must be positive, got {max_hops}")
    target = (float(target[0]), float(target[1]))
    d_min = overlay.config.effective_d_min
    limit = max_hops if max_hops is not None else len(overlay) + 16
    record = overlay.config.track_paths
    path = [source] if record else None
    current = source
    hops = 0
    while True:
        current_distance = distance(overlay.position_of(current), target)
        if current_distance <= d_min:
            break
        z_distance = overlay.distance_to_region(current, target)
        if z_distance <= current_distance / 3.0:
            break
        nxt = _greedy_step(overlay, current, target, use_long_links=True)
        if nxt is None:
            break
        current = nxt
        hops += 1
        if record:
            path.append(current)
        if hops > limit:
            raise RoutingError(
                f"stopping-rule route from {source} to {target} exceeded {limit} hops"
            )
    return RouteResult(
        source=source,
        target=target,
        owner=current,
        hops=hops,
        success=True,
        path=path,
        final_distance=distance(overlay.position_of(current), target),
    )
