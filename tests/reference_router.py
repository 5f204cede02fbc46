"""Reference greedy routers the cache-parity suites compare against.

They read only the public per-object views — ``VoroNet.neighbor_view()`` in
oracle mode, ``ProtocolNode.routing_candidates()`` in protocol mode — and
re-assemble the candidate set at every hop, so they share no state with the
epoch-cached routing tables / view-epoch-cached blocks they check.
"""

from repro.geometry.point import distance_sq


def reference_greedy_route(overlay, source, target, use_long_links=True):
    """Path (source first, owner last) of greedy routing to the point ``target``.

    Candidates are scanned in ascending id order and forwarding requires a
    strictly smaller distance, the routing tables' tie-break.
    """
    path = [source]
    while True:
        current = path[-1]
        view = overlay.neighbor_view(current)
        candidates = set(view.voronoi) | set(view.close)
        if use_long_links:
            candidates |= set(view.long_range)
        candidates.discard(current)
        best, best_d = None, distance_sq(overlay.position_of(current), target)
        for neighbor in sorted(candidates):
            d = distance_sq(overlay.position_of(neighbor), target)
            if d < best_d:
                best, best_d = neighbor, d
        if best is None:
            return path
        path.append(best)


def assert_routes_match_reference(overlay, result, use_long_links=True):
    """A ``RouteResult`` has the reference router's owner and hop count."""
    path = reference_greedy_route(overlay, result.source, result.target,
                                  use_long_links)
    assert (result.owner, result.hops) == (path[-1], len(path) - 1)


def reference_query_walk(simulator, start, target):
    """``(owner, hops)`` of walking ``reference_next_hop`` from ``start``."""
    owner, hops = start, 0
    while True:
        following = reference_next_hop(simulator.node(owner), target)
        if following is None:
            return owner, hops
        owner, hops = following, hops + 1


def reference_next_hop(node, target):
    """Neighbour of a protocol node strictly closer to ``target``, or ``None``.

    Scans the freshly assembled candidate dict in its own order (the order
    the node's cached block is built in, so exact distance ties break the
    same way) and skips locally suspected peers.
    """
    best, best_d = None, distance_sq(node.position, target)
    for neighbor, position in node.routing_candidates().items():
        if neighbor in node.suspects:
            continue
        d = distance_sq(position, target)
        if d < best_d:
            best, best_d = neighbor, d
    return best
