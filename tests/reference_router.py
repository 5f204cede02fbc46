"""Reference greedy routers the cache-parity suites compare against.

They read only the public per-object views — ``VoroNet.neighbor_view()`` in
oracle mode, ``ProtocolNode.routing_candidates()`` in protocol mode — and
re-assemble the candidate set at every hop, so they share no state with the
cached routing tables / view-epoch-cached blocks they check.

Every hop applies the descent rule as stated,
:func:`repro.geometry.predicates.greedy_hop`, to candidates listed in
ascending id order (the order both planes' tables hold).

An overlay routes on one view, ``vn ∪ cn ∪ LRn``; routing over the bare
tessellation is routing on :func:`zero_link_twin`'s overlay, held to the
same reference.
"""

from dataclasses import replace

from repro.core import VoroNet
from repro.geometry.predicates import greedy_hop


def zero_link_twin(overlay):
    """The same objects (ids, positions, config) joined to an overlay with no long links.

    Ids are issued in increasing order, so the twin's match only for an
    overlay nothing has left (ids ``0 … n-1``); asserted per object.
    """
    twin = VoroNet(replace(overlay.config, num_long_links=0))
    for object_id, position in overlay.positions().items():
        assert twin.insert(position) == object_id
    return twin


def reference_candidates(overlay, object_id):
    """``vn ∪ cn ∪ LRn`` minus self from a freshly assembled view, ascending."""
    view = overlay.neighbor_view(object_id)
    candidates = set(view.voronoi) | set(view.close) | set(view.long_range)
    candidates.discard(object_id)
    return sorted(candidates)


def reference_greedy_route(overlay, source, target):
    """Path (source first, owner last) of greedy routing to the point ``target``."""
    path = [source]
    while True:
        current = path[-1]
        following = greedy_hop(target, overlay.position_of(current),
                               [(neighbor,) + overlay.position_of(neighbor) for neighbor
                                in reference_candidates(overlay, current)])
        if following is None:
            return path
        path.append(following)


def reference_paths_to(overlay, targets):
    """``{(source, target): path}`` of routing every object to each of ``targets``.

    The reference rule, with each scan done once: where a message for a
    target goes next depends only on the object it stands on, so the next
    hop is tabulated per (object, target) from the freshly assembled views
    and the paths are read off the table.
    """
    ids = overlay.object_ids()
    position = {object_id: overlay.position_of(object_id) for object_id in ids}
    candidates = {object_id: [(neighbor,) + position[neighbor] for neighbor
                              in reference_candidates(overlay, object_id)]
                  for object_id in ids}
    paths = {}
    for target in targets:
        following = {object_id: greedy_hop(position[target], position[object_id],
                                           candidates[object_id])
                     for object_id in ids}
        for source in ids:
            path = [source]
            while following[path[-1]] is not None:
                path.append(following[path[-1]])
            paths[source, target] = path
    return paths


def assert_routes_match_reference(overlay, result):
    """A ``RouteResult`` has the reference router's owner and hop count."""
    path = reference_greedy_route(overlay, result.source, result.target)
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
    """Where a protocol node forwards a message for ``target``, or ``None``.

    The rule over the freshly assembled candidate dict, in id order,
    with locally suspected peers skipped.
    """
    candidates = sorted((neighbor,) + position
                        for neighbor, position in node.routing_candidates().items()
                        if neighbor not in node.suspects)
    return greedy_hop(target, node.position, candidates)
