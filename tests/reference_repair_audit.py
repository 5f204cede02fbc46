"""The repair's audit as it stood before the shared view walk, for the
suite that holds the findings-derived work lists to it.

:class:`ReferenceAudit` carries ``RepairProtocol._audit`` verbatim, memo
included: five hand-kept families over the in-scope members, each member
stamped with ``(kernel.version, view_epoch)`` once it passes the kernel
families clean.  It reads a repairer's simulator, scope and member list,
and keeps its own memo for as long as the instance lives.
"""

from typing import List, Set, Tuple

from repro.simulation.faults import RepairProtocol


class ReferenceAudit:
    """``_audit`` over ``repairer``'s members, with a memo of its own."""

    def __init__(self, repairer: RepairProtocol) -> None:
        self.simulator = repairer.simulator
        self.scope = repairer.scope
        self._members = repairer._members
        self._audit_clean = {}

    def _audit(self) -> Tuple[List[Tuple[int, int]], List[int],
                              List[Tuple[int, Set[int]]],
                              List[Tuple[int, Tuple[int, int]]], List[int]]:
        """What suspicion-driven repair cannot see, over the in-scope members.

        Five lists, each in member order:

        * ``(object_id, link_index)`` of long links not pointing at their
          target's owner — the same kernel consultation ``bulk_join``'s
          hand-over phase uses to settle registrations, the simulator
          standing in for the owner-side audit a deployment would run
          periodically.  A dead endpoint, or one outside this repairer's
          kernel (a cross-side link under a scoped, split-era repair),
          cannot stand either — nor can an endpoint that holds no back
          registration for the link (a lost ``BACKLINK_TRANSFER``, or a
          false suspicion that dropped it): the next steal or leave of
          that endpoint would strand the link.
        * ids whose Voronoi view disagrees with the shared kernel.  A view
          can go stale with *no* suspect involved — a consolidated
          ``REGION_UPDATE`` (or its sender) fed a crash mid-``bulk_join``
          or mid-churn, so the recipient never heard about a live
          neighbour — and nothing in such a view points at a dead node
          for scrubbing to find.
        * ``(holder, dead peers)`` for close entries and back registrations
          serving departed nodes.  A crash that lands *mid-repair*, after
          the detection sweep, leaves them with no surviving suspicion to
          blame: heartbeats have stopped, so nothing re-suspects a peer
          nobody probes anymore.  Under a scoped repair, peers outside
          the scope are presumed dead by this side even though their node
          objects survive across the cut.
        * ``(holder, key)`` of orphan back registrations: the source lives
          but its link ``key[1]`` points elsewhere.
        * ids missing a live peer that holds *them* as a close neighbour
          (a lost ``CLOSE_DECLARE``, or one side of the pair dropped on a
          false suspicion); each listed once, in id order.

        Within one :meth:`repair` call a member's kernel verdict — link
        owners, its Voronoi view, dead references — is a function of
        ``(kernel.version, node.view_epoch)`` alone: the kernel answers
        every such consultation, membership of ``simulator.nodes`` only
        changes through a kernel insertion or removal, and the epoch moves
        with every edit of the four view components — so a member that
        passed them is stamped with that pair and they are skipped until
        either half moves.  A later pass of the same call therefore
        re-checks only the few dozen nodes the settlement in between
        touched.  The pairwise families (registration at the endpoint,
        orphan registrations, close symmetry) read *another* member's
        view, which no stamp of this one covers; they are a few dict
        probes per member and are asked every pass.
        """
        simulator = self.simulator
        nodes = simulator.nodes
        kernel = simulator.kernel
        scope = self.scope
        version = kernel.version
        clean = self._audit_clean
        wrong: List[Tuple[int, int]] = []
        stale_views: List[int] = []
        dead_refs: List[Tuple[int, Set[int]]] = []
        orphans: List[Tuple[int, Tuple[int, int]]] = []
        lonely: Set[int] = set()
        for object_id in self._members():
            node = nodes[object_id]
            stamp = (version, node.view_epoch)
            stamped = clean.get(object_id) == stamp
            links = [(object_id, index)
                     for index, (target, neighbor, _position)
                     in enumerate(node.long_links)
                     if neighbor not in nodes
                     or (neighbor != object_id and (object_id, index)
                         not in nodes[neighbor].back_links)
                     or not stamped and (
                         neighbor not in kernel
                         or kernel.nearest_vertex(
                             target, hint=neighbor) != neighbor)]
            wrong.extend(links)
            dead: Set[int] = set()  # a stamped member passed with none
            if not stamped:
                view_stale = (object_id in kernel and set(node.voronoi)
                              != set(kernel.neighbors(object_id)))
                dead.update(peer for peer in node.close
                            if peer not in nodes
                            or (scope is not None and peer not in scope))
                dead.update(source for source, _index in node.back_links
                            if source not in nodes
                            or (scope is not None and source not in scope))
                if view_stale:
                    stale_views.append(object_id)
                if dead:
                    dead_refs.append((object_id, dead))
                if not links and not view_stale and not dead:
                    clean[object_id] = stamp
            orphans.extend(
                (object_id, (source, index))
                for source, index in node.back_links
                if source not in dead and (
                    index >= len(nodes[source].long_links)
                    or nodes[source].long_links[index][1] != object_id))
            lonely.update(peer for peer in node.close
                          if peer not in dead
                          and object_id not in nodes[peer].close)
        return wrong, stale_views, dead_refs, orphans, sorted(lonely)
