"""The oracle crash repair as a full scan, for the suites that hold the
holder walk to it.

:class:`FullScanCrashInjector` crashes and repairs the way
:class:`~repro.simulation.failures.CrashInjector` did before a crash
recorded who references its victim: the crash drops every cached routing
table, and the repair visits every survivor, in node-table order, and
scrubs whatever names a crashed id.  It shares the crash list and the
damage census with the injector it extends, and nothing else.
"""

from typing import List

from repro.simulation.failures import CrashInjector


class FullScanCrashInjector(CrashInjector):
    """A crash with an overlay-wide invalidation, a repair that scans all."""

    def crash(self, object_id: int) -> None:
        """Crash one object: :meth:`VoroNet.remove` minus the hand-over.

        The invalidation is overlay-wide (bare call): any survivor,
        anywhere, may hold a long link at the victim, and a crash runs
        none of the hand-overs that would enumerate them.
        """
        self._overlay.withdraw_substrate(object_id)
        self._overlay.invalidate_routing_tables()
        self._crashed.append(object_id)

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
            for index, (target, neighbor, _position) in enumerate(node.long_links):
                if neighbor in crashed:
                    new_owner = overlay.owner_of(target)
                    node.retarget_long_link(index, new_owner,
                                            overlay.position_of(new_owner))
                    overlay.node(new_owner).add_back_link(object_id, index, target)
                    touched = True
                    fixed += 1
            stale = {c for c in node.close_neighbors if c in crashed}
            for close_id in sorted(stale):
                node.discard_close_neighbor(close_id)
                touched = True
                fixed += 1
            dangling_back = [registration for registration in node.back_links
                             if registration[0] in crashed]
            for source, index in dangling_back:
                # Back registrations are not routed on — no table to drop.
                node.remove_back_link(source, index)
            fixed += len(dangling_back)
            if touched:
                affected.append(object_id)
        # Retargeted links / dropped close entries changed forwarding
        # candidates (routing-cache contract); unlike the crash itself,
        # the scrub knows exactly whose, so it drops only their tables.
        overlay.invalidate_routing_tables(affected)
        return fixed
