"""The Delaunay kernel's insertion loop as it calls the predicates, for the
suites that hold the inline filters to it.

:class:`ReferenceTriangulation` inserts the way
:class:`~repro.geometry.delaunay.DelaunayTriangulation` did before its
insertion loop evaluated the ``orient2d`` / ``incircle`` float filter
inline: the location walk and the cavity search call
:func:`~repro.geometry.predicates.orient2d` and
:func:`~repro.geometry.predicates.incircle` for every decision.  It shares
everything else (slots, corners, stars, removal, rebuild) with the kernel it
extends, so two twins built alike must hold the same slots.
"""

from typing import List, Optional, Tuple

from repro.geometry.delaunay import _NEXT, _PREV, INFINITE_VERTEX, DelaunayTriangulation
from repro.geometry.point import Point
from repro.geometry.predicates import incircle, orient2d, segment_contains


class ReferenceTriangulation(DelaunayTriangulation):
    """A kernel whose insertion loop calls the predicate functions."""

    def _walk_to_seed(self, point: Point, hint: Optional[int]) -> int:
        """A triangle whose circumdisk contains ``point`` (visibility walk).

        Returned as a slot: the triangle is read CCW from there.
        """
        points = self._points
        start = hint if hint is not None and hint in points else self._last_vertex
        if start is None or start not in points:
            start = next(iter(points))
        slot = self._finite_corner(start)
        vertices = self._vertices
        across = self._across
        for _ in range(4 * max(len(vertices), 8)):
            i = slot % 3
            tri = slot - i
            v_slot = tri + _NEXT[i]
            w_slot = tri + _PREV[i]
            pu = points[vertices[slot]]
            pv = points[vertices[v_slot]]
            pw = points[vertices[w_slot]]
            for edge, pa, pb in ((slot, pu, pv), (v_slot, pv, pw), (w_slot, pw, pu)):
                if orient2d(pa, pb, point) < 0:
                    # Step across the edge a → b: the triangle beyond reads
                    # (b, a, apex) from b's slot.
                    outer = across[edge]
                    a_slot = self._slot_of(vertices[edge], outer)
                    slot = outer + _PREV[a_slot - outer]
                    if vertices[outer + _NEXT[a_slot - outer]] == INFINITE_VERTEX:
                        # point lies strictly beyond the hull edge (a, b): the
                        # ghost triangle's half-plane circumdisk contains it.
                        return slot
                    break
            else:
                return slot
        return self._brute_force_seed(point)

    def _insert_into_triangulation(self, vertex_id: int, hint: Optional[int]) -> None:
        # Bowyer–Watson over the slots: the cavity is a set of triangles
        # (first slots), grown depth-first from the seed across the edges
        # on the stack; an edge whose outer triangle fails the circumdisk
        # test is a boundary edge.  This runs for every insertion,
        # sequential or bulk — it is the dominant cost of bulk construction.
        point = self._points[vertex_id]
        points = self._points
        vertices = self._vertices
        across = self._across
        seed = self._walk_to_seed(point, hint)
        i = seed % 3
        tri = seed - i
        cavity = {tri}
        stack = [seed, tri + _NEXT[i], tri + _PREV[i]]
        # (a, b, outer triangle, slot of b in it) per boundary edge a → b.
        boundary: List[Tuple[int, int, int, int]] = []
        while stack:
            edge = stack.pop()
            outer = across[edge]
            if outer in cavity:
                continue  # the outer triangle joined the cavity meanwhile
            a = vertices[edge]
            # The outer triangle reads (b, a, apex) CCW.
            if vertices[outer] == a:
                k = 0
            elif vertices[outer + 1] == a:
                k = 1
            else:
                k = 2
            b_slot = outer + _PREV[k]
            b = vertices[b_slot]
            apex = vertices[outer + _NEXT[k]]
            # Circumdisk test of the outer triangle (b, a, apex),
            # inlined from _in_circumdisk for this innermost loop; the rare
            # case of an infinite *edge endpoint* (reached when the cavity
            # already contains ghost triangles) keeps using the general
            # rotation logic of _in_circumdisk.
            if apex == INFINITE_VERTEX:
                pb, pa = points[b], points[a]
                o = orient2d(pb, pa, point)
                in_disk = o > 0 or (
                    o == 0 and segment_contains(pb, pa, point, strict=True))
            elif a == INFINITE_VERTEX or b == INFINITE_VERTEX:
                in_disk = self._in_circumdisk((b, a, apex), point)
            else:
                in_disk = incircle(points[b], points[a], points[apex],
                                   point) > 0
            if in_disk:
                cavity.add(outer)
                stack.append(outer + k)            # a → apex
                stack.append(outer + _NEXT[k])     # apex → b
            else:
                boundary.append((a, b, outer, b_slot))
        # The fan reuses the cavity's slots first.
        self._free += cavity
        add = self._add_triangle
        fan = []
        starting_at = {}
        for a, b, outer, b_slot in boundary:
            new = add(a, b, vertex_id)
            across[new] = outer
            across[b_slot] = new
            starting_at[a] = new
            fan.append(new)
        for (_a, b, _outer, _b_slot), new in zip(boundary, fan):
            after = starting_at[b]
            across[new + 1] = after
            across[after + 2] = new
        stars = self._stars
        if stars:
            # Every boundary vertex starts one boundary edge; these are
            # the stars the new fan changed.
            for a, _b, _outer, _b_slot in boundary:
                stars.pop(a, None)
        self._version += 1
