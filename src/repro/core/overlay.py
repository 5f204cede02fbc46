"""The VoroNet overlay — the paper's primary contribution.

:class:`VoroNet` maintains a set of application objects placed in the unit
square, organised by the Voronoi tessellation of their positions and
augmented with Kleinberg-style long-range links.  It offers the operations
of Section 3:

* :meth:`VoroNet.insert` — object publication (greedy routing to the region
  owner, local region carving, close-neighbour discovery, long-link
  establishment),
* :meth:`VoroNet.remove` — departure (region hand-back, long-link
  delegation through the back-long-range registrations),
* :meth:`VoroNet.route` / :meth:`VoroNet.lookup` — greedy routing to an
  object or to an arbitrary point of the attribute space,
* range / radius queries (via :mod:`repro.core.queries`), the richer query
  mechanisms sketched in the paper's perspectives.

This class is the *oracle-mode* implementation: a single process holds the
shared Delaunay kernel standing in for each object's local, topologically
consistent Voronoi computation, which is the abstraction level the paper's
own simulator works at.  The message-level distributed execution, where
every object acts only on its local view, lives in
:mod:`repro.simulation.protocol` and is validated against this class in the
integration tests.

Routing-table cache contract
----------------------------
**A cached table is a valid table; a mutation names the ids whose
candidates it changed.**  Greedy forwarding is served from *flat routing
tables*: per object, its forwarding candidates ``vn ∪ cn ∪ LRn`` in
ascending id order with their positions.
Each table is held in **one representation, chosen by its size** when
:meth:`VoroNet._routing_entry` builds it: below
:data:`~repro.geometry.locate_grid.VECTOR_SCAN_THRESHOLD` candidates a tuple
of the kernel's ``(id, x, y)`` records
(:attr:`~repro.geometry.delaunay.DelaunayTriangulation.records`, shared,
not copied) that the forwarding loop scans inline; from the
threshold up an int64 id array aligned with a ``(k, 2)`` position array —
one gather from the locate grid's coordinate column — that the loop takes
an ``argmin`` over.  Nothing is converted later; :meth:`VoroNet.routing_table`
returns the arrays of either form.

Tables are built lazily and kept in a
:class:`~repro.core.shards.RoutingTableCache`, where *presence is
validity*: a lookup is one dict probe with nothing to compare, because a
table stays cached exactly while it equals the freshly assembled
:attr:`NeighborView.routing_neighbors` of its object.  Keeping that true is
the mutation's job, and in the paper a mutation is local
(``AddVoronoiRegion`` / ``RemoveVoronoiRegion``, Section 3.3 / 4.2, change
O(1) views): :meth:`insert`, :meth:`remove`, long-link establishment and
churn (:meth:`reset_long_links`) and the maintenance procedures
(close-neighbour registration, back-link hand-over, long-link
re-delegation) each pass the ids whose candidates they changed to
:meth:`invalidate_routing_tables`, which drops exactly those tables — so a
join or leave costs O(1) rebuilds whatever the overlay size; so does an
injected crash, which names the victim's ex-neighbours and the survivors
that reference it (:class:`~repro.simulation.failures.CrashInjector`).
Overlay-wide events (:meth:`bulk_load`, external view surgery of unknown
scope) call :meth:`invalidate_routing_tables` with no arguments, which
drops every table; so does the one departure that is not local, a
convex-hull object's, whose kernel rebuild may re-triangulate cocircular
points anywhere (:meth:`withdraw_substrate`).  Code that mutates
:class:`~repro.core.node.ObjectNode` view state outside those entry points
MUST call :meth:`invalidate_routing_tables` afterwards — with **every**
touched object id when it knows them, bare otherwise — or a cached table
goes stale; :meth:`VoroNet.routing_cache_report` (part of
:meth:`check_consistency`) compares every cached table with a fresh view
and is what catches an incomplete id set.  A view that still names a
departed object (crash damage before repair) fails the build with
:class:`ObjectNotFoundError` in either form: a missing node, or a ``NaN``
row of the column.  Cache hits never change results: the parity tests
route every request a second time with a reference router that assembles
:meth:`VoroNet.neighbor_view` per hop and require identical owners and hop
counts.

Membership
----------
The kernel, the :class:`LocateGrid` buckets, the grid's coordinate column
(a row per member id — what large routing tables, the close-neighbour
filter and the bulk radius query gather positions from) and the routing
cache (member ids, and a table only for a member) each hold a record per
member id.  Records are dropped in one place,
:meth:`VoroNet.withdraw_substrate` (:meth:`VoroNet.remove` is the Section
3.3 hand-over followed by it, an injected crash is it alone), and
:meth:`VoroNet.check_consistency` reports any that disagree — a member
missing from a record, a leftover entry, or a column row that is not its
node's position.
"""

from __future__ import annotations

import math
import numbers
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.config import VoroNetConfig
from repro.core.errors import (
    DuplicateObjectError,
    EmptyOverlayError,
    ObjectNotFoundError,
    OverlayFullError,
)
from repro.core.long_range import choose_long_range_target, choose_long_range_target_array
from repro.core.maintenance import (MemberOrder, bulk_integrate_objects, detach_object,
                                    integrate_new_object, membership_report)
from repro.core.neighbors import NeighborView
from repro.core.node import ObjectNode
from repro.core.routing import (RouteResult, greedy_route, greedy_route_many,
                                missed_route, route_to_object)
from repro.core.shards import RoutingTableCache, arena_report
from repro.core.stats import OverlayStats
from repro.geometry.bounding import UNIT_SQUARE, BoundingBox
from repro.geometry.delaunay import DelaunayTriangulation, DuplicatePointError
from repro.geometry.locate_grid import VECTOR_SCAN_THRESHOLD, LocateGrid
from repro.geometry.point import Point, as_point
from repro.geometry.voronoi import VoronoiCell, voronoi_cell
from repro.utils.rng import RandomSource

__all__ = ["VoroNet"]


class VoroNet:
    """An object-to-object overlay based on Voronoi tessellations.

    Parameters
    ----------
    config:
        Full configuration object.  Mutually exclusive with the keyword
        shortcuts below.
    n_max, num_long_links, seed:
        Shortcuts to build a default configuration without constructing a
        :class:`~repro.core.config.VoroNetConfig` explicitly.

    Examples
    --------
    >>> overlay = VoroNet(n_max=1000, seed=7)
    >>> a = overlay.insert((0.2, 0.3))
    >>> b = overlay.insert((0.8, 0.7))
    >>> overlay.route(a, b).owner == b
    True
    """

    def __init__(self, config: Optional[VoroNetConfig] = None, *,
                 n_max: Optional[int] = None,
                 num_long_links: Optional[int] = None,
                 seed: Optional[int] = None) -> None:
        if config is None:
            config = VoroNetConfig(
                n_max=n_max if n_max is not None else VoroNetConfig().n_max,
                num_long_links=(num_long_links if num_long_links is not None
                                else VoroNetConfig().num_long_links),
                seed=seed,
            )
        elif n_max is not None or num_long_links is not None or seed is not None:
            raise ValueError("pass either a config object or keyword shortcuts, not both")
        self._config = config
        self._rng = RandomSource(config.seed)
        self._triangulation = DelaunayTriangulation()
        self._locate_index = LocateGrid()
        # The node table.  Ids are issued in increasing order and never
        # reused, so its order (a dict's insertion order) is id order.
        self._nodes: Dict[int, ObjectNode] = {}
        # The node table's order, indexed for introducer draws.
        self._member_order = MemberOrder()
        self._next_id = 0
        self._stats = OverlayStats()
        # Member ids and the flat routing tables cached for them (see the
        # module docstring).
        self._routing_cache = RoutingTableCache()

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def config(self) -> VoroNetConfig:
        """The overlay's (immutable) configuration."""
        return self._config

    @property
    def stats(self) -> OverlayStats:
        """Aggregated operation statistics (joins, leaves, routes, queries)."""
        return self._stats

    @property
    def rng(self) -> RandomSource:
        """The overlay's internal random source (long-link targets, defaults)."""
        return self._rng

    @property
    def triangulation(self) -> DelaunayTriangulation:
        """The shared Delaunay kernel (read-only use recommended)."""
        return self._triangulation

    @property
    def locate_index(self) -> LocateGrid:
        """The grid-bucket locate index (read-only use recommended).

        Always kept in sync with the membership; it seeds point location
        (:meth:`owner_of`) and the default entry points of lookups and
        queries (:meth:`query_entry_point`).
        """
        return self._locate_index

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._nodes

    def object_ids(self) -> List[int]:
        """Ids of every object currently published in the overlay, in id order."""
        return list(self._nodes.keys())

    def node(self, object_id: int) -> ObjectNode:
        """The per-object state of ``object_id``."""
        try:
            return self._nodes[object_id]
        except KeyError:
            raise ObjectNotFoundError(object_id) from None

    def nodes(self) -> Iterable[ObjectNode]:
        """The per-object state of every published object (a live view)."""
        return self._nodes.values()

    def position_of(self, object_id: int) -> Point:
        """Coordinates of an object in the attribute space."""
        return self.node(object_id).position

    def positions(self) -> Dict[int, Point]:
        """Mapping of object id → position for every object."""
        return {oid: node.position for oid, node in self._nodes.items()}

    # ------------------------------------------------------------------
    # neighbour views
    # ------------------------------------------------------------------
    def voronoi_neighbors(self, object_id: int) -> List[int]:
        """The Voronoi-neighbour set ``vn(o)`` of an object."""
        if object_id not in self._nodes:
            raise ObjectNotFoundError(object_id)
        return self._triangulation.neighbors(object_id)

    def neighbor_view(self, object_id: int) -> NeighborView:
        """The full view (vn, cn, LRn, BLRn) of an object."""
        node = self.node(object_id)
        return NeighborView(
            object_id=object_id,
            voronoi=frozenset(self.voronoi_neighbors(object_id)),
            close=frozenset(node.close_neighbors),
            long_range=frozenset(node.long_link_neighbors()),
            back_long_range=frozenset(node.back_link_sources()),
        )

    @property
    def routing_cache(self) -> RoutingTableCache:
        """The member ids and the routing tables cached for them."""
        return self._routing_cache

    def invalidate_routing_tables(self,
                                  object_ids: Optional[Iterable[int]] = None) -> None:
        """Drop the cached routing tables a mutation made wrong.

        A cached table is a valid table; a mutation names the ids whose
        candidates it changed.  With ``object_ids`` given, exactly those
        objects' tables are dropped — the targeted form every churn-local
        mutation path uses, so the set must be *complete*: a changed view
        left out keeps routing on its old table.  Without arguments every
        table is dropped (overlay-wide invalidation).  A dropped table is
        rebuilt the next time it is asked for.

        The overlay's own mutation entry points call this; external code
        that mutates per-object view state directly (tests, protocol
        bridges, fault injectors) must call it too, per the module-level
        contract — with the affected ids when it knows them, bare when the
        damage is overlay-wide or unknown.
        """
        if object_ids is None:
            self._routing_cache.drop_all()
        else:
            self._routing_cache.bump_object_ids(object_ids)

    def routing_table(self, object_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """Flat greedy-forwarding table of one object.

        Returns ``(ids, positions)``: an int64 array of the candidate
        neighbour ids (``vn ∪ cn ∪ LRn`` minus self, sorted for
        determinism) and the aligned ``(k, 2)`` float64 position array.
        Cached until a mutation names the object; always equal to a
        freshly assembled
        :attr:`~repro.core.neighbors.NeighborView.routing_neighbors`.
        """
        ids, positions, block = self._routing_entry(object_id)
        if block is not None:
            ids = np.asarray([cid for cid, _x, _y in block], dtype=np.int64)
            positions = np.asarray([(x, y) for _cid, x, y in block],
                                   dtype=np.float64).reshape(len(block), 2)
        return ids, positions

    def _routing_candidates(self, object_id: int) -> Set[int]:
        """``vn ∪ cn ∪ LRn`` minus self, assembled from the live view."""
        node = self.node(object_id)
        candidates = set(self._triangulation.neighbors(object_id))
        candidates.update(node.close_neighbors)
        candidates.update(node.long_link_neighbors())
        candidates.discard(object_id)
        return candidates

    def _routing_entry(self, object_id: int) -> tuple:
        entry = self._routing_cache.tables.get(object_id)
        if entry is not None:
            return entry
        self._stats.routing_table_rebuilds += 1
        candidates = self._routing_candidates(object_id)
        ids = positions = block = None
        try:
            # A view referencing a departed object (e.g. crash damage before
            # repair) surfaces as the overlay's own lookup error.
            if len(candidates) >= VECTOR_SCAN_THRESHOLD:
                ids = np.fromiter(candidates, dtype=np.int64, count=len(candidates))
                ids.sort()
                positions = self._locate_index.coordinates(ids)
            else:
                # The kernel's own records, not copies: the block allocates
                # one tuple, which the collector stops tracking at its first
                # pass (geometry.delaunay, "Caches").
                block = tuple(map(self._triangulation.records.__getitem__,
                                  sorted(candidates)))
        except KeyError as exc:
            raise ObjectNotFoundError(exc.args[0]) from None
        entry = (ids, positions, block)
        self._routing_cache.cache_table(object_id, entry)
        return entry

    def degree_histogram(self) -> Dict[int, int]:
        """Histogram of Voronoi out-degrees ``|vn(o)|`` (the Figure 5 metric)."""
        histogram: Dict[int, int] = {}
        for object_id in self._nodes:
            degree = len(self.voronoi_neighbors(object_id))
            histogram[degree] = histogram.get(degree, 0) + 1
        return histogram

    def view_sizes(self) -> Dict[int, int]:
        """Total view size of every object (the O(1) quantity of Section 4.1)."""
        return {oid: self.neighbor_view(oid).size for oid in self._nodes}

    def voronoi_cell(self, object_id: int,
                     box: BoundingBox = UNIT_SQUARE) -> VoronoiCell:
        """The (clipped) Voronoi region of an object."""
        if object_id not in self._nodes:
            raise ObjectNotFoundError(object_id)
        return voronoi_cell(self._triangulation, object_id, box)

    # ------------------------------------------------------------------
    # ownership / location
    # ------------------------------------------------------------------
    def owner_of(self, point: Point, hint: Optional[int] = None) -> int:
        """The object whose Voronoi region contains ``point``.

        When no ``hint`` is given the kernel descent is seeded with a
        near-target vertex from the locate grid, making the location
        effectively constant time.  The result is the exact owner either
        way.
        """
        if not self._nodes:
            raise EmptyOverlayError("the overlay holds no objects")
        if hint is None:
            hint = self._locate_index.hint(point)
        return self._triangulation.nearest_vertex(point, hint=hint)

    def query_entry_point(self, point: Point) -> int:
        """The object a request targeting ``point`` enters the overlay at.

        A nearby object from the locate grid, so the request costs constant
        expected routing work.  To model a request arriving at an arbitrary
        peer as in the paper, pass :meth:`random_object_id` as the
        ``start``/``introducer`` of the operation instead.
        """
        if not self._nodes:
            raise EmptyOverlayError("the overlay holds no objects")
        return self._locate_index.hint(point)

    # ------------------------------------------------------------------
    # object publication (join)
    # ------------------------------------------------------------------
    def insert(self, position: Point, *, introducer: Optional[int] = None) -> int:
        """Publish a new object at ``position`` and return its id.

        The id is the next one never issued: ids grow with every
        publication and are not reused after a departure.

        The join follows Section 3.3: greedy routing from the ``introducer``
        (any already-published object; a random one when omitted) locates
        the owner of the region containing ``position``; the owner carves
        out the new region and hands over the relevant state; the new object
        then discovers its close neighbours and establishes its long-range
        links by routing to freshly drawn target points.  The resulting
        structure does not depend on the introducer — only the reported
        join routing cost does (``introducer=query_entry_point(position)``
        makes the routing phase O(1) expected hops).

        Raises
        ------
        OverlayFullError
            When the overlay already holds ``n_max`` objects and overflow is
            not allowed.
        DuplicateObjectError
            When an object already sits at exactly the same coordinates.
        """
        if len(self._nodes) >= self._config.n_max and not self._config.allow_overflow:
            raise OverlayFullError(self._config.n_max)
        position = as_point(position)
        if not UNIT_SQUARE.contains(position):
            raise ValueError(f"object position {position} outside the unit square")
        object_id = self._next_id

        route_hops = 0
        messages = 0
        if self._nodes:
            if introducer is not None:
                start = introducer
                if start not in self._nodes:
                    raise ObjectNotFoundError(start)
            else:
                # Section 3.3's default: the join routes from a uniformly
                # random introducer, so measured join costs reflect the
                # paper's protocol.  Batch construction that does not need
                # per-join costs should use bulk_load instead.
                start = self._sample_object_id()
            route = greedy_route(self, start, position)
            route_hops = route.hops
            messages += route.messages
            hint = route.owner
        else:
            hint = None

        try:
            self._triangulation.insert(position, vertex_id=object_id, hint=hint)
        except DuplicatePointError as exc:
            raise DuplicateObjectError(
                f"an object already sits at {position} (id {exc.existing_vertex})"
            ) from exc
        self._nodes[object_id] = ObjectNode(object_id=object_id, position=position)
        self._member_order.append(object_id)
        # Commit the id allocation only now that the node is published: a
        # failed insert must never burn (and permanently skip) an id.
        self._next_id = object_id + 1
        self._locate_index.insert(object_id, position)
        self._routing_cache.insert(object_id)
        # The carve changed adjacency only inside the new region's star:
        # the new object and its Voronoi neighbours (every destroyed or
        # created Delaunay edge has both endpoints there).
        self.invalidate_routing_tables(
            [object_id, *self._triangulation.neighbors(object_id)])
        messages += integrate_new_object(self, object_id)

        # Long-range links: drawn and resolved by routing from the new object.
        link_messages = self._establish_long_links(object_id)
        messages += link_messages

        self._stats.joins.record(route_hops, messages)
        return object_id

    def _establish_long_links(self, object_id: int) -> int:
        """Draw and resolve the ``num_long_links`` long links of an object."""
        node = self.node(object_id)
        d_min = self._config.effective_d_min
        messages = 0
        for index in range(self._config.num_long_links):
            target = choose_long_range_target(node.position, d_min, self._rng)
            if len(self._nodes) == 1:
                endpoint = object_id
                hops = 0
            else:
                route = greedy_route(self, object_id, target)
                endpoint = route.owner
                hops = route.hops
            node.set_long_link(index, target, endpoint, self._nodes[endpoint].position)
            # Each installed link changes this object's own forwarding
            # candidates (and only its own: back registrations are not
            # routed on), and the next link is resolved by routing *from*
            # this object — invalidate before that route runs.
            self.invalidate_routing_tables([object_id])
            # Register the reverse pointer even when the owner is the
            # object itself: a later joiner closer to the target must be
            # able to steal the registration and re-point the link.
            self.node(endpoint).add_back_link(object_id, index, target)
            if endpoint != object_id:
                messages += 1
            messages += hops
            self._stats.long_link_searches.record(hops, hops + 1)
        return messages

    def reset_long_links(self, object_id: int) -> int:
        """Redraw and re-resolve every long link of one object (link churn).

        Deregisters the object's current links at their endpoints, draws
        fresh Choose-LRT targets and resolves them by greedy routing, as a
        re-publication of the links would.  Returns the message cost; used
        by churn workloads and the cache-invalidation stress tests.
        """
        node = self.node(object_id)
        messages = 0
        for index, (_target, neighbor, _position) in enumerate(node.long_links):
            # Self-pointing links also carry a (local) back
            # registration — deregister those too, message-free.
            if neighbor in self._nodes:
                self._nodes[neighbor].remove_back_link(object_id, index)
                if neighbor != object_id:
                    messages += 1
        node.long_links = ()
        self.invalidate_routing_tables([object_id])
        return messages + self._establish_long_links(object_id)

    def _sample_object_id(self) -> int:
        """A uniformly random already-published object id (the introducer).

        The k-th key of the node table for one RNG draw k, found in
        O(log N) (:class:`MemberOrder`).
        """
        return self._member_order.kth(self._rng.integer(0, len(self._nodes)))

    # ------------------------------------------------------------------
    # departure (leave)
    # ------------------------------------------------------------------
    def remove(self, object_id: int) -> None:
        """Withdraw an object from the overlay (Section 3.3's leave).

        Long links hosted at the departing object are delegated to the
        Voronoi neighbour now owning their target point, the object's own
        links are deregistered, close neighbours are notified, and the
        region is handed back to the neighbours.
        """
        if object_id not in self._nodes:
            raise ObjectNotFoundError(object_id)
        # Captured before the kernel removal: the departing region's star
        # is the only place adjacency changes, so these ex-neighbours (who
        # become adjacent to each other as the region is handed back) are
        # the whole invalidation set of the removal itself; detach_object
        # names the maintenance-affected ids (close drops, delegated link
        # sources) separately.
        ex_neighbors = self._triangulation.neighbors(object_id)
        messages = detach_object(self, object_id)
        self.withdraw_substrate(object_id)
        self.invalidate_routing_tables(ex_neighbors)
        self._stats.leaves.record(0, messages)

    def withdraw_substrate(self, object_id: int) -> None:
        """Forget an object in every membership record, with no hand-over.

        The one place an object stops being a member (and a hull
        departure's kernel rebuild is counted, and answered by dropping
        every cached table).  :meth:`remove` wraps it in the hand-over and
        the ex-neighbour invalidation.  Bare, it *is* a crash, and the
        caller owes the invalidation of every table it made wrong: the
        ex-Voronoi-neighbours' (read before this call) and those of the
        survivors whose views still name the object — which the object's
        own view names, since every reference is registered both ways
        (:meth:`CrashInjector.crash
        <repro.simulation.failures.CrashInjector.crash>`).
        """
        kernel = self._triangulation
        rebuilds = kernel.rebuild_count
        kernel.remove(object_id)
        rebuilt = kernel.rebuild_count - rebuilds
        self._stats.kernel_rebuilds += rebuilt
        del self._nodes[object_id]
        self._member_order.discard(object_id)
        self._locate_index.discard(object_id)
        self._routing_cache.discard(object_id)
        if rebuilt:
            # A hull departure re-triangulates from scratch, and among
            # cocircular points it may settle on other diagonals than the
            # incremental history did — anywhere in the overlay.
            self._routing_cache.drop_all()

    # ------------------------------------------------------------------
    # routing and lookups
    # ------------------------------------------------------------------
    def route(self, source: int, target: Union[int, Point]) -> RouteResult:
        """Route a message from ``source`` to an object id or a point.

        Any integral ``target`` — Python ``int`` or :class:`numbers.Integral`
        subclass such as a numpy integer — is treated as an object id; a
        length-2 sequence is treated as a point of the attribute space.
        """
        if isinstance(target, numbers.Integral) and not isinstance(target, bool):
            result = route_to_object(self, source, int(target))
        else:
            result = greedy_route(self, source, target)  # type: ignore[arg-type]
        self._stats.routes.record(result.hops, result.messages)
        return result

    def lookup(self, point: Point, start: Optional[int] = None) -> RouteResult:
        """Find the object responsible for ``point`` by greedy routing.

        ``start`` defaults to the locate-index entry point (constant
        expected hops); pass :meth:`random_object_id` to model a request
        entering the overlay at an arbitrary peer.  The returned owner is
        exact for every start.
        """
        if not self._nodes:
            raise EmptyOverlayError("the overlay holds no objects")
        if start is None:
            start = self.query_entry_point(point)
        result = greedy_route(self, start, point)
        self._stats.queries.record(result.hops, result.messages)
        return result

    def route_many(self, pairs: Iterable[Tuple[int, Union[int, Point]]], *,
                   missing: str = "raise") -> List[RouteResult]:
        """Route a batch of ``(source, target)`` messages.

        The batched form used by the experiment runner for route-length
        sweeps and by the serving layer's traffic drivers; results and
        statistics are identical to calling :meth:`route` per pair.  A
        batch is one traffic shape with one router,
        :func:`~repro.core.routing.greedy_route_many`: from
        ``VECTOR_SCAN_THRESHOLD`` pairs up it is advanced as a frontier,
        every route one hop per numpy step; a shorter one is the loop over
        :func:`~repro.core.routing.greedy_route`.

        ``pairs`` is consumed once (a generator is fine) and **validated up
        front**: the first pair, in batch order, that :meth:`route` would
        refuse raises what :meth:`route` would raise for it, before any
        route of the batch is run or recorded.  (Until the frontier router
        the pairs ahead of the offending one were routed and counted
        first.)

        ``missing`` selects what happens when a pair references an object
        that has departed (a schedule sampled before a remove, or churn
        interleaved with the batch):

        * ``"raise"`` (default) — raise :class:`ObjectNotFoundError`, the
          historical sweep behaviour where a departed endpoint means a
          broken experiment.
        * ``"miss"`` — answer that pair with the defined miss result of
          :func:`~repro.core.routing.missed_route` (``success=False``,
          ``owner=MISS_OWNER``) and keep serving the rest of the batch,
          the behaviour sustained traffic over a churning overlay needs.
        """
        if missing not in ("raise", "miss"):
            raise ValueError(
                f'missing must be "raise" or "miss", got {missing!r}')
        pairs = list(pairs)
        results: List[Optional[RouteResult]] = [None] * len(pairs)
        nodes = self._nodes
        live: List[int] = []
        sources: List[int] = []
        targets: List[Point] = []
        for slot, (source, target) in enumerate(pairs):
            destination = None
            if isinstance(target, numbers.Integral) and not isinstance(target, bool):
                destination = int(target)
            if missing == "miss" and (int(source) not in nodes
                                      or (destination is not None
                                          and destination not in nodes)):
                results[slot] = missed_route(source, target)
                continue
            # The refusals of route(), in its order.
            if destination is not None and destination not in nodes:
                raise ObjectNotFoundError(destination)
            if not nodes:
                raise EmptyOverlayError("cannot route on an empty overlay")
            if source not in nodes:
                raise ObjectNotFoundError(source)
            if destination is None:
                target = (float(target[0]), float(target[1]))
                if not (math.isfinite(target[0]) and math.isfinite(target[1])):
                    raise ValueError(f"cannot route to a non-finite target {target}")
            targets.append(nodes[destination].position if destination is not None
                           else target)
            sources.append(source)
            live.append(slot)
        self._stats.query_misses += len(pairs) - len(live)
        routed = greedy_route_many(self, sources, targets)
        for slot, result in zip(live, routed):
            results[slot] = result
        self._stats.routes.record_many([result.hops for result in routed])
        return results

    # ------------------------------------------------------------------
    # bulk helpers and exports
    # ------------------------------------------------------------------
    def insert_many(self, positions: Iterable[Point]) -> List[int]:
        """Publish many objects in sequence; returns their ids in order.

        Every object joins through the full routed protocol (random
        introducer, greedy route, routed long links).  For
        building large overlays from a known batch of positions,
        :meth:`bulk_load` produces the same structure orders of magnitude
        faster.
        """
        return [self.insert(position) for position in positions]

    def bulk_load(self, positions: Iterable[Point]) -> List[int]:
        """Publish a batch of objects through the bulk-construction fast path.

        Instead of ``N`` independent routed joins, the batch costs the
        kernel's insertion loop plus whole-batch array passes:

        1. inserted into the Delaunay kernel in one spatially sorted pass
           with last-insert hints (each insertion walks O(1) triangles, its
           predicate filters inline),
        2. attached as overlay nodes and indexed in the locate grid,
        3. given its close neighbours by one batched exact radius query of
           the grid (:meth:`~repro.geometry.locate_grid.LocateGrid.within_many`:
           the sparse queries as array passes over the buckets they touch,
           no per-object neighbourhood exploration),
        4. given its long links from one vectorised Choose-LRT draw
           (:func:`~repro.core.long_range.choose_long_range_target_array`),
           every endpoint resolved by kernel descent
           (:meth:`~repro.geometry.delaunay.DelaunayTriangulation.nearest_vertex`)
           from a batched grid hint instead of a greedy overlay route, and
           installed in one pass — each link and its back registration
           written directly, the searches counted in one statistics update.

        The resulting Voronoi adjacency and close-neighbour sets are
        identical to sequential insertion of the same positions, and long
        links follow the same distribution (drawn from the overlay's RNG in
        a different order).  Loading into a non-empty overlay is supported:
        back-long-range registrations whose target now falls closer to a
        new object are handed over exactly as a routed join would.

        Ids are assigned in input order and returned in input order.

        Raises
        ------
        OverlayFullError
            When the batch would exceed ``n_max`` and overflow is not
            allowed (checked up front; nothing is inserted).
        DuplicateObjectError
            On a position duplicating an existing object or another batch
            entry (checked up front; nothing is inserted).
        """
        batch: List[Point] = []
        for position in positions:
            point = as_point(position)
            if not UNIT_SQUARE.contains(point):
                raise ValueError(f"object position {point} outside the unit square")
            batch.append(point)
        if not batch:
            return []
        if (len(self._nodes) + len(batch) > self._config.n_max
                and not self._config.allow_overflow):
            raise OverlayFullError(self._config.n_max)

        ids = list(range(self._next_id, self._next_id + len(batch)))
        try:
            # bulk_insert validates the whole batch (against existing
            # vertices and within itself) before mutating anything.
            self._triangulation.bulk_insert(batch, vertex_ids=ids)
        except DuplicatePointError as exc:
            # exc.existing_vertex is a published object for a clash with the
            # overlay and the first occurrence's prospective id for an
            # in-batch duplicate.
            raise DuplicateObjectError(
                f"duplicate position {exc.point} "
                f"(conflicts with object id {exc.existing_vertex})"
            ) from exc
        for object_id, point in zip(ids, batch):
            self._nodes[object_id] = ObjectNode(object_id=object_id, position=point)
        self._member_order.reset(self._nodes)
        self._locate_index.bulk_insert(zip(ids, batch))
        self._routing_cache.bulk_insert(ids)
        self._next_id = ids[-1] + 1
        # A batch lands everywhere at once: overlay-wide invalidation is
        # the honest scope.
        self.invalidate_routing_tables()

        bulk_integrate_objects(self, ids)
        self._establish_long_links_bulk(ids, batch)

        # Join accounting: zero routing hops (the whole point of the fast
        # path); messages are what the distributed attach would minimally
        # cost — region updates, close declarations, link registrations.
        degrees = self._triangulation.degree_map()
        for object_id in ids:
            node = self._nodes[object_id]
            attach_messages = (
                degrees[object_id]
                + len(node.close_neighbors)
                + len(node.long_links)
            )
            self._stats.joins.record(0, attach_messages)
        return ids

    def _establish_long_links_bulk(self, ids: Sequence[int],
                                   batch: Sequence[Point]) -> None:
        """Vectorised long-link establishment for a bulk-loaded batch.

        The batch's nodes are fresh, so each node's link tuple is built in
        one step, in index order; the state is what
        :meth:`ObjectNode.set_long_link` and :meth:`ObjectNode.add_back_link`
        per link, and one ``long_link_searches.record(0, 1)`` per link, would
        leave.
        """
        k = self._config.num_long_links
        if k == 0 or not ids:
            return
        targets = choose_long_range_target_array(
            np.asarray(batch, dtype=np.float64),
            self._config.effective_d_min, k, self._rng)
        locate = self._locate_index
        # One batched kernel descent over all n·k targets: grid hints seed
        # every walk, the kernel's star cache stays warm across the whole
        # batch, and endpoints are identical to per-target calls.
        flat_targets = list(map(tuple, targets.reshape(-1, 2).tolist()))
        endpoints = self._triangulation.nearest_vertices(
            flat_targets, hints=locate.hints(flat_targets))
        nodes = self._nodes
        links = zip(flat_targets, endpoints)
        for object_id in ids:
            node = nodes[object_id]
            records = []
            for index in range(k):
                target, endpoint = next(links)
                holder = nodes[endpoint]
                records.append((target, endpoint, holder.position))
                holder.back_links[object_id, index] = target
            node.long_links = tuple(records)
        # One search per link, each a zero-hop descent and one message.
        self._stats.long_link_searches.record_repeated(len(flat_targets), 0, 1)
        self.invalidate_routing_tables()

    def random_object_id(self) -> int:
        """A uniformly random published object id."""
        if not self._nodes:
            raise EmptyOverlayError("the overlay holds no objects")
        return self._sample_object_id()

    def check_consistency(self) -> List[str]:
        """Run the cross-object invariant checks; returns a list of problems."""
        from repro.core.maintenance import view_consistency_report

        problems = view_consistency_report(self)
        try:
            self._triangulation.validate()
        except Exception as exc:  # pragma: no cover - defensive
            problems.append(f"triangulation invalid: {exc}")
        problems.extend(membership_report(self._nodes, self._locate_index, (
            ("kernel", self._triangulation),
            ("routing cache", self._routing_cache))))
        problems.extend(self.routing_cache_report())
        problems.extend(self._triangulation.star_cache_report())
        return problems

    def routing_cache_report(self) -> List[str]:
        """Every cached routing table that is not a valid one (building none).

        Presence in the cache is validity, so each cached table, of either
        form, must list exactly the freshly assembled ``vn ∪ cn ∪ LRn``
        minus self with each candidate's current position.  An
        invalidation that left out an object whose view it changed shows
        up here, as does a table kept for a non-member or naming one (a
        dangling long link).  A cached row is a valid row too: the report
        ends with the batch router's id arena, brought level and compared
        with the scan-block tables it indexes
        (:func:`~repro.core.shards.arena_report`).
        """
        problems: List[str] = []
        nodes = self._nodes
        for object_id, (ids, positions, block) in self._routing_cache.tables.items():
            if object_id not in nodes:
                problems.append(f"{object_id}: cached routing table of a non-member")
                continue
            if block is None:
                block = [(cid, x, y) for cid, (x, y)
                         in zip(ids.tolist(), positions.tolist())]
            cached = {cid for cid, _x, _y in block}
            fresh = self._routing_candidates(object_id)
            if cached != fresh:
                problems.append(
                    f"{object_id}: cached routing table is stale: still lists "
                    f"{sorted(cached - fresh)}, lacks {sorted(fresh - cached)}")
            for cid, x, y in block:
                member = nodes.get(cid)
                if member is None:
                    problems.append(f"{object_id}: cached routing table names non-member {cid}")
                elif (x, y) != member.position:
                    problems.append(
                        f"{object_id}: cached routing table places {cid} at {(x, y)}, "
                        f"not {member.position}")
        problems.extend(arena_report(self._routing_cache))
        return problems

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VoroNet(objects={len(self._nodes)}, n_max={self._config.n_max}, "
            f"long_links={self._config.num_long_links})"
        )

