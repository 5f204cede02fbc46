"""Core VoroNet overlay — the paper's primary contribution.

The main entry point is :class:`repro.core.overlay.VoroNet`; the other
modules implement its building blocks (configuration, per-object state,
neighbour views, routing, long-range links, maintenance, queries).
"""

from repro.core.config import VoroNetConfig
from repro.core.errors import (
    DuplicateObjectError,
    EmptyOverlayError,
    ObjectNotFoundError,
    OverlayFullError,
    RoutingError,
    VoroNetError,
)
from repro.core.long_range import (
    choose_long_range_target,
    choose_long_range_target_array,
)
from repro.core.neighbors import NeighborView
from repro.core.node import LinkRecord, ObjectNode
from repro.core.overlay import VoroNet
from repro.core.queries import (
    QueryResult,
    point_query,
    radius_query,
    range_query,
    segment_query,
)
from repro.core.routing import (
    RouteResult,
    greedy_route,
    route_to_object,
)
from repro.core.shards import RoutingTableCache
from repro.core.stats import OperationStats, OverlayStats

__all__ = [
    "VoroNet",
    "VoroNetConfig",
    "VoroNetError",
    "ObjectNotFoundError",
    "DuplicateObjectError",
    "OverlayFullError",
    "EmptyOverlayError",
    "RoutingError",
    "ObjectNode",
    "LinkRecord",
    "NeighborView",
    "RouteResult",
    "greedy_route",
    "route_to_object",
    "choose_long_range_target",
    "choose_long_range_target_array",
    "QueryResult",
    "point_query",
    "range_query",
    "radius_query",
    "segment_query",
    "OperationStats",
    "OverlayStats",
    "RoutingTableCache",
]
