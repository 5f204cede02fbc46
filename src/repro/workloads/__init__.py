"""Workload generation: object placements, routing pairs and query targets.

The paper's evaluation populates the unit square with 300 000 objects drawn
from a uniform distribution and from power-law ("sparse") distributions of
increasing skew (α = 1, 2, 5), then measures routing between random object
pairs.  This package generates those placements plus the richer workloads
used by the examples and ablation benchmarks, and — for the serving layer
— the *query-target* samplers of :mod:`repro.workloads.samplers`
(uniform and Zipf popularity).
"""

from repro.workloads.distributions import (
    ClusteredDistribution,
    GridDistribution,
    ObjectDistribution,
    PowerLawDistribution,
    UniformDistribution,
    distribution_by_name,
    paper_distributions,
)
from repro.workloads.generators import (
    RoutingPairs,
    generate_objects,
    generate_routing_pairs,
)
from repro.workloads.samplers import (
    TargetSampler,
    UniformTargets,
    ZipfTargets,
)

__all__ = [
    "ObjectDistribution",
    "UniformDistribution",
    "PowerLawDistribution",
    "ClusteredDistribution",
    "GridDistribution",
    "distribution_by_name",
    "paper_distributions",
    "generate_objects",
    "generate_routing_pairs",
    "RoutingPairs",
    "TargetSampler",
    "UniformTargets",
    "ZipfTargets",
]
