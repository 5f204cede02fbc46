"""ABL3 — maintenance cost of joins and departures.

Section 4.2 argues that, beyond the poly-logarithmic routing phase, every
join and leave touches only an O(1) neighbourhood (region updates, close
declarations, long-link hand-overs).  This experiment measures exactly
that, in both execution modes:

* the oracle overlay reports the accounted message counts per operation
  (``OverlayStats``), across growing overlay sizes — the per-operation cost
  must stay flat while the routing hops grow poly-logarithmically;
* the message-level protocol simulator reports the true number of network
  messages per operation, validating the oracle-mode accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.analysis.plots import format_table
from repro.core import VoroNet, VoroNetConfig
from repro.experiments.common import CAPACITY_HEADROOM, Claim, scaled
from repro.simulation.protocol import ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects

__all__ = ["MaintenanceResult", "run_maintenance_experiment", "format_maintenance", "claims"]


@dataclass(frozen=True)
class MaintenanceResult:
    """Per-size maintenance costs (oracle mode) plus a protocol-mode sample."""

    seed: int
    sizes: List[int]
    join_messages: Dict[int, float]
    join_routing_hops: Dict[int, float]
    leave_messages: Dict[int, float]
    protocol_join_messages: float
    protocol_leave_messages: float
    protocol_size: int


def run_maintenance_experiment(scale: float = 1.0,
                               seed: int = 2003) -> MaintenanceResult:
    """Measure join/leave message costs across overlay sizes."""
    sizes = [scaled(base, scale) for base in (500, 1000, 2000, 4000)]
    probe_count = scaled(200, scale, minimum=20)
    join_messages: Dict[int, float] = {}
    join_hops: Dict[int, float] = {}
    leave_messages: Dict[int, float] = {}
    for index, size in enumerate(sizes):
        rng = RandomSource(seed + index)
        positions = generate_objects(UniformDistribution(), size + probe_count, rng)
        # This experiment measures the paper's protocol costs: insert()
        # routes every join from a uniformly random introducer.
        overlay = VoroNet(VoroNetConfig(
            n_max=CAPACITY_HEADROOM * (size + probe_count), seed=seed + index))
        overlay.insert_many(positions[:size])
        overlay.stats.reset()
        # Measure a batch of fresh joins at this size...
        extra = overlay.insert_many(positions[size:size + probe_count])
        join_messages[size] = overlay.stats.joins.mean_messages
        join_hops[size] = overlay.stats.joins.mean_hops
        # ...and the matching departures.
        for victim in extra:
            overlay.remove(victim)
        leave_messages[size] = overlay.stats.leaves.mean_messages

    # Protocol-mode sample (message-level ground truth): built by
    # sequential routed joins at the smallest size.
    protocol_size = sizes[0]
    protocol_probes = min(100, probe_count)
    simulator = ProtocolSimulator(
        VoroNetConfig(n_max=CAPACITY_HEADROOM * (protocol_size + protocol_probes),
                      seed=seed), seed=seed)
    rng = RandomSource(seed + 99)
    positions = generate_objects(UniformDistribution(),
                                 protocol_size + protocol_probes, rng)
    for position in positions[:protocol_size]:
        simulator.join(position)
    join_reports = [simulator.join(p) for p in positions[protocol_size:]]
    leave_reports = [simulator.leave(r.object_id) for r in join_reports]
    return MaintenanceResult(
        seed=seed,
        sizes=sizes,
        join_messages=join_messages,
        join_routing_hops=join_hops,
        leave_messages=leave_messages,
        protocol_join_messages=float(np.mean([r.messages for r in join_reports])),
        protocol_leave_messages=float(np.mean([r.messages for r in leave_reports])),
        protocol_size=protocol_size,
    )


def format_maintenance(result: MaintenanceResult) -> str:
    """Render the maintenance-cost experiment."""
    lines = ["Ablation ABL3 — maintenance cost per operation"]
    rows = [
        [size, result.join_routing_hops[size], result.join_messages[size],
         result.leave_messages[size]]
        for size in result.sizes
    ]
    lines.append(format_table(
        ["overlay size", "join routing hops", "join messages", "leave messages"],
        rows))
    lines.append("")
    lines.append(
        f"Protocol-mode ground truth at {result.protocol_size} objects: "
        f"join = {result.protocol_join_messages:.1f} messages, "
        f"leave = {result.protocol_leave_messages:.1f} messages"
    )
    return "\n".join(lines)


def claims(result: MaintenanceResult) -> List[Claim]:
    """Section 4.2: joins cost poly-log routing plus O(1); leaves cost O(1)."""
    smallest, largest = result.sizes[0], result.sizes[-1]
    size_ratio = largest / smallest
    join, leave = result.join_messages, result.leave_messages
    oracle_join = join[result.protocol_size]
    protocol_join = result.protocol_join_messages
    return [
        Claim("join cost grows less than half as fast as the overlay",
              {size: round(join[size], 1) for size in (smallest, largest)},
              join[largest] < join[smallest] * size_ratio / 2),
        Claim("leave cost stays essentially flat across overlay sizes",
              {size: round(leave[size], 1) for size in (smallest, largest)},
              leave[largest] < leave[smallest] * 2 + 5),
        Claim("protocol-mode join messages agree with the oracle accounting within 6x",
              {"protocol": round(protocol_join, 1), "oracle": round(oracle_join, 1)},
              protocol_join < 6 * oracle_join and oracle_join < 6 * protocol_join),
    ]
