#!/usr/bin/env python3
"""Churn: joins, graceful departures and crashes.

Demonstrates the dynamism machinery of the reproduction:

* the message-level protocol simulator handles a burst of distributed
  joins/leaves and reports the per-operation message costs (the O(1)
  maintenance claim of Section 4.2);
* one seeded stream of joins, graceful leaves and crashes runs against an
  oracle-mode overlay;
* the crash injector removes objects *without* running the departure
  protocol, quantifies the dangling state survivors are left with, and runs
  a repair pass — the failure mode the paper's graceful-leave protocol does
  not cover.

Run with::

    python examples/churn_simulation.py
"""

from __future__ import annotations

import numpy as np

from repro.core import VoroNet, VoroNetConfig
from repro.simulation.failures import CrashInjector
from repro.simulation.protocol import ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects


def protocol_level_churn() -> None:
    """Distributed joins and leaves, every message counted."""
    print("=== message-level protocol churn ===")
    simulator = ProtocolSimulator(VoroNetConfig(n_max=2_000, seed=3), seed=3)
    positions = generate_objects(UniformDistribution(), 300, RandomSource(3))
    join_reports = [simulator.join(p) for p in positions]
    print(f"joined {len(simulator)} objects")
    steady = join_reports[50:]
    print(f"  mean join cost : {np.mean([r.messages for r in steady]):.1f} messages "
          f"({np.mean([r.routing_hops for r in steady]):.1f} routing hops)")

    rng = RandomSource(4)
    victims = [simulator.object_ids()[rng.integer(0, len(simulator))] for _ in range(80)]
    leave_reports = [simulator.leave(v) for v in dict.fromkeys(victims) if v in simulator.object_ids()]
    print(f"  mean leave cost: {np.mean([r.messages for r in leave_reports]):.1f} messages")
    problems = simulator.verify_views()
    print(f"  local views vs kernel after churn: "
          f"{'consistent' if not problems else problems[:3]}")
    print(f"  mean view size : {simulator.mean_view_size():.1f} entries\n")


def mixed_churn_trace() -> None:
    """One seeded stream of joins, graceful leaves and crashes (oracle overlay)."""
    print("=== seeded churn trace: joins, leaves and crashes (oracle overlay) ===")
    overlay = VoroNet(VoroNetConfig(n_max=5_000, seed=9))
    overlay.insert_many(generate_objects(UniformDistribution(), 400, RandomSource(9)))
    injector = CrashInjector(overlay, rng=RandomSource(11))
    rng = RandomSource(10)
    alive = overlay.object_ids()
    counts = {"join": 0, "leave": 0, "crash": 0}
    stale_seen = 0
    for _ in range(600):
        draw = rng.uniform()
        kind = "leave" if draw < 0.3 else "crash" if draw < 0.4 else "join"
        counts[kind] += 1
        if kind == "join":
            alive.append(overlay.insert(rng.random_point()))
            continue
        victim = alive.pop(rng.integer(0, len(alive)))
        if kind == "leave":
            overlay.remove(victim)
        else:
            # Later joins route over the survivors' views, so the repair
            # pass has to keep up with the crash stream.
            injector.crash(victim)
            stale_seen += injector.assess_damage().total_stale_entries
            injector.repair()
    print(f"ran 600 events: {counts['join']} joins, {counts['leave']} leaves, "
          f"{counts['crash']} crashes, population {len(alive)}")
    print(f"  stale entries the crashes left (repaired as they occurred): "
          f"{stale_seen}")
    print(f"  consistency: "
          f"{'OK' if overlay.check_consistency() == [] else 'PROBLEMS'}")
    print(f"  mean join cost over the run: "
          f"{overlay.stats.joins.mean_messages:.1f} messages\n")


def crash_and_repair() -> None:
    """Abrupt failures, damage assessment and repair."""
    print("=== crashes (no departure protocol) ===")
    overlay = VoroNet(VoroNetConfig(n_max=4_000, seed=21))
    overlay.insert_many(generate_objects(UniformDistribution(), 600, RandomSource(21)))
    injector = CrashInjector(overlay, rng=RandomSource(22))
    injector.crash_random(90)
    damage = injector.assess_damage()
    print(f"crashed {damage.crashed} objects without notice:")
    print(f"  dangling long links     : {damage.dangling_long_links}")
    print(f"  stale close neighbours  : {damage.stale_close_neighbors}")
    print(f"  survivors affected      : {damage.affected_objects}")

    fixed = injector.repair()
    after = injector.assess_damage()
    print(f"repair pass fixed {fixed} entries "
          f"(remaining dangling: {after.total_stale_entries})")

    rng = RandomSource(23)
    ids = overlay.object_ids()
    hops = []
    for _ in range(200):
        a, b = rng.choice(ids, size=2, replace=False)
        result = overlay.route(int(a), int(b))
        assert result.success
        hops.append(result.hops)
    print(f"routing after repair: {np.mean(hops):.1f} hops on average, all successful")


def main() -> None:
    protocol_level_churn()
    mixed_churn_trace()
    crash_and_repair()


if __name__ == "__main__":
    main()
