"""Benchmark PROTO-CHURN — message-level crash detection and repair.

Builds a bulk-joined protocol overlay, churns it gracefully, crashes a
fraction of the population abruptly, and measures the self-healing path of
the fault subsystem (:mod:`repro.simulation.faults`): heartbeat detection
rounds, phased repair rounds, and the message cost of every phase.  The
record asserts *convergence*, not mere completion: repair must finish
within the round budget with a clean ``verify_views()`` and zero residual
stale references — dangling long links, stale close neighbours and
dangling back registrations all healed entirely through counted messages.

``python benchmarks/bench_protocol_churn.py --objects 1000 --output
benchmarks/BENCH_protocol_churn.json`` emits the JSON record and exits
non-zero when repair fails to converge within ``--max-repair-rounds``
rounds or any residual damage survives (tier 1 re-derives the record on
a small overlay with the same bar, see
``tests/integration/test_bench_gate.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.simulation.scenario import Scenario, measure_steady_state_liveness

#: Overlay size of the canonical record (the acceptance-criterion scale:
#: crash 10% of a 1 000-object bulk-joined protocol overlay).
DEFAULT_OBJECTS = 1000
DEFAULT_SEED = 4242
DEFAULT_CRASH_FRACTION = 0.1
DEFAULT_MAX_REPAIR_ROUNDS = 12


def run_protocol_churn(num_objects: int, seed: int, crash_fraction: float,
                       churn_events: int, loss_probability: float,
                       max_repair_rounds: int) -> dict:
    """Run the staged experiment once; the JSON-serialisable bench record."""
    scenario = Scenario(num_objects=num_objects, seed=seed,
                        churn_events=churn_events)
    network = scenario.simulator.network
    started = time.perf_counter()
    built = scenario.build()
    churn_joins, churn_leaves = scenario.churn()
    # Steady-state liveness cost, on the healthy overlay before the crash.
    before = network.messages_sent
    steady_state = measure_steady_state_liveness(scenario.simulator)
    steady_state_messages = network.messages_sent - before
    scenario.crash(crash_fraction)
    report = scenario.heal(max_repair_rounds=max_repair_rounds,
                           loss_probability=loss_probability)
    seconds = time.perf_counter() - started
    damage = report.damage
    residual = report.residual_damage
    return {
        "benchmark": "protocol_churn",
        "objects": num_objects,
        "seed": seed,
        "crash_fraction": crash_fraction,
        "churn_events": churn_events,
        "loss_probability": loss_probability,
        "max_repair_rounds": max_repair_rounds,
        "seconds_total": round(seconds, 4),
        "objects_built": len(built.object_ids),
        "churn_joins": churn_joins,
        "churn_leaves": churn_leaves,
        "crashed": damage.crashed,
        "damage_before_repair": {
            "dangling_long_links": damage.dangling_long_links,
            "stale_close_neighbors": damage.stale_close_neighbors,
            "dangling_back_links": damage.dangling_back_links,
            "stale_voronoi_entries": damage.stale_voronoi_entries,
            "affected_objects": damage.affected_objects,
            "total_stale_entries": damage.total_stale_entries,
        },
        "detection_rounds": report.detection_rounds,
        "repair_rounds": report.repair.rounds,
        "reissued_long_links": report.repair.reissued_long_links,
        "phase_messages": {**report.phase_messages,
                           "steady_state": steady_state_messages},
        "residual_stale_entries": residual.total_stale_entries,
        "verify_problems": report.verify_problems,
        "converged": report.converged,
        "virtual_time": round(scenario.simulator.engine.now, 2),
        "steady_state_liveness": steady_state,
    }


def record_ok(record: dict) -> bool:
    """The convergence bar the exit code enforces: repaired, clean and bounded."""
    return (record["converged"]
            and record["verify_problems"] == 0
            and record["residual_stale_entries"] == 0
            and record["repair_rounds"] <= record["max_repair_rounds"])


def format_protocol_churn(record: dict) -> str:
    """One-paragraph human rendering of a bench record."""
    damage = record["damage_before_repair"]
    text = (
        f"Protocol churn @ {record['objects']} objects: "
        f"{record['crashed']} crashed ({record['crash_fraction']:.0%}) after "
        f"{record['churn_joins']}+{record['churn_leaves']} churn ops — "
        f"{damage['total_stale_entries']} stale entries across "
        f"{damage['affected_objects']} survivors; detected in "
        f"{record['detection_rounds']} heartbeat rounds, repaired in "
        f"{record['repair_rounds']} rounds "
        f"({record['phase_messages'].get('repair', 0)} msgs), "
        f"residual {record['residual_stale_entries']}, "
        f"verify problems {record['verify_problems']}, "
        f"converged: {record['converged']}"
    )
    steady = record.get("steady_state_liveness")
    if steady:
        text += (
            f"; steady-state liveness over {steady['rounds']:.0f} rounds "
            f"(+{steady['queries_per_round']:.0f} queries/round): "
            f"{steady['liveness_messages']:.0f} PING+PONG, "
            f"{steady['messages_per_member_round']:.3f} per member-round"
        )
    return text


def main(argv=None) -> int:
    """Entry point of ``python benchmarks/bench_protocol_churn.py``."""
    parser = argparse.ArgumentParser(
        description="Benchmark message-level crash detection + repair.")
    parser.add_argument("--objects", type=int, default=DEFAULT_OBJECTS,
                        help=f"overlay size (default {DEFAULT_OBJECTS})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--crash-fraction", type=float,
                        default=DEFAULT_CRASH_FRACTION)
    parser.add_argument("--churn-events", type=int, default=48)
    parser.add_argument("--loss", type=float, default=0.0,
                        help="message-loss probability during detect/repair")
    parser.add_argument("--max-repair-rounds", type=int,
                        default=DEFAULT_MAX_REPAIR_ROUNDS,
                        help="round budget the convergence assertion enforces")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON bench record here")
    args = parser.parse_args(argv)

    record = run_protocol_churn(num_objects=args.objects, seed=args.seed,
                                crash_fraction=args.crash_fraction,
                                churn_events=args.churn_events,
                                loss_probability=args.loss,
                                max_repair_rounds=args.max_repair_rounds)
    print(format_protocol_churn(record))
    if args.output is not None:
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"record written to {args.output}")
    if not record_ok(record):
        print(f"FAIL: repair did not converge within "
              f"{args.max_repair_rounds} rounds "
              f"(converged={record['converged']}, "
              f"verify={record['verify_problems']}, "
              f"residual={record['residual_stale_entries']})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
