"""Run the benchmark: ``python3 perf/run.py [--workload NAME] [--seed S] [--trace 0|1]``.

Each run of each workload happens in its own fresh single-threaded interpreter
(``perf/worker.py``); this process only starts them, checks what they emit
against ``BENCHMARK.json``, prints every metric by name with its unit and
ends with one JSON line in the contract's form::

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

End-to-end metrics are measured with tracing off.  ``--trace 1`` runs the
same inputs twice — untraced, then with the timing wrappers installed — and
prints the per-layer metrics; the traced run must leave every simulated
statistic where the untraced one put it.

This file imports nothing but the standard library, so it starts from a bare
checkout without ``PYTHONPATH``; it hands ``src/`` and the checkout root to
the workers itself.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: A worker that runs longer than this is stopped (the contract allows 180 s
#: for the whole command, two workers in a traced run).
WORKER_TIMEOUT_S = 85


def load_benchmark() -> Dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_worker(workload: str, seed: int, seconds: float, trace: int, spans: Optional[str]) -> Dict:
    """One worker process, waited for; its last stdout line is the result."""
    environment = dict(os.environ)
    inherited = environment.get("PYTHONPATH")
    paths = [str(ROOT / "src"), str(ROOT)] + ([inherited] if inherited else [])
    environment["PYTHONPATH"] = os.pathsep.join(paths)
    command = [sys.executable, "-m", "perf.worker", "--workload", workload]
    command += ["--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if spans and trace:
        command += ["--spans", spans]
    # subprocess.run kills and reaps the worker if the timeout expires.
    finished = subprocess.run(
        command,
        cwd=ROOT,
        env=environment,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        check=True,
    )
    return json.loads(finished.stdout.strip().splitlines()[-1])


def against_untraced(untraced: Dict, traced: Dict) -> Tuple[Dict[str, float], List[str]]:
    """The two cross-run metrics, and every simulated statistic tracing moved.

    A tracer that perturbs the simulation is a broken tracer: the second
    list must be empty.
    """
    metrics = {
        "trace.overhead_ratio": traced["timed_s"] / untraced["timed_s"],
        "simulation.engine.events_per_s": (
            untraced["simulated"]["engine_events"] / untraced["timed_s"]
        ),
    }
    moved = [
        f"simulated statistic {key} moved under tracing: {untraced['simulated'].get(key)!r}"
        f" -> {value!r}"
        for key, value in traced["simulated"].items()
        if untraced["simulated"].get(key) != value
    ]
    return metrics, moved


def measure(
    workload: str, seed: int, seconds: float, trace: int, spans: Optional[str], declared: Dict
) -> Dict:
    """One record: the contract's four keys plus what produced them."""
    untraced = run_worker(workload, seed, seconds, 0, None)
    problems = list(untraced["problems"])
    attempted, failed = untraced["attempted"], untraced["failed"]
    if trace:
        traced = run_worker(workload, seed, seconds, 1, spans)
        values, moved = against_untraced(untraced, traced)
        values = {**traced["per_layer"], **values}
        units = traced["units"]
        problems += traced["problems"] + moved
        gone = traced["missing_targets"]
        problems += [f"trace target gone from the program: {name}" for name in gone]
        attempted += traced["attempted"]
        failed += traced["failed"]
        expected = declared["per_layer"]
    else:
        values = untraced["end_to_end"]
        units = untraced["units"]
        expected = declared["end_to_end"]

    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    wanted = {entry["name"]: entry["unit"] for entry in expected}
    emitted = {name: metric["unit"] for name, metric in metrics.items()}
    if emitted != wanted:
        odd = sorted(set(emitted.items()) ^ set(wanted.items()))
        problems.append(f"metrics emitted differ from BENCHMARK.json: {odd}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "raw_phases": untraced["raw_phases"],
        "speed": untraced["speed"],
    }


def contract_line(record: Dict) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({key: record[key] for key in keys})


def report(record: Dict) -> None:
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    width = max(len(name) for name in record["metrics"])
    for name, metric in record["metrics"].items():
        print(f"  {name:<{width}}  {metric['value']:>16.6g} {metric['unit']}")
    phases = "  ".join(f"{name} {spent:.2f}" for name, spent in record["raw_phases"].items())
    print(f"  raw seconds per phase (untraced run): {phases}")
    speed = record["speed"]
    print(
        f"  machine speed against the reference (1 = nominal): median {speed['median']:.2f},"
        f" 5th-95th percentile {speed['p05']:.2f}-{speed['p95']:.2f}"
    )
    print(f"  operations: {record['attempted']} attempted, {record['failed']} failed")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    declared = load_benchmark()
    names = [entry["name"] for entry in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="default: all of them, in turn")
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument(
        "--vary-seed",
        action="store_true",
        help="run i of a repeat uses seed + i, as the driver does",
    )
    parser.add_argument("--output", help="write every record to this JSON file (for compare.py)")
    parser.add_argument("--spans", help="traced runs write their spans to this CSV file")
    args = parser.parse_args(argv)

    records: List[Dict] = []
    for repeat in range(args.repeat):
        seed = args.seed + repeat if args.vary_seed else args.seed
        for name in [args.workload] if args.workload else names:
            try:
                record = measure(name, seed, args.seconds, args.trace, args.spans, declared)
            except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
                # No result line: the driver must see a failure, not a number.
                print(f"perf: worker for {name} did not finish: {error}", file=sys.stderr)
                return 2
            records.append(record)
            report(record)
            print(contract_line(record), flush=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump({"seconds": args.seconds, "runs": records}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
