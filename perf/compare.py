"""Compare two sets of runs: ``python3 perf/compare.py A.json B.json``.

``A`` and ``B`` are files written by ``perf/run.py --repeat K --output FILE``
(the parent commit and the change, or the same commit twice to check
repeatability).  For every pairing of end-to-end metric and workload this
prints each set's median and quartiles and a verdict against the bound fixed
in ``BENCHMARK.json``:

``within``      B's median is no worse than A's by more than the bound
``worse``       it is
``better``      it is better by more than the bound
``unresolved``  the run-to-run spread of either set exceeds the bound, so the
                medians cannot settle it — unless every run of B reads better
                than every run of A, which counts as ``better``

Spread is the distance between the first and third quartile as a share of the
median, as the driver computes it.  Exit status 1 if any pairing is ``worse``
or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

Key = Tuple[str, str]


def load_runs(path: str) -> Dict[Key, List[float]]:
    """(workload, metric) -> the values of every untraced run in the file."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    values: Dict[Key, List[float]] = defaultdict(list)
    for run in runs:
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            values[(run["workload"], name)].append(metric["value"])
    return values


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    first, _, third = quantiles(values, n=4)
    return (third - first) / abs(median(values))


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    # Positive when B is worse than A, as a share of A's median.
    change = sign * (median(b) - median(a)) / abs(median(a))
    if max(spread(a), spread(b)) > bound:
        b_always_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return "better" if b_always_better else "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within"


def compare(a_path: str, b_path: str, declared: Dict) -> List[Dict]:
    a_runs, b_runs = load_runs(a_path), load_runs(b_path)
    rows: List[Dict] = []
    for workload in (entry["name"] for entry in declared["workloads"]):
        for metric in declared["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_runs or key not in b_runs:
                continue
            a, b = a_runs[key], b_runs[key]
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                    "a_median": median(a),
                    "a_spread": spread(a),
                    "b_median": median(b),
                    "b_spread": spread(b),
                    "runs": (len(a), len(b)),
                    "verdict": verdict(a, b, metric["better"], metric["bound"]),
                }
            )
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="runs of the parent (or the first set)")
    parser.add_argument("b", help="runs of the change (or the second set)")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)

    rows = compare(args.a, args.b, declared)
    print(
        f"{'workload':<16} {'metric':<24} {'A median':>12} {'A iqr':>6} {'B median':>12}"
        f" {'B iqr':>6} {'B vs A':>7} {'bound':>6}  verdict"
    )
    for row in rows:
        change = (row["b_median"] - row["a_median"]) / abs(row["a_median"])
        print(
            f"{row['workload']:<16} {row['metric']:<24} {row['a_median']:>12.5g}"
            f" {row['a_spread']:>6.1%} {row['b_median']:>12.5g} {row['b_spread']:>6.1%}"
            f" {change:>+7.1%} {row['bound']:>6.0%}  {row['verdict']}"
        )
    bad = [row for row in rows if row["verdict"] in ("worse", "unresolved")]
    print(f"{len(rows)} pairings, {len(bad)} worse or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
