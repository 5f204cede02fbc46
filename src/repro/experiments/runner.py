"""Command-line experiment runner and reproduction scorecard.

Usage::

    python -m repro.experiments fig5            # one experiment
    python -m repro.experiments fig6 --scale 2  # larger run
    python -m repro.experiments all --output REPRODUCTION.json

Each experiment prints its tables and ASCII plots, then its scorecard:
one row per claim of the paper it judges — the claim, the value this run
measured, and whether the claim holds.  The exit code is non-zero when
any claim fails; ``--output`` writes the scorecard (scale, seeds, rows)
as JSON.  The committed ``REPRODUCTION.json`` is ``all`` at the default
scale.  ``--scale`` multiplies every workload size; 1.0 finishes on a
laptop in under a minute, the paper's full 300 000-object runs correspond
to scale ≈ 50–75 for Figures 5–8.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Tuple

from repro.experiments import (
    ablation_baselines,
    ablation_churn_protocol,
    ablation_close_neighbors,
    ablation_maintenance,
    fig5_degree,
    fig6_routes,
    fig7_slope,
    fig8_longlinks,
)

__all__ = ["main", "build_parser", "EXPERIMENTS"]

#: Registry of experiment name → (run, format, claims).
EXPERIMENTS: Dict[str, Tuple[Callable, Callable, Callable]] = {
    "fig5": (fig5_degree.run_fig5, fig5_degree.format_fig5, fig5_degree.claims),
    "fig6": (fig6_routes.run_fig6, fig6_routes.format_fig6, fig6_routes.claims),
    "fig7": (fig7_slope.run_fig7, fig7_slope.format_fig7, fig7_slope.claims),
    "fig8": (fig8_longlinks.run_fig8, fig8_longlinks.format_fig8, fig8_longlinks.claims),
    "abl1-close": (ablation_close_neighbors.run_ablation_close,
                   ablation_close_neighbors.format_ablation_close,
                   ablation_close_neighbors.claims),
    "abl2-baselines": (ablation_baselines.run_baseline_comparison,
                       ablation_baselines.format_baseline_comparison,
                       ablation_baselines.claims),
    "abl3-maintenance": (ablation_maintenance.run_maintenance_experiment,
                         ablation_maintenance.format_maintenance,
                         ablation_maintenance.claims),
    "abl4-churn-protocol": (ablation_churn_protocol.run_ablation_churn_protocol,
                            ablation_churn_protocol.format_churn_protocol,
                            ablation_churn_protocol.claims),
}


def build_parser() -> argparse.ArgumentParser:
    """The runner's whole option set (pinned by ``test_option_budget``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the VoroNet paper's evaluation figures.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"],
                        help="which experiment to run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0, paper scale ≈ 50-75)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the experiment's base seed")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the scorecard (claim, measured, holds) here as JSON")
    return parser


def main(argv=None) -> int:
    """Entry point of ``python -m repro.experiments``; non-zero if a claim fails."""
    args = build_parser().parse_args(argv)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    kwargs = {"scale": args.scale}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    results: Dict[str, object] = {}
    scorecard: Dict[str, dict] = {}
    for name in names:
        run, format_result, claims = EXPERIMENTS[name]
        started = time.time()
        if name == "fig7" and "fig6" in results:
            # Figure 7 replots the Figure 6 data: fit the sweep already run.
            result = run(sweep=results["fig6"])
        else:
            result = run(**kwargs)
        elapsed = time.time() - started
        results[name] = result
        rows = claims(result)
        scorecard[name] = {
            "seed": result.seed,
            "seconds": round(elapsed, 1),
            "claims": [row._asdict() for row in rows],
        }
        print("=" * 72)
        print(format_result(result))
        print()
        for row in rows:
            print(f"  [{'ok' if row.holds else 'FAILED'}] {row.claim}: {row.measured}")
        print(f"[{name} completed in {elapsed:.1f}s]")
        print()
    failed = [f"{name}: {row['claim']}" for name, entry in scorecard.items()
              for row in entry["claims"] if not row["holds"]]
    total = sum(len(entry["claims"]) for entry in scorecard.values())
    print(f"scorecard: {total - len(failed)}/{total} claims hold")
    for claim in failed:
        print(f"  FAILED {claim}")
    if args.output is not None:
        args.output.write_text(json.dumps(
            {"scale": args.scale, "holds": not failed, "experiments": scorecard},
            indent=2, ensure_ascii=False) + "\n")
        print(f"scorecard written to {args.output}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
