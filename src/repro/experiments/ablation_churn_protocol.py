"""ABL4 — message-level churn, crashes and self-healing repair.

The paper gives a graceful departure protocol (Section 3.3) and leaves
crash recovery open; PR 3's oracle-mode crash studies quantified the
damage, and the fault subsystem (:mod:`repro.simulation.faults`) now
repairs it through real messages.  This experiment sweeps the crash
fraction on a bulk-joined protocol overlay and reports, per fraction:

* the damage abrupt failures leave in surviving local views (dangling
  long links, stale close neighbours, dangling back registrations, stale
  Voronoi entries),
* how many heartbeat rounds detection needs and how many phased repair
  rounds convergence needs,
* the message cost of every phase (build / churn / detect / repair, with
  the repair sub-phases broken out), and
* whether the overlay converged back to a clean ``verify_views()`` with
  zero residual damage — entirely via messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.plots import format_table
from repro.experiments.common import Claim, scaled
from repro.simulation.scenario import HealOutcome, Scenario

__all__ = ["ChurnProtocolResult", "run_ablation_churn_protocol",
           "format_churn_protocol", "claims"]


@dataclass(frozen=True)
class ChurnProtocolResult:
    """Per-crash-fraction heal outcomes on one overlay size."""

    seed: int
    overlay_size: int
    churn_events: int
    loss_probability: float
    crash_fractions: List[float]
    reports: Dict[float, HealOutcome]


def run_ablation_churn_protocol(scale: float = 1.0, seed: int = 2007, *,
                                crash_fractions: Sequence[float] = (0.05, 0.1, 0.2),
                                loss_probability: float = 0.0,
                                max_repair_rounds: int = 12) -> ChurnProtocolResult:
    """Run the churn + crash + repair sweep.

    Parameters
    ----------
    scale:
        Size multiplier; 1.0 builds 800-object overlays with 48 churn
        events per fraction (the acceptance-criterion scale of 1 000
        objects at 10 % crashes corresponds to the benchmark driver).
    crash_fractions:
        Fractions of the post-churn population crashed per run.
    loss_probability:
        Message-loss probability applied during detection and repair —
        non-zero values exercise the retry-safety of the repair rounds.
    """
    size = scaled(800, scale, minimum=64)
    churn_events = scaled(48, scale, minimum=16)
    reports: Dict[float, HealOutcome] = {}
    for index, fraction in enumerate(crash_fractions):
        scenario = Scenario(num_objects=size, seed=seed + index,
                            churn_events=churn_events)
        scenario.build()
        scenario.churn()
        scenario.crash(fraction)
        reports[fraction] = scenario.heal(
            max_repair_rounds=max_repair_rounds,
            loss_probability=loss_probability)
    return ChurnProtocolResult(
        seed=seed,
        overlay_size=size,
        churn_events=churn_events,
        loss_probability=loss_probability,
        crash_fractions=list(crash_fractions),
        reports=reports,
    )


def format_churn_protocol(result: ChurnProtocolResult) -> str:
    """Render the ABL4 experiment as damage/convergence/cost tables."""
    lines = [
        "Ablation ABL4 — protocol-mode crash damage and self-healing repair "
        f"({result.overlay_size} objects, {result.churn_events} churn events, "
        f"loss p={result.loss_probability})"
    ]
    rows = []
    for fraction in result.crash_fractions:
        report = result.reports[fraction]
        damage = report.damage
        rows.append([
            f"{fraction:.0%}",
            damage.crashed,
            damage.total_stale_entries,
            damage.affected_objects,
            report.detection_rounds,
            report.repair.rounds,
            report.phase_messages.get("detect", 0),
            report.phase_messages.get("repair", 0),
            "yes" if report.converged else "NO",
        ])
    lines.append(format_table(
        ["crash", "crashed", "stale entries", "affected", "detect rounds",
         "repair rounds", "detect msgs", "repair msgs", "converged"],
        rows))
    lines.append("")
    lines.append("Repair message breakdown (per crash fraction):")
    for fraction in result.crash_fractions:
        report = result.reports[fraction]
        phases = {key.split(":", 1)[1]: value
                  for key, value in report.phase_messages.items()
                  if key.startswith("repair:")}
        breakdown = ", ".join(f"{name}={count}"
                              for name, count in sorted(phases.items()))
        lines.append(f"  {fraction:.0%}: {breakdown}")
    return "\n".join(lines)


def claims(result: ChurnProtocolResult) -> List[Claim]:
    """Crashes leave damage; detection plus phased repair heal all of it."""
    rows = []
    for fraction in result.crash_fractions:
        report = result.reports[fraction]
        rows.append(Claim(f"{fraction:.0%} crashed: survivors are left holding stale references",
                          report.damage.total_stale_entries,
                          report.damage.total_stale_entries > 0))
        rows.append(Claim(f"{fraction:.0%} crashed: repair converges to clean views "
                          "with no residual damage",
                          {"repair_rounds": report.repair.rounds,
                           "verify_problems": report.verify_problems,
                           "residual": report.residual_damage.total_stale_entries},
                          report.converged))
    return rows
