"""Tests of the experiment drivers and their scorecard (small scales —
``REPRODUCTION.json`` is the full-size run)."""

import json
from pathlib import Path

import pytest

from repro.experiments.ablation_churn_protocol import (
    format_churn_protocol,
    run_ablation_churn_protocol,
)
from repro.experiments.ablation_close_neighbors import format_ablation_close, run_ablation_close
from repro.experiments.ablation_maintenance import format_maintenance, run_maintenance_experiment
from repro.experiments.common import checkpoint_schedule, evaluation_distributions, scaled
from repro.experiments.fig5_degree import format_fig5, run_fig5
from repro.experiments.fig6_routes import claims as fig6_claims
from repro.experiments.fig6_routes import format_fig6, run_fig6
from repro.experiments.fig7_slope import format_fig7, run_fig7
from repro.experiments.fig8_longlinks import format_fig8, run_fig8
from repro.experiments.common import Claim
from repro.experiments.runner import EXPERIMENTS, main
from repro.simulation.protocol import ProtocolNode

REPRODUCTION = Path(__file__).resolve().parents[2] / "REPRODUCTION.json"


class TestCommonHelpers:
    def test_scaled_has_floor(self):
        assert scaled(1000, 0.001) == 8
        assert scaled(1000, 2.0) == 2000

    def test_checkpoint_schedule(self):
        schedule = checkpoint_schedule(600, 3)
        assert schedule == [200, 400, 600]
        with pytest.raises(ValueError):
            checkpoint_schedule(100, 0)

    def test_evaluation_distributions_names(self):
        names = [d.name for d in evaluation_distributions()]
        assert names == ["uniform", "powerlaw-a1", "powerlaw-a2", "powerlaw-a5"]


class TestFigureDrivers:
    def test_fig5_small_scale(self):
        result = run_fig5(scale=0.05)
        assert set(result.histograms) == {"uniform", "powerlaw-a1",
                                          "powerlaw-a2", "powerlaw-a5"}
        for summary in result.summaries.values():
            assert summary.count == result.overlay_size
        text = format_fig5(result)
        assert "Figure 5" in text and "uniform" in text

    def test_fig6_and_fig7_small_scale(self):
        """Every measured pair is also a greedy QUERY walk over the
        bulk-joined twin's local views: same owner, same hops, at every
        rung — one holding claim per rung — and fig7 fits the sweep."""
        sweep = run_fig6(scale=0.05)
        assert len(sweep.checkpoints) >= 3
        for series in sweep.series.values():
            assert len(series) == len(sweep.checkpoints)
            assert [point.mismatches for point in series] == [0] * len(series)
        parity = [row for row in fig6_claims(sweep) if "route for route" in row.claim]
        assert len(parity) == len(sweep.series) * len(sweep.checkpoints)
        assert all(row.holds for row in parity)
        assert parity[0].measured == {"objects": sweep.checkpoints[0],
                                      "pairs": sweep.num_pairs, "mismatches": 0}
        assert "Figure 6" in format_fig6(sweep)
        fit = run_fig7(sweep=sweep)
        assert set(fit.fits) == set(sweep.series)
        assert "slope" in format_fig7(fit)

    def test_fig6_bulk_load_matches_shape(self):
        """Overlays grown by ``bulk_load`` between checkpoints route every pair."""
        sweep = run_fig6(scale=0.05)
        assert len(sweep.checkpoints) >= 3
        for series in sweep.series.values():
            assert len(series) == len(sweep.checkpoints)
            assert all(point.stats.failures == 0 for point in series)

    def test_fig6_counts_a_planted_protocol_divergence(self, monkeypatch):
        """A protocol next hop gone wrong is counted, not hidden: object 0
        answers every QUERY it holds instead of forwarding it.  The oracle
        series does not move; the rungs it touched fail their claim."""
        honest = run_fig6(scale=0.05)

        def answer_at_zero(node, sender, payload):
            if node.object_id != 0:
                return ProtocolNode._on_query(node, sender, payload)
            target, requester, query_id, path, hops = payload
            node.simulator.send(node, requester, "QUERY_ANSWER",
                                (target, node.object_id, query_id, path, hops))

        monkeypatch.setitem(ProtocolNode._DISPATCH, "QUERY", answer_at_zero)
        planted = run_fig6(scale=0.05)
        for name, series in planted.series.items():
            assert [p.stats for p in series] == [p.stats for p in honest.series[name]]
        mismatches = [point.mismatches for series in planted.series.values()
                      for point in series]
        assert sum(mismatches) > 0
        parity = [row for row in fig6_claims(planted) if "route for route" in row.claim]
        assert [row.holds for row in parity] == [count == 0 for count in mismatches]
        assert [row.measured["mismatches"] for row in parity] == mismatches

    def test_fig8_small_scale(self):
        result = run_fig8(scale=0.05, link_counts=(1, 3, 6))
        assert result.link_counts == [1, 3, 6]
        for name in result.results:
            assert len(result.mean_hops(name)) == 3
        assert "Figure 8" in format_fig8(result)

    def test_ablation_close_small_scale(self):
        result = run_ablation_close(scale=0.05)
        assert set(result.routing) == {"clustered", "powerlaw-a5"}
        assert "ABL1" in format_ablation_close(result)

    def test_maintenance_small_scale(self):
        result = run_maintenance_experiment(scale=0.05)
        assert len(result.sizes) == 4
        assert all(result.join_messages[s] > 0 for s in result.sizes)
        assert result.protocol_join_messages > 0
        assert "ABL3" in format_maintenance(result)

    def test_churn_protocol_small_scale(self):
        result = run_ablation_churn_protocol(scale=0.15,
                                             crash_fractions=(0.05, 0.15))
        assert result.crash_fractions == [0.05, 0.15]
        for report in result.reports.values():
            assert report.converged
            assert report.verify_problems == 0
            assert report.damage.total_stale_entries > 0
            assert report.phase_messages["repair"] > 0
        text = format_churn_protocol(result)
        assert "ABL4" in text and "converged" in text


class TestRunner:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "fig5", "fig6", "fig7", "fig8",
            "abl1-close", "abl2-baselines", "abl3-maintenance",
            "abl4-churn-protocol",
        }

    def test_cli_runs_one_experiment(self, capsys):
        exit_code = main(["fig5", "--scale", "0.05"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Figure 5" in output
        assert "completed in" in output

    def test_cli_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["does-not-exist"])


def claim_ids(scorecard):
    return {(name, row["claim"]) for name, entry in scorecard["experiments"].items()
            for row in entry["claims"]}


class TestScorecard:
    @pytest.fixture(scope="class")
    def scorecard(self, tmp_path_factory):
        """``all`` at smoke scale; verdicts are scale-dependent, so the exit
        code is not asserted here."""
        path = tmp_path_factory.mktemp("scorecard") / "REPRODUCTION.json"
        main(["all", "--scale", "0.05", "--output", str(path)])
        return json.loads(path.read_text())

    def test_every_experiment_reports_well_formed_claims(self, scorecard):
        assert set(scorecard["experiments"]) == set(EXPERIMENTS)
        for name, entry in scorecard["experiments"].items():
            assert isinstance(entry["seed"], int), name
            claims = [row["claim"] for row in entry["claims"]]
            assert claims and len(set(claims)) == len(claims), name
            for row in entry["claims"]:
                assert set(row) == {"claim", "measured", "holds"}
                assert isinstance(row["claim"], str) and row["claim"]
                assert isinstance(row["holds"], bool)
        assert scorecard["holds"] == all(
            row["holds"] for entry in scorecard["experiments"].values()
            for row in entry["claims"])

    def test_fig7_fits_the_fig6_sweep_of_the_same_run(self, scorecard):
        assert (scorecard["experiments"]["fig7"]["seed"]
                == scorecard["experiments"]["fig6"]["seed"])

    def test_committed_scorecard_is_current_and_holds(self, scorecard):
        committed = json.loads(REPRODUCTION.read_text())
        assert committed["scale"] == 1.0
        assert claim_ids(committed) == claim_ids(scorecard)
        assert committed["holds"]
        assert all(row["holds"] for entry in committed["experiments"].values()
                   for row in entry["claims"])

    def test_failed_claim_fails_the_run(self, scorecard, monkeypatch, tmp_path, capsys):
        run, format_result, claims = EXPERIMENTS["fig5"]

        def one_forced_false(result):
            rows = claims(result)
            return [Claim(rows[0].claim, rows[0].measured, False)] + rows[1:]

        monkeypatch.setitem(EXPERIMENTS, "fig5", (run, format_result, one_forced_false))
        path = tmp_path / "scorecard.json"
        assert main(["fig5", "--scale", "0.05", "--output", str(path)]) == 1
        written = json.loads(path.read_text())
        assert not written["holds"]
        assert (len(written["experiments"]["fig5"]["claims"])
                == len(scorecard["experiments"]["fig5"]["claims"]))
        assert "FAILED" in capsys.readouterr().out
