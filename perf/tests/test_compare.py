"""The verdicts compare.py hands out."""

from __future__ import annotations

import json

from perf import compare


def test_spread_is_the_quartile_distance_over_the_median():
    assert compare.spread([10.0]) == 0.0
    assert compare.spread([9.0, 10.0, 11.0]) == 0.2


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [102.0, 101.0, 103.0], "lower", 0.10) == "within"
    assert compare.verdict(steady, [120.0, 121.0, 119.0], "lower", 0.10) == "worse"
    assert compare.verdict(steady, [120.0, 121.0, 119.0], "higher", 0.10) == "better"
    assert compare.verdict(steady, [80.0, 81.0, 79.0], "higher", 0.10) == "worse"
    noisy = [100.0, 140.0, 70.0, 120.0]
    assert compare.verdict(noisy, [101.0, 100.0, 99.0], "lower", 0.10) == "unresolved"
    # Noise does not hide a change in which every run beats every run.
    assert compare.verdict(noisy, [50.0, 52.0, 49.0], "lower", 0.10) == "better"
    assert compare.verdict(noisy, [150.0, 152.0, 149.0], "lower", 0.10) == "unresolved"


def test_compare_pairs_every_metric_with_every_workload(tmp_path, declared):
    def runs(scale: float) -> str:
        records = [
            {
                "workload": workload["name"],
                "seed": seed,
                "trace": 0,
                "metrics": {
                    metric["name"]: {"value": scale * (100.0 + seed), "unit": metric["unit"]}
                    for metric in declared["end_to_end"]
                },
            }
            for workload in declared["workloads"]
            for seed in range(3)
        ]
        path = tmp_path / f"runs-{scale}.json"
        path.write_text(json.dumps({"runs": records}))
        return str(path)

    rows = compare.compare(runs(1.0), runs(1.0), declared)
    assert len(rows) == len(declared["workloads"]) * len(declared["end_to_end"])
    assert {row["verdict"] for row in rows} == {"within"}
    slower = compare.compare(runs(1.0), runs(2.0), declared)
    by_metric = {row["metric"]: row["verdict"] for row in slower}
    assert by_metric["setup_s"] == "worse" and by_metric["build_objects_per_s"] == "better"
