"""Golden parity of the staged scenario pipeline with its three predecessors.

First recorded at the parent of the PR that introduced
:mod:`repro.simulation.scenario` (commit e78c3cd), *before* the churn
harness, the merge harness and the fuzzer's ``run_trace`` were folded
into one :class:`~repro.simulation.scenario.Scenario`:

* ``FuzzOutcome.fingerprint`` of the first ten traces of each CI
  fuzz-smoke sweep (``--seed 20260807``; ``--seed 20260808 --crashes 2
  --partition-fraction 0.3 --partition-duration 5000``), and
* every non-timing field of the four ``bench_partition_merge.py
  --objects 48 --queries-per-side 6`` scenarios.

A change to the pipeline that moves any of these has changed what the
experiments *do*, not just how they are staged.  The deliberate moves are
recorded beside the data, with their reasons.  Two are history: reading
the crash list live, so detection waits for a victim that dies inside the
heal phase, moved exactly the traces with a heal-phase crash (two
single-crash, seven partition traces); the repair audit settling the
pairwise invariants ``verify_views()`` gained from the oracle's checker
moved two partition traces and the ``flapping`` scenario.  The third,
``MOVED_BY_ONE_LIVENESS_POLICY``, moved every trace and all four
scenarios, so the fingerprints of the two before it (commit 5e0d5ee's
version of this file) no longer decide anything here.  The fourth moved
the four scenarios only: a heal became the union rebuild plus one standing
repair, and the merge flood's fields left the record (the comment above
``MERGE_SCENARIOS``).
"""

import sys
from pathlib import Path

import pytest

from repro.geometry import locate_grid
from repro.simulation.fuzz import run_sweep

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import bench_partition_merge  # noqa: E402

SWEEPS = {
    "single-crash": dict(master_seed=20260807),
    "multi-crash+partition": dict(master_seed=20260808, crashes=2,
                                  partition_fraction=0.3,
                                  partition_duration=5000.0),
}

#: The ten fingerprints of each sweep once piggy-backed, sampled probing is
#: the only liveness policy: the scenario's detector no longer probes every
#: reference every round, so every trace's detect phase sends other
#: heartbeats (for more rounds) and all ten traces of both sweeps moved.  The
#: CI digests moved with them (``8e123df9…`` → ``301b075d…``,
#: ``dfc0c5ac…`` → ``668bee1b…``) to exactly what flipping the two config
#: defaults alone gives: deleting the detector eras moved nothing further.
MOVED_BY_ONE_LIVENESS_POLICY = {
    "single-crash": [
        "a6e348a76633572092763845f0ab34b37612e73118511668c3f749c15e9f40fd",
        "edd990fd1060f86de31fd492c84d580f97e7bf73f47546ba60f2913612b2b361",
        "ee67f78d5cfa1d3ec413ba8b5d3220d12e8834b0c36a1bf2c9e458367bce3bcf",
        "3e6fb38703c5b5e8803c814df6337c833ccde1e80627511028d01a3e17f00c7d",
        "03dc9b72e1d0c55ecb8cb3b9b7d4dc97d401b6b7c9d85dc547d4bc21209587e7",
        "43d5906bfa7c3b6ee2974038aeb8aea601fbc8acac9763bb58b59696b8b46c35",
        "c648bfdef803ff9d5a11e039c249ba21dd353bddc151e2cb1b3306d82a3bfe4a",
        "573865832098641953674bf98d18f7dab6c76f915e83adebbd11b510091affba",
        "f953f60a1053e8b53338a7ee88f195bb3a1b8a4bdaa46da95a1ca8d5b9dee28e",
        "442df6e1170fa636de5182fdca76ff8c04b0edfa94e3e69c2e41002e9d48db7d",
    ],
    "multi-crash+partition": [
        "08961e1029d83200d7fd0e3da8677d06395c333791e87269e4ecd0bd7a90c179",
        "bde21e6eed9240dd25b04652e03a45f3020eade1acc9ea1ca4a41308f944908a",
        "3ec9467a6632d772b8e278de9a33a3352e626b465dd8ccdaadf85d66acc9cabe",
        "388ee1b0be8252fe9033f7aaac84006bc8182d4b232f948e1ecae024fe09b754",
        "05a7891eea82f8e19c57d57e2e754011d9f19e3f5234c47e3eb2db0df78b351d",
        "8eca5b26b33f5853c36fd2e13988f09c30f9256b049d50b66da6be8a1243e8ac",
        "d1fa11791607c88d644830c8b1f2677c82d04e1956e14fbe9eaeebee6a913fe0",
        "b991fadc0139c2ff46a61c8c6138ecf64735bdab041b6f5441d268425454a86d",
        "76581dd64b1b56374fc83adf99bc05348e516e53c8ce78d2564c2d7003073234",
        "05c97375497c46c3bc02873dc6448750105b5dd963b0cde9ce250716501aac48",
    ],
}

# Re-recorded with MOVED_BY_ONE_LIVENESS_POLICY: split-era detection runs
# the sampled detector, which takes other rounds to suspect every cross-side
# reference, so each heal starts at another time (two_way 99 -> 101, asymmetric
# 102 -> 104, three_way 112 -> 111, flapping 84/190/279 -> 86/194/289) and
# the message totals move (2 299 -> 2 476, 2 245 -> 2 103, 2 407 -> 2 882,
# 5 288 -> 5 626).  Convergence, parity, collisions, availability rates and
# every time_to_converge are unchanged.
#
# Re-recorded again when a heal became the union rebuild plus one standing
# RepairProtocol.repair(), with no merge flood: boundary_edges,
# digest_messages and reconcile_messages left the record with the flood;
# merge_rounds now counts the repair's rounds (1 -> 3, flapping [1, 1, 1] ->
# [2, 3, 3]); merge_messages fall (474 -> 94, 451 -> 94, 562 -> 162,
# 1 200 -> 270) and the totals with them (2 476 -> 2 086, 2 103 -> 1 743,
# 2 882 -> 2 475, 5 626 -> 4 944); every time_to_converge falls to 4.0
# (6.0, and 7.0 for asymmetric), so the later flapping cycles start one and
# three time units sooner (194 -> 193, 289 -> 286).  oracle_view_parity
# now also holds every close set to the peers inside the d_min disc.
# Convergence, parity, collisions, union inserts, the cross references at
# each split and the availability rates are unchanged.
MERGE_SCENARIOS = {'two_way': {'scenario': 'two_way',
             'objects': 48,
             'sides': 2,
             'cycles': 1,
             'converged': True,
             'oracle_view_parity': True,
             'routing_parity_queries': 32,
             'routing_parity_mismatches': 0,
             'final_verify_problems': 0,
             'merge_rounds': [3],
             'merge_messages': 94,
             'id_collisions_resolved': 2,
             'coordinate_conflicts': 0,
             'union_inserts': 4,
             'time_to_converge_max': 4.0,
             'cross_references_at_split': [186],
             'availability': {'sides': {'0': {'degraded': {'queries': 4.0,
                                                           'served': 1.0,
                                                           'success_rate': 0.25},
                                              'stable': {'queries': 6.0,
                                                         'served': 6.0,
                                                         'success_rate': 1.0}},
                                        '1': {'degraded': {'queries': 4.0,
                                                           'served': 0.0,
                                                           'success_rate': 0.0},
                                              'stable': {'queries': 6.0,
                                                         'served': 6.0,
                                                         'success_rate': 1.0}}},
                              'degraded_success_rate': 0.125,
                              'stable_success_rate': 1.0,
                              'heals': [{'healed_at': 101.0,
                                         'converged_at': 105.0,
                                         'time_to_converge': 4.0}],
                              'time_to_converge_max': 4.0},
             'messages': 2086,
             'virtual_time': 235.0},
 'two_way_asymmetric': {'scenario': 'two_way_asymmetric',
                        'objects': 48,
                        'sides': 2,
                        'cycles': 1,
                        'converged': True,
                        'oracle_view_parity': True,
                        'routing_parity_queries': 32,
                        'routing_parity_mismatches': 0,
                        'final_verify_problems': 0,
                        'merge_rounds': [3],
                        'merge_messages': 94,
                        'id_collisions_resolved': 2,
                        'coordinate_conflicts': 0,
                        'union_inserts': 4,
                        'time_to_converge_max': 4.0,
                        'cross_references_at_split': [130],
                        'availability': {'sides': {'0': {'degraded': {'queries': 4.0,
                                                                      'served': 1.0,
                                                                      'success_rate': 0.25},
                                                         'stable': {'queries': 6.0,
                                                                    'served': 6.0,
                                                                    'success_rate': 1.0}},
                                                   '1': {'degraded': {'queries': 4.0,
                                                                      'served': 1.0,
                                                                      'success_rate': 0.25},
                                                         'stable': {'queries': 6.0,
                                                                    'served': 6.0,
                                                                    'success_rate': 1.0}}},
                                         'degraded_success_rate': 0.25,
                                         'stable_success_rate': 1.0,
                                         'heals': [{'healed_at': 104.0,
                                                    'converged_at': 108.0,
                                                    'time_to_converge': 4.0}],
                                         'time_to_converge_max': 4.0},
                        'messages': 1743,
                        'virtual_time': 235.0},
 'three_way': {'scenario': 'three_way',
               'objects': 48,
               'sides': 3,
               'cycles': 1,
               'converged': True,
               'oracle_view_parity': True,
               'routing_parity_queries': 32,
               'routing_parity_mismatches': 0,
               'final_verify_problems': 0,
               'merge_rounds': [3],
               'merge_messages': 162,
               'id_collisions_resolved': 4,
               'coordinate_conflicts': 0,
               'union_inserts': 6,
               'time_to_converge_max': 4.0,
               'cross_references_at_split': [266],
               'availability': {'sides': {'0': {'degraded': {'queries': 4.0,
                                                             'served': 2.0,
                                                             'success_rate': 0.5},
                                                'stable': {'queries': 6.0,
                                                           'served': 6.0,
                                                           'success_rate': 1.0}},
                                          '1': {'degraded': {'queries': 4.0,
                                                             'served': 0.0,
                                                             'success_rate': 0.0},
                                                'stable': {'queries': 6.0,
                                                           'served': 6.0,
                                                           'success_rate': 1.0}},
                                          '2': {'degraded': {'queries': 4.0,
                                                             'served': 1.0,
                                                             'success_rate': 0.25},
                                                'stable': {'queries': 6.0,
                                                           'served': 6.0,
                                                           'success_rate': 1.0}}},
                                'degraded_success_rate': 0.25,
                                'stable_success_rate': 1.0,
                                'heals': [{'healed_at': 111.0,
                                           'converged_at': 115.0,
                                           'time_to_converge': 4.0}],
                                'time_to_converge_max': 4.0},
               'messages': 2475,
               'virtual_time': 255.0},
 'flapping': {'scenario': 'flapping',
              'objects': 36,
              'sides': 2,
              'cycles': 3,
              'converged': True,
              'oracle_view_parity': True,
              'routing_parity_queries': 32,
              'routing_parity_mismatches': 0,
              'final_verify_problems': 0,
              'merge_rounds': [2, 3, 3],
              'merge_messages': 270,
              'id_collisions_resolved': 6,
              'coordinate_conflicts': 0,
              'union_inserts': 12,
              'time_to_converge_max': 4.0,
              'cross_references_at_split': [136, 144, 168],
              'availability': {'sides': {'0': {'degraded': {'queries': 12.0,
                                                            'served': 2.0,
                                                            'success_rate': 0.16666666666666666},
                                               'stable': {'queries': 18.0,
                                                          'served': 18.0,
                                                          'success_rate': 1.0}},
                                         '1': {'degraded': {'queries': 12.0,
                                                            'served': 4.0,
                                                            'success_rate': 0.3333333333333333},
                                               'stable': {'queries': 18.0,
                                                          'served': 18.0,
                                                          'success_rate': 1.0}}},
                               'degraded_success_rate': 0.25,
                               'stable_success_rate': 1.0,
                               'heals': [{'healed_at': 86.0,
                                          'converged_at': 90.0,
                                          'time_to_converge': 4.0},
                                         {'healed_at': 193.0,
                                          'converged_at': 197.0,
                                          'time_to_converge': 4.0},
                                         {'healed_at': 286.0,
                                          'converged_at': 290.0,
                                          'time_to_converge': 4.0}],
                               'time_to_converge_max': 4.0},
              'messages': 4944,
              'virtual_time': 415.0}}

@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_fuzz_fingerprints_match_the_parent(sweep):
    report = run_sweep(schedules=10, **SWEEPS[sweep])
    assert report.converged
    assert ([outcome.fingerprint for outcome in report.outcomes]
            == MOVED_BY_ONE_LIVENESS_POLICY[sweep])


@pytest.mark.parametrize("name", sorted(MERGE_SCENARIOS))
def test_merge_scenarios_match_the_parent(name):
    params = bench_partition_merge.scenario_matrix(48, 4242)[name]
    record = bench_partition_merge.run_scenario(
        name, params, inserts_per_side=2, queries_per_side=6)
    del record["seconds"]
    assert record == MERGE_SCENARIOS[name]


@pytest.fixture
def array_scans(monkeypatch):
    """Send every locate-grid bucket scan through the array branch.

    At these populations no bucket reaches ``VECTOR_SCAN_THRESHOLD``, so the
    records above pin the loop branch only.  Protocol mode turns the order
    of ``LocateGrid.within`` into CLOSE_DECLARE send order and ``hint`` into
    join entry points; with the threshold at 1 the same records pin that the
    array branch returns the same ids in the same order.
    """
    monkeypatch.setattr(locate_grid, "VECTOR_SCAN_THRESHOLD", 1)


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_fuzz_fingerprints_survive_array_scans(array_scans, sweep):
    test_fuzz_fingerprints_match_the_parent(sweep)


@pytest.mark.parametrize("name", sorted(MERGE_SCENARIOS))
def test_merge_scenarios_survive_array_scans(array_scans, name):
    test_merge_scenarios_match_the_parent(name)
