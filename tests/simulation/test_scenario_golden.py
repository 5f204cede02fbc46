"""Golden parity of the staged scenario pipeline with its three predecessors.

Recorded at the parent of the PR that introduced
:mod:`repro.simulation.scenario` (commit e78c3cd), *before* the churn
harness, the merge harness and the fuzzer's ``run_trace`` were folded
into one :class:`~repro.simulation.scenario.Scenario`:

* ``FuzzOutcome.fingerprint`` of the first ten traces of each CI
  fuzz-smoke sweep (``--seed 20260807``; ``--seed 20260808 --crashes 2
  --partition-fraction 0.3 --partition-duration 5000``), and
* every non-timing field of the four ``bench_partition_merge.py
  --objects 48 --queries-per-side 6`` scenarios.

A change to the pipeline that moves any of these has changed what the
experiments *do*, not just how they are staged.  The deliberate
exceptions are recorded beside the data.  One: the parent froze its crash list
before the heal cycles, so a victim that died inside the heal phase was
never waited for by detection; reading the list live moves exactly the
traces with a heal-phase crash (``MOVED_BY_LIVE_CRASH_LIST``, parent
value → value after the fix) and no other.  Two: repair's audit settles
the pairwise invariants ``verify_views()`` gained from the oracle's
checker (``MOVED_BY_PAIRWISE_AUDIT`` and the ``flapping`` scenario).
"""

import sys
from pathlib import Path

import pytest

from repro.geometry import locate_grid
from repro.simulation.fuzz import CrashEvent, run_sweep

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

PARENT_FINGERPRINTS = {
    "single-crash": [
        "16c3c2516d860750614f663ecdb78284ffb603ef93f41971e5ac4f9e278ec5f2",
        "97a672cdedc7250b18c58697179315d2bc0896c5f184dec9e2a323cfb17d2552",
        "ff1a17a7bff6de4056e1eb5f3f9f704226cf9001bd95baeb00fbeb3df2fb5176",
        "986148c4cba3d240516f56edca6e1dc83afd0d8943bbc79436a3e25080908551",
        "8415c7b2dc9b5ef03de3b15cce2fe6a3180959fe586382068636e3418cd22182",
        "e2c5c5c054b28dd2860b9cec341f9c007699badabab513ef7aa613096a5ddfbf",
        "ac157fef643780c7b6716082b4992cc462d7df6e86f39d6b9f66040dac66a356",
        "00ef643cf6f19c3e21ad0200c7699ac2e0fe03094dae04b74ca8c96f6beade7a",
        "1709540931288e1142b8e5cceeb49b83ff7bdfd03d1967f7abcb6077feed89d0",
        "4e2d3520f1830697bcfb4fca46699375716dd79af5286ae5b4c3a0c9c3cbff47",
    ],
    "multi-crash+partition": [
        "286b1bd502dd136e1f91e0034753d6439fe6b684fc284130da05b40a90674ce6",
        "43d53010135fcf274387d8de273960a72899d94f4a496d9354b335ea866b8301",
        "80d31391a4e693a947c8fd4ed64a98301c1b36996ec5d2f0fddcdf26e652414d",
        "c2224f9506c09c61d04443ce76a5719c9fbe71489c58cf01435e8964474fc530",
        "ed7f1db89446f07178674168427ef577f6cd70e6c49a994a11bf05f39e519020",
        "964ca3bce5f7a4993ea2c8c2372d17452eefda886eca5d7cb7889504130e3653",
        "e6476985f6d35df24ecd0f33cc97f428f960660eb91c9069f5780415b426d7e9",
        "1b5bc133873cd134058437d187cfef884af0ac7084c019e03a6dcc6036df2e42",
        "da849fb73cd2e6ce4a25c83b5e75718c23b33ffa14f575c85f2a2d2b204725ea",
        "78a03c2aa1adcd278ee84aa785e2e4f343fa699de6b422c512c0de07a872e60b",
    ],
}

#: index in the sweep -> fingerprint once detection waits for victims
#: that crash during the heal phase.
MOVED_BY_LIVE_CRASH_LIST = {
    "single-crash": {
        0: "82a29600d5335a4111cc283a578b99969b47a9aa39f9b5bf52a49c70019b2bdf",
        8: "27d20b46a8233eee606dac2b5d162e68b2ee8039931700ad75468033ddec6d21",
    },
    "multi-crash+partition": {
        1: "d0e7775b6811e8b04c798dfb96b18d2265b235e98c96fdd61877516aa907aa8a",
        3: "8e8051f13374223156e1f58a30b19acda075576c3c68ca90de0e6115c6b21916",
        4: "7d8eb593e4103bf944d56223ca3918b30f81a40bf2b0754abaeed939cee34824",
        5: "18dc27046ee649c063439146652433dd0229f64630fde1aca07cf18e9a0c1daa",
        6: "4936cecb76254f6b7c2ec4d88e9461f5e9d773326e1f48a077c3d4599fd66b8d",
        8: "d2eb7e13d4a16dcaef34f0884393cc352a42e2f4e8780568913fcc836e7896e5",
        9: "dd237d0856fb14ddff5e6d6a06d58b9016cb2407056411c8767c47931a065717",
    },
}

#: index in the sweep -> fingerprint once ``RepairProtocol._audit`` also
#: settles the pairwise families ``verify_views()`` now shares with the
#: oracle's checker (a long link without its back registration is
#: re-searched, an orphan registration dropped, a one-sided close pair
#: re-declared): a trace moves iff its repair left one of those behind at
#: the parent, which took a cut or lost ``BACKLINK_TRANSFER`` /
#: ``CLOSE_DECLARE`` — two of the first ten partition traces, none of the
#: single-crash ones (that sweep's whole digest is unchanged).
MOVED_BY_PAIRWISE_AUDIT = {
    "single-crash": {},
    "multi-crash+partition": {
        2: "df0e865b6c78ba858da9732a392984a76dcbc709c46d594a5a76f5410497df6b",
        7: "28a2890a63485e6c511b773df10babad7e89033233cda7f769717abe9085489c",
    },
}

MERGE_SCENARIOS = {'two_way': {'scenario': 'two_way',
             'objects': 48,
             'sides': 2,
             'cycles': 1,
             'converged': True,
             'oracle_view_parity': True,
             'routing_parity_queries': 32,
             'routing_parity_mismatches': 0,
             'final_verify_problems': 0,
             'boundary_edges': [79],
             'merge_rounds': [1],
             'digest_messages': 365,
             'reconcile_messages': 52,
             'merge_messages': 474,
             'id_collisions_resolved': 2,
             'coordinate_conflicts': 0,
             'union_inserts': 4,
             'time_to_converge_max': 6.0,
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
                              'heals': [{'healed_at': 99.0,
                                         'converged_at': 105.0,
                                         'time_to_converge': 6.0}],
                              'time_to_converge_max': 6.0},
             'messages': 2299,
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
                        'boundary_edges': [55],
                        'merge_rounds': [1],
                        'digest_messages': 341,
                        'reconcile_messages': 52,
                        'merge_messages': 451,
                        'id_collisions_resolved': 2,
                        'coordinate_conflicts': 0,
                        'union_inserts': 4,
                        'time_to_converge_max': 7.0,
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
                                         'heals': [{'healed_at': 102.0,
                                                    'converged_at': 109.0,
                                                    'time_to_converge': 7.0}],
                                         'time_to_converge_max': 7.0},
                        'messages': 2245,
                        'virtual_time': 236.0},
 'three_way': {'scenario': 'three_way',
               'objects': 48,
               'sides': 3,
               'cycles': 1,
               'converged': True,
               'oracle_view_parity': True,
               'routing_parity_queries': 32,
               'routing_parity_mismatches': 0,
               'final_verify_problems': 0,
               'boundary_edges': [108],
               'merge_rounds': [1],
               'digest_messages': 410,
               'reconcile_messages': 54,
               'merge_messages': 562,
               'id_collisions_resolved': 4,
               'coordinate_conflicts': 0,
               'union_inserts': 6,
               'time_to_converge_max': 6.0,
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
                                'heals': [{'healed_at': 112.0,
                                           'converged_at': 118.0,
                                           'time_to_converge': 6.0}],
                                'time_to_converge_max': 6.0},
               'messages': 2407,
               'virtual_time': 258.0},
 # Re-recorded with MOVED_BY_PAIRWISE_AUDIT: each merge's audit now drops
 # the orphan registrations re-searched links leave at suspected endpoints,
 # so the next split's scrub phases refresh fewer views (5 294 -> 5 288
 # messages, every later heal 2-4 time units earlier, same 6.0 to converge).
 'flapping': {'scenario': 'flapping',
              'objects': 36,
              'sides': 2,
              'cycles': 3,
              'converged': True,
              'oracle_view_parity': True,
              'routing_parity_queries': 32,
              'routing_parity_mismatches': 0,
              'final_verify_problems': 0,
              'boundary_edges': [60, 55, 67],
              'merge_rounds': [1, 1, 1],
              'digest_messages': 904,
              'reconcile_messages': 132,
              'merge_messages': 1200,
              'id_collisions_resolved': 6,
              'coordinate_conflicts': 0,
              'union_inserts': 12,
              'time_to_converge_max': 6.0,
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
                               'heals': [{'healed_at': 84.0,
                                          'converged_at': 90.0,
                                          'time_to_converge': 6.0},
                                         {'healed_at': 190.0,
                                          'converged_at': 196.0,
                                          'time_to_converge': 6.0},
                                         {'healed_at': 279.0,
                                          'converged_at': 285.0,
                                          'time_to_converge': 6.0}],
                               'time_to_converge_max': 6.0},
              'messages': 5288,
              'virtual_time': 410.0}}


def crashed_in_heal_phase(outcome):
    """Did one of the trace's crash events land after the heal mark?"""
    heal_start = dict(outcome.phase_marks)["heal"]
    return any(isinstance(event, CrashEvent)
               and heal_start < event.at_message <= outcome.messages
               for event in outcome.trace.events)


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_fuzz_fingerprints_match_the_parent(sweep):
    report = run_sweep(schedules=10, **SWEEPS[sweep])
    assert report.converged
    moved = MOVED_BY_LIVE_CRASH_LIST[sweep]
    expected = [moved.get(index, fingerprint) for index, fingerprint
                in enumerate(PARENT_FINGERPRINTS[sweep])]
    for index, fingerprint in MOVED_BY_PAIRWISE_AUDIT[sweep].items():
        expected[index] = fingerprint
    assert [outcome.fingerprint for outcome in report.outcomes] == expected
    # Only a crash inside the heal phase may move a trace off the parent.
    for index in moved:
        assert crashed_in_heal_phase(report.outcomes[index]), index


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
