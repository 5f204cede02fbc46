"""The repair settles what the shared view walk finds, as the audit did.

``RepairProtocol`` builds its five work lists — mis-held links, stale
views, dead references, orphan registrations, one-sided close pairs —
from the findings of ``view_report``, the walk ``verify_views()`` prints.
``tests/reference_repair_audit.py`` keeps the hand-kept audit those lists
came from before.  On damaged overlays every walk a repair takes is held
to the reference's audit of the same state: equal lists, list for list
and in order.  Damage is crashes with and without a heartbeat detector,
lossy detection and repair rounds, a crash fired mid-repair by
``Network.at_message``, and a scoped repair of each side of an open split.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_repair_audit import ReferenceAudit
from repro.core import VoroNetConfig
from repro.simulation.faults import (FaultPlane, HeartbeatConfig, HeartbeatDetector,
                                     ProtocolCrashInjector, RepairProtocol)
from repro.simulation.merge import PartitionRuntime
from repro.simulation.protocol import ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.distributions import PowerLawDistribution, UniformDistribution
from repro.workloads.generators import generate_objects

DAMAGE = ("detector", "no detector", "lossy", "mid-repair crash", "split")


def build(count, seed, placement=UniformDistribution()):
    config = VoroNetConfig(n_max=4 * (count + 16), num_long_links=2, seed=seed)
    simulator = ProtocolSimulator(config, seed=seed, faults=FaultPlane(seed=seed + 1))
    simulator.bulk_join(generate_objects(placement, count, RandomSource(seed)))
    return simulator


def repair_held_to_reference(repairer):
    """Run ``repairer.repair()``, comparing every walk with the reference.

    The reference gets a fresh memo per call, as the audit's lived for one
    ``repair()`` call.  Returns the report and the work lists compared.
    """
    reference = ReferenceAudit(repairer)
    findings = repairer._findings
    compared = []

    def checked():
        found = findings()
        expected = reference._audit()
        assert repairer._work_lists(found) == expected
        compared.append(expected)
        return found

    repairer._findings = checked
    try:
        return repairer.repair(), compared
    finally:
        del repairer._findings


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(damage=st.sampled_from(DAMAGE), seed=st.integers(0, 2**16),
       placement=st.sampled_from([UniformDistribution(), PowerLawDistribution(2)]),
       count=st.integers(24, 72), crashes=st.integers(1, 6),
       loss=st.sampled_from([0.05, 0.2, 0.4]),
       fire_at=st.integers(1, 120), detection_rounds=st.integers(0, 4))
def test_work_lists_are_the_reference_audit(damage, seed, placement, count, crashes,
                                            loss, fire_at, detection_rounds):
    simulator = build(count, seed, placement)
    injector = ProtocolCrashInjector(simulator, RandomSource(seed + 2))
    detector = HeartbeatDetector(simulator, config=HeartbeatConfig(miss_threshold=2))
    if damage == "split":
        runtime = PartitionRuntime(simulator)
        live = sorted(simulator.nodes)
        half = len(live) // 2
        runtime.open_split([live[:half], live[half:]])
        detector.run_rounds(detection_rounds)
        for index in range(runtime.num_sides):
            with runtime.side(index):
                repairer = RepairProtocol(simulator, detector=detector,
                                          scope=runtime.side_members(index))
                _report, compared = repair_held_to_reference(repairer)
            assert compared
        return
    injector.crash_random(crashes)
    if damage == "lossy":
        simulator.network.faults.set_loss(loss)
    if damage != "no detector":
        detector.run_rounds(detection_rounds)
    if damage == "mid-repair crash":
        def crash_one(_message):
            live = sorted(simulator.nodes)
            if len(live) > 8:
                injector.crash(live[fire_at % len(live)])
        simulator.network.at_message(simulator.network.messages_sent + fire_at,
                                     crash_one)
    repairer = RepairProtocol(simulator, detector=detector, max_rounds=12)
    report, compared = repair_held_to_reference(repairer)
    assert compared
    if damage == "no detector":
        # Nothing suspected: the first walk sees the crashes' references.
        assert any(compared[0])
    if report.converged:
        assert not any(compared[-1])


def test_the_repair_reads_what_the_checker_reports():
    """After crashes nobody detected, the repair's first walk is what
    ``verify_views()`` prints, finding for finding (the checker walks the
    node table's order, the repair id order), and the work lists it yields
    are the reference audit's."""
    simulator = build(60, 11)
    ProtocolCrashInjector(simulator, RandomSource(12)).crash_random(4)
    repairer = RepairProtocol(simulator)
    findings = repairer._findings()
    assert sorted(simulator.verify_views()) == sorted(map(str, findings))
    wrong, stale_views, dead_refs, _orphans, _lonely = expected = \
        ReferenceAudit(repairer)._audit()
    assert wrong and stale_views and dead_refs
    assert repairer._work_lists(findings) == expected
