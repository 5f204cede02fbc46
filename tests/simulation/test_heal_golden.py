"""A heal cycle replays bit for bit.

Recorded at the parent of the PR that made liveness rounds probe from a
per-view-epoch plan, the fault plane draw its doubles in blocks and the
repair audits re-check only what moved (commit d3a886c), *before* any of
those edits: the three replacements promise the same sends in the same
order, the same plane draws and the same engine sequence numbers, so
everything a heal cycle leaves behind — per-kind sent counts, losses,
drop reasons, the number of plane decisions and processed events, the
virtual clock, every :class:`RepairReport` and every survivor's four
view components — hashes to the parent's digest.

The workload is ``perf``'s ``protocol_faults`` heal phase at test scale:
a uniform overlay with a :class:`FaultPlane` attached from the start, a
little graceful churn, 5 % loss, then three cycles of (crash ten objects,
one of them a hull vertex → four rounds of the sampled, piggy-backed
detector → ``RepairProtocol(max_rounds=24).repair()``).

Re-record ``PARENT_DIGEST`` (``python tests/simulation/test_heal_golden.py``
prints the current one) only for a change that is *meant* to alter which
messages a heal cycle sends, and say so beside the value — see
``TESTING.md``, "A heal cycle replays bit for bit".

Re-recorded once since: ``650a804f…`` was the digest of cycles that ended
``healed`` with six long links registered nowhere (``verify_views()`` did
not look); the audit now re-searches such links, drops orphan
registrations and re-declares one-sided close pairs, which is meant to
change what a heal cycle sends (6 more ``SEARCH_LONG_LINK``, 5 more
``BACKLINK_REMOVE``, same three rounds per cycle).  The refactor that
preceded it — every protocol move written once — carried ``650a804f…``
unchanged.  Deleting the full-probe detector (and with it the detector
eras in ``PING``) left ``75b51e6b…`` as it was: this workload already ran
the one policy left.
"""

import hashlib
import json

import pytest

from repro.core import VoroNetConfig
from repro.simulation.faults import (
    FaultPlane,
    HeartbeatConfig,
    HeartbeatDetector,
    ProtocolCrashInjector,
    RepairProtocol,
)
from repro.simulation.protocol import ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects

OBJECTS = 400
SEED = 4242
CYCLES = 3
CRASHES_PER_CYCLE = 10
DETECTION_ROUNDS = 4
#: ``perf/systems.py``'s detector, the one liveness policy.
HEARTBEAT = HeartbeatConfig(interval=8.0, miss_threshold=2, sample_fraction=0.25)

PARENT_DIGEST = "75b51e6be8c58fb0312e6667a16888415a535c430860988c7c6abecf4c2a60f7"


def run_heal_cycles():
    """The scripted workload; returns ``(simulator, reports, healed)``."""
    rng = RandomSource(SEED)
    simulator = ProtocolSimulator(
        VoroNetConfig(n_max=4 * OBJECTS, num_long_links=1, seed=SEED),
        seed=SEED, faults=FaultPlane(seed=SEED))
    simulator.bulk_join(generate_objects(UniformDistribution(), OBJECTS, rng))
    for _ in range(6):
        simulator.join(rng.random_point())
        interior = [object_id for object_id in sorted(simulator.nodes)
                    if not simulator.kernel.is_hull_vertex(object_id)]
        simulator.leave(interior[rng.integer(0, len(interior))])
    injector = ProtocolCrashInjector(simulator, RandomSource(SEED))
    detector = HeartbeatDetector(simulator, config=HEARTBEAT)
    repair = RepairProtocol(simulator, detector=detector, max_rounds=24)
    simulator.faults.set_loss(0.05)
    reports = []
    healed = []
    for _ in range(CYCLES):
        live = sorted(simulator.nodes)
        hull = [object_id for object_id in live
                if simulator.kernel.is_hull_vertex(object_id)]
        victims = [hull[rng.integer(0, len(hull))]]
        while len(victims) < CRASHES_PER_CYCLE:
            victim = live[rng.integer(0, len(live))]
            if victim not in victims:
                victims.append(victim)
        for victim in victims:
            injector.crash(victim)
        detector.run_rounds(DETECTION_ROUNDS)
        reports.append(repair.repair())
        healed.append(reports[-1].converged
                      and simulator.verify_views() == []
                      and injector.assess_damage().total_stale_entries == 0)
    return simulator, reports, healed


def heal_digest(simulator, reports):
    network = simulator.network
    views = [
        [object_id,
         sorted(node.voronoi.items()),
         sorted(node.close.items()),
         [[target, neighbor, position]
          for target, neighbor, position in node.long_links],
         sorted(node.back_links.items())]
        for object_id, node in sorted(simulator.nodes.items())]
    record = {
        "sent_by_kind": sorted(network.sent_by_kind.items()),
        "sent": network.messages_sent,
        "lost": network.messages_lost,
        "dropped": network.messages_dropped,
        "drops_by_reason": sorted(simulator.faults.drops_by_reason.items()),
        "decisions": simulator.faults.decisions,
        "processed_events": simulator.engine.processed_events,
        "now": simulator.engine.now,
        "reports": [[report.rounds, report.converged,
                     report.suspects_processed, report.reissued_long_links,
                     sorted(report.phase_messages.items()),
                     report.residual_suspects] for report in reports],
        "views": views,
    }
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


@pytest.fixture(scope="module")
def heal_cycles():
    return run_heal_cycles()


def test_heal_cycles_leave_no_pairwise_asymmetry(heal_cycles):
    """Written out here, not read off ``verify_views()``: at the parent of
    the re-record the cycles ended ``healed`` with six links unregistered."""
    nodes = heal_cycles[0].nodes
    assert [(object_id, index) for object_id, node in nodes.items()
            for index, (_target, neighbor, _position) in enumerate(node.long_links)
            if neighbor != object_id
            and (object_id, index) not in nodes[neighbor].back_links] == []
    assert [(object_id, (source, index)) for object_id, node in nodes.items()
            for source, index in node.back_links
            if nodes[source].long_links[index][1] != object_id] == []
    assert [(object_id, peer) for object_id, node in nodes.items()
            for peer in node.close if object_id not in nodes[peer].close] == []


def test_heal_cycles_carry_the_parents_digest(heal_cycles):
    simulator, reports, healed = heal_cycles
    assert healed == [True] * CYCLES
    # The workload must actually exercise the plane and the audits.
    assert simulator.faults.drops_by_reason["loss"] > 0
    assert simulator.kernel.rebuild_count >= CYCLES
    assert heal_digest(simulator, reports) == PARENT_DIGEST


if __name__ == "__main__":
    simulator, reports, healed = run_heal_cycles()
    print(healed, [report.rounds for report in reports],
          dict(simulator.network.sent_by_kind))
    print(heal_digest(simulator, reports))
