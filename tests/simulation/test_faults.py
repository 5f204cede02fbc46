"""Tests of the message-level fault subsystem.

Covers the fault plane (crash/loss/partition decisions, including a
Hypothesis pin of seed-determinism), heartbeat detection, the phased
repair protocol, protocol-vs-oracle crash parity, and the staged
churn/crash/heal experiment on :class:`~repro.simulation.scenario.Scenario`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VoroNet, VoroNetConfig
from repro.simulation import faults
from repro.simulation.failures import CrashInjector
from repro.simulation.faults import (
    FaultPlane,
    HeartbeatConfig,
    HeartbeatDetector,
    ProtocolCrashInjector,
    RepairProtocol,
)
from repro.simulation.network import KIND
from repro.simulation.protocol import NO_ENTRIES, ProtocolNode, ProtocolSimulator
from repro.simulation.scenario import Scenario, measure_steady_state_liveness
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects

from reference_detector import ReferenceCheck, stride_phase


def run_churn_experiment(*, num_objects, seed, churn_events, crash_fraction,
                         liveness=None, **heal):
    """The staged experiment the benchmark and ABL4 script: build, churn,
    (optionally measure steady-state liveness,) crash, heal."""
    scenario = Scenario(num_objects=num_objects, seed=seed,
                        churn_events=churn_events)
    scenario.build()
    joins, leaves = scenario.churn()
    steady = (measure_steady_state_liveness(scenario.simulator, **liveness)
              if liveness is not None else None)
    scenario.crash(crash_fraction)
    report = scenario.heal(**heal)
    return scenario, (joins, leaves), steady, report


def build_simulator(count=150, seed=77, num_long_links=2, loss=0.0):
    config = VoroNetConfig(n_max=4 * count, num_long_links=num_long_links,
                           seed=seed)
    simulator = ProtocolSimulator(config, seed=seed,
                                  faults=FaultPlane(seed=seed + 1,
                                                    loss_probability=loss))
    positions = generate_objects(UniformDistribution(), count,
                                 RandomSource(seed))
    simulator.bulk_join(positions)
    return simulator


def detection_budget(config):
    """Rounds within which every stale reference is suspected
    (:class:`HeartbeatConfig`'s documented bound)."""
    return 2 * config.miss_threshold + config.sample_period + 2


def assert_damage_suspected(simulator, victims):
    """Every surviving reference to a victim sits on its holder's suspect list."""
    for node in simulator.nodes.values():
        for peer in node.monitored_peers():
            if peer in victims:
                assert peer in node.suspects


# ----------------------------------------------------------------------
# FaultPlane
# ----------------------------------------------------------------------
class TestFaultPlane:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlane(loss_probability=1.5)
        with pytest.raises(ValueError):
            FaultPlane().partition([1, 2], start=5.0, end=1.0)

    def test_crashed_endpoints_drop(self):
        plane = FaultPlane(seed=1)
        plane.crash(7)
        to_dead = plane.decide(1, 7, 0.0)
        from_dead = plane.decide(7, 1, 0.0)
        alive = plane.decide(1, 2, 0.0)
        assert not to_dead.deliver and to_dead.reason == "crashed_recipient"
        assert not from_dead.deliver and from_dead.reason == "crashed_sender"
        assert alive.deliver
        assert plane.drops_by_reason == {"crashed_recipient": 1,
                                         "crashed_sender": 1}

    def test_partition_cuts_only_inside_window(self):
        plane = FaultPlane(seed=2)
        plane.partition([1, 2], start=10.0, end=20.0)
        crossing = (1, 5)
        internal = (1, 2)
        assert plane.decide(*crossing, 5.0).deliver          # before the window
        assert not plane.decide(*crossing, 10.0).deliver     # inside
        assert plane.decide(*internal, 15.0).deliver         # same side
        assert plane.decide(*crossing, 20.0).deliver         # half-open end
        # The expired window was pruned by the decide() above; only the
        # newly added spec is left for heal to drop.
        plane.partition([5], start=30.0, end=40.0)
        assert plane.heal_partitions() == 1
        assert plane.decide(*crossing, 15.0).deliver

    def test_loss_and_delay_draws(self):
        """A lossy plane draws once per message and delays none: the
        ``k``-th decision is the ``k``-th double against the loss
        probability, and a delivered message carries no delay."""
        plane = FaultPlane(seed=3, loss_probability=0.5)
        doubles = np.random.default_rng(3).random(200).tolist()
        delivered = dropped = 0
        for index, double in enumerate(doubles):
            decision = plane.decide(0, index + 1, 0.0)
            assert decision.deliver == (double >= 0.5)
            if decision.deliver:
                delivered += 1
                assert decision == faults.FaultDecision(deliver=True)
            else:
                dropped += 1
        assert delivered > 0 and dropped > 0
        assert plane.drops_by_reason["loss"] == dropped

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        loss=st.floats(0.0, 1.0),
        endpoints=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)),
            min_size=1, max_size=60),
        crashed=st.sets(st.integers(0, 30), max_size=5),
    )
    def test_decisions_deterministic_under_fixed_seed(self, seed, loss,
                                                      endpoints, crashed):
        """Two planes with the same seed and message sequence agree exactly."""
        planes = []
        for _ in range(2):
            plane = FaultPlane(seed=seed, loss_probability=loss)
            for object_id in crashed:
                plane.crash(object_id)
            plane.partition([0, 1, 2], start=5.0, end=9.0)
            planes.append(plane)
        decisions = [
            [plane.decide(sender, recipient, float(index % 12))
             for index, (sender, recipient) in enumerate(endpoints)]
            for plane in planes
        ]
        assert decisions[0] == decisions[1]
        assert planes[0].drops_by_reason == planes[1].drops_by_reason

    _PROBABILITY = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    _STEP = st.one_of(
        st.tuples(st.just("loss"), _PROBABILITY),
        st.tuples(st.just("partition"), st.frozensets(st.integers(0, 12)),
                  st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 30.0))
                  .map(sorted).map(tuple)),
        st.tuples(st.just("crash"), st.integers(0, 12)),
        st.tuples(st.just("decide"), st.integers(1, 400)))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**20),
           steps=st.lists(_STEP, min_size=4, max_size=16))
    def test_block_drawn_stream_is_the_scalar_stream(self, seed, steps):
        """Whatever is toggled between (and inside) refills, every decision
        equals the one a plane drawing ``Generator.uniform`` scalars in the
        documented order makes — compared with ``==``, not a tolerance.
        The clock advances 1/16 per message, so partition windows open,
        cut and expire between draws."""
        plane = FaultPlane(seed=seed)
        generator = np.random.default_rng(seed)
        crashed = set()
        windows = []
        loss = 0.0
        draws = 0

        def scalar():
            nonlocal draws
            draws += 1
            return float(generator.uniform())

        def reference(sender, recipient, now):
            if sender in crashed:
                return (False, "crashed_sender")
            if recipient in crashed:
                return (False, "crashed_recipient")
            for members, (start, end) in windows:
                if (start <= now < end
                        and (sender in members) != (recipient in members)):
                    return (False, "partition")
            if loss > 0.0 and scalar() < loss:
                return (False, "loss")
            return (True, "ok")

        def decide(sender, recipient):
            now = sent / 16
            decision = plane.decide(sender, recipient, now)
            assert (decision.deliver, decision.reason) == reference(
                sender, recipient, now)

        sent = 0
        for step in steps:
            if step[0] == "loss":
                loss = step[1]
                plane.set_loss(loss)
            elif step[0] == "partition":
                windows.append(step[1:])
                plane.partition(step[1], *step[2])
            elif step[0] == "crash":
                crashed.add(step[1])
                plane.crash(step[1])
            else:
                for _ in range(step[1]):
                    decide(sent % 13, (sent * 7 + 3) % 13)
                    sent += 1
        # Then lossy traffic between two live endpoints across three more
        # refills, wherever in a block the interleaving left off.
        loss = 0.5
        plane.set_loss(loss)
        target = draws + 3 * faults._DRAW_BLOCK
        while draws <= target:
            decide(20, 21)
            sent += 1
        assert plane.decisions == sent


# ----------------------------------------------------------------------
# network integration
# ----------------------------------------------------------------------
class TestNetworkIntegration:
    def test_lost_messages_counted_sent_but_not_delivered(self):
        simulator = build_simulator(count=60, seed=5)
        simulator.faults.set_loss(1.0)
        network = simulator.network
        sent_before, lost_before = network.messages_sent, network.messages_lost
        delivered_before = network.messages_delivered
        start = simulator.object_ids()[0]
        simulator.query((0.5, 0.5), start=start)
        sent = network.messages_sent - sent_before
        assert sent >= 1
        assert network.messages_lost - lost_before == sent
        assert network.messages_delivered == delivered_before
        simulator.faults.set_loss(0.0)


# ----------------------------------------------------------------------
# heartbeat detection
# ----------------------------------------------------------------------
class TestHeartbeatDetector:
    def test_validation(self):
        simulator = build_simulator(count=20, seed=6)
        with pytest.raises(ValueError):
            HeartbeatDetector(simulator, config=HeartbeatConfig(interval=0.0))
        with pytest.raises(ValueError):
            HeartbeatDetector(simulator,
                              config=HeartbeatConfig(miss_threshold=0))

    def test_healthy_overlay_produces_no_suspects(self):
        simulator = build_simulator(count=60, seed=6)
        detector = HeartbeatDetector(simulator, config=HeartbeatConfig(miss_threshold=2))
        assert detector.run_rounds(3) == []
        assert detector.suspected() == {}

    def test_crashed_peer_suspected_after_threshold(self):
        simulator = build_simulator(count=80, seed=7)
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(1))
        victims = set(injector.crash_random(8))
        config = HeartbeatConfig(miss_threshold=3)
        detector = HeartbeatDetector(simulator, config=config)
        below = config.miss_threshold - 1
        assert detector.run_rounds(below) == []      # below the threshold
        created = detector.run_rounds(detection_budget(config) - below)
        assert created
        assert {suspect for _prober, suspect in created} <= victims
        assert_damage_suspected(simulator, victims)

    def test_suspicion_scrubs_back_links_and_close_locally(self):
        simulator = build_simulator(count=80, seed=8)
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(2))
        victims = set(injector.crash_random(10))
        config = HeartbeatConfig()
        HeartbeatDetector(simulator, config=config).run_rounds(detection_budget(config))
        for node in simulator.nodes.values():
            assert not victims & set(node.close)
            assert not {source for source, _ in node.back_links} & victims

    def test_clock_driven_partition_window(self):
        """A partition window on the virtual clock, open through the
        detection budget's synchronous rounds, creates suspicion; once
        healed, probes exonerate the live suspects."""
        simulator = build_simulator(count=60, seed=10)
        plane = simulator.faults
        isolated = simulator.object_ids()[:6]
        config = HeartbeatConfig()
        detector = HeartbeatDetector(simulator, config=config)
        plane.partition(isolated, start=simulator.engine.now, end=math.inf)
        detector.run_rounds(detection_budget(config))
        suspected = {suspect for suspects in detector.suspected().values()
                     for suspect in suspects}
        assert suspected
        # Heal and repair: live "victims" answer the probes, nothing is
        # amputated, and the overlay stays structurally intact.
        plane.heal_partitions()
        report = RepairProtocol(simulator, detector=detector).repair()
        assert report.converged
        assert detector.suspected() == {}
        assert simulator.verify_views() == []


# ----------------------------------------------------------------------
# piggy-backed / sampled liveness
# ----------------------------------------------------------------------
class TestHeartbeatConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HeartbeatConfig(interval=0.0)
        with pytest.raises(ValueError):
            HeartbeatConfig(miss_threshold=0)
        with pytest.raises(ValueError):
            HeartbeatConfig(sample_fraction=0.0)
        with pytest.raises(ValueError):
            HeartbeatConfig(sample_fraction=1.5)

    def test_sample_period(self):
        assert HeartbeatConfig(sample_fraction=1.0).sample_period == 1
        assert HeartbeatConfig().sample_period == 4
        assert HeartbeatConfig(sample_fraction=0.1).sample_period == 10

    def test_detector_rejects_config_plus_kwargs(self):
        """One door: the loose ``interval=``/``miss_threshold=`` shortcuts
        are gone, with or without a config beside them."""
        simulator = build_simulator(count=20, seed=6)
        with pytest.raises(TypeError):
            HeartbeatDetector(simulator, interval=4.0,
                              config=HeartbeatConfig())
        with pytest.raises(TypeError):
            HeartbeatDetector(simulator, miss_threshold=3)


@pytest.fixture
def probes_checked_against_parent_rule(monkeypatch):
    """Every heartbeat round of the test probes and answers exactly as
    ``tests/reference_detector.py`` says, whichever detector sends it;
    yields the rounds sent so far (prober → probed peers, one dict per
    round)."""
    check = ReferenceCheck()
    check.install(monkeypatch)
    yield check.rounds
    assert check.rounds, "the test ran no heartbeat round"


@pytest.mark.usefixtures("probes_checked_against_parent_rule")
class TestPiggybackLiveness:
    @pytest.mark.parametrize("case", ["suspect_until_exonerated",
                                      "missed_heartbeat", "off_stride"])
    def test_plan_probes_pending_suspicion_at_full_speed(
            self, case, probes_checked_against_parent_rule):
        """A sampled edge is probed on its stride only — unless suspicion
        is in progress (a missed heartbeat, a standing suspect), which is
        probed every round until a PONG settles it."""
        rounds = probes_checked_against_parent_rule
        config = HeartbeatConfig()
        simulator = build_simulator(count=60, seed=37)
        detector = HeartbeatDetector(simulator, config=config)
        period = config.sample_period

        def refreshed_by_reverse_probe(node, peer):
            # The peer's own probe of the node lands 1..miss_threshold
            # rounds before the edge is due, so the edge is fresh then.
            lead = (stride_phase(detector, peer, node.object_id)
                    - stride_phase(detector, node.object_id, peer)) % period
            return 1 <= lead <= config.miss_threshold

        # A long/back edge outside vn ∪ cn that only its stride skips.
        node, peer = next(
            (node, peer)
            for _object_id, node in sorted(simulator.nodes.items())
            for peer in node.probe_plan()[1]
            if not refreshed_by_reverse_probe(node, peer))

        def probed_this_round():
            return peer in rounds[-1].get(node.object_id, ())

        if case == "off_stride":
            probes = []
            for _ in range(2 * period):
                detector.run_round()
                probes.append(probed_this_round())
            due = probes.index(True)
            assert due < period
            assert probes == [index % period == due
                              for index in range(2 * period)]
            return
        detector.run_rounds(period)
        if case == "missed_heartbeat":
            node.miss_heartbeat(peer, config.miss_threshold)
        else:
            node.suspect({peer})
        detector.run_round()
        assert probed_this_round()                 # whatever the stride says
        # The live peer's PONG settled it: no miss, no suspect ...
        assert peer not in node.missed_heartbeats
        assert peer not in node.suspects
        assert (peer in node.rehabilitated) == (case != "missed_heartbeat")
        # ... and the edge is fresh again, so the next round skips it.
        detector.run_round()
        assert not probed_this_round()

    def test_freshness_bookkeeping_follows_membership(self):
        """Freshness is kept per prober and a departed prober's map goes
        with it; a long churn run holds entries for live probers only.  A
        round's probes are published on the simulator only until its sweep,
        and no node keeps a probe stamp."""
        simulator = build_simulator(count=80, seed=35)
        detector = HeartbeatDetector(simulator)
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(4))
        rng = RandomSource(6)
        departed = set()
        for _ in range(3):
            detector.run_rounds(2)
            simulator.join(rng.random_point())
            live = sorted(simulator.nodes)
            leaver = live[rng.integer(0, len(live))]
            simulator.leave(leaver)
            departed.add(leaver)
            departed.update(injector.crash_random(3))
            detector.run_rounds(2)
            assert detector._fresh_round
            assert set(detector._fresh_round) <= set(simulator.nodes)
            assert not departed & set(detector._fresh_round)
            assert len(detector._round_starts) == 2
            assert detector._outstanding == {}
            assert simulator.heartbeat_probes is NO_ENTRIES
        # Per-peer entries of live probers are kept (an edge that returns
        # inside the freshness window is still fresh), ids only.
        assert all(isinstance(peer, int) and isinstance(seen, int)
                   for fresh in detector._fresh_round.values()
                   for peer, seen in fresh.items())
        assert "last_ping_round" not in ProtocolNode.__slots__

    def test_healthy_overlay_stays_suspectless_and_cheaper(self):
        """Rounds on a healthy overlay create no suspicion and send less than
        half of what probing every reference every round would (a PING and a
        PONG per reference): alternation, PONG suppression and long-link
        sampling."""
        simulator = build_simulator(count=80, seed=31)
        references = sum(len(node.monitored_peers())
                         for node in simulator.nodes.values())
        detector = HeartbeatDetector(simulator)
        assert simulator.detector_attached
        before = simulator.network.messages_sent
        assert detector.run_rounds(4) == []
        cost = simulator.network.messages_sent - before
        assert cost < 4 * references          # half of 4 · 2 · references
        assert detector.suspected() == {}

    def test_ordinary_traffic_substitutes_for_probes(self):
        """A peer heard from through protocol traffic is not probed."""
        simulator = build_simulator(count=60, seed=32)
        # Every edge due every round: only freshness skips a probe.
        detector = HeartbeatDetector(simulator, config=HeartbeatConfig(
            sample_fraction=1.0))
        detector.run_round()  # seeds freshness via crossing probes
        cost_idle = simulator.network.sent_by_kind.get("PING", 0)
        rng = RandomSource(5)
        for _ in range(30):
            simulator.query(rng.random_point())
        detector.run_round()
        detector.run_round()
        assert detector.suspected() == {}
        # With traffic continuously refreshing edges, total pings stay far
        # below two additional rounds of the first one's size.
        assert simulator.network.sent_by_kind.get("PING", 0) < 3 * cost_idle

    def test_detectors_never_suppress_each_others_pong(self):
        """Two detectors on one simulator: a probe stamp one left at a node
        (``last_ping_round``) never suppresses the PONG owed to the other.
        The first probes every edge in its round 1; an interval later the
        second's round 1 probes sampled edges whose reverse is off its
        stride, so were rounds numbered per detector, the stale stamps
        would match, the PONGs would be withheld and nothing else would
        answer."""
        simulator = build_simulator(count=40, seed=36)
        first = HeartbeatDetector(simulator, config=HeartbeatConfig(
            sample_fraction=1.0))
        first.run_round()
        simulator.engine.schedule(8.0, lambda: None)   # let 8 time units pass
        simulator.engine.run()
        follow_up = HeartbeatDetector(
            simulator, config=HeartbeatConfig(miss_threshold=1))
        assert follow_up.run_round() == []
        assert follow_up.suspected() == {}

    def test_idle_overlay_crash_detected_without_traffic(self):
        """Regression: freshness must age in *rounds*, not virtual time.

        Synchronous rounds on an idle overlay barely advance the clock, so
        a time-based freshness window freezes after the first probing
        round and a later crash would never be probed again.  Idle rounds
        first, then a crash, then detection within the documented
        2·miss_threshold + sample_period + 2 budget."""
        simulator = build_simulator(count=60, seed=34)
        detector = HeartbeatDetector(simulator)
        detector.run_rounds(5)  # idle: no traffic besides the probes
        assert detector.suspected() == {}
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(8))
        victims = set(injector.crash_random(5))
        detector.run_rounds(detection_budget(detector.config))
        assert_damage_suspected(simulator, victims)

    def test_sampled_detection_still_finds_all_damage(self):
        """Long-link/back-link edges are probed on a stride; every stale
        reference to a crashed peer must still be suspected within the
        threshold + freshness window + sampling period budget."""
        simulator = build_simulator(count=100, seed=33, num_long_links=2)
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(3))
        victims = set(injector.crash_random(10))
        detector = HeartbeatDetector(simulator)
        detector.run_rounds(detection_budget(detector.config))
        assert_damage_suspected(simulator, victims)
        report = RepairProtocol(simulator, detector=detector).repair()
        assert report.converged
        assert injector.assess_damage().total_stale_entries == 0
        assert simulator.verify_views() == []

    def test_piggyback_repair_converges_under_heavy_loss(self):
        """The acceptance scenario: 10% crash, 30% loss — piggy-backed,
        sampled detection and repair still converge in budget."""
        _, _, _, report = run_churn_experiment(
            num_objects=200, seed=33, churn_events=16, crash_fraction=0.1,
            loss_probability=0.3,
            max_detection_rounds=16, max_repair_rounds=32)
        assert report.converged
        assert report.verify_problems == 0
        assert report.residual_damage.total_stale_entries == 0

    def test_steady_state_cost_per_member_round(self):
        _, _, steady, report = run_churn_experiment(
            num_objects=150, seed=41, churn_events=0, crash_fraction=0.1,
            liveness=dict(rounds=3, queries_per_round=15))
        member_rounds = steady["members"] * 3
        assert steady["liveness_messages"] > 0
        assert steady["messages_per_member_round"] == \
            steady["liveness_messages"] / member_rounds
        assert steady["member_rounds_per_message"] == \
            member_rounds / steady["liveness_messages"]
        # Probing every reference every round costs a PING and a PONG per
        # reference, ~15 per member-round; the policy sends under 3.
        assert steady["messages_per_member_round"] < 3.0
        # The measurement must not break the experiment itself.
        assert report.converged
        assert report.verify_problems == 0

    def test_measurement_is_reproducible(self):
        reports = [
            run_churn_experiment(
                num_objects=120, seed=43, churn_events=8, crash_fraction=0.1,
                liveness=dict(rounds=2, queries_per_round=10))[1:]
            for _ in range(2)
        ]
        assert reports[0] == reports[1]


# ----------------------------------------------------------------------
# protocol-vs-oracle crash parity, and repair
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def crashed_twins():
    """The same bulk batch through the oracle and the protocol simulator,
    with the same crash victims injected into both.

    Identical seeds keep the vectorised Choose-LRT draws byte-identical,
    so long links (targets *and* endpoints) match exactly — the
    precondition for damage parity under identical crash victims.
    """
    config = VoroNetConfig(n_max=1200, num_long_links=2, seed=515)
    positions = generate_objects(UniformDistribution(), 300,
                                 RandomSource(515))
    oracle = VoroNet(config)
    oracle_ids = oracle.bulk_load(positions)
    protocol = ProtocolSimulator(config, seed=515, faults=FaultPlane(seed=516))
    report = protocol.bulk_join(positions)
    assert report.object_ids == oracle_ids
    oracle_injector = CrashInjector(oracle)
    protocol_injector = ProtocolCrashInjector(protocol)
    # Same explicit victims in both modes (the two object_ids() orderings
    # differ, so crash_random with a shared seed would diverge).
    victims = RandomSource(99).choice(sorted(oracle_ids), size=30,
                                      replace=False)
    for victim in victims:
        oracle_injector.crash(victim)
        protocol_injector.crash(victim)
    return oracle_injector, protocol_injector, protocol


class TestProtocolOracleCrashParity:
    def test_same_victims_equivalent_damage(self, crashed_twins):
        oracle_injector, protocol_injector, _protocol = crashed_twins
        oracle_damage = oracle_injector.assess_damage()
        protocol_damage = protocol_injector.assess_damage()
        assert protocol_damage.crashed == oracle_damage.crashed
        assert protocol_damage.dangling_long_links == \
            oracle_damage.dangling_long_links
        assert protocol_damage.stale_close_neighbors == \
            oracle_damage.stale_close_neighbors
        assert protocol_damage.dangling_back_links == \
            oracle_damage.dangling_back_links
        assert protocol_damage.total_stale_entries > 0
        # Only the protocol mode can have stale Voronoi views (the oracle
        # derives them from the kernel).
        assert oracle_damage.stale_voronoi_entries == 0
        assert protocol_damage.stale_voronoi_entries > 0

    def test_both_modes_repair_clean(self, crashed_twins):
        oracle_injector, protocol_injector, protocol = crashed_twins
        fixed = oracle_injector.repair()
        assert fixed > 0
        assert oracle_injector.assess_damage().total_stale_entries == 0

        detector = HeartbeatDetector(protocol, config=HeartbeatConfig(miss_threshold=2))
        detector.run_rounds(2)
        report = RepairProtocol(protocol, detector=detector).repair()
        assert report.converged
        residual = protocol_injector.assess_damage()
        assert residual.total_stale_entries == 0
        assert protocol.verify_views() == []


class TestRepairProtocol:
    def test_repair_without_suspects_is_a_noop(self):
        simulator = build_simulator(count=40, seed=11)
        report = RepairProtocol(simulator).repair()
        assert report.converged
        assert report.rounds <= 1
        assert report.suspects_processed == 0

    def test_repair_converges_under_message_loss(self):
        simulator = build_simulator(count=150, seed=13)
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(4))
        injector.crash_random(15)
        simulator.faults.set_loss(0.15)
        detector = HeartbeatDetector(simulator, config=HeartbeatConfig(miss_threshold=2))
        detector.run_rounds(3)
        report = RepairProtocol(simulator, detector=detector,
                                max_rounds=16).repair()
        simulator.faults.set_loss(0.0)
        assert report.converged
        assert injector.assess_damage().total_stale_entries == 0
        assert simulator.verify_views() == []

    def test_attached_fault_plane_replays_a_lossy_repair(self):
        """An injector on a simulator without a fault plane attaches one
        seeded from the config, so a loss set afterwards draws the same
        decisions on every run: equal rounds and messages, run twice."""
        def repair_outcomes():
            outcomes = []
            for seed in range(5, 15):
                simulator = ProtocolSimulator(
                    VoroNetConfig(n_max=240, num_long_links=2, seed=seed))
                simulator.bulk_join(generate_objects(UniformDistribution(), 60,
                                                     RandomSource(seed)))
                ProtocolCrashInjector(simulator, RandomSource(seed)).crash_random(4)
                simulator.faults.set_loss(0.2)
                sent = simulator.network.messages_sent
                report = RepairProtocol(simulator).repair(20)
                outcomes.append((report.rounds,
                                 simulator.network.messages_sent - sent))
            return outcomes

        assert repair_outcomes() == repair_outcomes()

    def test_false_suspicion_restores_close_entries(self):
        """Suspicion scrubs close entries destructively; once a live
        suspect is exonerated, close re-discovery must restore the entry
        even though the suspect list is empty by the close phase —
        symmetry and totals end up exactly as before the faults."""
        def close_state(sim):
            holes = sum(1 for oid, node in sim.nodes.items()
                        for cid in node.close
                        if oid not in sim.nodes[cid].close)
            return holes, sum(len(n.close) for n in sim.nodes.values())

        simulator = build_simulator(count=150, seed=13, loss=0.0)
        _, total_before = close_state(simulator)
        assert total_before > 0
        simulator.faults.set_loss(0.35)
        detector = HeartbeatDetector(simulator, config=HeartbeatConfig(miss_threshold=2))
        detector.run_rounds(4)          # heavy loss: false suspicion forms
        report = RepairProtocol(simulator, detector=detector,
                                max_rounds=32).repair()
        simulator.faults.set_loss(0.0)
        assert report.converged
        holes, total_after = close_state(simulator)
        assert holes == 0
        assert total_after == total_before
        assert simulator.verify_views() == []

    def test_out_of_rounds_asks_the_same_convergence_question(self):
        """One predicate, two sites: a dead close reference nobody suspects
        (a crash landing in the last settle drain leaves exactly this) is
        not convergence, whether rounds remain or the cap is spent."""
        simulator = build_simulator(count=60, seed=15)
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(7))
        victim = injector.crash_random(5)[0]
        detector = HeartbeatDetector(simulator, config=HeartbeatConfig())
        detector.run_rounds(2)
        repairer = RepairProtocol(simulator, detector=detector)
        assert repairer.repair().converged
        assert simulator.verify_views() == []
        node = simulator.node(sorted(simulator.nodes)[0])
        node.close = {**node.close, victim: node.position}
        node.touch_view()
        report = repairer.repair(max_rounds=0)
        assert report.rounds == 0
        assert report.converged is False
        assert victim in node.close                # nothing ran, nothing hidden
        assert repairer.repair().converged         # the audit scrubs it
        assert victim not in node.close
        assert simulator.verify_views() == []

    def test_audit_stamps_die_with_the_repair_call(self):
        """The clean stamps serve the later walks of one ``repair()`` and
        are gone when it returns, and so are the per-link re-search counts."""
        simulator = build_simulator(count=120, seed=14)
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(5))
        injector.crash_random(12)
        detector = HeartbeatDetector(simulator, config=HeartbeatConfig(miss_threshold=2))
        detector.run_rounds(2)
        repairer = RepairProtocol(simulator, detector=detector)
        findings = repairer._findings
        stamped, attempts = [], []

        def counted_findings():
            found = findings()
            stamped.append(len(repairer._settled))
            attempts.append(len(repairer._reissue_attempts))
            return found

        repairer._findings = counted_findings
        assert repairer.repair().converged
        assert max(stamped) > 0
        assert max(attempts) > 0
        assert repairer._settled == {}
        assert repairer._reissue_attempts == {}

    def test_damage_nobody_suspects_cannot_stall_the_suspect_lists(self):
        """A round that leaves every holder's suspect list as it found it
        settles the walk's findings before the next round.  Here holder 165
        keeps crashed 31 suspected because its link 1 still points there.
        Each round re-searches that link from grid hint 151, whose own link
        0 points at 31 unsuspected (three sampled detector rounds never
        probed it), so greedy forwarding hands the search to 31 and the
        fault plane drops it.  Settling only once the suspect lists drained,
        the repair spent all 24 rounds on it."""
        simulator = build_simulator(count=200, seed=33)
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(35))
        injector.crash_random(8)
        detector = HeartbeatDetector(simulator)
        detector.run_rounds(3)
        report = RepairProtocol(simulator, detector=detector, max_rounds=24).repair()
        assert report.converged
        assert report.rounds == 4
        assert simulator.verify_views() == []
        assert injector.assess_damage().total_stale_entries == 0

    def test_repaired_overlay_serves_queries(self):
        simulator = build_simulator(count=120, seed=14)
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(5))
        injector.crash_random(12)
        detector = HeartbeatDetector(simulator, config=HeartbeatConfig(miss_threshold=2))
        detector.run_rounds(2)
        assert RepairProtocol(simulator, detector=detector).repair().converged
        rng = RandomSource(6)
        ids = simulator.object_ids()
        for _ in range(15):
            destination = ids[rng.integer(0, len(ids))]
            answer = simulator.query(simulator.node(destination).position)
            assert answer.owner == destination


#: The crash scan every repair must settle: 60 uniform objects with two long
#: links each, ``n_max`` at the default and at 60, 120 and 240, seeds 5–29.
SCAN = [(n_max, seed) for n_max in (None, 60, 120, 240) for seed in range(5, 30)]
#: Heartbeat rounds the detector arm runs before repairing.
SCAN_DETECTION_ROUNDS = 6
SCAN_MAX_ROUNDS = 20


def scan_repair_converges(n_max, seed, detector, loss):
    """Build the scan's overlay, crash four objects, detect (or not) and
    repair, all under ``loss``; whether the repair converged to clean views."""
    config = (VoroNetConfig(num_long_links=2, seed=seed) if n_max is None
              else VoroNetConfig(num_long_links=2, seed=seed, n_max=n_max))
    simulator = ProtocolSimulator(config, seed=seed, faults=FaultPlane(seed=seed + 2))
    rng = RandomSource(seed)
    simulator.bulk_join([rng.random_point() for _ in range(60)])
    ProtocolCrashInjector(simulator, RandomSource(seed + 1)).crash_random(4)
    simulator.faults.set_loss(loss)
    watcher = None
    if detector:
        watcher = HeartbeatDetector(simulator)
        watcher.run_rounds(SCAN_DETECTION_ROUNDS)
    report = RepairProtocol(simulator, detector=watcher).repair(SCAN_MAX_ROUNDS)
    simulator.faults.set_loss(0.0)
    return report.converged and simulator.verify_views() == []


class TestRepairConvergesOnTheCrashScan:
    """With no detector the view walk is the repair's only evidence.  A link
    at a departed endpoint whose target its own holder now owns used to be
    re-searched into the dead node every round: the search routed back to
    the holder, which forwarded it along the very link being repaired.
    Without a detector 52 of the scan's 100 runs ended unconverged (at any
    loss); now the holder suspects the endpoint first."""

    @pytest.mark.parametrize("loss", [0.0, 0.1, 0.2])
    @pytest.mark.parametrize("detector", [False, True], ids=["no-detector", "detector"])
    def test_every_run_of_the_scan_converges(self, detector, loss):
        assert [(n_max, seed) for n_max, seed in SCAN
                if not scan_repair_converges(n_max, seed, detector, loss)] == []


# ----------------------------------------------------------------------
# the staged churn/crash/heal experiment
# ----------------------------------------------------------------------
class TestProtocolChurnHarness:
    """``Scenario``'s build → churn → crash → heal stages.  (The class keeps
    the name of the harness PR 13 folded into ``Scenario``: a rename moves
    seven test ids and checks nothing new.)"""

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(num_objects=20, seed=1).crash(1.0)
        with pytest.raises(ValueError):
            Scenario(num_objects=2, seed=1)

    def test_full_cycle_converges_with_accounting(self):
        _, (joins, leaves), _, report = run_churn_experiment(
            num_objects=250, seed=17, churn_events=24, crash_fraction=0.1)
        assert report.converged
        assert report.verify_problems == 0
        assert report.residual_damage.total_stale_entries == 0
        assert report.damage.total_stale_entries > 0
        assert joins > 0 and leaves > 0
        for phase in ("build", "churn", "detect", "repair"):
            assert report.phase_messages[phase] > 0
        repair_total = sum(count for key, count in report.phase_messages.items()
                           if key.startswith("repair:"))
        assert repair_total == report.phase_messages["repair"]

    def test_full_cycle_converges_under_heavy_loss(self):
        """30% loss needs a proportionately larger round budget (rounds
        are retry-safe; each one lands a geometric share of the work)."""
        _, _, _, report = run_churn_experiment(
            num_objects=200, seed=33, churn_events=16, crash_fraction=0.1,
            loss_probability=0.3, max_repair_rounds=32)
        assert report.converged
        assert report.verify_problems == 0
        assert report.residual_damage.total_stale_entries == 0
        assert report.repair.rounds > 1  # loss really made rounds retry

    def test_churn_event_count_is_exact(self):
        _, (joins, leaves), _, _ = run_churn_experiment(
            num_objects=150, seed=37, churn_events=20, crash_fraction=0.05)
        assert joins + leaves == 20

    def test_reproducible_from_seed(self):
        reports = [
            run_churn_experiment(num_objects=150, seed=23, churn_events=16,
                                 crash_fraction=0.1)[1:]
            for _ in range(2)
        ]
        assert reports[0] == reports[1]

    def test_trace_records_the_fault_timeline(self):
        scenario, _, _, report = run_churn_experiment(
            num_objects=150, seed=31, churn_events=0, crash_fraction=0.1)
        assert (scenario.simulator.metrics.counter("crashes")
                == report.damage.crashed)

    def test_churn_leaves_engine_quiescent(self):
        scenario, _, _, _ = run_churn_experiment(
            num_objects=120, seed=29, churn_events=16, crash_fraction=0.05)
        assert scenario.simulator.engine.quiescent
        # A batched operation is immediately usable after the experiment.
        scenario.simulator.bulk_join([(0.123456, 0.654321)])


# ----------------------------------------------------------------------
# partition edge cases (crash-at-any-message hardening)
# ----------------------------------------------------------------------
class TestPartitionEdgeCases:
    """Boundary semantics of partition windows on the virtual clock.

    The fault plane decides a message's fate at *send* time, and the
    window is half-open (``start <= now < end``).  These tests pin both
    facts: a message sent before the window opens sails through even
    though its delivery lands inside the window, and the exact boundary
    instants behave deterministically (window start cuts, window end
    does not, a crash landing on the boundary takes precedence).
    """

    def test_message_sent_before_window_delivers_inside_it(self):
        from repro.simulation.engine import LATENCY, SimulationEngine
        from repro.simulation.network import Network

        engine = SimulationEngine()
        network = Network(engine)
        plane = FaultPlane(seed=5)
        network.faults = plane
        received = []
        network.register(1, lambda message: None)
        network.register(2, lambda message: received.append(
            (engine.now, message[KIND])))
        plane.partition([2], start=0.5 * LATENCY, end=20.0)
        # Sent at t=0 (window closed), delivered at t=LATENCY (window
        # open): the decision was taken at send time, so it goes through.
        network.send(1, 2, "EARLY")
        # Sent at t=6 (window open): cut, even though its delivery
        # would also land inside the window.
        engine.schedule(6.0, lambda: network.send(1, 2, "INSIDE"))
        engine.run()
        assert received == [(LATENCY, "EARLY")]
        assert plane.drops_by_reason == {"partition": 1}

    def test_crash_landing_exactly_on_window_boundary(self):
        from repro.simulation.engine import SimulationEngine
        from repro.simulation.network import Network

        engine = SimulationEngine()
        network = Network(engine)
        plane = FaultPlane(seed=6)
        network.faults = plane
        received = []
        network.register(1, lambda message: None)
        network.register(2, lambda message: received.append(message[KIND]))
        plane.partition([2], start=5.0, end=10.0)
        # t=5 exactly: the half-open window includes its start — cut.
        engine.schedule(5.0, lambda: network.send(1, 2, "AT_START"))
        # t=10 exactly: the window excludes its end, but a crash lands on
        # the same boundary instant first — the fixed decision order
        # (crash before partition) must classify the drop as a crash.
        engine.schedule(10.0, lambda: plane.crash(2))
        engine.schedule(10.0, lambda: network.send(1, 2, "AT_END"))
        engine.run()
        assert received == []
        assert plane.drops_by_reason == {"partition": 1,
                                         "crashed_recipient": 1}

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16),
           start=st.floats(0.0, 50.0, allow_nan=False),
           duration=st.floats(0.001, 50.0, allow_nan=False),
           crash_on_boundary=st.booleans(),
           at_end=st.booleans())
    def test_boundary_decisions_pinned(self, seed, start, duration,
                                       crash_on_boundary, at_end):
        """Seeded planes agree exactly at both window boundary instants."""
        from hypothesis import assume

        end = start + duration
        assume(end > start)
        decisions = []
        for _ in range(2):
            plane = FaultPlane(seed=seed)
            plane.partition([2], start=start, end=end)
            if crash_on_boundary:
                plane.crash(1)
            now = end if at_end else start
            decisions.append(plane.decide(1, 2, now))
        assert decisions[0] == decisions[1]
        decision = decisions[0]
        if crash_on_boundary:
            assert not decision.deliver
            assert decision.reason == "crashed_sender"
        elif at_end:
            assert decision.deliver
        else:
            assert not decision.deliver
            assert decision.reason == "partition"
