"""The heartbeat detector's rules, replayed from the view, for the suites
that hold the detector to them.

:class:`ReferenceProbeRule` decides who a round probes the way the detector
did before it probed from per-view-epoch plans: every set rebuilt from the
view on every visit, freshness marks keyed by ``(prober, peer)``.
:class:`ReferenceProbeStamps` decides which ``PING`` goes unanswered the way
it was decided while every node kept a probe stamp per peer (the round in
which it last pinged that peer): a ``PING`` whose round equals the
recipient's stamp for its sender is a crossed probe, and its ``PONG`` is
suppressed.  :class:`ReferenceCheck` installs both around every heartbeat
round a test runs, whichever detector runs it.
"""

from repro.simulation.faults import HeartbeatDetector
from repro.simulation.protocol import ProtocolNode


def stride_phase(detector, prober, peer):
    """The deterministic stride phase of the sampled edge ``prober → peer``:
    the edge is probed in the rounds ``r`` with ``(r + phase) % period == 0``."""
    return ((prober * detector._PHASE_A + peer * detector._PHASE_B)
            % detector.config.sample_period)


class ReferenceProbeRule:
    """Who one detector's rounds probe, from the views and a freshness map
    keyed by ``(prober, peer)``.

    An edge heard from since the previous round began is marked fresh in
    this round and skipped; an edge marked fresh within the last
    ``miss_threshold`` rounds is skipped; a sampled edge (outside
    ``vn ∪ cn``) is probed only on its stride.  Suspicion in progress — a
    standing suspect or a missed heartbeat — is probed every round and
    marks nothing.
    """

    def __init__(self, detector):
        self.detector = detector
        self.fresh_round = {}
        self.round_starts = []

    def next_round(self):
        """Prober → probed peers (id order) of the round about to be sent."""
        detector = self.detector
        config = detector.config
        simulator = detector.simulator
        current_round = detector._round + 1
        self.round_starts.append(simulator.engine.now)
        previous_start = (self.round_starts[-2]
                          if len(self.round_starts) >= 2 else None)
        period = config.sample_period
        expected = {}
        for object_id, node in simulator.nodes.items():
            core = set(node.voronoi) | set(node.close)
            probed = []
            for peer in sorted(node.monitored_peers()):
                if (peer not in node.suspects
                        and not node.missed_heartbeats.get(peer, 0)):
                    contact = node.last_contact.get(peer)
                    if (contact is not None and previous_start is not None
                            and contact > previous_start):
                        self.fresh_round[(object_id, peer)] = current_round
                        continue
                    fresh = self.fresh_round.get((object_id, peer))
                    if (fresh is not None and
                            current_round - fresh < config.miss_threshold):
                        continue
                    phase = stride_phase(detector, object_id, peer)
                    if (period > 1 and peer not in core
                            and (current_round + phase) % period != 0):
                        continue
                probed.append(peer)
            if probed:
                expected[object_id] = tuple(probed)
        return expected


class ReferenceProbeStamps:
    """Every node's probe stamps, peer → the simulator-wide round in which
    the node last pinged it, shared by every detector on one simulator."""

    def __init__(self):
        self.last_ping_round = {}

    def stamp(self, probes, round_number):
        """Record one round's probes (prober → peers)."""
        for prober, peers in probes.items():
            for peer in peers:
                self.last_ping_round[(prober, peer)] = round_number

    def suppresses(self, recipient, sender, round_number):
        """Whether ``recipient`` withholds its ``PONG`` to ``sender``'s
        ``PING`` of ``round_number``."""
        return self.last_ping_round.get((recipient, sender)) == round_number


class ReferenceCheck:
    """While installed, every heartbeat round probes exactly what its
    detector's :class:`ReferenceProbeRule` says, and every delivered
    ``PING`` is answered exactly when :class:`ReferenceProbeStamps` says
    it is not suppressed.

    ``rounds`` holds the probes of each round sent (prober → peers), and
    ``pings`` one ``(recipient, sender, round, answered)`` per delivered
    ``PING``, repair probes included.
    """

    def __init__(self):
        self.rules = {}
        self.stamps = ReferenceProbeStamps()
        self.rounds = []
        self.pings = []

    def install(self, monkeypatch):
        send_pings = HeartbeatDetector._send_pings
        on_ping = ProtocolNode._on_ping

        def checked_send_pings(detector):
            rule = self.rules.setdefault(id(detector), ReferenceProbeRule(detector))
            expected = rule.next_round()
            pings = send_pings(detector)
            assert detector._outstanding == expected
            assert detector.simulator.heartbeat_probes is detector._outstanding
            assert pings == sum(len(peers) for peers in expected.values())
            self.stamps.stamp(expected, detector.simulator.heartbeat_round)
            self.rounds.append(expected)
            return pings

        def checked_on_ping(node, sender, payload):
            sent = node.simulator.network.sent_by_kind
            before = sent["PONG"]
            on_ping(node, sender, payload)
            answered = sent["PONG"] > before
            (round_number,) = payload
            suppressed = self.stamps.suppresses(node.object_id, sender, round_number)
            assert answered != suppressed, (node.object_id, sender, round_number)
            self.pings.append((node.object_id, sender, round_number, answered))

        monkeypatch.setattr(HeartbeatDetector, "_send_pings", checked_send_pings)
        monkeypatch.setitem(ProtocolNode._DISPATCH, "PING", checked_on_ping)
