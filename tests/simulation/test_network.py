"""Unit tests for the message-passing network layer."""

import pytest

from repro.core import VoroNetConfig
from repro.simulation.engine import LATENCY, SimulationEngine
from repro.simulation.faults import HeartbeatDetector
from repro.simulation.network import KIND, Network
from repro.simulation.protocol import ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects


@pytest.fixture
def engine():
    return SimulationEngine()


@pytest.fixture
def network(engine):
    return Network(engine)


class TestDelivery:
    def test_message_delivered_to_handler(self, engine, network):
        received = []
        network.register(1, received.append)
        network.send(0, 1, "PING")
        engine.run()
        assert len(received) == 1
        assert received[0] == (0, 1, "PING", ())
        assert received[0][KIND] == "PING"

    def test_delivery_respects_latency(self, engine, network):
        times = []
        network.register(1, lambda m: times.append(engine.now))
        network.send(0, 1, "PING")
        engine.run()
        assert times == [LATENCY]

    def test_unregistered_recipient_drops_message(self, engine, network):
        network.send(0, 9, "PING")
        engine.run()
        assert network.messages_dropped == 1

    def test_unregister_stops_delivery(self, engine, network):
        received = []
        network.register(1, received.append)
        network.unregister(1)
        network.send(0, 1, "PING")
        engine.run()
        assert received == []
        assert 1 not in network.registered_ids()

    def test_self_messages_not_counted(self, engine, network):
        received = []
        network.register(1, received.append)
        network.send(1, 1, "LOCAL")
        engine.run()
        assert len(received) == 1
        assert network.messages_sent == 0

    def test_counters_by_kind(self, engine, network):
        network.register(1, lambda m: None)
        network.send(0, 1, "A")
        network.send(0, 1, "A")
        network.send(0, 1, "B")
        engine.run()
        assert network.sent_by_kind == {"A": 2, "B": 1}
        assert network.messages_sent == 3
        assert network.messages_delivered == 3


class TestDropAccounting:
    def test_undeliverable_self_handoff_not_counted(self, engine, network):
        """Local hand-offs are free in send; their drops are free too."""
        network.send(5, 5, "LOCAL")
        engine.run()
        assert network.messages_dropped == 0
        assert network.messages_sent == 0
        assert network.messages_delivered == 0

    def test_unregister_voids_in_flight_messages_as_dropped(self, engine, network):
        received = []
        network.register(1, received.append)
        network.send(0, 1, "PING")
        network.unregister(1)  # message still in flight
        engine.run()
        assert received == []
        assert network.messages_dropped == 1
        assert network.messages_delivered == 0

    def test_unregister_voids_in_flight_self_handoff_uncounted(self, engine,
                                                               network):
        received = []
        network.register(1, received.append)
        network.send(1, 1, "LOCAL")
        network.unregister(1)
        engine.run()
        assert received == []
        assert network.messages_dropped == 0

    def test_unregister_voids_deliveries_to_replaced_handlers(self, engine,
                                                              network):
        """A departed node can never be handed a message, even one sent
        before its handler was replaced."""
        old_received, new_received = [], []
        network.register(1, old_received.append)
        network.send(0, 1, "PING")
        network.register(1, new_received.append)
        network.send(0, 1, "PING")
        network.unregister(1)
        engine.run()
        assert old_received == [] and new_received == []
        assert network.messages_dropped == 2

    def test_unregister_voids_both_queues_and_closes_every_port(self, engine,
                                                                network):
        """In-flight deliveries sit on the FIFO lane (every counted send) or
        the heap (a local hand-off); unregister voids them in both, for the
        current and the replaced handler, counting only the counted sends."""
        old_received, new_received = [], []
        network.register(1, old_received.append)
        old_port = network._ports[1]
        network.send(0, 1, "PING")                  # lane, old handler
        network.register(1, new_received.append)
        new_port = network._ports[1]
        network.send(1, 1, "LOCAL")                 # heap, zero delay
        network.send(2, 1, "PING")                  # lane, new handler
        assert len(engine._lane) == 2 and len(engine._queue) == 1
        network.unregister(1)
        assert not engine._lane and not engine._queue and engine.quiescent
        assert engine._ports[old_port] is None
        assert engine._ports[new_port] is None
        engine.run()
        assert old_received == [] and new_received == []
        assert network.messages_dropped == 2
        assert network.messages_delivered == 0

    def test_late_registration_still_delivers(self, engine, network):
        """A recipient registering while the message is in flight gets it
        (the unregistered-at-send slow path resolves at delivery time)."""
        received = []
        network.send(0, 3, "PING")
        network.register(3, received.append)
        engine.run()
        assert len(received) == 1
        assert network.messages_dropped == 0
        assert network.messages_delivered == 1

    def test_counters_reconcile_at_quiescence(self, engine, network):
        network.register(1, lambda message: None)
        network.send(0, 1, "A")
        network.send(0, 9, "B")  # dropped
        engine.run()
        assert network.messages_sent == (network.messages_delivered
                                         + network.messages_dropped
                                         + network.messages_lost)


class TestDeliveryInstant:
    def test_one_instant_shares_one_delivery_time(self):
        """The counted sends of one virtual instant are one lane run, due at
        one float, and the contact stamps their deliveries leave share it.
        Order, sequence numbers and counts are one per message."""
        simulator = ProtocolSimulator(VoroNetConfig(n_max=200, seed=3), seed=3)
        simulator.bulk_join(generate_objects(UniformDistribution(), 40, RandomSource(3)))
        HeartbeatDetector(simulator)    # deliveries now stamp last_contact
        engine, network = simulator.engine, simulator.network
        sender = simulator.node(0)
        recipients = sorted(simulator.nodes)[1:6]
        sequence, sent = engine._sequence, network.messages_sent
        for recipient in recipients:
            simulator.send(sender, recipient, "PING", (0,))
        (run,) = engine._runs
        due, first, count = run
        assert (first, count) == (sequence, 5)
        assert engine._sequence == sequence + 5
        assert due == engine.now + LATENCY
        assert due is network._due
        assert list(engine._lane) == [network._ports[r] for r in recipients]
        assert [message[1] for message in engine._lane_args] == recipients
        engine.run()
        assert all(simulator.node(recipient).last_contact[0] is due
                   for recipient in recipients)
        # The PONGs were all sent at ``due``: one later float serves them.
        answered = [sender.last_contact[recipient] for recipient in recipients]
        assert answered[0] == due + LATENCY
        assert all(stamp is answered[0] for stamp in answered)
        assert network.messages_sent - sent == 10
