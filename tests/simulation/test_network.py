"""Unit tests for the message-passing network layer."""

import pytest

from repro.simulation.engine import SimulationEngine
from repro.simulation.network import (
    KIND,
    ConstantLatency,
    Network,
    UniformLatency,
)
from repro.utils.rng import RandomSource


@pytest.fixture
def engine():
    return SimulationEngine()


@pytest.fixture
def network(engine):
    return Network(engine, ConstantLatency(2.0))


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
        assert times == [2.0]

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
        """In-flight deliveries sit on the FIFO lane (fixed latency) or the
        heap (a fault-plane delay, a local hand-off); unregister voids them
        in both, for the current and the replaced handler, counting only
        the counted sends."""
        from repro.simulation.faults import FaultPlane

        old_received, new_received = [], []
        network.register(1, old_received.append)
        old_port = network._ports[1]
        network.send(0, 1, "PING")                  # lane, old handler
        network.register(1, new_received.append)
        new_port = network._ports[1]
        network.send(1, 1, "LOCAL")                 # heap, zero delay
        network.faults = FaultPlane(seed=1, delay_probability=1.0,
                                    delay_range=(3.0, 3.0))
        network.send(0, 1, "PING")                  # heap, delayed
        network.faults = None
        network.send(2, 1, "PING")                  # lane, new handler
        assert len(engine._lane) == 2 and len(engine._queue) == 2
        network.unregister(1)
        assert engine.pending_events == 0 and engine.quiescent
        assert engine._ports[old_port] is None
        assert engine._ports[new_port] is None
        engine.run()
        assert old_received == [] and new_received == []
        assert network.messages_dropped == 3
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


class TestLatencyModels:
    def test_constant_latency_validation(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)

    def test_uniform_latency_within_bounds(self):
        model = UniformLatency(1.0, 3.0, rng=RandomSource(1))
        message = (0, 1, "X", ())
        for _ in range(100):
            assert 1.0 <= model.sample(message) <= 3.0

    def test_uniform_latency_validation(self):
        with pytest.raises(ValueError):
            UniformLatency(3.0, 1.0)
        with pytest.raises(ValueError):
            UniformLatency(-1.0, 1.0)

    def test_bind_rng_adopts_stream_only_when_defaulted(self):
        explicit = UniformLatency(1.0, 3.0, rng=RandomSource(1))
        reference = UniformLatency(1.0, 3.0, rng=RandomSource(1))
        explicit.bind_rng(RandomSource(999))
        message = (0, 1, "X", ())
        draws = [explicit.sample(message) for _ in range(10)]
        assert draws == [reference.sample(message) for _ in range(10)]

        defaulted = UniformLatency(1.0, 3.0)
        defaulted.bind_rng(RandomSource(7))
        rebound = UniformLatency(1.0, 3.0, rng=RandomSource(7))
        assert [defaulted.sample(message) for _ in range(10)] == \
            [rebound.sample(message) for _ in range(10)]

    def test_simulator_seeds_default_uniform_latency(self):
        """End-to-end reproducibility: an unseeded UniformLatency adopts a
        child of the simulator's seeded stream, so identical seeds give
        identical virtual timelines."""
        from repro.core.config import VoroNetConfig
        from repro.simulation.protocol import ProtocolSimulator

        def run(seed):
            simulator = ProtocolSimulator(
                VoroNetConfig(n_max=256, seed=seed), seed=seed,
                latency=UniformLatency(0.5, 2.5))
            rng = RandomSource(seed)
            for _ in range(12):
                simulator.join(rng.random_point())
            network = simulator.network
            return (simulator.engine.now, network.messages_sent,
                    dict(network.sent_by_kind))

        assert run(11) == run(11)
        # Different seeds must actually draw different latencies (the
        # pre-fix behaviour was an unseeded global default either way).
        assert run(11)[0] != run(12)[0]
