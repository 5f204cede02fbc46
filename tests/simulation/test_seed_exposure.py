"""Seeded components expose their effective seed, and same seed ⇒ same run.

Satellite of the SIM002 determinism rule: a finding is only auditable if
every stochastic component can say which stream it draws from.
"""

from repro.simulation.engine import SimulationEngine
from repro.simulation.faults import FaultPlane
from repro.simulation.network import (ConstantLatency, Network,
                                      UniformLatency)
from repro.utils.rng import RandomSource


# ----------------------------------------------------------------------
# provenance strings
# ----------------------------------------------------------------------
def test_random_source_provenance_direct_seed():
    rng = RandomSource(42)
    assert rng.seed == 42
    assert rng.provenance == "42"
    assert repr(rng) == "RandomSource(provenance='42')"


def test_random_source_provenance_unseeded():
    assert RandomSource().provenance == "unseeded"


def test_random_source_provenance_spawn_chain():
    root = RandomSource(7)
    first = root.fork()
    second = root.fork()
    assert first.provenance == "7.spawn[0]"
    assert second.provenance == "7.spawn[1]"  # forks stay distinguishable
    grandchild = first.fork()
    assert grandchild.provenance == "7.spawn[0].spawn[0]"
    # Derived streams have no single integer seed, by construction.
    assert first.seed is None


def test_random_source_shared_stream_keeps_provenance():
    root = RandomSource(5)
    shared = RandomSource(root)
    assert shared.provenance == "5"
    assert shared.seed == 5


# ----------------------------------------------------------------------
# component reprs
# ----------------------------------------------------------------------
def test_fault_plane_exposes_seed():
    plane = FaultPlane(seed=123, loss_probability=0.25)
    assert plane.seed == 123
    assert "seed=123" in repr(plane)
    assert "loss_probability=0.25" in repr(plane)


def test_uniform_latency_repr_pending_until_bound():
    model = UniformLatency(0.5, 1.5)
    assert model.effective_seed is None
    assert "rng_pending" in repr(model)
    model.bind_rng(RandomSource(99))
    assert model.effective_seed == 99
    assert "effective_seed='99'" in repr(model)


def test_uniform_latency_repr_with_explicit_rng():
    model = UniformLatency(0.5, 1.5, rng=RandomSource(11))
    assert model.effective_seed == 11
    assert "effective_seed='11'" in repr(model)
    # An explicit stream is not displaced by a later bind.
    model.bind_rng(RandomSource(12))
    assert model.effective_seed == 11


def test_uniform_latency_repr_with_spawned_stream_is_auditable():
    model = UniformLatency(0.5, 1.5)
    model.bind_rng(RandomSource(3).fork())
    assert model.effective_seed is None  # derived, not a direct seed...
    assert "effective_seed='3.spawn[0]'" in repr(model)  # ...but auditable


def test_constant_latency_repr():
    assert repr(ConstantLatency(2.0)) == "ConstantLatency(latency=2.0)"


# ----------------------------------------------------------------------
# same seed ⇒ same behaviour
# ----------------------------------------------------------------------
def _delivery_times(seed: int, n: int = 50):
    engine = SimulationEngine()
    model = UniformLatency(0.5, 1.5)
    model.bind_rng(RandomSource(seed))
    network = Network(engine, latency=model)
    times = []
    network.register(1, lambda message: times.append(engine.now))
    for index in range(n):
        network.send(0, 1, "PING", (index,))
    engine.run()
    return times


def test_same_seed_same_latency_schedule():
    assert _delivery_times(21) == _delivery_times(21)


def test_different_seed_different_latency_schedule():
    assert _delivery_times(21) != _delivery_times(22)


def test_same_seed_same_fault_decisions():
    def decisions(seed):
        plane = FaultPlane(seed=seed, loss_probability=0.5)
        return [plane.decide(0, 1, now=float(index)).deliver
                for index in range(100)]

    assert decisions(9) == decisions(9)
    assert decisions(9) != decisions(10)
