"""Seeded components expose their effective seed, and same seed ⇒ same run.

Satellite of the SIM002 determinism rule: a finding is only auditable if
every stochastic component can say which stream it draws from.
"""

from repro.simulation.engine import SimulationEngine
from repro.simulation.faults import FaultPlane
from repro.simulation.network import Network
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


# ----------------------------------------------------------------------
# same seed ⇒ same behaviour
# ----------------------------------------------------------------------
def _delivery_times(seed: int, n: int = 50):
    """When each of ``n`` pings, one sent per time unit through a seeded
    lossy plane, arrives: every hop costs the one latency, so the seed
    decides the schedule through which messages are lost."""
    engine = SimulationEngine()
    network = Network(engine, faults=FaultPlane(seed=seed,
                                                loss_probability=0.5))
    times = []
    network.register(1, lambda message: times.append(engine.now))
    for index in range(n):
        engine.schedule(float(index), lambda: network.send(0, 1, "PING"))
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
