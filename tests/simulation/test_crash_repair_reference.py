"""The holder walk repairs what the full scan repairs.

Two identically seeded overlays run the same joins, bulk loads, leaves and
crash batches; one is crashed and repaired by :class:`CrashInjector` (the
crash records who references its victim, the repair scrubs only those), the
other by ``tests/reference_crash_repair.py``'s full scan.  After every
repair both fix as many entries and hold the same views, entry for entry
and in the same order, with nothing stale and every invariant intact.  An
operation that fails on the reference overlay — a route or a hand-over
that runs into crash damage before the repair — must fail alike on the
other, and ends the example.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from reference_crash_repair import FullScanCrashInjector
from repro.core import VoroNet, VoroNetConfig
from repro.simulation.failures import CrashInjector
from repro.utils.rng import RandomSource
from repro.workloads.distributions import PowerLawDistribution, UniformDistribution

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
TOKENS = st.integers(min_value=0, max_value=10**6)


class CrashRepairMachine(RuleBasedStateMachine):
    """The reference overlay first, the holder walk's second."""

    PLACEMENT = UniformDistribution()

    def __init__(self):
        super().__init__()
        self.overlays = []
        self.injectors = []
        for injector_class in (FullScanCrashInjector, CrashInjector):
            overlay = VoroNet(VoroNetConfig(n_max=64, allow_overflow=True,
                                            num_long_links=2, seed=3901))
            self.overlays.append(overlay)
            self.injectors.append(injector_class(overlay, RandomSource(3902)))
        self.ended = False

    def _points(self, seed, count):
        return self.PLACEMENT.sample(count, RandomSource(seed))

    def _both(self, operation):
        """``operation(overlay, injector)`` on each side; ``None`` once failed."""
        if self.ended:
            return None
        reference, subject = zip(self.overlays, self.injectors)
        try:
            expected = operation(*reference)
        except Exception as exc:  # noqa: BLE001 - any failure must repeat
            try:
                operation(*subject)
            except type(exc):
                self.ended = True
                return None
            raise AssertionError(f"the reference raised {exc!r}, the holder walk did not")
        assert operation(*subject) == expected
        return expected

    @initialize(seed=SEEDS, count=st.integers(min_value=8, max_value=48))
    def populate(self, seed, count):
        self.bulk_load(seed, count)

    @rule(seed=SEEDS, count=st.integers(min_value=1, max_value=24))
    def bulk_load(self, seed, count):
        points = self._points(seed, count)
        self._both(lambda overlay, _injector: overlay.bulk_load(points))

    @rule(seed=SEEDS)
    def insert(self, seed):
        (point,) = self._points(seed, 1)
        self._both(lambda overlay, _injector: overlay.insert(point))

    @rule(token=TOKENS)
    def remove(self, token):
        ids = self.overlays[0].object_ids()
        if len(ids) > 1:
            victim = ids[token % len(ids)]
            self._both(lambda overlay, _injector: overlay.remove(victim))

    @rule(tokens=st.lists(TOKENS, min_size=1, max_size=4), repair_now=st.booleans())
    def crash_batch(self, tokens, repair_now):
        """A batch, repaired at once or left for the other rules to meet."""
        for token in tokens:
            ids = self.overlays[0].object_ids()
            if len(ids) <= 3:
                break
            victim = ids[token % len(ids)]
            self._both(lambda _overlay, injector: injector.crash(victim))
        if repair_now:
            self.repair()

    @rule()
    def repair(self):
        self._both(lambda _overlay, injector: injector.repair())
        if self.ended:
            return
        reference, subject = self.overlays
        assert subject.object_ids() == reference.object_ids()
        for node in reference.nodes():
            twin = subject.node(node.object_id)
            assert twin.close_neighbors == node.close_neighbors
            assert twin.long_links == node.long_links
            assert list(twin.back_links.items()) == list(node.back_links.items())
        for overlay, injector in zip(self.overlays, self.injectors):
            assert injector.assess_damage().total_stale_entries == 0
            assert overlay.check_consistency() == []

    @invariant()
    def cached_tables_are_valid(self):
        if not self.ended:
            assert self.overlays[1].routing_cache_report() == []


class PowerLawCrashRepairMachine(CrashRepairMachine):
    """Skewed placement: close sets of tens of entries, scrubbed by set
    intersection."""

    PLACEMENT = PowerLawDistribution(alpha=2.0)


_SETTINGS = settings(max_examples=40, stateful_step_count=30, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])
TestUniformCrashRepair = CrashRepairMachine.TestCase
TestUniformCrashRepair.settings = _SETTINGS
TestPowerLawCrashRepair = PowerLawCrashRepairMachine.TestCase
TestPowerLawCrashRepair.settings = _SETTINGS
