"""Unit tests for oracle-mode crash injection."""

import pytest

from repro.core import VoroNet, VoroNetConfig
from repro.simulation.failures import CrashInjector
from repro.utils.rng import RandomSource


class TestCrashInjector:
    @pytest.fixture
    def overlay(self, numpy_rng):
        overlay = VoroNet(VoroNetConfig(n_max=300, seed=9))
        for p in numpy_rng.random((120, 2)):
            overlay.insert(tuple(p))
        return overlay

    def test_crash_removes_without_protocol(self, overlay):
        injector = CrashInjector(overlay, rng=RandomSource(1))
        before = len(overlay)
        injector.crash_random(10)
        assert len(overlay) == before - 10

    def test_crashes_leave_dangling_state(self, overlay):
        injector = CrashInjector(overlay, rng=RandomSource(1))
        injector.crash_random(30)
        report = injector.assess_damage()
        assert report.crashed == 30
        assert report.total_stale_entries > 0
        assert report.affected_objects > 0

    def test_graceful_leaves_cause_no_damage(self, overlay, numpy_rng):
        """Contrast: the same number of graceful departures leaves no stale state."""
        victims = numpy_rng.choice(overlay.object_ids(), size=30, replace=False)
        for victim in victims:
            overlay.remove(int(victim))
        injector = CrashInjector(overlay)
        report = injector.assess_damage()
        assert report.total_stale_entries == 0

    def test_crashes_leave_dangling_back_links(self, overlay):
        """The reverse pointers of crashed sources are damage too —
        invisible to the per-node views but carried by survivors."""
        injector = CrashInjector(overlay, rng=RandomSource(1))
        injector.crash_random(30)
        report = injector.assess_damage()
        assert report.dangling_back_links > 0
        assert report.total_stale_entries >= (
            report.dangling_long_links + report.stale_close_neighbors
            + report.dangling_back_links)
        crashed = set(injector._crashed)  # noqa: SLF001 - test introspection
        counted = sum(
            1 for oid in overlay.object_ids()
            for source, _index in overlay.node(oid).back_links if source in crashed)
        assert counted == report.dangling_back_links

    def test_repair_fixes_dangling_links(self, overlay):
        injector = CrashInjector(overlay, rng=RandomSource(1))
        injector.crash_random(25)
        fixed = injector.repair()
        assert fixed > 0
        report = injector.assess_damage()
        assert report.dangling_long_links == 0
        assert report.stale_close_neighbors == 0
        assert report.dangling_back_links == 0
        crashed = set(injector._crashed)  # noqa: SLF001 - test introspection
        for oid in overlay.object_ids():
            assert not overlay.node(oid).back_link_sources() & crashed

    def test_routing_still_works_after_repair(self, overlay, numpy_rng):
        injector = CrashInjector(overlay, rng=RandomSource(1))
        injector.crash_random(25)
        injector.repair()
        ids = overlay.object_ids()
        for _ in range(10):
            a, b = numpy_rng.choice(ids, size=2, replace=False)
            assert overlay.route(int(a), int(b)).success

    def test_crash_drops_locate_grid_entries(self, overlay, numpy_rng):
        """Regression: the grid is substrate state — crashed ids must leave
        it, or lookups enter the overlay at a dead peer and explode.

        Greedy descent may still hit a survivor's dangling view entry
        before :meth:`repair` runs (the documented crash damage); what the
        grid guarantees is a *live entry point*, and full lookups once the
        anti-entropy pass has scrubbed the views."""
        injector = CrashInjector(overlay, rng=RandomSource(1))
        crashed = set(injector.crash_random(15))
        assert all(object_id not in overlay.locate_index
                   for object_id in crashed)
        assert len(overlay.locate_index) == len(overlay)
        points = numpy_rng.random((50, 2))
        for point in points:
            assert overlay.query_entry_point(tuple(point)) not in crashed
        injector.repair()
        for point in points:
            result = overlay.lookup(tuple(point))
            assert result.owner not in crashed

    def test_crash_invalidates_warmed_routing_tables(self, overlay, numpy_rng):
        """Regression: crashes bypass VoroNet.remove, but must still drop
        the cached routing tables — otherwise warmed ones keep serving
        crashed ids as forwarding candidates."""
        for object_id in overlay.object_ids():
            overlay.routing_table(object_id)  # warm every table
        injector = CrashInjector(overlay, rng=RandomSource(1))
        crashed = set(injector.crash_random(10))
        injector.repair()
        ids = overlay.object_ids()
        for _ in range(50):
            a, b = numpy_rng.choice(ids, size=2, replace=False)
            result = overlay.route(int(a), int(b))
            assert result.success
            assert result.owner not in crashed

    def test_crashed_object_leaves_no_table_behind(self, overlay):
        """A crash withdraws through the same substrate teardown as a
        graceful remove, so the victims' cached routing tables go with
        them — and ``check_consistency`` reports one that does not."""
        for object_id in overlay.object_ids():
            overlay.routing_table(object_id)  # warm every table
        injector = CrashInjector(overlay, rng=RandomSource(1))
        crashed = injector.crash_random(10)
        injector.repair()
        tables = overlay.routing_cache.tables
        assert not any(victim in tables for victim in crashed)
        assert overlay.check_consistency() == []
        tables[crashed[0]] = (None, None, [])
        assert overlay.check_consistency() == [
            f"{crashed[0]}: cached routing table of a non-member"]
