"""Unit tests for oracle-mode crash injection."""

from unittest import mock

import numpy as np
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


class TestCrashLocality:
    """A crash costs the oracle only its victim's neighbourhood."""

    def test_repair_reads_only_the_victims_holders(self):
        """50 crashes in 20 000 objects: the repair reads each holder once
        and each retargeted link's new owner once, never the other
        survivors (a scan of every survivor reads ~19 950)."""
        overlay = VoroNet(VoroNetConfig(n_max=20_000, seed=2701))
        ids = overlay.bulk_load(np.random.default_rng(2701).random((20_000, 2)))
        injector = CrashInjector(overlay, rng=RandomSource(2702))
        view_sizes = 0
        for victim in np.random.default_rng(2703).choice(ids, size=50, replace=False):
            view_sizes += overlay.neighbor_view(int(victim)).size
            injector.crash(int(victim))
        retargets = injector.assess_damage().dangling_long_links
        assert retargets > 0
        reads = []
        node = overlay.node
        with mock.patch.object(overlay, "node",
                               side_effect=lambda object_id: reads.append(object_id)
                               or node(object_id)):
            injector.repair()
        assert 0 < len(reads) <= view_sizes + retargets
        assert injector.assess_damage().total_stale_entries == 0

    def test_a_crash_keeps_the_tables_it_did_not_touch(self, numpy_rng):
        overlay = VoroNet(VoroNetConfig(n_max=300, seed=9))
        overlay.bulk_load(numpy_rng.random((120, 2)))
        for object_id in overlay.object_ids():
            overlay.routing_table(object_id)  # warm every table
        victim = next(object_id for object_id in overlay.object_ids()
                      if not overlay.triangulation.is_hull_vertex(object_id)
                      and overlay.node(object_id).close_neighbors)
        # The victim, its Voronoi neighbours and every object its view names.
        node = overlay.node(victim)
        touched = {victim, *overlay.voronoi_neighbors(victim), *node.close_neighbors,
                   *node.long_link_neighbors(), *node.back_link_sources()}
        injector = CrashInjector(overlay, rng=RandomSource(1))
        injector.crash(victim)
        assert overlay.routing_cache_report() == []
        tables = overlay.routing_cache.tables
        untouched = set(overlay.object_ids()) - touched
        assert untouched and untouched <= tables.keys()
        assert not touched & tables.keys()
        injector.repair()
        assert overlay.check_consistency() == []
