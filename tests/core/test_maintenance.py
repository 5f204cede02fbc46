"""Unit tests for overlay maintenance (AddVoronoiRegion / RemoveVoronoiRegion)."""

import pytest

from repro.core import VoroNet, VoroNetConfig
from repro.core.maintenance import view_consistency_report
from repro.simulation.failures import CrashInjector
from repro.simulation.protocol import ProtocolSimulator
from repro.utils.rng import RandomSource


@pytest.fixture
def overlay(numpy_rng):
    overlay = VoroNet(VoroNetConfig(n_max=400, seed=13))
    for p in numpy_rng.random((150, 2)):
        overlay.insert(tuple(p))
    return overlay


class TestJoinMaintenance:
    def test_long_link_invariant_after_every_join(self, numpy_rng):
        """After each join, every long link in the overlay points at the
        object owning the region containing its target (the invariant
        Section 3.3 promises to keep)."""
        overlay = VoroNet(VoroNetConfig(n_max=200, seed=17))
        for p in numpy_rng.random((60, 2)):
            overlay.insert(tuple(p))
            for oid in overlay.object_ids():
                for target, neighbor, _position in overlay.node(oid).long_links:
                    assert overlay.owner_of(target) == neighbor

    def test_back_links_match_long_links(self, overlay):
        for oid in overlay.object_ids():
            for index, (target, neighbor, position) in enumerate(
                    overlay.node(oid).long_links):
                endpoint = overlay.node(neighbor)
                assert endpoint.back_links[oid, index] == target
                assert endpoint.position is position

    def test_join_message_cost_is_local(self, overlay):
        """Mean join messages must be far below the overlay size (O(1) + routing)."""
        assert overlay.stats.joins.mean_messages < len(overlay) / 3

    def test_consistency_report_clean(self, overlay):
        assert view_consistency_report(overlay) == []


class TestLeaveMaintenance:
    def test_leave_preserves_long_link_invariant(self, overlay, numpy_rng):
        victims = numpy_rng.choice(overlay.object_ids(), size=50, replace=False)
        for victim in victims:
            overlay.remove(int(victim))
            for oid in overlay.object_ids():
                for neighbor in overlay.node(oid).long_link_neighbors():
                    assert neighbor in overlay
        assert view_consistency_report(overlay) == []

    def test_leave_cleans_close_neighbors(self, numpy_rng):
        overlay = VoroNet(VoroNetConfig(n_max=40, seed=19))
        for p in numpy_rng.random((40, 2)):
            overlay.insert(tuple(p))
        victim = next(oid for oid in overlay.object_ids()
                      if overlay.node(oid).close_neighbors)
        neighbours = set(overlay.node(victim).close_neighbors)
        overlay.remove(victim)
        for nb in neighbours:
            assert victim not in overlay.node(nb).close_neighbors

    def test_leave_cleans_back_registrations(self, overlay):
        victim = overlay.object_ids()[0]
        endpoints = [neighbor for neighbor in overlay.node(victim).long_link_neighbors()
                     if neighbor != victim]
        overlay.remove(victim)
        for endpoint in endpoints:
            if endpoint in overlay:
                assert victim not in overlay.node(endpoint).back_link_sources()

    def test_leave_message_cost_is_constant_like(self, overlay, numpy_rng):
        victims = numpy_rng.choice(overlay.object_ids(), size=30, replace=False)
        for victim in victims:
            overlay.remove(int(victim))
        assert overlay.stats.leaves.mean_messages < 40

    def test_view_consistency_detects_dangling_link(self, overlay):
        # Manually corrupt a long link to point at a non-existent object.
        oid = overlay.object_ids()[0]
        overlay.node(oid).retarget_long_link(0, 10_000, (2.0, 2.0))
        problems = view_consistency_report(overlay)
        assert any("departed" in p or "points at" in p for p in problems)


class TestAblations:
    def test_without_back_links_departures_leave_dangling_links(self, numpy_rng):
        overlay = VoroNet(VoroNetConfig(n_max=300, seed=23))
        ids = [overlay.insert(tuple(p)) for p in numpy_rng.random((120, 2))]
        # Crash a third of the objects: a crash runs no BLRn hand-over, so
        # nothing re-points the links at the victims.
        injector = CrashInjector(overlay, RandomSource(23))
        for victim in numpy_rng.choice(ids, size=40, replace=False):
            injector.crash(int(victim))
        dangling = 0
        for oid in overlay.object_ids():
            for neighbor in overlay.node(oid).long_link_neighbors():
                if neighbor not in overlay:
                    dangling += 1
        assert dangling > 0


def _oracle(points):
    overlay = VoroNet(VoroNetConfig(n_max=400, seed=19))
    overlay.bulk_load(points)
    return overlay.locate_index, overlay.check_consistency, overlay.remove


def _protocol(points):
    simulator = ProtocolSimulator(VoroNetConfig(n_max=400, seed=19), seed=19)
    simulator.bulk_join(points)
    return simulator.locate, simulator.verify_views, simulator.leave


@pytest.mark.parametrize("build", [_oracle, _protocol])
class TestCoordinateColumnIsAMembershipRecord:
    """Routing tables gather positions from the locate grid's column, so the
    membership check of both modes compares it with the nodes' positions."""

    def test_wrong_row_is_reported(self, build, numpy_rng):
        locate, check, _ = build([tuple(p) for p in numpy_rng.random((40, 2))])
        assert check() == []
        kept = locate._xy[11].copy()
        locate._xy[11] = (0.5, 0.5)
        assert [p for p in check() if p.startswith("11: coordinate column")]
        locate._xy[11] = float("nan")
        problems = check()
        assert [p for p in problems if p.startswith("11: coordinate column")]
        assert [p for p in problems if "finite rows" in p]
        locate._xy[11] = kept
        assert check() == []

    def test_row_left_behind_by_a_departure_is_reported(self, build, numpy_rng):
        locate, check, leave = build([tuple(p) for p in numpy_rng.random((40, 2))])
        kept = locate._xy[5].copy()
        leave(5)
        assert check() == []
        locate._xy[5] = kept
        assert check() == ["coordinate column holds 40 finite rows, not the 39 members"]
