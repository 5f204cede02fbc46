"""Unit tests for greedy routing."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import VoroNet, VoroNetConfig, routing
from repro.core.errors import EmptyOverlayError, ObjectNotFoundError
from repro.core.routing import MISS_OWNER, greedy_route, greedy_route_many, route_to_object
from repro.geometry.locate_grid import VECTOR_SCAN_THRESHOLD
from repro.geometry.point import distance

from reference_router import assert_routes_match_reference, zero_link_twin


class TestGreedyRoute:
    def test_route_to_own_position_is_zero_hops(self, small_overlay):
        oid = small_overlay.object_ids()[3]
        result = greedy_route(small_overlay, oid, small_overlay.position_of(oid))
        assert result.hops == 0
        assert result.owner == oid

    def test_route_terminates_at_region_owner(self, small_overlay, numpy_rng):
        ids = small_overlay.object_ids()
        for _ in range(40):
            source = int(numpy_rng.choice(ids))
            target = tuple(numpy_rng.random(2))
            result = greedy_route(small_overlay, source, target)
            nearest = min(ids, key=lambda i: distance(small_overlay.position_of(i), target))
            assert distance(small_overlay.position_of(result.owner), target) == \
                pytest.approx(distance(small_overlay.position_of(nearest), target))

    def test_route_between_all_pairs_small(self, tiny_overlay):
        ids = tiny_overlay.object_ids()
        for a in ids:
            for b in ids:
                if a == b:
                    continue
                result = route_to_object(tiny_overlay, a, b)
                assert result.success and result.owner == b

    def test_route_to_object_success_flag(self, small_overlay, numpy_rng):
        ids = small_overlay.object_ids()
        for _ in range(30):
            a, b = numpy_rng.choice(ids, size=2, replace=False)
            result = route_to_object(small_overlay, int(a), int(b))
            assert result.success
            assert result.owner == int(b)
            assert result.final_distance == pytest.approx(0.0)

    def test_empty_overlay_raises(self):
        with pytest.raises(EmptyOverlayError):
            greedy_route(VoroNet(n_max=4, seed=1), 0, (0.5, 0.5))

    def test_unknown_source_raises(self, tiny_overlay):
        with pytest.raises(ObjectNotFoundError):
            greedy_route(tiny_overlay, 999, (0.5, 0.5))

    def test_unknown_destination_raises(self, tiny_overlay):
        with pytest.raises(ObjectNotFoundError):
            route_to_object(tiny_overlay, tiny_overlay.object_ids()[0], 999)

    def test_path_recording_when_enabled(self, numpy_rng):
        overlay = VoroNet(VoroNetConfig(n_max=200, seed=4, track_paths=True))
        ids = [overlay.insert(tuple(p)) for p in numpy_rng.random((80, 2))]
        result = route_to_object(overlay, ids[0], ids[-1])
        assert result.path is not None
        assert result.path[0] == ids[0]
        assert result.path[-1] == ids[-1]
        assert len(result.path) == result.hops + 1

    def test_path_not_recorded_by_default(self, small_overlay):
        ids = small_overlay.object_ids()
        result = route_to_object(small_overlay, ids[0], ids[1])
        assert result.path is None

    def test_path_strictly_approaches_target(self, numpy_rng):
        overlay = VoroNet(VoroNetConfig(n_max=200, seed=4, track_paths=True))
        ids = [overlay.insert(tuple(p)) for p in numpy_rng.random((100, 2))]
        target = overlay.position_of(ids[7])
        result = greedy_route(overlay, ids[50], target)
        distances = [distance(overlay.position_of(oid), target) for oid in result.path]
        assert all(b < a for a, b in zip(distances, distances[1:]))

    def test_messages_equal_hops(self, small_overlay):
        ids = small_overlay.object_ids()
        result = route_to_object(small_overlay, ids[0], ids[5])
        assert result.messages == result.hops


class TestLongLinkEffect:
    def test_long_links_do_not_hurt_routing(self, numpy_rng):
        """With long links the mean hop count must not be worse than on the
        same objects joined without any (the Delaunay-only overlay)."""
        overlay = VoroNet(VoroNetConfig(n_max=600, seed=9))
        ids = [overlay.insert(tuple(p)) for p in numpy_rng.random((400, 2))]
        bare = zero_link_twin(overlay)
        pairs = [tuple(numpy_rng.choice(ids, size=2, replace=False)) for _ in range(80)]
        with_links = np.mean([
            route_to_object(overlay, int(a), int(b)).hops for a, b in pairs])
        without_links = np.mean([
            route_to_object(bare, int(a), int(b)).hops for a, b in pairs])
        assert with_links <= without_links

    def test_route_without_long_links_still_succeeds(self, small_overlay, numpy_rng):
        ids = small_overlay.object_ids()
        bare = zero_link_twin(small_overlay)
        for _ in range(20):
            a, b = numpy_rng.choice(ids, size=2, replace=False)
            result = route_to_object(bare, int(a), int(b))
            assert result.success
            assert_routes_match_reference(bare, result)


class TestMaxHopsValidation:
    """User-supplied max_hops ≤ 0 must be rejected, not silently explode."""

    @pytest.mark.parametrize("bad_max_hops", [0, -1, -100])
    def test_greedy_route_rejects_non_positive_max_hops(self, tiny_overlay,
                                                        bad_max_hops):
        with pytest.raises(ValueError, match="max_hops"):
            greedy_route(tiny_overlay, tiny_overlay.object_ids()[0],
                         (0.9, 0.9), max_hops=bad_max_hops)

    @pytest.mark.parametrize("bad_max_hops", [0, -1])
    def test_route_to_object_rejects_non_positive_max_hops(self, tiny_overlay,
                                                           bad_max_hops):
        ids = tiny_overlay.object_ids()
        with pytest.raises(ValueError, match="max_hops"):
            route_to_object(tiny_overlay, ids[0], ids[1],
                            max_hops=bad_max_hops)

    def test_positive_max_hops_still_enforced(self, small_overlay):
        """A tight positive cap keeps raising RoutingError as before."""
        from repro.core.errors import RoutingError
        ids = small_overlay.object_ids()
        with pytest.raises(RoutingError):
            # Routing across the overlay needs more than one hop for at
            # least one of these pairs.
            for a in ids[:10]:
                for b in ids[-10:]:
                    if a != b:
                        route_to_object(small_overlay, a, b, max_hops=1)


class TestNonFiniteTargets:
    """A NaN or infinite target has no owner: every routing entry refuses it,
    as ``owner_of`` does, rather than answering the route's source."""

    BAD = [(float("nan"), 0.5), (0.5, float("inf")), (float("-inf"), float("nan"))]

    @pytest.mark.parametrize("target", BAD)
    def test_scalar_routes_refuse(self, tiny_overlay, target):
        source = tiny_overlay.object_ids()[0]
        for route in (lambda: greedy_route(tiny_overlay, source, target),
                      lambda: tiny_overlay.route(source, target),
                      lambda: tiny_overlay.lookup(target, start=source)):
            with pytest.raises(ValueError, match="non-finite"):
                route()
        with pytest.raises(ValueError):  # the locate grid's entry point refuses first
            tiny_overlay.lookup(target)
        assert tiny_overlay.stats.routes.count == tiny_overlay.stats.queries.count == 0

    @pytest.mark.parametrize("size", [3, VECTOR_SCAN_THRESHOLD + 2])
    @pytest.mark.parametrize("target", BAD)
    def test_a_batch_refuses_before_anything_is_recorded(self, small_overlay,
                                                         size, target):
        ids = small_overlay.object_ids()
        pairs = [(ids[i % len(ids)], (0.3, 0.3)) for i in range(size)]
        pairs[size // 2] = (ids[0], target)
        for missing in ("raise", "miss"):
            with pytest.raises(ValueError, match="non-finite"):
                small_overlay.route_many(pairs, missing=missing)
        assert small_overlay.stats.routes.count == 0


class TestOverlayRouteAPI:
    def test_route_accepts_object_id(self, small_overlay):
        ids = small_overlay.object_ids()
        result = small_overlay.route(ids[0], ids[1])
        assert result.owner == ids[1]

    def test_route_accepts_point(self, small_overlay):
        ids = small_overlay.object_ids()
        result = small_overlay.route(ids[0], (0.3, 0.3))
        assert result.owner in small_overlay

    def test_route_updates_stats(self, small_overlay):
        before = small_overlay.stats.routes.count
        ids = small_overlay.object_ids()
        small_overlay.route(ids[0], ids[1])
        assert small_overlay.stats.routes.count == before + 1

    def test_lookup_returns_owner(self, small_overlay):
        point = (0.77, 0.22)
        result = small_overlay.lookup(point)
        assert result.owner == small_overlay.owner_of(point)

    def test_lookup_empty_overlay_raises(self):
        with pytest.raises(EmptyOverlayError):
            VoroNet(n_max=4, seed=1).lookup((0.5, 0.5))

    def test_route_accepts_numpy_integer_target(self, small_overlay):
        """Regression: numpy integer ids must route as object ids, not points."""
        ids = small_overlay.object_ids()
        for target in (np.int64(ids[5]), np.int32(ids[5]),
                       np.intp(ids[5]), np.uint16(ids[5])):
            result = small_overlay.route(ids[0], target)
            assert result.owner == ids[5]
            assert result.success

    def test_route_accepts_id_drawn_from_random_source(self, small_overlay, rng):
        """Ids drawn via RandomSource.integers are numpy scalars, not ints."""
        ids = small_overlay.object_ids()
        target = rng.integers(0, len(ids), 1)[0]  # np.int64, a valid id here
        assert not isinstance(target, int)
        result = small_overlay.route(ids[0], target)
        assert result.owner == int(target)

    def test_route_rejects_bool_target_as_id(self, small_overlay):
        """Booleans are Integral in Python; they must not be treated as ids."""
        with pytest.raises(TypeError):
            small_overlay.route(small_overlay.object_ids()[0], True)


LAYOUTS = ("uniform", "clustered", "lattice")


def twin_overlays(layout, track_paths, num_long_links):
    """Two equal overlays of a layout.

    ``clustered`` adds a clique whose tables straddle
    ``VECTOR_SCAN_THRESHOLD`` (scan blocks of 47, array pairs of 48 and 49);
    ``lattice`` puts the objects on a dyadic grid, where distances tie
    exactly and only the tie-break decides.
    """
    config = VoroNetConfig(n_max=64, allow_overflow=True, num_long_links=num_long_links,
                           seed=97, track_paths=track_paths)
    rng = np.random.default_rng(97)
    if layout == "lattice":
        points = [((i + 0.5) / 8, (j + 0.5) / 8) for i in range(8) for j in range(8)]
    else:
        points = [tuple(p) for p in rng.random((90, 2))]
    if layout == "clustered":
        side = config.effective_d_min / 4
        points += [tuple(np.array([0.4, 0.6]) + side * p) for p in rng.random((47, 2))]
    twins = VoroNet(config), VoroNet(config)
    for overlay in twins:
        overlay.bulk_load(points)
    return twins


@pytest.fixture(scope="module")
def twins():
    """``(layout, track_paths, num_long_links) → twin overlays``, built once and kept in step."""
    return {key: twin_overlays(*key)
            for key in itertools.product(LAYOUTS, (False, True), (0, 2))}


def mixed_pairs(overlay, count, seed):
    """Pairs mixing id, numpy-integer and point targets, ``source == target``
    and sources that repeat.  Point targets are multiples of 1/16, some
    outside the square: on the lattice, equidistant from two or four objects."""
    rng = np.random.default_rng(seed)
    ids = overlay.object_ids()
    pairs = []
    for index in range(count):
        source = ids[0] if index % 5 == 4 else ids[int(rng.integers(len(ids)))]
        if index % 7 == 3:
            source = np.int32(source)
        kind = int(rng.integers(4))
        target = ids[int(rng.integers(len(ids)))]
        if kind == 1:
            target = np.int64(target)
        elif kind == 2:
            target = tuple((rng.integers(-1, 18, 2) / 16).tolist())
        elif kind == 3:
            target = int(source)
        pairs.append((source, target))
    return pairs


class TestBatchEqualsLoop:
    """A batch answers what the loop answers (``TESTING.md``)."""

    @pytest.mark.parametrize("threshold", [1, VECTOR_SCAN_THRESHOLD, 10**9])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(layout=st.sampled_from(LAYOUTS), track_paths=st.booleans(),
           num_long_links=st.sampled_from([0, 2]),
           count=st.sampled_from([0, 1, 47, 48, 49, 300]),
           seed=st.integers(0, 2**32 - 1), cold=st.booleans())
    def test_route_many_equals_route_per_pair(self, twins, monkeypatch, threshold, layout,
                                              track_paths, num_long_links, count, seed, cold):
        """Every ``RouteResult`` field (``final_distance`` compared with
        ``==``) and every statistic, whatever the frontier threshold."""
        monkeypatch.setattr(routing, "VECTOR_SCAN_THRESHOLD", threshold)
        batched, looped = twins[layout, track_paths, num_long_links]
        if cold:
            for overlay in (batched, looped):
                overlay.invalidate_routing_tables()
        pairs = mixed_pairs(batched, count, seed)
        batch = batched.route_many(iter(pairs))
        loop = [looped.route(source, target) for source, target in pairs]
        assert batch == loop
        assert all(type(result.final_distance) is float for result in batch)
        assert batched.stats.routes == looped.stats.routes
        assert batched.stats.routing_table_rebuilds == looped.stats.routing_table_rebuilds
        assert batched.stats.query_misses == looped.stats.query_misses == 0
        assert batched.routing_cache_report() == []

    def test_a_near_tie_is_handed_to_the_loop(self, monkeypatch):
        """The frontier hands a near-tied route to the scalar loop, which
        settles it exactly and carries on: the batch still answers what the
        loop answers, path and distance included.  Objects 2 and 3 are the
        same binary64 distance from object 1; 2 is exactly nearer."""
        monkeypatch.setattr(routing, "VECTOR_SCAN_THRESHOLD", 1)
        config = VoroNetConfig(n_max=64, allow_overflow=True, seed=1202, track_paths=True)
        points = [(0.5, 0.75), (0.5, 0.125), (0.010000000000000002, 0.01), (0.01, 0.01)]
        batched, looped = VoroNet(config), VoroNet(config)
        for overlay in (batched, looped):
            overlay.bulk_load(points)
        pairs = [(source, target) for source in range(4) for target in range(4)]
        batch = batched.route_many(pairs)
        assert batch == [looped.route(source, target) for source, target in pairs]
        assert [result.owner for result in batch] == [target for _source, target in pairs]
        assert all(result.success for result in batch)

    def test_the_clique_straddles_the_table_forms(self, twins):
        sizes = set()
        for num_long_links in (0, 2):
            overlay = twins["clustered", True, num_long_links][0]
            sizes |= {len(overlay.routing_table(object_id)[0])
                      for object_id in overlay.object_ids()[90:]}
        assert {47, 48, 49} <= sizes

    def test_a_lone_object_answers_a_batch(self, monkeypatch):
        """The one table without candidates: an empty arena row."""
        monkeypatch.setattr(routing, "VECTOR_SCAN_THRESHOLD", 1)
        overlay = VoroNet(VoroNetConfig(n_max=8, seed=1, track_paths=True))
        only = overlay.insert((0.5, 0.5))
        results = overlay.route_many([(only, only), (only, (0.1, 0.9))])
        assert [(r.owner, r.hops, r.path) for r in results] == [(only, 0, [only])] * 2
        assert overlay.check_consistency() == []

    def test_greedy_route_many_checks_what_greedy_route_checks(self, small_overlay):
        ids = small_overlay.object_ids()
        sources, targets = ids[:60], [(0.5, 0.5)] * 60
        with pytest.raises(EmptyOverlayError):
            greedy_route_many(VoroNet(n_max=4, seed=1), sources, targets)
        with pytest.raises(ObjectNotFoundError) as raised:
            greedy_route_many(small_overlay, sources[:30] + [999] + sources[31:], targets)
        assert raised.value.object_id == 999


class TestBatchFailureSemantics:
    """What a batch does about a pair ``route`` would refuse."""

    @pytest.fixture
    def overlay(self, numpy_rng):
        overlay = VoroNet(VoroNetConfig(n_max=500, seed=7))
        overlay.bulk_load(numpy_rng.random((120, 2)))
        return overlay

    @pytest.mark.parametrize("size", [3, 120])
    @pytest.mark.parametrize("offender", ["source", "target", "bool"])
    def test_raise_mode_refuses_like_the_loop_before_anything_is_recorded(
            self, overlay, size, offender):
        ids = overlay.object_ids()
        gone, also_gone = ids[7], ids[9]
        overlay.remove(gone)
        overlay.remove(also_gone)
        pairs = [(ids[i], ids[i + 20]) for i in range(10, 10 + size // 3)]
        pairs.append({"source": (gone, ids[1]), "target": (ids[1], gone),
                      "bool": (ids[1], True)}[offender])
        pairs.append((also_gone, ids[2]))  # a later offender is not the one named
        pairs += [(ids[i], (0.3, 0.3)) for i in range(10, 10 + size - len(pairs))]
        with pytest.raises((ObjectNotFoundError, TypeError)) as looped:
            for source, target in pairs:
                overlay.route(source, target)
        assert overlay.stats.routes.count == size // 3  # the loop's prefix was counted
        recorded = overlay.stats.routes.count, overlay.stats.routing_table_rebuilds
        with pytest.raises((ObjectNotFoundError, TypeError)) as batched:
            overlay.route_many(pairs)
        assert type(batched.value) is type(looped.value)
        assert batched.value.args == looped.value.args
        if offender != "bool":
            assert batched.value.object_id == gone
        assert (overlay.stats.routes.count, overlay.stats.routing_table_rebuilds) == recorded

    @pytest.mark.parametrize("size", [5, 150])
    def test_miss_mode_fills_the_right_slots(self, overlay, size):
        ids = overlay.object_ids()
        gone = ids[7]
        overlay.remove(gone)
        pairs = [(ids[10 + i % 50], ids[60 + i % 40]) for i in range(size)]
        pairs[1] = (gone, ids[3])
        pairs[3] = (ids[3], np.int64(gone))
        pairs[4] = (ids[3], (0.2, 0.2))
        results = overlay.route_many((pair for pair in pairs), missing="miss")  # consumed once
        assert [i for i, r in enumerate(results) if not r.success] == [1, 3]
        assert all(results[i].owner == MISS_OWNER and results[i].hops == 0 for i in (1, 3))
        assert overlay.stats.query_misses == 2
        assert overlay.stats.routes.count == size - 2
        live = [pair for i, pair in enumerate(pairs) if i not in (1, 3)]
        assert [r for r in results if r.success] == overlay.route_many(live)

    def test_an_empty_overlay_and_an_empty_batch(self):
        overlay = VoroNet(n_max=4, seed=1)
        assert overlay.route_many([]) == []
        with pytest.raises(EmptyOverlayError):
            overlay.route_many([(0, (0.5, 0.5))])
        with pytest.raises(ObjectNotFoundError):  # the destination is looked up first
            overlay.route_many([(0, 1)])
        assert [r.success for r in overlay.route_many([(0, 1)] * 60, missing="miss")] \
            == [False] * 60
        assert overlay.stats.routes.count == 0 and overlay.stats.query_misses == 60
