"""Unit tests for the grid-bucket locate index."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.geometry import locate_grid
from repro.geometry.locate_grid import LocateGrid
from repro.geometry.point import distance


@pytest.fixture
def populated_grid(numpy_rng):
    grid = LocateGrid()
    points = {i: tuple(p) for i, p in enumerate(numpy_rng.random((300, 2)))}
    for vid, point in points.items():
        grid.insert(vid, point)
    return grid, points


class TestMembership:
    def test_empty_grid(self):
        grid = LocateGrid()
        assert len(grid) == 0
        assert grid.hint((0.5, 0.5)) is None
        assert grid.within((0.5, 0.5), 0.3) == []

    def test_insert_and_contains(self):
        grid = LocateGrid()
        grid.insert(3, (0.1, 0.9))
        assert 3 in grid and len(grid) == 1

    def test_duplicate_id_rejected(self):
        grid = LocateGrid()
        grid.insert(1, (0.2, 0.2))
        with pytest.raises(ValueError):
            grid.insert(1, (0.8, 0.8))

    def test_discard(self, populated_grid):
        grid, points = populated_grid
        grid.discard(17)
        assert 17 not in grid
        assert len(grid) == len(points) - 1
        grid.discard(17)  # idempotent
        assert len(grid) == len(points) - 1

    def test_invalid_occupancy_rejected(self):
        with pytest.raises(ValueError):
            LocateGrid(target_occupancy=0.0)

    def test_bulk_insert(self, numpy_rng):
        grid = LocateGrid()
        items = [(i, tuple(p)) for i, p in enumerate(numpy_rng.random((50, 2)))]
        grid.bulk_insert(items)
        assert len(grid) == 50
        for vid, point in items:
            assert grid.within(point, 0.0) == [vid]


def grid_state(grid):
    """Everything a grid holds, bucket iteration order included."""
    return (grid.cells_per_axis,
            [(cell, list(bucket)) for cell, bucket in grid._cells.items()],
            list(grid._points.items()),
            grid._xy.shape, grid._xy.tobytes())


class TestBulkInsert:
    """One pass leaves the grid exactly as one ``insert`` per pair does."""

    @pytest.mark.parametrize("base, count, departed, resizes", [
        (0, 1, 0, False),
        (0, 3_000, 0, True),  # several resizes and column doublings
        (300, 40, 0, False),
        (300, 1_500, 0, True),
        (900, 700, 400, False),  # populated with holes
        (900, 2_000, 400, True),
    ])
    def test_matches_per_point_inserts(self, base, count, departed, resizes):
        rng = np.random.default_rng(base + count)
        points = [tuple(p) for p in rng.random((base + count, 2)).tolist()]
        ids = rng.permutation(2 * (base + count))[:base + count].tolist()
        one_by_one, batched = LocateGrid(), LocateGrid()
        for grid in (one_by_one, batched):
            for vertex_id, point in zip(ids[:base], points[:base]):
                grid.insert(vertex_id, point)
            for vertex_id in ids[:departed]:
                grid.discard(vertex_id)
        before = batched.cells_per_axis
        for vertex_id, point in zip(ids[base:], points[base:]):
            one_by_one.insert(vertex_id, point)
        batched.bulk_insert(zip(ids[base:], points[base:]))
        assert grid_state(batched) == grid_state(one_by_one)
        assert (batched.cells_per_axis != before) == resizes
        assert all(batched._points[i] is p for i, p in zip(ids[base:], points[base:]))

    def test_a_bad_batch_changes_nothing(self, populated_grid):
        grid, _points = populated_grid
        state = grid_state(grid)
        for batch in ([(1_000, (0.5, 0.5)), (1_000, (0.6, 0.6))],
                      [(1_000, (0.5, 0.5)), (7, (0.6, 0.6))],
                      [(1_000, (0.5, 0.5)), (-1, (0.6, 0.6))]):
            with pytest.raises(ValueError):
                grid.bulk_insert(batch)
            assert grid_state(grid) == state


class TestHint:
    def test_hint_is_a_member(self, populated_grid, numpy_rng):
        grid, points = populated_grid
        for _ in range(50):
            hint = grid.hint(tuple(numpy_rng.random(2)))
            assert hint in points

    def test_hint_is_near_the_target(self, populated_grid, numpy_rng):
        """The hint is within a couple of cell diagonals of the true nearest."""
        grid, points = populated_grid
        tree = cKDTree(list(points.values()))
        cell = 1.0 / grid.cells_per_axis
        for _ in range(50):
            query = tuple(numpy_rng.random(2))
            hint = grid.hint(query)
            nearest = tree.query(query)[1]
            slack = 3.0 * math.sqrt(2.0) * cell
            assert distance(points[hint], query) <= \
                distance(points[nearest], query) + slack

    def test_hint_with_query_outside_unit_square(self, populated_grid):
        grid, points = populated_grid
        for query in [(-3.0, 0.5), (0.5, 7.0), (2.0, -2.0)]:
            assert grid.hint(query) in points

    def test_hint_survives_heavy_removal(self, populated_grid):
        grid, points = populated_grid
        survivors = sorted(points)[:5]
        for vid in sorted(points)[5:]:
            grid.discard(vid)
        assert grid.hint((0.5, 0.5)) in survivors


class TestWithin:
    def test_matches_brute_force(self, populated_grid, numpy_rng):
        grid, points = populated_grid
        for radius in (0.01, 0.07, 0.25):
            for _ in range(20):
                query = tuple(numpy_rng.random(2))
                expected = {vid for vid, p in points.items()
                            if distance(p, query) <= radius}
                assert set(grid.within(query, radius)) == expected

    def test_zero_radius_finds_exact_point(self, populated_grid):
        grid, points = populated_grid
        vid = next(iter(points))
        assert grid.within(points[vid], 0.0) == [vid]

    def test_negative_radius_rejected(self, populated_grid):
        grid, _ = populated_grid
        with pytest.raises(ValueError):
            grid.within((0.5, 0.5), -0.1)


class TestResizing:
    def test_resolution_grows_with_population(self, numpy_rng):
        grid = LocateGrid()
        for i, p in enumerate(numpy_rng.random((400, 2))):
            grid.insert(i, tuple(p))
        assert grid.cells_per_axis > 4
        # Query correctness is preserved across every intermediate rebuild.
        assert grid.hint((0.5, 0.5)) is not None

    def test_resolution_shrinks_after_mass_departure(self, numpy_rng):
        grid = LocateGrid()
        for i, p in enumerate(numpy_rng.random((400, 2))):
            grid.insert(i, tuple(p))
        grown = grid.cells_per_axis
        for i in range(395):
            grid.discard(i)
        assert grid.cells_per_axis < grown
        assert len(grid) == 5


def clustered_grid(seed, clique=1000, background=200):
    """A grid whose densest bucket is a clique of at least ``clique`` ids.

    The grid is sized by *mean* occupancy, so a clique in a square of side
    5e-4 lands in one bucket: its corner is 0.002 past a multiple of 1/8,
    and no cell boundary ``k/m`` with ``m <= 31`` (2 000 ids) is that close
    to one.  The background is uniform, and ids are shuffled so bucket order
    is not id order.
    """
    rng = np.random.default_rng(seed)
    corner = rng.integers(1, 8, size=2) / 8 + 0.002
    points = np.vstack([corner + 5e-4 * rng.random((clique, 2)),
                        rng.random((background, 2))])
    ids = rng.permutation(len(points))
    grid = LocateGrid()
    grid.bulk_insert((int(i), (float(x), float(y))) for i, (x, y) in zip(ids, points))
    assert max(len(bucket) for bucket in grid._cells.values()) >= clique
    return grid, {int(i): (float(x), float(y)) for i, (x, y) in zip(ids, points)}


def knife_edge_radii(points, rng, count):
    """``math.hypot`` of stored pairs, and the floats either side of each."""
    ids = sorted(points)
    radii = []
    for a, b in rng.choice(ids, size=(count, 2)):
        exact = distance(points[int(a)], points[int(b)])
        radii += [math.nextafter(exact, 0.0), exact, math.nextafter(exact, math.inf)]
    return radii


class TestCoordinateColumn:
    def test_rows_follow_membership(self, populated_grid):
        grid, points = populated_grid
        ids = np.asarray(sorted(points), dtype=np.int64)
        assert grid.coordinates(ids).tolist() == [list(points[i]) for i in sorted(points)]
        assert grid.column_problems(points) == []
        grid.discard(17)
        with pytest.raises(KeyError) as raised:
            grid.coordinates(np.asarray([3, 17, 18], dtype=np.int64))
        assert raised.value.args == (17,)
        assert len(grid.column_problems(points)) == 2  # 17's row, and the count

    @pytest.mark.parametrize("bad", [-1, 10**6])
    def test_ids_outside_the_column_are_not_members(self, populated_grid, bad):
        grid, _ = populated_grid
        with pytest.raises(KeyError) as raised:
            grid.coordinates(np.asarray([2, bad], dtype=np.int64))
        assert raised.value.args == (bad,)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            LocateGrid().insert(-1, (0.5, 0.5))

    def test_column_grows_and_reuses_rows(self):
        grid = LocateGrid()
        grid.insert(5000, (0.25, 0.5))
        grid.insert(3, (0.75, 0.5))
        grid.discard(3)
        grid.insert(3, (0.5, 0.125))
        assert grid.coordinates(np.asarray([5000, 3])).tolist() == [[0.25, 0.5], [0.5, 0.125]]
        assert grid.column_problems({5000: (0.25, 0.5), 3: (0.5, 0.125)}) == []

    def test_stale_row_is_reported(self, populated_grid):
        grid, points = populated_grid
        moved = dict(points)
        moved[9] = (0.5, 0.5)
        problems = grid.column_problems(moved)
        assert len(problems) == 1 and problems[0].startswith("9: coordinate column")


class TestDenseBuckets:
    """The array branches answer exactly what the scalar loops answer.

    ``VECTOR_SCAN_THRESHOLD`` is patched to force every scan one way or the
    other through the same entry points.
    """

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_radius_queries_agree(self, seed, data):
        grid, points = clustered_grid(seed)
        rng = np.random.default_rng(seed + 1)
        radius = data.draw(st.one_of(
            st.sampled_from(knife_edge_radii(points, rng, 4)),
            st.floats(0.0, 0.05),
            st.sampled_from([0.0, 5e-4, 2.0])))
        ids = list(points)
        queries = [points[i] for i in ids]
        batched = dict(grid.within_many(queries, radius))
        assert sorted(batched) == list(range(len(queries)))
        assert [batched[i] for i in range(len(queries))] == \
            [grid.within(query, radius) for query in queries]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(locate_grid, "VECTOR_SCAN_THRESHOLD", 10**9)
            for index in rng.choice(len(queries), size=25, replace=False).tolist():
                scalar = grid.within(queries[index], radius)
                assert batched[index] == scalar
                assert set(scalar) == {i for i, p in points.items()
                                       if distance(p, queries[index]) <= radius}
                assert dict(grid.within_many(queries[index:index + 2], radius))[0] == scalar

    def test_knife_edge_radius_is_decided_by_hypot(self):
        grid, points = clustered_grid(99)
        rng = np.random.default_rng(100)
        ids = sorted(points)
        for a, b in rng.choice(ids, size=(150, 2)).tolist():
            exact = distance(points[a], points[b])
            for radius in (math.nextafter(exact, 0.0), exact, math.nextafter(exact, math.inf)):
                assert (b in grid.within(points[a], radius)) == (exact <= radius)
                assert (b in grid.select_within(ids, points[a], radius)) == (exact <= radius)
                assert (b in dict(grid.within_many([points[a]], radius))[0]) == (exact <= radius)

    def test_select_within_keeps_order_and_checks_membership(self):
        grid, points = clustered_grid(5)
        ids = list(points)
        center = points[ids[0]]
        assert grid.select_within(ids, center, 2e-4) == \
            [i for i in ids if distance(points[i], center) <= 2e-4]
        grid.discard(ids[7])
        with pytest.raises(KeyError) as raised:
            grid.select_within(ids, center, 2e-4)
        assert raised.value.args == (ids[7],)

    @pytest.mark.parametrize("threshold", [1, 48, 10**9])
    def test_hints_match_hint_on_exact_ties(self, monkeypatch, threshold):
        # Mirror pairs around exactly representable centres: every query on
        # a centre sees its two nearest candidates at the same distance.
        step = 2.0 ** -12
        grid = LocateGrid()
        points = {}
        order = np.random.default_rng(3).permutation(240)
        for slot, vid in enumerate(order.tolist()):
            k, side = divmod(slot, 2)
            points[vid] = (0.5 + (3 * k + (1 if side else -1)) * step, 0.5)
            grid.insert(vid, points[vid])
        queries = [(0.5 + 3 * k * step, 0.5) for k in range(120)]
        queries += [(0.5 + 3 * k * step, 0.5 + step) for k in range(120)]
        queries += [(0.1, 0.9), (2.0, -1.0)]
        reference = [grid.hint(query) for query in queries]
        monkeypatch.setattr(locate_grid, "VECTOR_SCAN_THRESHOLD", threshold)
        assert [grid.hint(query) for query in queries] == reference
        assert grid.hints(queries) == reference
        for query, found in zip(queries[:120], reference[:120]):
            best = min(distance(p, query) for p in points.values())
            tied = [vid for vid, p in points.items() if distance(p, query) == best]
            assert len(tied) == 2 and found in tied

    def test_batched_query_memory_stays_bounded(self):
        """2 000 queries x 2 000 candidates is 4 M pairs; no temporary, and no
        backlog of result lists, may scale with that (guards ``peak_rss_mb``)."""
        grid, points = clustered_grid(11, clique=2000, background=0)
        queries = np.asarray(list(points.values()))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            pairs = sum(len(found) for _, found in grid.within_many(queries, 1e-4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pairs > 2000 * 100
        assert peak < 6 * 2**20


class ReadCells(dict):
    """A bucket map that records which cells were read, and whether it was
    iterated whole."""

    def __init__(self, cells):
        super().__init__(cells)
        self.read = set()
        self.scanned = False

    def get(self, cell, default=None):
        self.read.add(cell)
        return super().get(cell, default)

    def __getitem__(self, cell):
        self.read.add(cell)
        return super().__getitem__(cell)

    def items(self):
        self.scanned = True
        return super().items()

    def values(self):
        self.scanned = True
        return super().values()

    def __iter__(self):
        self.scanned = True
        return super().__iter__()


def box_cells(grid, point, radius):
    """The cells :meth:`LocateGrid.within` scans for one query."""
    m = grid.cells_per_axis

    def cell(value):
        return min(m - 1, max(0, int(min(max(value, 0.0), 1.0) * m)))

    return {(ix, iy)
            for ix in range(cell(point[0] - radius), cell(point[0] + radius) + 1)
            for iy in range(cell(point[1] - radius), cell(point[1] + radius) + 1)}


class TestSparseBatch:
    """``within_many`` and ``hints`` answer every query of a batch as the
    scalar calls do, sparse and dense queries mixed in one batch."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), background=st.integers(0, 600),
           clique=st.sampled_from([0, 60, 400]), threshold=st.sampled_from([1, 48, 10**9]),
           data=st.data())
    def test_batches_answer_every_query_as_the_scalar_calls(self, seed, background, clique,
                                                           threshold, data):
        rng = np.random.default_rng(seed)
        corner = rng.random(2) * 0.9
        coordinates = np.vstack([rng.random((background, 2)),
                                 corner + 2e-3 * rng.random((clique, 2))])
        points = {int(i): (float(x), float(y))
                  for i, (x, y) in zip(rng.permutation(2 * len(coordinates)),
                                       coordinates.tolist())}
        grid = LocateGrid()
        grid.bulk_insert(points.items())
        queries = list(points.values())[:300]
        queries += [tuple(p) for p in rng.random((40, 2)).tolist()]
        queries += [tuple(p) for p in (4 * rng.random((20, 2)) - 1.5).tolist()]
        radius = data.draw(st.one_of(
            st.sampled_from([0.0, 1e-3, 0.01, 0.3, 3.0]),
            st.floats(0.0, 0.05),
            st.sampled_from(knife_edge_radii(points, rng, 3) if len(points) > 1 else [0.0])))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(locate_grid, "VECTOR_SCAN_THRESHOLD", threshold)
            batched = list(grid.within_many(queries, radius))
            assert sorted(i for i, _found in batched) == list(range(len(queries)))
            found = dict(batched)
            assert [found[i] for i in range(len(queries))] == \
                [grid.within(query, radius) for query in queries]
            assert grid.hints(queries) == [grid.hint(query) for query in queries]
        # The answers are the buckets' own int objects.
        bucket_ints = {id(vertex_id) for bucket in grid._cells.values() for vertex_id in bucket}
        assert all(id(vertex_id) in bucket_ints for ids in found.values() for vertex_id in ids)

    def test_empty_grid_and_empty_batch(self):
        grid = LocateGrid()
        queries = [(0.5, 0.5), (2.0, -1.0)]
        assert list(grid.within_many(queries, 0.1)) == [(0, []), (1, [])]
        assert grid.hints(queries) == [None, None]
        grid.insert(4, (0.25, 0.25))
        assert list(grid.within_many([], 0.1)) == []
        assert grid.hints([]) == []
        assert dict(grid.within_many(queries + [(0.25, 0.25)], 0.0)) == \
            {0: [], 1: [], 2: [4]}

    def test_a_small_batch_reads_only_its_own_cells(self):
        """Ten queries against a 50 000-object grid gather the buckets of
        their own boxes and nothing else: the cost follows the batch."""
        rng = np.random.default_rng(8)
        positions = rng.random((50_000, 2))
        grid = LocateGrid()
        grid.bulk_insert((i, (float(x), float(y))) for i, (x, y) in enumerate(positions.tolist()))
        queries = [tuple(p) for p in positions[rng.choice(50_000, 10, replace=False)].tolist()]
        radius = 1.0 / math.sqrt(math.pi * 62_500)
        expected = [grid.within(query, radius) for query in queries]
        own = set().union(*(box_cells(grid, query, radius) for query in queries))
        gathered = []
        gather = LocateGrid._gather

        def counted_gather(self, ids, count):
            gathered.append(count)
            return gather(self, ids, count)

        grid._cells = ReadCells(grid._cells)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LocateGrid, "_gather", counted_gather)
            assert [found for _i, found in sorted(grid.within_many(queries, radius))] == expected
        assert not grid._cells.scanned
        assert grid._cells.read <= own
        assert sum(gathered) == sum(len(grid._cells.get(cell, ())) for cell in own)
        grid._cells.read.clear()
        assert grid.hints(queries) == [grid.hint(query) for query in queries]
        assert not grid._cells.scanned
        assert grid._cells.read <= {grid._cell_of(query) for query in queries}
