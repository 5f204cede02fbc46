"""Workload inputs, generated from ``--seed`` alone.

The program under test never sees the seed: it receives positions, index
pairs, query schedules and departure schedules.  Objects are addressed by
*population index* — ``0 .. N-1`` for the initial objects, ``N + k`` for the
``k``-th object joined later — and the runner maps indices to the ids the
program hands back.

Departures are chosen here, not by the program, because removing a
convex-hull vertex sends ``DelaunayTriangulation.remove`` into a full
``rebuild()`` that costs seconds (see the README's open findings).  Left to
chance, the number of such stalls per run would vary with the seed and swamp
every churn metric.  Instead the schedule never picks a hull vertex by
accident (joins land strictly inside the initial hull, so the hull does not
move) and takes exactly one on purpose where the workload asks for it: the
stall is measured, once per run, on every seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

Point = Tuple[float, float]
Pair = Tuple[int, int]

#: Popularity exponent of the serving schedules' targets.
ZIPF_EXPONENT = 0.9
#: Resolution of the power-law placement grid (the paper's "sparse" data).
POWER_LAW_CELLS = 32
#: Fixes which grid cell holds which popularity rank.
POWER_LAW_LAYOUT = 2007


@dataclass(frozen=True)
class Sizes:
    """How much of everything one run does.

    ``scaled`` changes operation counts only: the number of objects decides
    which regime a workload measures, so it never moves.
    """

    objects: int
    route_pairs: int
    warm_passes: int
    churn_rounds: int
    churn_ops_per_round: int
    churn_routes_per_round: int
    serve_queries: int
    heal_cycles: int
    crashes_per_cycle: int

    def scaled(self, factor: float) -> "Sizes":
        def grow(count: int) -> int:
            return max(1, round(count * factor))

        return Sizes(
            objects=self.objects,
            route_pairs=grow(self.route_pairs),
            warm_passes=self.warm_passes,
            churn_rounds=self.churn_rounds,
            churn_ops_per_round=grow(self.churn_ops_per_round),
            churn_routes_per_round=grow(self.churn_routes_per_round),
            serve_queries=grow(self.serve_queries),
            heal_cycles=grow(self.heal_cycles),
            crashes_per_cycle=self.crashes_per_cycle,
        )


@dataclass(frozen=True)
class ChurnRound:
    """``ops``: (position to join, population index to leave); then ``routes``."""

    ops: List[Tuple[Point, int]]
    routes: List[Pair]


@dataclass(frozen=True)
class Inputs:
    positions: List[Point]
    route_pairs: List[Pair]
    churn: List[ChurnRound]
    #: Hull vertex that leaves gracefully after the last churn round.
    hull_leave: Optional[int]
    serve_sources: List[int]
    serve_targets: List[int]
    #: Crash victims per heal cycle; a hull victim, if any, leads cycle 0.
    heal: List[List[int]]
    #: Digest of everything above (the determinism tests compare it).
    fingerprint: str


def hull_indices(points: np.ndarray) -> List[int]:
    """Indices of the convex hull of ``points``, counter-clockwise.

    Andrew's monotone chain; collinear boundary points are kept, because the
    kernel treats them as hull vertices too.
    """
    order = np.lexsort((points[:, 1], points[:, 0])).tolist()
    xs = points[:, 0].tolist()
    ys = points[:, 1].tolist()

    def chain(sequence: Sequence[int]) -> List[int]:
        kept: List[int] = []
        for i in sequence:
            while len(kept) >= 2:
                o, a = kept[-2], kept[-1]
                turn = (xs[a] - xs[o]) * (ys[i] - ys[o]) - (ys[a] - ys[o]) * (xs[i] - xs[o])
                if turn >= 0:
                    break
                kept.pop()
            kept.append(i)
        return kept

    lower = chain(order)
    upper = chain(order[::-1])
    return lower[:-1] + upper[:-1]


def _strictly_inside(polygon: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Mask of ``candidates`` strictly inside the counter-clockwise ``polygon``."""
    edges = np.roll(polygon, -1, axis=0) - polygon
    offsets = candidates[:, None, :] - polygon[None, :, :]
    turns = edges[None, :, 0] * offsets[:, :, 1] - edges[None, :, 1] * offsets[:, :, 0]
    return (turns > 0).all(axis=1)


def _placement(rng: np.random.Generator, skew: Optional[float]) -> Callable[[int], np.ndarray]:
    """Sampler of object positions: uniform, or Zipf-ranked grid cells.

    The skewed case follows the paper's sparse distributions: the ``i``-th
    most popular of 32 x 32 cells receives mass proportional to ``i**-skew``.
    Which cell holds which rank is part of the workload, not of the seed: with
    a per-seed layout the mean route length alone moved by 15 % between seeds
    (dense cells next to each other or far apart), and every timing with it.
    """
    if skew is None:
        return lambda count: rng.random((count, 2))
    cells = POWER_LAW_CELLS
    weights = np.arange(1, cells * cells + 1, dtype=np.float64) ** (-skew)
    weights /= weights.sum()
    cell_of_rank = np.random.default_rng(POWER_LAW_LAYOUT).permutation(cells * cells)

    def draw(count: int) -> np.ndarray:
        chosen = cell_of_rank[rng.choice(cells * cells, size=count, p=weights)]
        rows, cols = np.divmod(chosen, cells)
        jitter = rng.random((count, 2))
        points = np.column_stack([cols + jitter[:, 0], rows + jitter[:, 1]]) / cells
        return np.clip(points, 1e-9, 1.0 - 1e-9)

    return draw


def _draw_inside(draw: Callable[[int], np.ndarray], polygon: np.ndarray, count: int) -> np.ndarray:
    kept = np.empty((0, 2))
    while len(kept) < count:
        batch = draw(2 * (count - len(kept)) + 16)
        kept = np.vstack([kept, batch[_strictly_inside(polygon, batch)]])
    return kept[:count]


def _take(rng: np.random.Generator, live: List[int], protected: Set[int]) -> int:
    """Remove and return a uniformly chosen unprotected member of ``live``."""
    while True:
        slot = int(rng.integers(len(live)))
        if live[slot] not in protected:
            break
    chosen = live[slot]
    live[slot] = live[-1]
    live.pop()
    return chosen


def _pairs(rng: np.random.Generator, live: List[int], count: int) -> List[Pair]:
    """``count`` (source, target) pairs of distinct members of ``live``."""
    slots = rng.integers(len(live), size=(count, 2))
    clash = slots[:, 0] == slots[:, 1]
    slots[clash, 1] = (slots[clash, 1] + 1) % len(live)
    return [(live[a], live[b]) for a, b in slots.tolist()]


def _points(array: np.ndarray) -> List[Point]:
    return [(x, y) for x, y in array.tolist()]


def generate(
    sizes: Sizes, skew: Optional[float], hull_departure: Optional[str], seed: int
) -> Inputs:
    """Every input of one run; the same arguments give the same inputs."""
    rng = np.random.default_rng(seed)
    draw = _placement(rng, skew)
    initial = draw(sizes.objects)
    hull = hull_indices(initial)
    joins = _draw_inside(draw, initial[hull], sizes.churn_rounds * sizes.churn_ops_per_round)
    coords = np.vstack([initial, joins])
    points = _points(coords)

    live = list(range(sizes.objects))
    route_pairs = _pairs(rng, live, sizes.route_pairs)

    protected = set(hull)
    joined = sizes.objects
    churn: List[ChurnRound] = []
    for _ in range(sizes.churn_rounds):
        ops: List[Tuple[Point, int]] = []
        for _ in range(sizes.churn_ops_per_round):
            live.append(joined)
            ops.append((points[joined], _take(rng, live, protected)))
            joined += 1
        churn.append(ChurnRound(ops, _pairs(rng, live, sizes.churn_routes_per_round)))

    hull_leave: Optional[int] = None
    if hull_departure == "leave":
        hull_leave = hull[int(rng.integers(len(hull)))]
        live.remove(hull_leave)

    population = len(live)
    sources = rng.integers(population, size=sizes.serve_queries)
    mass = np.arange(1, population + 1, dtype=np.float64) ** (-ZIPF_EXPONENT)
    object_of_rank = rng.permutation(population)
    ranks = rng.choice(population, size=sizes.serve_queries, p=mass / mass.sum())
    serve_sources = [live[slot] for slot in sources.tolist()]
    serve_targets = [live[slot] for slot in object_of_rank[ranks].tolist()]

    def live_hull() -> Set[int]:
        return {live[slot] for slot in hull_indices(coords[live])}

    protected = live_hull()
    heal: List[List[int]] = []
    for cycle in range(sizes.heal_cycles):
        victims: List[int] = []
        if cycle == 0 and hull_departure == "crash":
            on_hull = sorted(protected)
            victim = on_hull[int(rng.integers(len(on_hull)))]
            live.remove(victim)
            victims.append(victim)
            protected = live_hull()
        while len(victims) < sizes.crashes_per_cycle:
            victims.append(_take(rng, live, protected))
        heal.append(victims)

    digest = hashlib.sha256(coords.tobytes())
    for part in (route_pairs, [r.routes for r in churn], [[v for _, v in r.ops] for r in churn]):
        digest.update(np.asarray(part, dtype=np.int64).tobytes())
    for part in ([-1 if hull_leave is None else hull_leave], serve_sources, serve_targets, heal):
        digest.update(np.asarray(part, dtype=np.int64).tobytes())

    return Inputs(
        positions=points[: sizes.objects],
        route_pairs=route_pairs,
        churn=churn,
        hull_leave=hull_leave,
        serve_sources=serve_sources,
        serve_targets=serve_targets,
        heal=heal,
        fingerprint=digest.hexdigest(),
    )
