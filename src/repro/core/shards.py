"""Morton-sharded epoch domain of the routing-table cache.

Cached routing tables are invalidated per **shard**, not per overlay: each
shard carries its own epoch, and :class:`ShardedNodeStore` maps every
object id to its shard.  A shard is a Morton (Z-order) prefix of the unit
square: at ``level`` L the square is a 2^L × 2^L grid whose cells are
numbered along the Z-order curve, giving ``4^L`` spatially compact,
contiguously numbered shards.

Why Morton prefixes
-------------------
* **Locality.** Voronoi adjacency, close neighbours and the targeted
  invalidation sets produced by churn are all spatially local, so one
  join or leave touches O(1) shards regardless of overlay size — the
  property that lets per-shard epochs replace a global
  ``topology_epoch`` without weakening the invalidation contract.
* **Cheap to compute.** The shard of a point is two clamps and a table
  lookup; batches are vectorised with the classic part-by-one bit
  spreading.  (Level 0 is one shard: a single global epoch.)

Epoch contract (per shard)
--------------------------
A cached routing entry records the epoch of its *object's* shard at
build time and is valid while the two still agree.  Mutations bump the
shards of every object whose forwarding candidates changed
(:meth:`ShardedNodeStore.bump_object_ids`, driven by
``VoroNet.invalidate_routing_tables(object_ids)``); overlay-wide events
(bulk loads, crash injection, external view surgery) bump every shard
(:meth:`ShardedNodeStore.bump_all`).  The epoch list is mutated in
place so hot loops can hoist a reference to it across a whole route.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["MAX_SHARD_LEVEL", "ShardedNodeStore", "morton_shard_codes"]

#: Deepest supported shard level: 4^8 = 65536 shards, 16-bit Morton codes.
MAX_SHARD_LEVEL = 8

#: 8-bit part-by-one spreading table: _SPREAD[b] interleaves the bits of
#: ``b`` with zeros (0b1011 -> 0b1000101), so a scalar Morton code is two
#: table lookups and one shift — no per-call bit twiddling.
_SPREAD: List[int] = []
for _b in range(256):
    _s = 0
    for _i in range(8):
        _s |= ((_b >> _i) & 1) << (2 * _i)
    _SPREAD.append(_s)
del _b, _i, _s


def _spread_bits_u32(values: np.ndarray) -> np.ndarray:
    """Vectorised part-by-one: interleave each value's bits with zeros."""
    v = values.astype(np.uint32)
    v = (v | (v << 8)) & np.uint32(0x00FF00FF)
    v = (v | (v << 4)) & np.uint32(0x0F0F0F0F)
    v = (v | (v << 2)) & np.uint32(0x33333333)
    v = (v | (v << 1)) & np.uint32(0x55555555)
    return v


def morton_shard_codes(points: np.ndarray, level: int) -> np.ndarray:
    """Morton shard index of every row of an ``(n, 2)`` position array.

    Positions are clamped into the unit square's grid, so boundary points
    (x == 1.0) land in the last cell instead of overflowing.
    """
    if level == 0:
        return np.zeros(len(points), dtype=np.int64)
    side = 1 << level
    cells = (points * side).astype(np.int64)
    np.clip(cells, 0, side - 1, out=cells)
    ix = _spread_bits_u32(cells[:, 0])
    iy = _spread_bits_u32(cells[:, 1])
    return (ix | (iy << np.uint32(1))).astype(np.int64)


class ShardedNodeStore:
    """The routing cache's epoch domain: ``id → shard`` plus per-shard epochs.

    Nothing else: object *data* (positions, links) has one owner, the
    overlay's ``ObjectNode``, and nothing is laid out per shard.  The
    overlay keeps the map in step with its membership (``insert``,
    ``bulk_load``, ``withdraw_substrate``) and ``check_consistency``
    cross-checks the two.
    """

    __slots__ = ("_level", "_num_shards", "_side", "_epochs", "_shards")

    def __init__(self, level: int) -> None:
        if not 0 <= level <= MAX_SHARD_LEVEL:
            raise ValueError(
                f"shard level must lie in [0, {MAX_SHARD_LEVEL}], got {level}")
        self._level = level
        self._num_shards = 1 << (2 * level)
        self._side = 1 << level
        self._epochs: List[int] = [0] * self._num_shards
        self._shards: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # shard geometry
    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        """The Morton prefix depth (4**level shards)."""
        return self._level

    @property
    def num_shards(self) -> int:
        """Number of shards (``4 ** level``)."""
        return self._num_shards

    @property
    def epochs(self) -> List[int]:
        """The live per-shard epoch list (mutated in place, never replaced).

        Hot loops hoist this reference once per route; targeted bumps are
        visible through it immediately.
        """
        return self._epochs

    def shard_of_point(self, x: float, y: float) -> int:
        """Morton shard index of one point of the unit square."""
        side = self._side
        if side == 1:
            return 0
        ix = int(x * side)
        if ix >= side:
            ix = side - 1
        elif ix < 0:
            ix = 0
        iy = int(y * side)
        if iy >= side:
            iy = side - 1
        elif iy < 0:
            iy = 0
        return _SPREAD[ix] | (_SPREAD[iy] << 1)

    def shard_of(self, object_id: int) -> int:
        """Shard currently holding ``object_id`` (KeyError when absent)."""
        return self._shards[object_id]

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._shards

    def __len__(self) -> int:
        return len(self._shards)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def insert(self, object_id: int, position: Tuple[float, float]) -> int:
        """Add one object; returns the shard it landed in."""
        if object_id in self._shards:
            raise ValueError(f"object id {object_id} already stored")
        shard = self.shard_of_point(position[0], position[1])
        self._shards[object_id] = shard
        return shard

    def bulk_insert(self, object_ids: Sequence[int],
                    positions: Sequence[Tuple[float, float]]) -> None:
        """Add a batch; the shard codes come from one vectorised pass."""
        if not object_ids:
            return
        points = np.asarray(positions, dtype=np.float64).reshape(len(object_ids), 2)
        codes = morton_shard_codes(points, self._level)
        self._shards.update(zip(object_ids, codes.tolist()))

    def discard(self, object_id: int) -> Optional[int]:
        """Remove one object; returns its shard, or ``None`` when absent."""
        return self._shards.pop(object_id, None)

    # ------------------------------------------------------------------
    # epochs
    # ------------------------------------------------------------------
    def bump_object_ids(self, object_ids: Iterable[int]) -> int:
        """Bump the epoch of every shard holding one of ``object_ids``.

        Ids no longer stored (just-departed objects) are skipped; each
        touched shard is bumped exactly once per call, so the resulting
        epoch values do not depend on the iteration order of the input.
        Returns the number of distinct shards bumped.
        """
        lookup = self._shards.get
        shards = {lookup(object_id) for object_id in object_ids}
        shards.discard(None)
        epochs = self._epochs
        for shard in sorted(shards):
            epochs[shard] += 1
        return len(shards)

    def bump_all(self) -> None:
        """Bump every shard epoch (overlay-wide invalidation)."""
        epochs = self._epochs
        for shard in range(self._num_shards):
            epochs[shard] += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedNodeStore(level={self._level}, shards={self._num_shards}, "
            f"objects={len(self._shards)})"
        )
