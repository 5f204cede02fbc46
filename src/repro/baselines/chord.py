"""A Chord distributed hash table.

Chord [Stoica et al., SIGCOMM'01] is the canonical hash-based structured
overlay the paper's introduction contrasts VoroNet with: node and key
identifiers are hashes on an ``m``-bit ring, every node keeps ``m`` fingers
(successors at power-of-two distances) and lookups take ``O(log N)`` hops —
but only for *exact* keys.  A range query over an attribute has to be
decomposed into one lookup per discrete value of the range, which is the
behaviour the range-query comparison benchmark quantifies.

The implementation is an in-process simulation: nodes are plain objects,
messages are hop-counted method calls, and the hash is deterministic
(`sha1`) so experiments are reproducible.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["ChordRing", "ChordLookupResult"]


def _sha1_id(value: str, bits: int) -> int:
    """Deterministic ``bits``-bit identifier of a string key."""
    digest = hashlib.sha1(value.encode("utf-8")).digest()
    return int.from_bytes(digest, "big") % (1 << bits)


@dataclass(frozen=True)
class ChordLookupResult:
    """Outcome of one Chord lookup.

    ``path`` lists every node the lookup visited (start node through
    owner, inclusive) when the lookup was asked to record it; ``None``
    otherwise — hop counting alone stays allocation-free for the large
    sweeps.
    """

    key: int
    owner: int
    hops: int
    path: Optional[Tuple[int, ...]] = None

    @property
    def messages(self) -> int:
        return self.hops


class _ChordNode:
    """Internal per-node state: identifier and finger table."""

    __slots__ = ("node_id", "fingers")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.fingers: List[int] = []


class ChordRing:
    """A Chord ring with ``m``-bit identifiers and full finger tables.

    Parameters
    ----------
    bits:
        Identifier width ``m`` (the ring has ``2^m`` positions).

    Examples
    --------
    >>> ring = ChordRing(bits=16)
    >>> ids = [ring.join(f"node-{i}") for i in range(32)]
    >>> result = ring.lookup_key("object-7")
    >>> result.owner in ids
    True
    """

    def __init__(self, bits: int = 32) -> None:
        if not 4 <= bits <= 160:
            raise ValueError("bits must be between 4 and 160")
        self.bits = bits
        self._nodes: Dict[int, _ChordNode] = {}
        self._sorted_ids: List[int] = []
        # Finger tables are derived state of the sorted id list: a
        # membership change marks them stale, the next lookup rebuilds once.
        self._fingers_stale = False

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def node_ids(self) -> List[int]:
        """Sorted list of node identifiers currently on the ring."""
        return list(self._sorted_ids)

    def join(self, name: str) -> int:
        """Add a node (identified by hashing ``name``)."""
        node_id = _sha1_id(name, self.bits)
        while node_id in self._nodes:  # extremely unlikely collision
            node_id = (node_id + 1) % (1 << self.bits)
        self._nodes[node_id] = _ChordNode(node_id)
        index = bisect_left(self._sorted_ids, node_id)
        self._sorted_ids.insert(index, node_id)
        self._fingers_stale = True
        return node_id

    def leave(self, node_id: int) -> None:
        """Remove a node from the ring."""
        if node_id not in self._nodes:
            raise KeyError(f"unknown Chord node {node_id}")
        del self._nodes[node_id]
        self._sorted_ids.remove(node_id)
        self._fingers_stale = True

    def _rebuild_fingers(self) -> None:
        """Recompute every node's finger table (idealised global knowledge)."""
        for node in self._nodes.values():
            node.fingers = [
                self._successor((node.node_id + (1 << k)) % (1 << self.bits))
                for k in range(self.bits)
            ]
        self._fingers_stale = False

    def _successor(self, key: int) -> int:
        """The node responsible for ``key`` (first node clockwise from it)."""
        if not self._sorted_ids:
            raise RuntimeError("the ring has no nodes")
        index = bisect_left(self._sorted_ids, key)
        if index == len(self._sorted_ids):
            return self._sorted_ids[0]
        return self._sorted_ids[index]

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @staticmethod
    def _in_interval(value: int, start: int, end: int, modulus: int) -> bool:
        """Whether ``value`` lies in the half-open ring interval ``(start, end]``."""
        value, start, end = value % modulus, start % modulus, end % modulus
        if start < end:
            return start < value <= end
        if start > end:
            return value > start or value <= end
        return True  # full circle

    def lookup(self, key: int, start: Optional[int] = None, *,
               record_path: bool = False) -> ChordLookupResult:
        """Route a lookup for ``key`` using finger tables; count the hops."""
        if not self._sorted_ids:
            raise RuntimeError("the ring has no nodes")
        if self._fingers_stale:
            self._rebuild_fingers()
        key %= (1 << self.bits)
        owner = self._successor(key)
        current = start if start in self._nodes else self._sorted_ids[0]
        path: Optional[List[int]] = [current] if record_path else None
        hops = 0
        limit = 4 * self.bits + len(self._nodes)
        while current != owner:
            node = self._nodes[current]
            # Forward to the farthest finger that does not overshoot the key.
            next_hop = None
            for finger in reversed(node.fingers):
                if finger != current and self._in_interval(
                        finger, current, key, 1 << self.bits):
                    next_hop = finger
                    break
            if next_hop is None or next_hop == current:
                next_hop = self._successor((current + 1) % (1 << self.bits))
            current = next_hop
            hops += 1
            if path is not None:
                path.append(current)
            if hops > limit:  # pragma: no cover - defensive
                raise RuntimeError("Chord lookup failed to converge")
        return ChordLookupResult(key=key, owner=owner, hops=hops,
                                 path=tuple(path) if path is not None else None)

    def lookup_key(self, name: str, start: Optional[int] = None, *,
                   record_path: bool = False) -> ChordLookupResult:
        """Lookup of a string key (hashed onto the ring)."""
        return self.lookup(_sha1_id(name, self.bits), start=start,
                           record_path=record_path)

    # ------------------------------------------------------------------
    # range queries (the pain point)
    # ------------------------------------------------------------------
    def range_query_cost(self, values: Sequence[str],
                         start: Optional[int] = None) -> Tuple[int, List[ChordLookupResult]]:
        """Cost of answering a range query by looking up every discrete value.

        Because hashing destroys attribute locality, a DHT can only answer a
        range predicate by enumerating the possible values of the range and
        looking each one up independently.  Returns the total hop count and
        the individual lookups.
        """
        results = [self.lookup_key(value, start=start) for value in values]
        return sum(result.hops for result in results), results
