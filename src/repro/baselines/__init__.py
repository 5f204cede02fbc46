"""Baseline systems VoroNet is compared against.

* :mod:`repro.baselines.chord` — a Chord distributed hash table, the
  archetype of the hash-based structured overlays the introduction
  contrasts VoroNet with (exact-match lookups are cheap, range queries
  degenerate into one lookup per discrete value);
* :mod:`repro.baselines.kleinberg` — the original grid model, usable only
  for grid-shaped object sets;
* :mod:`repro.baselines.random_graph` — greedy routing over a random
  k-regular graph embedded in the unit square, showing that long links
  without the harmonic distribution do not give navigability.

The Delaunay-only baseline — VoroNet without long-range links, isolating
the contribution of the Kleinberg mechanism — is no class of its own: it
is a :class:`~repro.core.overlay.VoroNet` built with
``num_long_links=0``.  With no link ever drawn, the one routing view
``vn ∪ cn ∪ LRn`` *is* ``vn ∪ cn``, so its routes go through the same
router, tables and cache as full VoroNet's, at ``Θ(√N)`` hops instead of
``O(log² N)``.
"""

from repro.baselines.chord import ChordLookupResult, ChordRing
from repro.baselines.kleinberg import KleinbergGrid
from repro.baselines.random_graph import RandomGraphOverlay

__all__ = [
    "ChordRing",
    "ChordLookupResult",
    "KleinbergGrid",
    "RandomGraphOverlay",
]
