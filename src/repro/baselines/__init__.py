"""Baseline systems VoroNet is compared against.

* :mod:`repro.baselines.chord` — a Chord distributed hash table, the
  archetype of the hash-based structured overlays the introduction
  contrasts VoroNet with (exact-match lookups are cheap, range queries
  degenerate into one lookup per discrete value);
* :mod:`repro.baselines.delaunay_only` — VoroNet without long-range links
  (pure Delaunay greedy routing), isolating the contribution of the
  Kleinberg mechanism;
* :mod:`repro.baselines.kleinberg` — the original grid model, usable only
  for grid-shaped object sets;
* :mod:`repro.baselines.random_graph` — greedy routing over a random
  k-regular graph embedded in the unit square, showing that long links
  without the harmonic distribution do not give navigability.
"""

from repro.baselines.chord import ChordLookupResult, ChordRing
from repro.baselines.delaunay_only import DelaunayOnlyOverlay
from repro.baselines.kleinberg import KleinbergGrid
from repro.baselines.random_graph import RandomGraphOverlay

__all__ = [
    "ChordRing",
    "ChordLookupResult",
    "DelaunayOnlyOverlay",
    "KleinbergGrid",
    "RandomGraphOverlay",
]
