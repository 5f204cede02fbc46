"""Shared utilities: seeded RNG management.

This package is intentionally dependency-light so that every other
subpackage (geometry, simulation, core, ...) can import it without
creating cycles.
"""

from repro.utils.rng import RandomSource, spawn_rng

__all__ = [
    "RandomSource",
    "spawn_rng",
]
