"""Shared utilities: seeded RNG management and validation helpers.

These modules are intentionally dependency-light so that every other
subpackage (geometry, simulation, core, ...) can import them without
creating cycles.
"""

from repro.utils.rng import RandomSource, spawn_rng
from repro.utils.validation import (
    check_in_unit_square,
    check_positive,
    check_probability,
    require,
)

__all__ = [
    "RandomSource",
    "spawn_rng",
    "check_in_unit_square",
    "check_positive",
    "check_probability",
    "require",
]
