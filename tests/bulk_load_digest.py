"""One SHA-256 over everything :meth:`VoroNet.bulk_load` leaves behind.

:func:`bulk_load_digest` hashes the Delaunay kernel's slot lists (vertex,
across, corner and free slots, and the structure version), then per object
in node-table order its close set in iteration order, its long links, its
back registrations in iteration order, and last the
``stats.long_link_searches`` totals.  Two overlays with the same digest hold
the same state element for element, orders included; a change that makes
the build faster is held to the digest of the build before it.

Run as a script it prints the digest of ``oracle_static``'s build (the
50 000 positions ``perf/inputs.py`` draws for a seed, loaded the way
``perf/systems.py`` loads them)::

    PYTHONPATH=src python tests/bulk_load_digest.py --seed 4242
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from repro.core import VoroNet, VoroNetConfig
from repro.utils.rng import RandomSource
from repro.workloads.distributions import PowerLawDistribution, UniformDistribution
from repro.workloads.generators import generate_objects


def bulk_load_digest(overlay: VoroNet) -> str:
    """The state digest of ``overlay`` (module docstring)."""
    digest = hashlib.sha256()

    def feed(*parts) -> None:
        digest.update(repr(parts).encode())

    kernel = overlay.triangulation
    feed("kernel", kernel._vertices, kernel._across, kernel._corners, kernel._free,
         kernel.version)
    for object_id in overlay.object_ids():
        node = overlay.node(object_id)
        feed(object_id, list(node.close_neighbors),
             [(target, neighbor) for target, neighbor, _position in node.long_links],
             list(node.back_links.items()))
    searches = overlay.stats.long_link_searches
    feed("long_link_searches", searches.count, searches.total_hops, searches.total_messages,
         searches.max_hops, searches.max_messages)
    return digest.hexdigest()


def loaded_overlay(count: int, seed: int, alpha: float = 0.0) -> VoroNet:
    """``count`` objects bulk-loaded, uniform or power-law (``alpha``) placed."""
    distribution = PowerLawDistribution(alpha=alpha) if alpha else UniformDistribution()
    positions = generate_objects(distribution, count, RandomSource(seed))
    overlay = VoroNet(VoroNetConfig(n_max=4 * count, seed=seed))
    overlay.bulk_load(positions)
    return overlay


def oracle_static_build(seed: int):
    """``oracle_static``'s build at ``seed``: the serving adapter over it."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perf import inputs, workloads
    from repro.serving.adapters import VoroNetServing

    workload = workloads.WORKLOADS["oracle_static"]
    data = inputs.generate(workload.sizes, workload.skew, workload.hull_departure, seed)
    return VoroNetServing(data.positions, seed=seed, num_long_links=1, track_paths=True)


def oracle_static_digest(seed: int) -> str:
    """The digest of ``oracle_static``'s build at ``seed``."""
    return bulk_load_digest(oracle_static_build(seed).overlay)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=4242)
    print(oracle_static_digest(parser.parse_args().seed))
