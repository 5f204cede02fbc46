"""The serving shoot-out: VoroNet vs. Kleinberg vs. Chord under skew.

One harness builds every system over the *same* object population, samples
each workload's query schedule *once*, and replays it against all three
adapters with the closed-loop driver, so the headline comparison —
sustained throughput, p50/p99 hop tails and per-node load imbalance under
uniform vs. Zipf demand — differs only in the system under test.

Two verification companions ride along:

* :func:`twin_parity` — the oracle and message-level planes serve the
  same schedule over byte-identical overlays; every query's hop count
  must match exactly (the acceptance gate of the serving subsystem).
* :func:`run_protocol_serving` — a closed-loop run over genuinely
  contending in-flight ``QUERY`` messages, reporting virtual-time
  latency percentiles the oracle plane cannot see.

``benchmarks/bench_serving.py`` drives :func:`run_shootout` at canonical
scale (10⁴ objects, 10⁵ queries per system per workload) and commits the
result as ``BENCH_serving.json``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.serving.adapters import (ChordServing, KleinbergServing,
                                    ServingAdapter, VoroNetServing)
from repro.serving.traffic import (build_schedule, serve_closed_loop,
                                   serve_protocol_closed_loop)
from repro.simulation.protocol import ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects
from repro.workloads.samplers import (TargetSampler, UniformTargets,
                                      ZipfTargets)

__all__ = ["build_adapters", "make_sampler", "run_shootout",
           "run_protocol_serving", "twin_parity"]

#: The systems the shoot-out compares, in record order.
DEFAULT_SYSTEMS = ("voronet", "kleinberg", "chord")


def _positions(population: int, seed: Optional[int]):
    return generate_objects(UniformDistribution(), population,
                            RandomSource(seed))


def build_adapters(population: int, *, seed: Optional[int] = 0,
                   systems: Sequence[str] = DEFAULT_SYSTEMS,
                   ) -> Dict[str, ServingAdapter]:
    """Build every requested system over one shared object population.

    Each system gets one long link per node and records its paths (the
    load tracker reads them).  The population size must be a perfect
    square when ``kleinberg`` is requested (its construction needs the
    full lattice).  Returns the adapters keyed by system name.
    """
    positions = _positions(population, seed)
    adapters: Dict[str, ServingAdapter] = {}
    for system in systems:
        if system == "voronet":
            adapters[system] = VoroNetServing(
                positions, seed=seed, num_long_links=1, track_paths=True)
        elif system == "kleinberg":
            adapters[system] = KleinbergServing(
                population, seed=seed, long_links_per_node=1,
                track_paths=True)
        elif system == "chord":
            adapters[system] = ChordServing(population, track_paths=True)
        else:
            raise ValueError(f"unknown system {system!r}")
    return adapters


def make_sampler(workload: str, population: int, *,
                 seed: Optional[int] = 0,
                 zipf_alpha: float = 0.9) -> TargetSampler:
    """Instantiate a named workload's target sampler.

    ``uniform`` and ``zipf`` are the shoot-out's benchmark pair.
    """
    if workload == "uniform":
        return UniformTargets(population, seed=seed)
    if workload == "zipf":
        return ZipfTargets(population, alpha=zipf_alpha, seed=seed)
    raise ValueError(f"unknown workload {workload!r}")


def run_shootout(population: int, queries: int, *,
                 seed: Optional[int] = 0,
                 workloads: Sequence[str] = ("uniform", "zipf"),
                 systems: Sequence[str] = DEFAULT_SYSTEMS,
                 zipf_alpha: float = 0.9,
                 concurrency: int = 8,
                 window: Optional[float] = None,
                 keep_windows: int = 0,
                 clock: Optional[Callable[[], float]] = None) -> Dict:
    """Serve every workload's schedule through every system; one record.

    ``clock`` (e.g. ``time.perf_counter``) adds wall-clock ``wall_seconds``
    / ``wall_qps`` to each per-system report (informational: ``perf/`` is
    where serving throughput is gated).  Leave it ``None`` for fully
    deterministic output (tests).  ``keep_windows`` caps how many windowed
    snapshot rows each report retains in the record (0 keeps all).
    """
    adapters = build_adapters(population, seed=seed, systems=systems)
    record: Dict = {
        "population": population,
        "queries_per_workload": queries,
        "seed": seed,
        "zipf_alpha": zipf_alpha,
        "concurrency": concurrency,
        "workloads": list(workloads),
        "systems": {name: {} for name in adapters},
    }
    for workload_index, workload in enumerate(workloads):
        sampler_seed = None if seed is None else seed + 101 * (workload_index + 1)
        sampler = make_sampler(workload, population,
                               seed=sampler_seed, zipf_alpha=zipf_alpha)
        schedule = build_schedule(sampler, queries,
                                  seed=None if sampler_seed is None
                                  else sampler_seed + 1)
        for name, adapter in adapters.items():
            started = clock() if clock is not None else None
            report = serve_closed_loop(
                adapter, schedule, workload, concurrency=concurrency,
                window=window)
            if started is not None:
                wall = max(clock() - started, 1e-9)
                report["wall_seconds"] = wall
                report["wall_qps"] = report["served"] / wall
            if keep_windows and len(report["windows"]) > keep_windows:
                report["windows"] = report["windows"][:keep_windows]
            record["systems"][name][workload] = report
    return record


def run_protocol_serving(population: int, queries: int, *,
                         seed: Optional[int] = 0,
                         concurrency: int = 8,
                         workload: str = "uniform",
                         zipf_alpha: float = 0.9,
                         window: Optional[float] = None,
                         record_paths: bool = False) -> Dict:
    """Closed-loop serving over the message plane: contending QUERYs.

    Builds a protocol overlay by ``bulk_join`` and keeps ``concurrency``
    queries in flight until the schedule drains.  The report's latency
    figures are virtual transit times (issue → answer delivery), the
    observable the oracle plane has no notion of.
    """
    positions = _positions(population, seed)
    # The oracle adapter's config: its seed drives the link draws, so the
    # overlay is the byte-identical twin of the adapter's.
    simulator = ProtocolSimulator(VoroNetServing.config_for(population, seed=seed))
    ids = simulator.bulk_join(positions).object_ids
    sampler_seed = None if seed is None else seed + 101
    sampler = make_sampler(workload, population,
                           seed=sampler_seed, zipf_alpha=zipf_alpha)
    schedule = build_schedule(sampler, queries,
                              seed=None if sampler_seed is None
                              else sampler_seed + 1)
    return serve_protocol_closed_loop(
        simulator, ids, schedule, workload, concurrency=concurrency,
        window=window, record_paths=record_paths)


def twin_parity(population: int, queries: int, *,
                seed: Optional[int] = 0,
                concurrency: int = 0) -> Dict:
    """Serve one schedule through both planes; compare per-query hops.

    The overlays are byte-identical twins (``bulk_load`` vs. ``bulk_join``
    of the same positions under the same config seed), so greedy
    forwarding must take the same path for every query — any hop mismatch
    is a routing divergence between the planes.  ``concurrency`` 0 means
    *all* queries are injected before the engine runs (maximal
    contention); a positive value caps the in-flight count closed-loop
    style.  Returns the mismatch census the parity tests and the bench
    record assert on.
    """
    positions = _positions(population, seed)
    adapter = VoroNetServing(positions, seed=seed, track_paths=False)
    simulator = ProtocolSimulator(adapter.config)
    ids = simulator.bulk_join(positions).object_ids
    sampler = UniformTargets(population,
                             seed=None if seed is None else seed + 7)
    schedule = build_schedule(sampler, queries,
                              seed=None if seed is None else seed + 8)
    pairs = schedule.pairs()
    oracle_hops = [adapter.route_index(s, t).hops for s, t in pairs]
    if concurrency and concurrency > 0:
        report = serve_protocol_closed_loop(simulator, ids, schedule,
                                            concurrency=concurrency)
        protocol_hops = [simulator.query_answers[k]["hops"]
                         for k in range(len(pairs))]
        virtual_duration = report["virtual_duration"]
    else:
        for k, (s, t) in enumerate(pairs):
            simulator.start_query(simulator.nodes[ids[t]].position,
                                  start=ids[s], query_id=k)
        simulator.engine.run()
        protocol_hops = [simulator.query_answers[k]["hops"]
                         for k in range(len(pairs))]
        virtual_duration = simulator.engine.now
    mismatches = sum(1 for a, b in zip(oracle_hops, protocol_hops) if a != b)
    return {
        "queries": len(pairs),
        "hop_mismatches": mismatches,
        "parity": mismatches == 0,
        "oracle_total_hops": sum(oracle_hops),
        "protocol_total_hops": sum(protocol_hops),
        "virtual_duration": virtual_duration,
    }
