"""The four workloads and the one pipeline every one of them runs.

The contract wants every end-to-end metric from every workload, so a workload
is a *regime* — which system (oracle or message plane), which object
placement (uniform or power-law), which faults — and every regime goes
through the same phases:

    set-up x5 -> build -> route cold -> route warm x3 -> churn rounds
    (join, leave ... then route) -> closed-loop serving -> heal cycles
    (crash, detect, repair, verify) -> final consistency check

What differs is the weight: ``oracle_static`` spends its run on a large
read-mostly overlay, ``oracle_churn`` on skewed writes, ``protocol_serve`` on
message-plane serving, ``protocol_faults`` on heal cycles under loss.  Phase
sizes are fixed numbers of operations, scaled by ``--seconds`` (never the
object count), so the simulated statistics of a seed are exact.  Every time
is normalised to a reference machine speed sampled while the workload runs
(``perf/pace.py``).
"""

from __future__ import annotations

import resource
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from statistics import median
from typing import Dict, Iterator, List, Optional

from perf import inputs, layers
from perf.inputs import Sizes
from perf.pace import Pacer
from perf.systems import SYSTEMS
from perf.tracer import Tracer

#: ``--seconds`` at which the sizes below apply unscaled; ``run_seconds`` in
#: ``BENCHMARK.json``.  The timed phases of each workload then take about
#: this long on the 2-core box the benchmark was sized on.
DEFAULT_SECONDS = 12
DEFAULT_SEED = 4242
#: Set-up is repeated and its median reported, as the contract asks.
SETUP_REPEATS = 5

#: End-to-end metric -> unit.  Directions and bounds live in BENCHMARK.json.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "build_objects_per_s": "obj/s",
    "route_cold_per_s": "routes/s",
    "route_warm_per_s": "routes/s",
    "route_under_churn_per_s": "routes/s",
    "serve_queries_per_s": "q/s",
    "churn_ops_per_s": "ops/s",
    "join_ms_p50": "ms",
    "leave_ms_p50": "ms",
    "messages_per_s": "msg/s",
    "heal_cycle_s": "s",
    "peak_rss_mb": "MB",
    "hops_mean": "hops",
    "messages_per_op": "msgs",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str
    #: Power-law exponent of the object placement; ``None`` is uniform.
    skew: Optional[float]
    #: How the run's one convex-hull vertex departs: "leave", "crash" or not at all.
    hull_departure: Optional[str]
    #: Message loss during the heal cycles.  A workload with loss carries a
    #: fault plane from the start (every message is submitted to it); one
    #: without gets a plane only when its first crash is injected.
    loss: float
    sizes: Sizes


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="oracle_static",
            why="Large uniform overlay, read-mostly: kernel, locate grid and shard store"
            " set the build, table builds the cold pass, table scans the warm passes.",
            mode="oracle",
            skew=None,
            # A hull departure at this size is a 35 s rebuild; it is measured
            # on the three smaller workloads instead.
            hull_departure=None,
            loss=0.0,
            sizes=Sizes(
                objects=50_000,
                route_pairs=4_000,
                warm_passes=3,
                churn_rounds=4,
                churn_ops_per_round=100,
                churn_routes_per_round=400,
                serve_queries=6_000,
                heal_cycles=3,
                crashes_per_cycle=300,
            ),
        ),
        Workload(
            name="oracle_churn",
            why="Power-law (alpha=2) placement under joins and leaves: views are ~30x larger,"
            " routing stays cold, and one hull vertex leaves through rebuild().",
            mode="oracle",
            skew=2.0,
            hull_departure="leave",
            loss=0.0,
            sizes=Sizes(
                objects=5_000,
                route_pairs=2_000,
                warm_passes=3,
                churn_rounds=10,
                churn_ops_per_round=40,
                churn_routes_per_round=150,
                serve_queries=2_500,
                heal_cycles=4,
                crashes_per_cycle=50,
            ),
        ),
        Workload(
            name="protocol_serve",
            why="Message plane without faults: engine dispatch, Network.send and the node"
            " handlers do all the work; the protocol-mode twin of the oracle workloads.",
            mode="protocol",
            skew=None,
            hull_departure="leave",
            loss=0.0,
            sizes=Sizes(
                objects=10_000,
                route_pairs=2_000,
                warm_passes=3,
                churn_rounds=5,
                churn_ops_per_round=40,
                churn_routes_per_round=400,
                serve_queries=15_000,
                heal_cycles=2,
                crashes_per_cycle=100,
            ),
        ),
        Workload(
            name="protocol_faults",
            why="Fault plane attached, then 5% loss and crash batches: the only workload where"
            " FaultPlane.decide, heartbeat detection and phased repair run hot.",
            mode="protocol",
            skew=None,
            hull_departure="crash",
            loss=0.05,
            sizes=Sizes(
                objects=6_000,
                route_pairs=1_500,
                warm_passes=3,
                churn_rounds=5,
                churn_ops_per_round=60,
                churn_routes_per_round=500,
                serve_queries=5_000,
                heal_cycles=3,
                crashes_per_cycle=150,
            ),
        ),
    )
}


class _Phases:
    """Times every workload-level operation; in a traced run each is a harness span."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        if tracer is None:
            self.pacer = Pacer()
        else:
            self.pacer = Pacer(lambda tick: tracer.wrap(tick, layers.SPIN))
        #: Kind of each workload-level operation, indexed by operation id.
        self.operation_kinds: List[str] = ["untimed"]

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        self.operation_kinds.append(name)
        if self.tracer is None:
            span = nullcontext()
        else:
            self.tracer.next_operation()
            span = self.tracer.span(layers.HARNESS)
        with span, self.pacer.timed(name):
            yield


def run(
    workload: Workload,
    seed: int = DEFAULT_SEED,
    seconds: float = DEFAULT_SECONDS,
    tracer: Optional[Tracer] = None,
) -> Dict:
    """One run of ``workload``; with a ``tracer``, the same run, traced."""
    sizes = workload.sizes.scaled(seconds / DEFAULT_SECONDS)
    if tracer is not None:
        tracer.install(layers.TARGETS)
    phases = _Phases(tracer)
    try:
        with phases.pacer.sampling():
            return _measure(workload, sizes, seed, phases)
    finally:
        if tracer is not None:
            tracer.uninstall()


def _measure(workload: Workload, sizes: Sizes, seed: int, phases: _Phases) -> Dict:
    tracer = phases.tracer
    for _ in range(SETUP_REPEATS):
        with phases.pacer.timed("setup"):
            data = inputs.generate(sizes, workload.skew, workload.hull_departure, seed)
            system = SYSTEMS[workload.mode](sizes.objects, seed, workload.loss)

    problems: List[str] = []
    attempted = failed = 0
    hops = routes = 0
    table_rebuilds: Dict[str, int] = defaultdict(int)
    routed: Dict[str, int] = defaultdict(int)

    def route_pass(name: str, batch: list) -> List:
        nonlocal attempted, failed, hops, routes
        rebuilt = system.table_rebuilds()
        with phases.timed(f"route_{name}"):
            results = system.route(batch)
        table_rebuilds[name] += system.table_rebuilds() - rebuilt
        routed[name] += len(batch)
        outcomes, missed = system.outcomes(batch, results)
        attempted += len(batch)
        failed += missed
        routes += len(batch)
        hops += sum(route_hops for _, route_hops in outcomes)
        return outcomes

    def membership(name: str, operation, argument) -> None:
        nonlocal attempted, failed
        with phases.timed(name):
            completed = operation(argument)
        attempted += 1
        failed += not completed

    with phases.timed("build"):
        missing = system.build(data.positions)
    attempted += sizes.objects
    failed += missing
    view_size_mean = system.view_size_mean()

    batch = system.prepare_routes(data.route_pairs)
    cold = route_pass("cold", batch)
    for _ in range(sizes.warm_passes):
        if route_pass("warm", batch) != cold:
            failed += 1
            problems.append("a warm pass answered differently from the cold pass")

    for churn_round in data.churn:
        for position, victim in churn_round.ops:
            membership("join", system.join, position)
            membership("leave", system.leave, victim)
        route_pass("churn", system.prepare_routes(churn_round.routes))
    if data.hull_leave is not None:
        membership("leave", system.leave, data.hull_leave)

    with phases.timed("serve"):
        served, serve_hops = system.serve(data.serve_sources, data.serve_targets)
    hops += serve_hops
    attempted += sizes.serve_queries
    failed += sizes.serve_queries - served
    routes += served

    repair_rounds: List[int] = []
    for cycle, victims in enumerate(data.heal):
        with phases.timed("heal"):
            healed, rounds = system.heal_cycle(victims)
        attempted += 1
        failed += not healed
        repair_rounds.append(rounds)
        if not healed:
            problems.append(f"heal cycle {cycle} left stale state behind")

    leftovers = system.verify()
    attempted += 1
    failed += bool(leftovers)
    problems.extend(leftovers[:5])

    samples, raw, ticking = phases.pacer.finish()
    for timings in (raw, ticking):
        del timings["setup"]
    totals = {name: sum(taken) for name, taken in samples.items() if name != "setup"}
    timed_s = sum(totals.values())
    churn_ops = len(samples["join"]) + len(samples["leave"])
    end_to_end = {
        "setup_s": median(samples["setup"]),
        "build_objects_per_s": sizes.objects / totals["build"],
        "route_cold_per_s": routed["cold"] / totals["route_cold"],
        "route_warm_per_s": len(batch) / median(samples["route_warm"]),
        "route_under_churn_per_s": routed["churn"] / totals["route_churn"],
        "serve_queries_per_s": served / totals["serve"],
        "churn_ops_per_s": churn_ops / (totals["join"] + totals["leave"]),
        "join_ms_p50": 1e3 * median(samples["join"]),
        "leave_ms_p50": 1e3 * median(samples["leave"]),
        "messages_per_s": system.messages() / timed_s,
        "heal_cycle_s": totals["heal"] / len(data.heal),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "hops_mean": hops / routes,
        "messages_per_op": system.churn_messages() / churn_ops,
    }
    simulated = {
        "inputs": data.fingerprint,
        "hops": hops,
        "routes": routes,
        "churn_messages": system.churn_messages(),
        "repair_rounds": repair_rounds,
        "view_size_mean": view_size_mean,
        **{f"routes.{name}": count for name, count in routed.items()},
        **{f"table_rebuilds.{name}": table_rebuilds[name] for name in routed},
        **system.counters(),
    }
    speeds = sorted(phases.pacer.speeds())
    result = {
        "workload": workload.name,
        "mode": workload.mode,
        "seed": seed,
        "sizes": vars(sizes),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": end_to_end,
        "simulated": simulated,
        "timed_s": timed_s,
        "raw_phases": raw,
        "raw_timed_s": sum(raw.values()),
        "ticking_s": sum(ticking.values()),
        "speed": {
            "median": median(speeds),
            "p05": speeds[len(speeds) // 20],
            "p95": speeds[-1 - len(speeds) // 20],
        },
    }
    if tracer is not None:
        result["operation_kinds"] = phases.operation_kinds
        result["per_layer"] = layers.derive(tracer, {**result, "samples": samples})
        result["missing_targets"] = tracer.missing
    return result
