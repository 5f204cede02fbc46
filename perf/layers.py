"""Where the tracer's wrappers go, and the per-layer metrics read off a trace.

Layers are the program's modules.  Every target is a public function except
``VoroNet._routing_entry``, the one place a routing table is built: without
it table-build time hides inside ``greedy_route``'s self time and the
ROADMAP's "build vs. scan" seam cannot be read.  ``greedy_route`` and the
maintenance procedures are reached through ``from`` imports, so the binding
their caller uses is the one wrapped.
"""

from __future__ import annotations

from statistics import mean
from typing import Dict, List, Sequence, Tuple

import numpy as np

from perf.systems import REPORTED_KINDS
from perf.tracer import Target, Tracer

HARNESS = "perf.harness"
#: Span of one machine-speed sample (see ``perf/pace.py``); not a layer.
SPIN = "perf.pace.spin"


#: (module, class or None, span-name prefix, attributes)
_ROWS = (
    (
        "repro.geometry.delaunay",
        "DelaunayTriangulation",
        "geometry.delaunay",
        "bulk_insert insert remove rebuild nearest_vertex nearest_vertices neighbors",
    ),
    (
        "repro.geometry.locate_grid",
        "LocateGrid",
        "geometry.locate_grid",
        "bulk_insert hint hints within",
    ),
    (
        "repro.core.shards",
        "ShardedNodeStore",
        "core.shards",
        "bulk_insert insert discard bump_object_ids",
    ),
    (
        "repro.core.overlay",
        "VoroNet",
        "core.overlay",
        "bulk_load insert remove route_many routing_table _routing_entry reset_long_links",
    ),
    ("repro.core.routing", None, "core.routing", "greedy_route"),
    ("repro.core.overlay", None, "core.routing", "greedy_route"),
    (
        "repro.core.overlay",
        None,
        "core.maintenance",
        "bulk_integrate_objects integrate_new_object detach_object",
    ),
    ("repro.simulation.engine", "SimulationEngine", "simulation.engine", "run"),
    ("repro.simulation.network", "Network", "simulation.network", "send"),
    ("repro.simulation.protocol", "ProtocolNode", "simulation.protocol.ProtocolNode", "handle"),
    (
        "repro.simulation.protocol",
        "ProtocolSimulator",
        "simulation.protocol",
        "bulk_join join leave query start_query",
    ),
    ("repro.simulation.faults", "FaultPlane", "simulation.faults.FaultPlane", "decide"),
    (
        "repro.simulation.faults",
        "HeartbeatDetector",
        "simulation.faults.HeartbeatDetector",
        "run_round",
    ),
    (
        "repro.simulation.faults",
        "RepairProtocol",
        "simulation.faults.RepairProtocol",
        "repair_round",
    ),
    (
        "repro.simulation.faults",
        "ProtocolCrashInjector",
        "simulation.faults.ProtocolCrashInjector",
        "crash",
    ),
    (
        "repro.simulation.failures",
        "CrashInjector",
        "simulation.failures.CrashInjector",
        "crash repair",
    ),
    (
        "repro.serving.traffic",
        None,
        "serving.traffic",
        "serve_closed_loop serve_protocol_closed_loop",
    ),
    (
        "repro.serving.estimators",
        "StreamingPercentiles",
        "serving.estimators.StreamingPercentiles",
        "observe",
    ),
    (
        "repro.serving.observability",
        "LoadTracker",
        "serving.observability.LoadTracker",
        "record_path",
    ),
)

TARGETS: Tuple[Target, ...] = tuple(
    (module, cls, attribute, f"{prefix}.{attribute}")
    for module, cls, prefix, attributes in _ROWS
    for attribute in attributes.split()
)

#: Span names, in declaration order, without the second greedy_route binding.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(target[3] for target in TARGETS))

#: Workload-level operations whose tail latency the trace reports, by mode.
TAIL_LATENCIES = (
    ("core.overlay.insert", "oracle", "join"),
    ("core.overlay.remove", "oracle", "leave"),
    ("simulation.protocol.join", "protocol", "join"),
    ("simulation.protocol.leave", "protocol", "leave"),
)

REBUILD_PHASES = ("cold", "warm", "churn")


def declarations() -> List[Dict[str, str]]:
    """Every per-layer metric as ``BENCHMARK.json`` declares it, in order."""
    declared: List[Dict[str, str]] = []

    def declare(name: str, unit: str, better: str = "lower") -> None:
        declared.append({"name": name, "unit": unit, "better": better})

    for name in SPAN_NAMES:
        declare(f"{name}.calls", "count")
        declare(f"{name}.self_s", "s")
    for name, _, _ in TAIL_LATENCIES:
        declare(f"{name}.ms_p99", "ms")
        declare(f"{name}.samples", "count", "higher")
    for phase in REBUILD_PHASES:
        declare(f"core.routing.table_rebuilds_per_route.{phase}", "1/route")
    declare("core.overlay.view_size_mean", "entries")
    declare("geometry.delaunay.rebuild.share_of_churn_s", "ratio")
    declare("simulation.network.lost_share", "ratio")
    declare("simulation.network.dropped_share", "ratio")
    for kind in REPORTED_KINDS:
        declare(f"simulation.network.sent.{kind}", "count")
    declare("simulation.protocol.operation_retries", "count")
    declare("simulation.protocol.operation_timeouts", "count")
    declare("simulation.faults.repair_rounds_mean", "rounds")
    declare("simulation.engine.events_per_s", "1/s", "higher")
    declare("trace.overhead_ratio", "ratio")
    declare(f"{HARNESS}.self_s", "s")
    declare(f"{HARNESS}.attributed_share", "ratio", "higher")
    return declared


UNITS: Dict[str, str] = {entry["name"]: entry["unit"] for entry in declarations()}


def _p99(samples: Sequence[float]) -> float:
    return float(np.percentile(samples, 99)) if samples else 0.0


def derive(tracer: Tracer, run: Dict) -> Dict[str, float]:
    """Per-layer metrics of one traced run (``run`` is ``workloads.run``'s result).

    The two metrics that need the untraced twin — ``trace.overhead_ratio``
    and ``simulation.engine.events_per_s`` — are filled in by
    ``perf.run.against_untraced``.
    """
    # A protocol run holds millions of spans: convert the table once.
    spans = tracer.spans()
    totals = tracer.totals(spans)
    metrics: Dict[str, float] = {}
    for name in SPAN_NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s

    samples = run["samples"]
    for name, mode, operation in TAIL_LATENCIES:
        taken = samples[operation] if run["mode"] == mode else []
        metrics[f"{name}.ms_p99"] = 1e3 * _p99(taken)
        metrics[f"{name}.samples"] = len(taken)

    simulated = run["simulated"]
    for phase in REBUILD_PHASES:
        routed = simulated[f"routes.{phase}"]
        rebuilt = simulated[f"table_rebuilds.{phase}"]
        metrics[f"core.routing.table_rebuilds_per_route.{phase}"] = rebuilt / routed
    metrics["core.overlay.view_size_mean"] = simulated["view_size_mean"]

    # rebuild() calls nothing else that is wrapped, so its self time is its
    # duration less the machine-speed samples that interrupted it.
    kinds = np.asarray(run["operation_kinds"])
    in_churn = np.isin(kinds[spans.operations], ("join", "leave"))
    rebuilds = spans.names == tracer.names.index("geometry.delaunay.rebuild")
    rebuild_s = float(tracer.self_times(spans)[rebuilds & in_churn].sum())
    raw = run["raw_phases"]
    metrics["geometry.delaunay.rebuild.share_of_churn_s"] = rebuild_s / (raw["join"] + raw["leave"])

    sent = max(simulated["messages"], 1) if run["mode"] == "protocol" else 1
    metrics["simulation.network.lost_share"] = simulated["messages_lost"] / sent
    metrics["simulation.network.dropped_share"] = simulated["messages_dropped"] / sent
    for kind in REPORTED_KINDS:
        metrics[f"simulation.network.sent.{kind}"] = simulated[f"sent.{kind}"]
    metrics["simulation.protocol.operation_retries"] = simulated["operation_retries"]
    metrics["simulation.protocol.operation_timeouts"] = simulated["operation_timeouts"]
    metrics["simulation.faults.repair_rounds_mean"] = mean(simulated["repair_rounds"])

    _, harness_self = totals[HARNESS]
    metrics[f"{HARNESS}.self_s"] = harness_self
    metrics[f"{HARNESS}.attributed_share"] = 1.0 - harness_self / run["raw_timed_s"]
    return metrics
