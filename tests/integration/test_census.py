"""Nothing in ``src/`` without a reader: every module is reached by a record.

The import graph of ``src/repro`` is walked from the entry points of the
committed records — ``perf/`` (``BENCHMARK.json``), ``benchmarks/``
(``BENCH_*.json``), ``python -m repro.experiments`` (``REPRODUCTION.json``),
the CI fuzz sweeps and the simlint gate.  Only direct imports count:
``from repro.x import y`` reaches the module ``repro.x.y`` (or ``repro.x``),
not everything ``repro/x/__init__.py`` re-exports, so an ``__init__`` is
never walked through — it counts as reached with any module of its package.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
MODULES = {".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__"): path
           for path in SRC.rglob("*.py")}
ENTRY_MODULES = ("repro.experiments.__main__", "repro.simulation.fuzz", "repro.lint.__main__")
#: Modules no record executes, each with the rule that keeps it.
ALLOWED = {
    "repro.geometry.scipy_backend":
        "rule c: the second Delaunay implementation the kernel's tests compare against",
}


def imported_modules(path):
    """The ``repro`` modules a file imports directly (anywhere in its body)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names if alias.name in MODULES)
        elif isinstance(node, ast.ImportFrom) and node.module in MODULES:
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                yield submodule if submodule in MODULES else node.module


def test_every_module_is_reached_by_a_record_or_allowed_with_its_reason():
    entry_files = sorted((ROOT / "perf").rglob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))
    frontier = list(ENTRY_MODULES) + [name for path in entry_files
                                      for name in imported_modules(path)]
    reached = set()
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        if MODULES[name].name != "__init__.py":
            frontier.extend(imported_modules(MODULES[name]))
    reached |= {name.rsplit(".", depth)[0] for name in reached
                for depth in range(1, name.count(".") + 1)}
    assert set(MODULES) - reached == set(ALLOWED)


#: Names the benchmark's surface test slates for deletion that ``src/``
#: still defines, each with the record that reads it.
SLATED_ALLOWED = {
    "run_shootout": "benchmarks/bench_serving.py drives it",
}


def slated_for_deletion():
    """``SLATED_FOR_DELETION`` of ``perf/tests/test_surface.py``, read with
    ``ast`` (the test module is not imported)."""
    tree = ast.parse((ROOT / "perf" / "tests" / "test_surface.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [target.id for target in node.targets] == ["SLATED_FOR_DELETION"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perf/tests/test_surface.py defines no SLATED_FOR_DELETION")


def test_nothing_slated_for_deletion_is_left_in_src():
    slated = slated_for_deletion()
    assert set(SLATED_ALLOWED) <= set(slated)
    left = {name: sorted(str(path.relative_to(ROOT)) for path in SRC.rglob("*.py")
                         if re.search(rf"\b{name}\b", path.read_text()))
            for name in slated if name not in SLATED_ALLOWED}
    assert {name: paths for name, paths in left.items() if paths} == {}


#: Names retired when one hop became one time unit (``LATENCY``), when the
#: serving knobs no record set became constants, and when the engine came
#: to hold one kind of entry (a watchdog deadline is a plain heap entry
#: voided by its sequence number, and ``run`` is the one drain), and when
#: nodes stopped keeping probe stamps (the detector publishes a round's
#: probes on the simulator), and when the Figs. 6/7 sweep came to route
#: every pair on both planes (no plane switch, no protocol-only sweep),
#: and when greedy routing came to one rule and one router (Algorithm 5's
#: stopping-rule router and its region distance had no caller);
#: none may come back.
RETIRED = (
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "set_delay",
    "delay_probability",
    "extra_delay",
    "lane_delay",
    "hop_latency",
    "quantile_buffer",
    "DelaunayOnlyOverlay",
    "Event",
    "NO_ARG",
    "_EVENT_ENTRY",
    "schedule_call",
    "schedule_at",
    "run_until",
    "run_until_quiescent",
    "runnable_events",
    "pending_events",
    "_note_cancelled",
    "last_ping_round",
    "use_protocol",
    "sweep_protocol_overlay_sizes",
    "measure_protocol_routing",
    "route_with_stopping_rule",
    "_greedy_step",
    "distance_to_region",
    "_distance_to_polygon",
)


def test_no_retired_name_is_back_in_src():
    back = {name: sorted(str(path.relative_to(ROOT)) for path in SRC.rglob("*.py")
                         if re.search(rf"\b{name}\b", path.read_text()))
            for name in RETIRED}
    assert {name: paths for name, paths in back.items() if paths} == {}
