"""The benchmark's dependence on the program is exactly ``perf/api_surface.txt``."""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Set

from perf import layers

PERF = Path(__file__).resolve().parents[1]
SOURCES = sorted(PERF.rglob("*.py"))

#: What the ROADMAP slates for deletion; the benchmark must not lean on it.
SLATED_FOR_DELETION = (
    "use_routing_cache",
    "use_node_routing_cache",
    "use_locate_index",
    "shard_level",
    "TimeoutPolicy",
    "ProtocolChurnHarness",
    "ProtocolMergeHarness",
    "CrashScheduleFuzzer",
    "run_shootout",
)


def listed() -> Dict[str, Set[str]]:
    sections: Dict[str, Set[str]] = {}
    current = None
    for line in (PERF / "api_surface.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            current = sections.setdefault(line.strip("[]"), set())
        elif current is not None:
            current.add(line)
    return sections


def imported_from_repro() -> Set[str]:
    names: Set[str] = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(a.name for a in node.names if a.name.split(".")[0] == "repro")
    return names


def test_imports_are_the_listed_ones():
    assert imported_from_repro() == listed()["imported"]


def test_wrapped_names_are_the_listed_ones():
    wrapped = {
        ".".join(part for part in (module, cls, attribute) if part)
        for module, cls, attribute, _ in layers.TARGETS
    }
    assert wrapped == listed()["wrapped"]


def test_only_the_systems_module_imports_the_program():
    for path in SOURCES:
        if path.name == "systems.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            module = getattr(node, "module", None) or ""
            assert not module.startswith("repro"), path


def test_nothing_slated_for_deletion_is_used():
    for path in SOURCES:
        if path == Path(__file__).resolve():
            continue
        text = path.read_text()
        for name in SLATED_FOR_DELETION:
            assert not re.search(rf"\b{name}\b", text), (path.name, name)


def test_heartbeat_config_is_always_passed_explicitly():
    text = (PERF / "systems.py").read_text()
    calls = re.findall(r"HeartbeatDetector\(([^)]*)\)", text)
    assert calls and all("config=" in call for call in calls)
