"""The simlint framework: findings, suppressions, config, registry, driver.

``repro.lint`` is a repo-specific static-analysis pass over the simulation
plane.  The correctness of the message-level reproduction rests on
conventions no general-purpose linter knows about — the ``view_epoch``
contract of :mod:`repro.simulation.protocol`, the determinism discipline
(every random draw from a seeded :class:`~repro.utils.rng.RandomSource`,
no wall clocks, no order-nondeterministic set iteration), the
``__slots__`` requirement on message-plane classes, and the implicit
``kind`` ↔ ``_on_<kind>`` dispatch pairing.  Each convention is encoded as
a :class:`Rule` (see :mod:`repro.lint.rules`); this module provides the
machinery they plug into:

* :class:`Finding` — one diagnostic, with a stable text/JSON rendering.
* :class:`ModuleInfo` — a parsed source file plus its per-line
  suppressions (``# simlint: ignore[SIM001]`` or a blanket
  ``# simlint: ignore``); a suppression on the finding's line silences it.
* :class:`LintConfig` — defaults, overridable from ``[tool.simlint]`` in
  ``pyproject.toml`` and from the CLI.
* :data:`RULES` / :func:`register` — the rule registry.
* :func:`run_lint` — collect files, parse, run per-module and
  whole-program checks, filter suppressions, return sorted findings.

Everything is stdlib-only (``ast``, ``tokenize``-free comment scanning,
``tomllib``) so the CI gate needs no extra dependencies.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Tuple)

__all__ = [
    "Finding",
    "LintConfig",
    "ModuleInfo",
    "ParseError",
    "Rule",
    "RULES",
    "register",
    "iter_source_files",
    "parse_modules",
    "run_lint",
]

#: Rule code reserved for files the linter cannot parse.
PARSE_ERROR_CODE = "SIM000"

_SUPPRESSION_RE = re.compile(
    r"#\s*simlint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?")


# ----------------------------------------------------------------------
# findings
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic emitted by a rule."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """The canonical one-line text rendering."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (``--format json``)."""
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "message": self.message}


class ParseError(Exception):
    """A target file could not be parsed (reported as a SIM000 finding)."""


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LintConfig:
    """Effective configuration of one lint run.

    Defaults match the shipped tree; ``[tool.simlint]`` in
    ``pyproject.toml`` overrides them (keys spelled with dashes, e.g.
    ``determinism-paths``), and CLI ``--select``/``--ignore`` override the
    config file.  Path scopes are matched as substrings of the
    posix-rendered file path, so they work from the repo root, an absolute
    path, or a subdirectory invocation alike.  What each contract rule
    looks for (view attributes, topology mutators, invalidation calls) is
    part of the rule, in :mod:`repro.lint.rules`.
    """

    paths: Tuple[str, ...] = ("src",)
    select: Optional[FrozenSet[str]] = None
    #: Scope of the determinism rule (SIM002).
    determinism_paths: Tuple[str, ...] = ("repro/simulation", "repro/core")
    #: Scope of the slots rule (SIM003).
    slots_paths: Tuple[str, ...] = ("repro/simulation",)

    @classmethod
    def from_pyproject(cls, pyproject: Optional[Path]) -> "LintConfig":
        """Load ``[tool.simlint]`` from ``pyproject.toml`` (missing → defaults)."""
        config = cls()
        if pyproject is None or not pyproject.is_file():
            return config
        import tomllib
        with open(pyproject, "rb") as handle:
            data = tomllib.load(handle)
        table = data.get("tool", {}).get("simlint", {})
        if not isinstance(table, dict):
            raise ParseError(f"[tool.simlint] in {pyproject} is not a table")
        known = {f.name: f for f in fields(cls)}
        overrides: Dict[str, object] = {}
        for key, value in table.items():
            name = key.replace("-", "_")
            if name not in known:
                raise ParseError(f"unknown [tool.simlint] key {key!r}")
            overrides[name] = (frozenset(value) if name == "select"
                               else tuple(value))
        return replace(config, **overrides)

    def active_rules(self, select: Optional[Iterable[str]] = None,
                     ignore: Optional[Iterable[str]] = None) -> FrozenSet[str]:
        """Rule codes enabled for a run, after CLI overrides."""
        chosen = frozenset(select) if select else self.select
        if chosen is None:
            chosen = frozenset(RULES)
        dropped = frozenset(ignore or ())
        unknown = (chosen | dropped) - frozenset(RULES)
        if unknown:
            raise ParseError(
                f"unknown rule code(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(RULES))})")
        return chosen - dropped


def path_in_scope(display: str, fragments: Sequence[str]) -> bool:
    """Whether a posix file path falls under any scope fragment."""
    return any(fragment in display for fragment in fragments)


# ----------------------------------------------------------------------
# parsed modules and suppressions
# ----------------------------------------------------------------------
@dataclass
class ModuleInfo:
    """One parsed source file plus its inline suppressions."""

    path: Path
    display: str
    source: str
    tree: ast.Module
    #: line → ``None`` (blanket ``# simlint: ignore``) or the suppressed
    #: rule codes from ``# simlint: ignore[SIM001,SIM003]``.
    suppressions: Dict[int, Optional[FrozenSet[str]]] = field(
        default_factory=dict)

    @classmethod
    def parse(cls, path: Path) -> "ModuleInfo":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return cls(path=path, display=path.as_posix(), source=source,
                   tree=tree, suppressions=scan_suppressions(source))

    def suppressed(self, rule: str, line: int) -> bool:
        """Whether a finding of ``rule`` at ``line`` is suppressed."""
        if line not in self.suppressions:
            return False
        rules = self.suppressions[line]
        return rules is None or rule in rules


def scan_suppressions(source: str) -> Dict[int, Optional[FrozenSet[str]]]:
    """Per-line suppression directives found in ``source``.

    Only lines actually containing a ``#`` are regex-scanned; a directive
    inside a string literal on such a line would be honoured too — the
    cheap scan is deliberate (the directive grammar leaves no room for
    accidental matches in real code).
    """
    suppressions: Dict[int, Optional[FrozenSet[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "simlint" not in line:
            continue
        match = _SUPPRESSION_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressions[lineno] = None
        else:
            codes = frozenset(code.strip() for code in rules.split(",")
                              if code.strip())
            # Merge with an earlier directive on the same line (unusual,
            # but "last writer wins" would silently drop codes).
            previous = suppressions.get(lineno, frozenset())
            if previous is None:
                continue
            suppressions[lineno] = codes | previous
    return suppressions


# ----------------------------------------------------------------------
# rule registry
# ----------------------------------------------------------------------
class Rule:
    """Base class of simlint rules.

    Subclasses set ``code`` / ``name`` / ``summary`` and override one or
    both check hooks.  Rules are stateless singletons: the registry keeps
    one instance, and every hook receives everything it needs.
    """

    code: str = ""
    name: str = ""
    summary: str = ""

    def check_module(self, module: ModuleInfo,
                     config: LintConfig) -> Iterable[Finding]:
        """Per-file findings (independent of every other file)."""
        return ()

    def check_program(self, modules: Sequence[ModuleInfo],
                      config: LintConfig) -> Iterable[Finding]:
        """Whole-program findings (run once over all collected files)."""
        return ()


RULES: Dict[str, Rule] = {}


def register(cls):
    """Class decorator adding a rule to the registry (singleton instance)."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} declares no code")
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls()
    return cls


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def iter_source_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``.py`` file under ``paths``, sorted, hidden dirs skipped."""
    seen = {}
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                seen[path.resolve()] = path
            continue
        if not path.is_dir():
            raise ParseError(f"no such file or directory: {path}")
        for candidate in sorted(path.rglob("*.py")):
            parts = candidate.relative_to(path).parts
            if any(part.startswith(".") or part == "__pycache__"
                   for part in parts):
                continue
            seen[candidate.resolve()] = candidate
    return sorted(seen.values(), key=lambda p: p.as_posix())


def parse_modules(files: Sequence[Path]) -> Tuple[List[ModuleInfo],
                                                  List[Finding]]:
    """Parse every file; syntax errors become SIM000 findings."""
    modules: List[ModuleInfo] = []
    errors: List[Finding] = []
    for path in files:
        try:
            modules.append(ModuleInfo.parse(path))
        except SyntaxError as exc:
            errors.append(Finding(
                path=path.as_posix(), line=exc.lineno or 1,
                col=(exc.offset or 1), rule=PARSE_ERROR_CODE,
                message=f"cannot parse file: {exc.msg}"))
    return modules, errors


def run_lint(paths: Sequence[Path], config: Optional[LintConfig] = None, *,
             select: Optional[Iterable[str]] = None,
             ignore: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint ``paths``; returns suppression-filtered findings, sorted.

    Parse failures surface as :data:`SIM000 <PARSE_ERROR_CODE>` findings
    (never suppressible, never deselectable): a file the linter cannot
    read is a file whose invariants nobody is checking.
    """
    # Import for side effects: the shipped rules register themselves.
    from repro.lint import rules as _rules  # noqa: F401
    if config is None:
        config = LintConfig()
    active = config.active_rules(select, ignore)
    modules, findings = parse_modules(iter_source_files(paths))
    by_display = {module.display: module for module in modules}
    for code in sorted(active):
        rule = RULES[code]
        for module in modules:
            findings.extend(rule.check_module(module, config))
        findings.extend(rule.check_program(modules, config))
    kept = []
    for finding in findings:
        module = by_display.get(finding.path)
        if (module is not None and finding.rule != PARSE_ERROR_CODE
                and module.suppressed(finding.rule, finding.line)):
            continue
        kept.append(finding)
    return sorted(kept)
