"""Command-line entry point: ``python -m repro.lint [paths] [options]``.

Exit status is 0 on a clean run, 1 when findings were emitted, 2 on usage
or configuration errors — the same convention ruff and mypy follow, so CI
can gate on the return code directly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.framework import (Finding, LintConfig, ParseError, RULES,
                                  run_lint)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=("simlint: repo-specific static analysis for the "
                     "simulation plane (epoch contract, determinism, "
                     "slots, dispatch consistency, routing-cache contract)"))
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: 'paths' from "
             "[tool.simlint], falling back to 'src')")
    parser.add_argument(
        "--select", action="append", default=None, metavar="RULES",
        help="comma-separated rule codes to run (default: all registered)")
    parser.add_argument(
        "--ignore", action="append", default=None, metavar="RULES",
        help="comma-separated rule codes to skip")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)")
    parser.add_argument(
        "--config", type=Path, default=None, metavar="PYPROJECT",
        help="pyproject.toml to read [tool.simlint] from (default: "
             "./pyproject.toml if present)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit")
    return parser


def _split_codes(values: Optional[List[str]]) -> Optional[List[str]]:
    if not values:
        return None
    codes: List[str] = []
    for value in values:
        codes.extend(code.strip() for code in value.split(",")
                     if code.strip())
    return codes or None


def _render(findings: Sequence[Finding], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([finding.as_dict() for finding in findings],
                          indent=2)
    lines = [finding.render() for finding in findings]
    if findings:
        plural = "" if len(findings) == 1 else "s"
        lines.append(f"simlint: {len(findings)} finding{plural}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    # Rules register on import; --list-rules must see them.
    from repro.lint import rules as _rules  # noqa: F401

    if args.list_rules:
        for code in sorted(RULES):
            rule = RULES[code]
            print(f"{code} {rule.name}: {rule.summary}")
        return 0

    pyproject = args.config
    if pyproject is None:
        candidate = Path("pyproject.toml")
        pyproject = candidate if candidate.is_file() else None
    try:
        config = LintConfig.from_pyproject(pyproject)
        paths = [Path(p) for p in args.paths] or \
            [Path(p) for p in config.paths]
        findings = run_lint(paths, config,
                            select=_split_codes(args.select),
                            ignore=_split_codes(args.ignore))
    except ParseError as exc:
        print(f"simlint: error: {exc}", file=sys.stderr)
        return 2
    output = _render(findings, args.format)
    if output:
        print(output)
    return 1 if findings else 0
