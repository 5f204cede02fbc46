"""CLI behaviour: formats, exit codes, and the self-lint acceptance gate."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def write_snippet(tmp_path: Path, source: str) -> Path:
    path = tmp_path / "repro" / "simulation" / "snippet.py"
    path.parent.mkdir(parents=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


DIRTY = """\
    class Hot:
        def __init__(self):
            self.value = 1
"""


def test_exit_zero_on_clean_tree(tmp_path, capsys):
    write_snippet(tmp_path, "VALUE = 1\n")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""


def test_exit_one_with_text_findings(tmp_path, capsys):
    target = write_snippet(tmp_path, DIRTY)
    assert main([str(target)]) == 1
    out = capsys.readouterr().out
    assert "SIM003" in out
    assert "simlint: 1 finding" in out


def test_json_format_is_machine_readable(tmp_path, capsys):
    target = write_snippet(tmp_path, DIRTY)
    assert main([str(target), "--format", "json"]) == 1
    findings = json.loads(capsys.readouterr().out)
    assert len(findings) == 1
    assert findings[0]["rule"] == "SIM003"
    assert findings[0]["line"] == 1


def test_select_and_ignore_flags(tmp_path):
    target = write_snippet(tmp_path, DIRTY)
    assert main([str(target), "--select", "SIM001,SIM002"]) == 0
    assert main([str(target), "--ignore", "SIM003"]) == 0
    assert main([str(target), "--select", "SIM003"]) == 1


def test_unknown_rule_code_is_a_usage_error(tmp_path, capsys):
    target = write_snippet(tmp_path, "VALUE = 1\n")
    assert main([str(target), "--select", "SIM999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("SIM001", "SIM002", "SIM003", "SIM004", "SIM006"):
        assert code in out
    assert "SIM005" not in out


def test_config_flag_reads_pyproject(tmp_path, capsys):
    target = write_snippet(tmp_path, DIRTY)
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text('[tool.simlint]\nselect = ["SIM001"]\n',
                         encoding="utf-8")
    assert main([str(target), "--config", str(pyproject)]) == 0


def test_self_lint_shipped_tree_exits_zero():
    """Acceptance gate: ``python -m repro.lint src/`` is clean."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
