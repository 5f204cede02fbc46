"""Framework-level tests: suppressions, config, file collection, driver."""

import textwrap
from pathlib import Path

import pytest

from repro.lint import (Finding, LintConfig, ParseError, RULES,
                        iter_source_files, parse_modules, run_lint)
from repro.lint.framework import ModuleInfo, scan_suppressions


def write(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# findings
# ----------------------------------------------------------------------
def test_finding_render_and_dict():
    finding = Finding(path="a.py", line=3, col=5, rule="SIM002", message="boom")
    assert finding.render() == "a.py:3:5: SIM002 boom"
    assert finding.as_dict() == {"path": "a.py", "line": 3, "col": 5,
                                 "rule": "SIM002", "message": "boom"}


def test_findings_sort_by_location():
    first = Finding(path="a.py", line=1, col=1, rule="SIM003", message="x")
    later = Finding(path="a.py", line=9, col=1, rule="SIM001", message="x")
    other = Finding(path="b.py", line=1, col=1, rule="SIM001", message="x")
    assert sorted([other, later, first]) == [first, later, other]


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def test_scan_suppressions_blanket_and_coded():
    source = (
        "x = 1  # simlint: ignore\n"
        "y = 2  # simlint: ignore[SIM001]\n"
        "z = 3  # simlint: ignore[SIM001, SIM002]\n"
        "plain = 4\n"
    )
    suppressions = scan_suppressions(source)
    assert suppressions[1] is None
    assert suppressions[2] == frozenset({"SIM001"})
    assert suppressions[3] == frozenset({"SIM001", "SIM002"})
    assert 4 not in suppressions


def test_suppression_with_trailing_justification():
    source = "class C:  # simlint: ignore[SIM003] — one per experiment\n"
    assert scan_suppressions(source)[1] == frozenset({"SIM003"})


def test_module_suppressed_lookup(tmp_path):
    path = write(tmp_path, "m.py", "x = 1  # simlint: ignore[SIM002]\n")
    module = ModuleInfo.parse(path)
    assert module.suppressed("SIM002", 1)
    assert not module.suppressed("SIM003", 1)
    assert not module.suppressed("SIM002", 2)


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------
def test_from_pyproject_missing_file_gives_defaults(tmp_path):
    config = LintConfig.from_pyproject(tmp_path / "nope.toml")
    assert config.paths == ("src",)
    assert "repro/simulation" in config.determinism_paths


def test_from_pyproject_overrides_with_dashes(tmp_path):
    pyproject = write(tmp_path, "pyproject.toml", """\
        [tool.simlint]
        paths = ["lib"]
        determinism-paths = ["lib/sim"]
        select = ["SIM002"]
    """)
    config = LintConfig.from_pyproject(pyproject)
    assert config.paths == ("lib",)
    assert config.determinism_paths == ("lib/sim",)
    assert config.select == frozenset({"SIM002"})


def test_from_pyproject_rejects_unknown_key(tmp_path):
    pyproject = write(tmp_path, "pyproject.toml", """\
        [tool.simlint]
        not-a-key = true
    """)
    with pytest.raises(ParseError, match="unknown"):
        LintConfig.from_pyproject(pyproject)


def test_active_rules_select_ignore_and_validation():
    config = LintConfig()
    assert config.active_rules() == frozenset(RULES)
    assert config.active_rules(select=["SIM002"]) == frozenset({"SIM002"})
    assert "SIM002" not in config.active_rules(ignore=["SIM002"])
    with pytest.raises(ParseError, match="unknown rule"):
        config.active_rules(select=["SIM999"])


def test_repo_pyproject_parses():
    repo_pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    config = LintConfig.from_pyproject(repo_pyproject)
    assert config.paths == ("src",)


# ----------------------------------------------------------------------
# file collection and the driver
# ----------------------------------------------------------------------
def test_iter_source_files_skips_hidden_and_pycache(tmp_path):
    write(tmp_path, "pkg/a.py", "x = 1\n")
    write(tmp_path, "pkg/__pycache__/b.py", "x = 1\n")
    write(tmp_path, "pkg/.hidden/c.py", "x = 1\n")
    files = iter_source_files([tmp_path])
    assert [f.name for f in files] == ["a.py"]


def test_iter_source_files_missing_path_raises(tmp_path):
    with pytest.raises(ParseError, match="no such file"):
        iter_source_files([tmp_path / "missing"])


def test_parse_modules_reports_syntax_error_as_sim000(tmp_path):
    path = write(tmp_path, "broken.py", "def f(:\n")
    modules, errors = parse_modules([path])
    assert modules == []
    assert len(errors) == 1
    assert errors[0].rule == "SIM000"


def test_sim000_is_not_suppressible(tmp_path):
    write(tmp_path, "broken.py", "def f(:  # simlint: ignore\n")
    findings = run_lint([tmp_path])
    assert [f.rule for f in findings] == ["SIM000"]


def test_run_lint_clean_tree(tmp_path):
    write(tmp_path, "ok.py", "VALUE = 1\n")
    assert run_lint([tmp_path]) == []
