"""Every subpackage of ``repro`` imports first in a fresh interpreter.

Inside one pytest process whichever test ran first has already decided
the import order, so a cycle that only bites when a particular package
is imported *first* (``repro.serving`` → ``repro.simulation`` →
``repro.serving`` did) stays invisible.  One subprocess per subpackage
makes each of them the first import once.
"""

import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
SUBPACKAGES = sorted(module.name for module in pkgutil.iter_modules(repro.__path__)
                     if module.ispkg)


def test_subpackages_are_discovered():
    assert {"core", "serving", "simulation"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_first(name):
    result = subprocess.run(
        [sys.executable, "-c", f"import repro.{name}"],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=60)
    assert result.returncode == 0, result.stderr
