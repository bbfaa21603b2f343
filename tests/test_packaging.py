"""The runtime dependency contract: the package runs on numpy and scipy
alone, and sympy is only a test dependency."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_cli_and_cases_do_not_import_sympy():
    code = ("import sys\n"
            "import platevem.cli\n"
            "from platevem.manufactured import get_case\n"
            "for name in ('smooth', 'lshape', 'poly'):\n"
            "    get_case(name)\n"
            "assert 'sympy' not in sys.modules, 'sympy was imported'\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def names(requirements):
    """Distribution names of PEP 508 requirement strings."""
    return sorted(re.match(r"[A-Za-z0-9_.-]+", r).group() for r in requirements)


def test_runtime_dependencies_are_numpy_and_scipy():
    tomllib = pytest.importorskip("tomllib")     # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert names(project["dependencies"]) == ["numpy", "scipy"]
    assert "sympy" in names(project["optional-dependencies"]["dev"])
