"""The runtime dependency contract: the package runs on numpy and scipy
alone, sympy is only a test dependency, and of scipy only the sparse
matrices and their LU are loaded."""

import ast
import json
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


def test_voronoi_runs_and_mesh_files_do_not_import_scipy_spatial(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mesh": {"kind": "voronoi", "n0": 16, "lloyd": 2},
                               "steps": 2, "out": str(tmp_path / "out")}))
    mesh = tmp_path / "mesh.json"
    mesh.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1]],
                                "cells": [[0, 1, 2, 3], [1, 4, 5, 2]]}))
    code = ("import sys\n"
            "from platevem.cli import main\n"
            "from platevem.mesh import load_mesh\n"
            f"assert main(['timestep', '--config', {str(cfg)!r}]) == 0\n"
            f"assert load_mesh({str(mesh)!r}).ncells == 2\n"
            "assert 'scipy.spatial' not in sys.modules, 'scipy.spatial was imported'\n")
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


def test_console_script_is_the_main_block_entry():
    """`platevem` and `python -m platevem.cli` run one function."""
    tomllib = pytest.importorskip("tomllib")     # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        script = tomllib.load(fh)["project"]["scripts"]["platevem"]
    module, _, function = script.partition(":")
    tree = ast.parse((ROOT / "src" / module.replace(".", "/")).with_suffix(".py").read_text())
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    called = [ast.unparse(node.func) for node in ast.walk(block)
              if isinstance(node, ast.Call)]
    assert called == ["sys.exit", function]
