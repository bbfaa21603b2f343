"""The runtime dependency contract: the package runs on numpy and scipy
alone, sympy is only a test dependency, and of scipy only SuperLU's
compiled module is loaded, without any ``scipy.*`` package module.  Runs
load no numpy subpackage they do not compute with: Voronoi seeds come
from the package's own stream, not ``numpy.random``, and no ``np.unique``
call loads ``numpy.ma``."""

import ast
import importlib.machinery
import importlib.util
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
                               "steps": 2, "levels": 2, "out": str(tmp_path / "out")}))
    lshape = tmp_path / "lshape.json"
    lshape.write_text(json.dumps({"case": "lshape", "mesh": {"kind": "lshape", "n0": 2},
                                  "levels": 2, "out": str(tmp_path / "adaptive")}))
    mesh = tmp_path / "mesh.json"
    mesh.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1]],
                                "cells": [[0, 1, 2, 3], [1, 4, 5, 2]]}))
    code = ("import sys\n"
            "from platevem.cli import main\n"
            "from platevem.mesh import load_mesh\n"
            f"assert main(['timestep', '--config', {str(cfg)!r}]) == 0\n"
            f"assert main(['convergence', '--config', {str(cfg)!r}]) == 0\n"
            f"assert main(['adaptive', '--config', {str(lshape)!r}]) == 0\n"
            f"assert main(['mesh-info', '--config', {str(cfg)!r}]) == 0\n"
            f"assert load_mesh({str(mesh)!r}).ncells == 2\n"
            "assert 'scipy.spatial' not in sys.modules, 'scipy.spatial was imported'\n"
            "loaded = [m for m in sys.modules if m.startswith(('scipy.sparse', 'scipy.linalg'))\n"
            "          or m.split('.')[:2] in (['numpy', 'random'], ['numpy', 'ma'])]\n"
            "assert not loaded, f'{loaded} imported'\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def fake_scipy(monkeypatch, root):
    """Make ``importlib.util.find_spec("scipy")`` find a scipy package at
    ``root``; every other name is found as before."""
    find_spec = importlib.util.find_spec

    def found(name, *args):
        if name != "scipy":
            return find_spec(name, *args)
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(root)]
        return spec

    monkeypatch.setattr(importlib.util, "find_spec", found)


def test_missing_superlu_names_the_directory_and_scipy(monkeypatch, tmp_path):
    """A scipy whose compiled SuperLU is not where the package looks makes
    the import fail with its cause."""
    from importlib.metadata import version

    from platevem.assembly import load_superlu
    fake_scipy(monkeypatch, tmp_path)
    with pytest.raises(ImportError) as failed:
        load_superlu()
    assert "is missing" in str(failed.value)
    assert str(tmp_path / "sparse" / "linalg" / "_dsolve") in str(failed.value)
    assert f"scipy {version('scipy')}" in str(failed.value)


def test_superlu_with_another_signature_fails_at_import(monkeypatch, tmp_path):
    """A ``_superlu`` whose ``gstrf`` does not take the call ``splu``
    makes raises the same ImportError at load, not a TypeError at the
    first factor."""
    from importlib.metadata import version

    from platevem.assembly import load_superlu
    directory = tmp_path / "sparse" / "linalg" / "_dsolve"
    directory.mkdir(parents=True)
    (directory / "_superlu.py").write_text(
        "def gstrf(N, nnz, nzvals, colind, colptr, options=None):\n"
        "    raise AssertionError('not reached')\n")
    fake_scipy(monkeypatch, tmp_path)
    with pytest.raises(ImportError) as failed:
        load_superlu()
    assert "does not factor as splu calls it" in str(failed.value)
    assert "csc_construct_func" in str(failed.value)
    assert str(directory) in str(failed.value)
    assert f"scipy {version('scipy')}" in str(failed.value)


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


def test_cli_runs_under_cprofile(tmp_path):
    """Under `python -m cProfile -m platevem.cli`, `__main__` is cProfile's
    module, so the config schema's annotations must resolve in the CLI's
    own namespace."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mesh": {"kind": "voronoi", "n0": 9, "lloyd": 1},
                               "levels": 2, "out": str(tmp_path / "out")}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "cProfile", "-o", str(tmp_path / "prof"),
                           "-m", "platevem.cli", "convergence", "--config", str(cfg)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "rates.csv").is_file()
