import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from platevem.cli import ConfigError, RunConfig, main

ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path: Path, **overrides) -> Path:
    cfg = {
        "case": "smooth",
        "family": "conforming",
        "k": 2,
        "l": 1,
        "mesh": {"kind": "voronoi", "n0": 16, "lloyd": 3},
        "levels": 2,
        "seed": 1,
        "out": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


def read_schema_csv(path: Path):
    lines = path.read_text().splitlines()
    header_comment = lines[0]
    rows = list(csv.DictReader(lines[1:]))
    return header_comment, rows


class TestRunConfig:
    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"case": "smooth", "famly": "conforming"})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"mesh": {"kind": "voronoi", "cells": 4}})

    def test_validate_degree_compatibility(self):
        cfg = RunConfig.from_dict({"k": 2, "l": 3})
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_params_and_physical_exclusive(self):
        cfg = RunConfig.from_dict({
            "params": {"alpha": 1.0, "beta": 1.0, "gamma": 1.0},
            "physical": {"lam": 1.0, "mu": 1.0, "alpha": 1.0, "c0": 0.1}})
        with pytest.raises(ConfigError):
            cfg.model_params()

    def test_physical_constants_are_derived(self):
        cfg = RunConfig.from_dict({
            "physical": {"lam": 1.5, "mu": 0.5, "alpha": 0.8, "c0": 0.1}})
        p = cfg.model_params()
        assert p.gamma == pytest.approx(4.0)


class TestExitCodes:
    def test_invalid_degrees_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, k=2, l=3)
        assert main(["convergence", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["convergence", "--config",
                     str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["convergence", "--config", str(bad)]) == 2

    def test_unknown_mesh_kind_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, mesh={"kind": "hexagonal"})
        assert main(["convergence", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("overrides, path", [
        ({"quadrature": {"data_order": 6}}, "quadrature"),
        ({"solver": {"method": "gmres", "tol": 1e-10}}, "solver.tol"),
        ({"solver": {"method": "direct", "precond": "ilu"}}, "solver.precond"),
        ({"mode": "adaptve"}, "mode"),
        ({"levels": "2"}, "levels"),
        ({"k": "2"}, "k"),
        ({"params": {"alfa": 1}}, "params.alfa"),
        ({"physical": {"lam": 1}}, "physical.mu"),
        ({"mesh": {"kind": "voronoi", "n0": 0}}, "mesh.n0"),
        ({"threads": 2}, "threads"),
        ({"coupling_degree": 1}, "coupling_degree"),
        ({"family": 1}, "family"),
        ({"steps": 0}, "steps"),
        ({"params": {"beta": -1.0}}, "params"),
        ({"case": "nope"}, "case"),
        ({"mesh": {"kind": "voronoi", "counts": ["a"]}}, "mesh.counts"),
        ({"mesh": {"kind": "voronoi", "counts": [16, 0]}}, "mesh.counts"),
        ({"mesh": {"kind": "files", "paths": "x"}}, "mesh.paths"),
        ({"mesh": 3}, "mesh"),
        ({"case": "polygon"}, "case"),
        ({"mesh": {"kind": "files"}}, "mesh.paths"),
        ({"mesh": {"kind": "voronoi", "lloyd": -3}}, "mesh.lloyd"),
        ({"seed": -1}, "seed"),
        ({"params": {"beta": float("nan")}}, "params.beta"),
        ({"params": {"alpha": float("inf")}}, "params.alpha"),
        ({"physical": {"lam": 1.0, "mu": float("nan"), "alpha": 1.0, "c0": 0.1}},
         "physical.mu"),
        ({"params": {"beta": 10 ** 400}}, "params.beta"),
        ({"physical": {"lam": 1.0, "mu": 1.0, "alpha": 10 ** 400, "c0": 0.1}},
         "physical.alpha"),
    ])
    def test_rejected_field_names_its_path(self, tmp_path, capsys,
                                           overrides, path):
        cfg = write_config(tmp_path, **overrides)
        assert main(["convergence", "--config", str(cfg)]) == 2
        assert f"config error: {path}: " in capsys.readouterr().err

    def test_non_object_document_names_config(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text("[]")
        assert main(["convergence", "--config", str(path)]) == 2
        assert "config error: config: " in capsys.readouterr().err

    def test_threads_flag_is_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["convergence", "--config", str(cfg), "--threads", "2"])
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli-conv")
    cfg = write_config(tmp)
    rc = main(["convergence", "--config", str(cfg)])
    assert rc == 0
    return tmp / "out"


class TestConvergenceCommand:

    def test_outputs_exist(self, run_dir):
        for name in ("rates.csv", "levels.csv", "manifest.json",
                     "summary.txt"):
            assert (run_dir / name).exists()

    def test_schema_headers(self, run_dir):
        head, rows = read_schema_csv(run_dir / "rates.csv")
        assert head == "# platevem rates-v1"
        assert len(rows) == 2
        assert rows[-1]["rate_energy"] == "*"
        float(rows[0]["rate_energy"])    # parses as a number
        head, rows = read_schema_csv(run_dir / "levels.csv")
        assert head == "# platevem levels-v1"
        assert {"level", "ncells", "h", "ndof", "eta"} <= set(rows[0])

    def test_errors_decrease(self, run_dir):
        _, rows = read_schema_csv(run_dir / "levels.csv")
        errs = [float(r["err_u_h2"]) for r in rows]
        assert errs[1] < errs[0]

    def test_manifest_contents(self, run_dir):
        m = json.loads((run_dir / "manifest.json").read_text())
        assert m["command"] == "convergence"
        assert m["schemas"]["rates"] == "rates-v1"
        assert m["config"]["case"] == "smooth"
        assert m["seed"] == 1

    def test_flag_overrides_take_precedence(self, tmp_path):
        cfg = write_config(tmp_path, levels=1)
        out2 = tmp_path / "other"
        rc = main(["convergence", "--config", str(cfg),
                   "--levels", "1", "--family", "nonconforming",
                   "--out", str(out2)])
        assert rc == 0
        m = json.loads((out2 / "manifest.json").read_text())
        assert m["config"]["family"] == "nonconforming"
        _, rows = read_schema_csv(out2 / "levels.csv")
        assert len(rows) == 1


class TestAdaptiveCommand:
    def test_lshape_trace(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "case": "lshape",
            "family": "nonconforming",
            "k": 2, "l": 1,
            "mesh": {"kind": "lshape", "n0": 2},
            "mode": "adaptive",
            "theta": 0.5,
            "levels": 3,
            "out": str(out),
        }))
        assert main(["adaptive", "--config", str(cfg_path)]) == 0
        head, rows = read_schema_csv(out / "trace.csv")
        assert head == "# platevem trace-v1"
        assert len(rows) == 3
        assert "marked" in rows[0]
        assert int(rows[-1]["marked"]) == 0
        ndofs = [int(r["ndof"]) for r in rows]
        assert ndofs == sorted(ndofs)


class TestTimestepCommand:
    def test_steps_csv(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "case": "smooth",
            "family": "conforming",
            "k": 2, "l": 1,
            "mesh": {"kind": "voronoi", "n0": 12, "lloyd": 2},
            "steps": 4,
            "out": str(out),
        }))
        assert main(["timestep", "--config", str(cfg_path)]) == 0
        head, rows = read_schema_csv(out / "steps.csv")
        assert head == "# platevem steps-v1"
        assert len(rows) == 4
        assert [int(r["step"]) for r in rows] == [1, 2, 3, 4]
        for r in rows:
            assert np.isfinite(float(r["u_l2"]))
            assert np.isfinite(float(r["p_l2"]))


class TestMeshInfoCommand:
    def test_stdout_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, levels=2)
        assert main(["mesh-info", "--config", str(cfg)]) == 0
        text = capsys.readouterr().out
        lines = [ln for ln in text.splitlines() if ln.strip()]
        assert lines[0].startswith("level,ncells")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert int(first[1]) == 16   # requested cell count on level 0


    @pytest.mark.parametrize("mesh, message", [
        ({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "cells": [[0, 1, 2, 3]],
          "boundary": [{"edges": [[0, 7]], "label": "simply_supported"}]},
         "error: boundary entry 0: edge [0, 7] is not a boundary edge"),
        ({"vertices": [[0, 0], [1, 0], [2, 0]], "cells": [[0, 1, 2]]},
         "error: cell 0 has zero area"),
        ({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "cells": [[0, 1, 2, 3]],
          "boundary": [{"edges": [[0, 1, 2]], "label": "clamped"}]},
         "error: boundary entry 0: edge [0, 1, 2] is not a pair of integer vertex ids"),
    ])
    def test_bad_mesh_file_exits_one(self, tmp_path, capsys, mesh, message):
        path = tmp_path / "mesh.json"
        path.write_text(json.dumps(mesh))
        cfg = write_config(tmp_path, levels=1,
                           mesh={"kind": "files", "paths": [str(path)]})
        assert main(["mesh-info", "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err


class TestVertexFaults:
    @pytest.mark.parametrize("mesh, message", [
        ({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1], [1, 0], [1, 1]],
          "cells": [[0, 1, 2, 3], [6, 4, 5, 7]]},
         "error: vertices 1 and 6 coincide at [1.0, 0.0]"),
        ({"vertices": [[0, 0], [1, 0], [1, 1], [0.5, 2], [0, 1]], "cells": [[0, 1, 2, 4]]},
         "error: vertex 3 is not a vertex of any cell"),
    ], ids=["coincident", "unused"])
    def test_convergence_writes_no_table(self, tmp_path, capsys, mesh, message):
        """Two squares whose shared side lists its points twice, and a
        vertex no cell names: the run fails with the vertex ids before any
        level is solved."""
        path = tmp_path / "mesh.json"
        path.write_text(json.dumps(mesh))
        cfg = write_config(tmp_path, levels=1,
                           mesh={"kind": "files", "paths": [str(path)]})
        assert main(["convergence", "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "levels.csv").exists()


class TestDeterminism:
    def test_repeated_run_output_is_byte_equal(self, tmp_path):
        """Two runs of one config in one process write identical CSVs, so
        no state leaks between runs through caches or DoF maps."""
        cfg = write_config(tmp_path)
        outs = []
        for run in (1, 2):
            out = tmp_path / f"run{run}"
            assert main(["convergence", "--config", str(cfg),
                         "--out", str(out)]) == 0
            outs.append([(out / name).read_bytes()
                         for name in ("rates.csv", "levels.csv")])
        assert outs[0] == outs[1]


class TestScripts:
    """The experiment scripts import and parse their arguments against the
    current package, and the driver script is valid shell."""

    @pytest.mark.parametrize("command", [
        [sys.executable, "scripts/convergence_tables.py", "--help"],
        [sys.executable, "scripts/adaptivity_study.py", "--help"],
        ["sh", "-n", "scripts/run_all.sh"],
    ], ids=["convergence_tables", "adaptivity_study", "run_all"])
    def test_script_starts(self, command):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
