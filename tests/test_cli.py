import copy
import csv
import dataclasses
import fnmatch
import gc
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import typing
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from platevem import cli
from platevem.assembly import SOLVE_RTOL
from platevem.cli import ConfigError, RunConfig, main
from platevem.mesh import generate_structured

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
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"k": 2, "l": 3})

    def test_params_and_physical_exclusive(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({
                "params": {"alpha": 1.0, "beta": 1.0, "gamma": 1.0},
                "physical": {"lam": 1.0, "mu": 1.0, "alpha": 1.0, "c0": 0.1}})

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
        ({"solver": {"method": "gmres", "tol": 1e-10}}, "solver"),
        ({"solver": {"method": "direct", "precond": "ilu"}}, "solver"),
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
        ({"params": {"alpha": 1.0, "beta": 1.0, "gamma": 1.0},
          "physical": {"lam": 1.0, "mu": 1.0, "alpha": 1.0, "c0": 0.1}}, "params"),
        # a mesh field the kind does not read
        ({"mesh": {"kind": "structured", "n0": 2, "counts": [4, 16], "lloyd": 7}},
         "mesh.counts"),
        ({"mesh": {"kind": "structured", "n0": 2, "lloyd": 7}}, "mesh.lloyd"),
        ({"mesh": {"kind": "lshape", "n0": 1, "paths": ["nope.json"]}}, "mesh.paths"),
        ({"mesh": {"kind": "files", "n0": 4, "paths": [__file__]}, "levels": 1},
         "mesh.n0"),
        # an explicit ladder shorter than levels, or empty
        ({"mesh": {"kind": "voronoi", "n0": 16, "counts": [16]}, "levels": 3},
         "mesh.counts"),
        ({"mesh": {"kind": "voronoi", "counts": []}}, "mesh.counts"),
        ({"mesh": {"kind": "files", "paths": [__file__]}, "levels": 2}, "mesh.paths"),
        ({"mesh": {"kind": "files", "paths": [str(ROOT)]}, "levels": 1}, "mesh.paths"),
        ({"theta": 0}, "theta"),
        # derived coefficients that overflow
        ({"physical": {"lam": 1.0, "mu": 1.0, "alpha": 1e200, "c0": 0.1}}, "physical"),
        ({"physical": {"lam": 1e308, "mu": 1.0, "alpha": 1.0, "c0": 0.1}}, "physical"),
        # the solve is a sparse LU, with nothing to choose
        ({"solver": {"method": "direct"}}, "solver"),
        # a negative coupling coefficient, given or passed through derive_params
        ({"params": {"alpha": -3}}, "params.alpha"),
        ({"physical": {"lam": 1.0, "mu": 1.0, "alpha": -0.5, "c0": 0.1}},
         "physical.alpha"),
    ])
    def test_rejected_field_names_its_path(self, tmp_path, capsys,
                                           overrides, path):
        cfg = write_config(tmp_path, **overrides)
        assert main(["convergence", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert f"config error: {path}: " in captured.err
        assert captured.out == "" and not (tmp_path / "out").exists()

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

    def test_unreadable_config_names_config(self, tmp_path, capsys):
        """A directory and a file that is not UTF-8 are config errors."""
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"case": "smooth", "out": "caf\xe9"}'.encode("latin-1"))
        for path in (tmp_path, bad):
            assert main(["convergence", "--config", str(path)]) == 2
            assert "config error: config: " in capsys.readouterr().err


def load_config(command: str, doc: dict, tmp_path: Path) -> RunConfig:
    """Parse a document exactly as `command` would, without running it."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return cli._load_config(cli._build_parser().parse_args(
        [command, "--config", str(path)]))


class TestLadderLength:
    """convergence and mesh-info run `levels` meshes of an explicit ladder;
    adaptive and timestep start from its first mesh."""

    SHORT = [({"kind": "voronoi", "n0": 16, "counts": [16]}, "mesh.counts"),
             ({"kind": "files", "paths": [__file__]}, "mesh.paths")]

    @pytest.mark.parametrize("command", ["convergence", "mesh-info"])
    @pytest.mark.parametrize("mesh, path", SHORT)
    def test_short_ladder_exits_two_before_output(self, tmp_path, capsys,
                                                  command, mesh, path):
        cfg = write_config(tmp_path, mesh=mesh, levels=3)
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert f"config error: {path}: gives 1 of 3 levels" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["adaptive", "timestep"])
    @pytest.mark.parametrize("mesh", [mesh for mesh, _ in SHORT])
    def test_first_mesh_is_enough(self, tmp_path, command, mesh):
        cfg = load_config(command, {"mesh": mesh, "levels": 3}, tmp_path)
        assert cfg.levels == 3

    @pytest.mark.parametrize("command, levels", [("convergence", 2), ("mesh-info", 2),
                                                 ("adaptive", 1), ("timestep", 1)])
    def test_empty_ladder_names_the_levels_the_command_builds(self, tmp_path, capsys,
                                                              command, levels):
        cfg = write_config(tmp_path, mesh={"kind": "voronoi", "counts": []}, levels=2)
        assert main([command, "--config", str(cfg)]) == 2
        assert f"config error: mesh.counts: gives 0 of {levels} levels" in capsys.readouterr().err

    @pytest.mark.parametrize("mesh, path", [
        ({"kind": "voronoi", "counts": []}, "mesh.counts"),
        ({"kind": "files", "paths": [__file__]}, "mesh.paths")])
    def test_ladder_builder_refuses_a_short_list(self, mesh, path):
        """An empty counts list is not the default ladder, and a paths list
        shorter than the levels does not give fewer meshes."""
        cfg = RunConfig.from_dict({"mesh": mesh, "levels": 2})
        with pytest.raises(ConfigError) as exc:
            cli._mesh_ladder(cfg, cli._case_for(cfg))
        assert exc.value.field_path == path

    def test_levels_flag_is_checked_against_the_ladder(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mesh={"kind": "voronoi", "counts": [16, 64]},
                           levels=1)
        assert main(["convergence", "--config", str(cfg), "--levels", "3"]) == 2
        assert "config error: mesh.counts: " in capsys.readouterr().err


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module.WORKLOADS


class TestTopLevelFields:
    @pytest.mark.parametrize("command", ["convergence", "adaptive", "timestep",
                                         "mesh-info"])
    @pytest.mark.parametrize("name", ["uniform-voronoi", "adaptive-lshape",
                                      "timestep-march"])
    def test_benchmark_configs_parse_for_every_command(self, tmp_path, command,
                                                       name):
        """seed, mode, theta, steps and levels are accepted whatever the
        command or mesh kind reads; the benchmark's configs rely on it."""
        doc = _workloads()[name].config(0, str(tmp_path / "out"))
        assert load_config(command, doc, tmp_path).seed == 0


# ---------------------------------------------------------------------------
# the schema, property-tested: every leaf path, its JSON type, and the
# documented table


def schema_paths(cls=RunConfig, prefix="", expand_optional=False) -> list[str]:
    """Field paths of the schema: nested objects expand into their fields;
    optional objects (params, physical) expand only when asked."""
    out = []
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        inner = [a for a in typing.get_args(tp) if a is not type(None)]
        if expand_optional and len(inner) == 1 and dataclasses.is_dataclass(inner[0]):
            tp = inner[0]
        if dataclasses.is_dataclass(tp):
            out += schema_paths(tp, f"{prefix}{f.name}.", expand_optional)
        else:
            out.append(prefix + f.name)
    return out


# leaf path -> its JSON type
LEAVES = {
    "case": "str", "family": "str", "k": "int", "l": "int",
    "params.alpha": "float", "params.beta": "float", "params.gamma": "float",
    "physical.lam": "float", "physical.mu": "float", "physical.alpha": "float",
    "physical.c0": "float",
    "mesh.kind": "str", "mesh.n0": "int", "mesh.counts": "int list",
    "mesh.lloyd": "int", "mesh.paths": "str list",
    "mode": "str", "theta": "float", "levels": "int", "steps": "int",
    "out": "str", "seed": "int",
}
OBJECTS = {"": RunConfig, "mesh": cli.MeshSpec, "params": cli.ModelParams,
           "physical": cli.Physical}
VALID_PHYSICAL = {"lam": 1.0, "mu": 1.0, "alpha": 1.0, "c0": 0.1}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def type_ok(kind: str, v) -> bool:
    """Whether a JSON value has the leaf's type (ranges aside)."""
    if kind == "int list":
        return v is None or isinstance(v, list) and all(map(_is_int, v))
    if kind == "str list":
        return isinstance(v, list) and all(isinstance(x, str) for x in v)
    if kind == "float":
        return _is_int(v) or isinstance(v, float)
    return _is_int(v) if kind == "int" else isinstance(v, str)


finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(0, allow_infinity=False)
positive = st.one_of(st.integers(1, 1000), st.floats(1e-3, 1e3))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), finite, st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=4)


@st.composite
def valid_docs(draw):
    """A valid document: any subset of the fields, in range, with an explicit
    ladder long enough for every command."""
    doc = draw(st.fixed_dictionaries({}, optional={
        "case": st.sampled_from(["smooth", "lshape", "poly"]),
        "family": st.sampled_from(["conforming", "nonconforming"]),
        "mode": st.sampled_from(["uniform", "adaptive"]),
        "theta": st.floats(0.0, 1.0, exclude_min=True) | st.just(1),
        "levels": st.integers(1, 5),
        "steps": st.integers(1, 100),
        "out": st.text(max_size=8),
        "seed": st.integers(0, 2 ** 40),
    }))
    k = draw(st.integers(2, 6))
    doc.update(k=k, l=draw(st.integers(1, k)))
    coefficients = draw(st.sampled_from(["none", "params", "physical"]))
    if coefficients == "params":
        doc["params"] = draw(st.fixed_dictionaries({}, optional={
            "alpha": non_negative, "beta": positive, "gamma": positive}))
    elif coefficients == "physical":
        doc["physical"] = draw(st.fixed_dictionaries({
            "lam": positive, "mu": positive,
            "alpha": st.floats(0, 1e3), "c0": positive}))
    kind = draw(st.sampled_from(["voronoi", "structured", "lshape", "files", None]))
    if kind == "files":
        doc["mesh"] = {"kind": kind, "paths": [__file__] * draw(st.integers(5, 7))}
    elif kind is not None:
        reads = {"n0": st.integers(1, 400)}
        if kind == "voronoi":
            reads.update(counts=st.none() | st.lists(st.integers(1, 10 ** 6),
                                                     min_size=5, max_size=7),
                         lloyd=st.integers(0, 20))
        doc["mesh"] = {"kind": kind, **draw(st.fixed_dictionaries({}, optional=reads))}
    return doc


def put(doc: dict, keys: tuple, value) -> dict:
    """A copy of doc with value under keys; a value under params or physical
    drops the other one, and physical starts complete."""
    doc = copy.deepcopy(doc)
    if keys[0] in ("params", "physical"):
        doc.pop("physical" if keys[0] == "params" else "params", None)
        if keys[0] == "physical" and len(keys) > 1:
            doc["physical"] = doc.get("physical") or dict(VALID_PHYSICAL)
    node = doc
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value
    return doc


# leaf path -> (out-of-range values, the path the rejection names)
OUT_OF_RANGE = {
    "case": (st.just("nope"), "case"), "family": (st.just("nope"), "family"),
    "k": (st.integers(max_value=1), "k"), "l": (st.sampled_from([0, 7]), "l"),
    "mode": (st.just("nope"), "mode"),
    "theta": (st.sampled_from([0, -0.5, 1.5]), "theta"),
    "levels": (st.integers(max_value=0), "levels"),
    "steps": (st.integers(max_value=0), "steps"),
    "seed": (st.integers(max_value=-1), "seed"),
    "mesh.kind": (st.just("hexagonal"), "mesh.kind"),
    "mesh.n0": (st.integers(max_value=0), "mesh.n0"),
    "mesh.lloyd": (st.integers(max_value=-1), "mesh.lloyd"),
    "mesh.counts": (st.lists(st.integers(max_value=0), min_size=1, max_size=3),
                    "mesh.counts"),
    "mesh.paths": (st.just(["no/such/mesh.json"]), "mesh.paths"),
    "params.alpha": (st.floats(-1e300, -1e-300), "params.alpha"),
    "physical.alpha": (st.floats(-1e3, -1e-300), "physical.alpha"),
    # the rules on more than one coefficient name their object
    "params.beta": (st.floats(-1e300, 0), "params"),
    "params.gamma": (st.integers(-10, 0), "params"),
    "physical.mu": (st.floats(-1e3, 0), "physical"),
}
NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf"),
                              10 ** 400, -10 ** 400])
# mesh kind -> the mesh fields it reads, and a non-default value of each field
READS = {"voronoi": {"n0", "counts", "lloyd"}, "structured": {"n0"},
         "lshape": {"n0"}, "files": {"paths"}}
SET = {"n0": 3, "counts": [4, 16, 64, 256, 1024], "lloyd": 2, "paths": [__file__] * 5}


FAULTS = ["type", "non-finite", "range", "unknown", "missing", "unread"]


@st.composite
def broken_docs(draw, fault: str):
    """A valid document with one fault, and the path the fault must name."""
    doc = draw(valid_docs())
    if fault == "type":
        path = draw(st.sampled_from(sorted(LEAVES) + ["mesh", "params", "physical"]))
        lists = st.lists(json_values, min_size=1, max_size=3)
        value = draw(lists | json_values if LEAVES.get(path, "").endswith("list")
                     else json_values)
        if path in LEAVES:
            assume(not type_ok(LEAVES[path], value))
        else:
            assume(not isinstance(value, dict)
                   and not (value is None and path in ("params", "physical")))
        return put(doc, tuple(path.split(".")), value), path
    if fault == "non-finite":
        path = draw(st.sampled_from([p for p, kind in LEAVES.items() if kind == "float"]))
        return put(doc, tuple(path.split(".")), draw(NON_FINITE)), path
    if fault == "range":
        path = draw(st.sampled_from(sorted(OUT_OF_RANGE)))
        values, named = OUT_OF_RANGE[path]
        return put(doc, tuple(path.split(".")), draw(values)), named
    if fault == "missing":
        key = draw(st.sampled_from(sorted(VALID_PHYSICAL)))
        doc = put(doc, ("physical",), {k: v for k, v in VALID_PHYSICAL.items() if k != key})
        return doc, f"physical.{key}"
    if fault == "unread":
        kind = draw(st.sampled_from(sorted(READS)))
        name = draw(st.sampled_from(sorted(set(SET) - READS[kind])))
        mesh = {"kind": kind, name: SET[name]}
        if kind == "files":
            mesh["paths"] = SET["paths"]
        return put(doc, ("mesh",), mesh), f"mesh.{name}"
    level = draw(st.sampled_from(sorted(OBJECTS)))
    key = draw(st.text(min_size=1, max_size=6))
    assume(key not in {f.name for f in dataclasses.fields(OBJECTS[level])})
    if level in ("params", "physical"):
        doc = put(doc, (level, "alpha"), 1.0)
    keys = (level, key) if level else (key,)
    return put(doc, keys, 1), ".".join(keys)


class TestSchemaProperties:
    def test_leaf_table_is_the_schema(self):
        assert sorted(schema_paths(expand_optional=True)) == sorted(LEAVES)
        assert len(LEAVES) == 22

    def test_readme_table_lists_the_schema(self):
        """The field column of the README config table, in order, is the
        schema's field paths, with params and physical one row each."""
        lines = (ROOT / "README.md").read_text().splitlines()
        start = lines.index("| field | default | meaning |") + 2
        rows = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            rows.append(line.split("|")[1].strip().strip("`"))
        assert rows == schema_paths()

    @pytest.mark.parametrize("name", sorted(
        p.name for p in (ROOT / "scripts" / "configs").glob("*.json")))
    def test_shipped_config_round_trips(self, name):
        cfg = RunConfig.from_dict(
            json.loads((ROOT / "scripts" / "configs" / name).read_text()))
        assert RunConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg

    @settings(max_examples=150, deadline=None)
    @given(valid_docs())
    def test_generated_config_round_trips(self, doc):
        cfg = RunConfig.from_dict(doc)
        assert RunConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg

    @pytest.mark.parametrize("fault", FAULTS)
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_fault_exits_two_naming_its_path(self, tmp_path, monkeypatch,
                                                 fault, data):
        """Only parsing runs: a document that parsed would reach the
        stubbed command and exit 1."""
        monkeypatch.setattr(cli, "cmd_convergence", lambda cfg: 1 / 0)
        doc, path = data.draw(broken_docs(fault))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        err = io.StringIO()
        with redirect_stderr(err):
            rc = main(["convergence", "--config", str(cfg)])
        assert rc == 2, (doc, err.getvalue())
        assert err.getvalue().startswith(f"config error: {path}: "), (doc, err.getvalue())


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
        _, rows = read_schema_csv(run_dir / "levels.csv")
        assert [r["ndof"] for r in m["solve"]] == [int(r["ndof"]) for r in rows]
        for r in m["solve"]:
            assert set(r) == {"ndof", "nnz", "fill", "residual", "residual_u", "residual_p"}
            assert r["ndof"] < r["nnz"] and r["fill"] > 0
            for key in ("residual", "residual_u", "residual_p"):
                assert 0 < r[key] <= SOLVE_RTOL
        # the run's own cost: seconds in main and the process's peak RSS
        assert 0 < m["wall_s"] < 600
        assert 10 < m["peak_rss_mb"] < 1e5

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

    def test_one_level_has_no_slope(self, tmp_path):
        """A one-level run fits no slope: both read n/a, with no warning."""
        cfg = write_config(tmp_path, case="lshape", family="nonconforming",
                           mesh={"kind": "lshape", "n0": 2}, mode="adaptive", levels=1)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-m", "platevem.cli", "adaptive",
                               "--config", str(cfg)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and done.stderr == ""
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert summary == done.stdout
        assert "error slope vs ndof = n/a\n  eta slope vs ndof   = n/a" in summary

    def test_one_level_row_matches_convergence(self, tmp_path):
        """Both commands write one level through one row writer: a one-level
        trace.csv is levels.csv plus the `marked` column."""
        cfg = write_config(tmp_path, levels=1)
        for command in ("convergence", "adaptive"):
            assert main([command, "--config", str(cfg), "--out",
                         str(tmp_path / command)]) == 0
        levels = (tmp_path / "convergence" / "levels.csv").read_text().splitlines()[1:]
        trace = (tmp_path / "adaptive" / "trace.csv").read_text().splitlines()[1:]
        assert len(levels) == len(trace) == 2
        assert [line.rsplit(",", 1) for line in trace] == [
            [levels[0], "marked"], [levels[1], "0"]]


class TestTimestepCommand:
    def test_steps_csv(self, tmp_path, capsys):
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
        assert (out / "summary.txt").read_text() == capsys.readouterr().out
        head, rows = read_schema_csv(out / "steps.csv")
        assert head == "# platevem steps-v1"
        assert len(rows) == 4
        assert [int(r["step"]) for r in rows] == [1, 2, 3, 4]
        for r in rows:
            assert np.isfinite(float(r["u_l2"]))
            assert np.isfinite(float(r["p_l2"]))
        (solve,) = json.loads((out / "manifest.json").read_text())["solve"]
        assert 0 < solve["residual"] <= SOLVE_RTOL


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

    def test_mesh_csv_is_tagged(self, tmp_path, capsys):
        """mesh.csv is the printed table under its schema line."""
        cfg = write_config(tmp_path, levels=2)
        assert main(["mesh-info", "--config", str(cfg)]) == 0
        text = (tmp_path / "out" / "mesh-info" / "mesh.csv").read_text()
        assert text == "# platevem mesh-v1\n" + capsys.readouterr().out

    def test_default_out_gets_the_writer_outputs(self, tmp_path, monkeypatch, capsys):
        """Under the default `out`, as every command, mesh-info writes its
        table, a manifest with no solve and the printed summary, all in
        the `mesh-info` subdirectory."""
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, levels=2)
        doc = json.loads(cfg.read_text())
        del doc["out"]
        cfg.write_text(json.dumps(doc))
        assert main(["mesh-info", "--config", str(cfg)]) == 0
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["mesh-info"]
        out = tmp_path / "out" / "mesh-info"
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "mesh.csv",
                                                         "summary.txt"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "mesh-info" and manifest["solve"] == []
        assert (out / "summary.txt").read_text() == capsys.readouterr().out

    def test_solve_record_survives(self, tmp_path, capsys):
        """mesh-info after convergence on one config and `out` leaves the
        convergence run's manifest and summary beside its tables."""
        cfg = write_config(tmp_path, levels=1)
        out = tmp_path / "out"
        assert main(["convergence", "--config", str(cfg)]) == 0
        summary = capsys.readouterr().out
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert main(["mesh-info", "--config", str(cfg)]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
        assert json.loads((out / "manifest.json").read_text())["command"] == "convergence"
        assert (out / "summary.txt").read_text() == summary
        assert json.loads((out / "mesh-info" / "manifest.json").read_text())["command"] \
            == "mesh-info"

    def test_manifest_config_replays(self, tmp_path):
        """The config mesh-info echoes, run again, writes the same mesh.csv."""
        cfg = write_config(tmp_path, levels=2)
        assert main(["mesh-info", "--config", str(cfg)]) == 0
        done = tmp_path / "out" / "mesh-info"
        doc = json.loads((done / "manifest.json").read_text())["config"]
        doc["out"] = str(tmp_path / "replay")
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(doc))
        assert main(["mesh-info", "--config", str(replay)]) == 0
        assert (tmp_path / "replay" / "mesh-info" / "mesh.csv").read_bytes() == \
            (done / "mesh.csv").read_bytes()

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


class TestMeshFileLabels:
    def test_region_entries_beat_the_case_labeler(self, tmp_path):
        """A grid file that labels every side simply supported by `region`
        solves as the same file labelling each boundary edge by `edges`,
        and not as the smooth case's labeler, which clamps two sides."""
        grid = generate_structured(3, 3)
        body = {"vertices": grid.vertices.tolist(),
                "cells": grid.cell_verts.reshape(-1, 4).tolist()}
        boundaries = {
            "region": [{"region": [-1, -1, 2, 2], "label": "simply_supported"}],
            "edges": [{"edges": grid.edge_verts[grid.on_boundary].tolist(),
                       "label": "simply_supported"}],
            "none": []}
        tables = {}
        for name, boundary in boundaries.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**body, "boundary": boundary}))
            cfg = write_config(tmp_path, levels=1, mesh={"kind": "files", "paths": [str(path)]})
            assert main(["convergence", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            tables[name] = (tmp_path / name / "levels.csv").read_text()
        assert tables["region"] == tables["edges"] != tables["none"]


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

    def test_manifest_config_replays(self, run_dir, tmp_path):
        """The config a run echoes into manifest.json, with only `out`
        changed, writes the same CSVs and summary again."""
        doc = json.loads((run_dir / "manifest.json").read_text())["config"]
        doc["out"] = str(tmp_path / "replay")
        cfg = tmp_path / "replay.json"
        cfg.write_text(json.dumps(doc))
        assert main(["convergence", "--config", str(cfg)]) == 0
        for name in ("rates.csv", "levels.csv", "summary.txt"):
            assert (tmp_path / "replay" / name).read_bytes() == (run_dir / name).read_bytes()


class TestEntry:
    """`entry`, the program, freezes the import heap out of the collector's
    reach; importing the module or calling `main` in process leaves the
    collector on and nothing frozen."""

    @staticmethod
    def run_python(code: str) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_entry_freezes_and_collects(self, tmp_path):
        """After `entry` the import heap is frozen, and the collector ran
        during the run: a callback saw a pass once the freeze was made."""
        cfg = write_config(tmp_path, mesh={"kind": "voronoi", "n0": 16, "lloyd": 2},
                           steps=2)
        self.run_python(
            "import gc, sys\n"
            "from platevem.cli import entry\n"
            "frozen_at_pass = []\n"
            "gc.callbacks.append(lambda phase, info: phase == 'stop' and\n"
            "                    frozen_at_pass.append(gc.get_freeze_count()))\n"
            f"sys.argv = ['platevem', 'timestep', '--config', {str(cfg)!r}]\n"
            "assert entry() == 0\n"
            "assert gc.get_freeze_count() > 0, 'nothing frozen'\n"
            "assert max(frozen_at_pass, default=0) > 0, 'no collection during the run'\n")
        assert (tmp_path / "out" / "steps.csv").is_file()

    def test_import_keeps_the_collector_state(self):
        """The import turns the collector off only while it runs and
        freezes nothing; a caller's disabled collector stays disabled, and
        what a caller froze stays frozen."""
        self.run_python(
            "import gc\n"
            "gc.disable()\n"
            "import platevem.cli\n"
            "assert not gc.isenabled() and gc.get_freeze_count() == 0\n")
        self.run_python(
            "import gc\n"
            "gc.freeze()\n"
            "import platevem.cli\n"
            "assert gc.isenabled() and gc.get_freeze_count() > 0\n")
        self.run_python(
            "import gc\n"
            "import platevem.cli\n"
            "assert gc.isenabled() and gc.get_freeze_count() == 0\n")

    def test_main_leaves_the_collector_alone(self, tmp_path):
        cfg = write_config(tmp_path, levels=1)
        frozen = gc.get_freeze_count()
        assert main(["convergence", "--config", str(cfg)]) == 0
        assert gc.isenabled()
        assert gc.get_freeze_count() == frozen


class TestScripts:
    """The driver script is valid shell, and every shipped config runs
    under the command it gives that config."""

    @pytest.mark.parametrize("command", [
        ["sh", "-n", "scripts/run_all.sh"],
    ], ids=["run_all"])
    def test_script_starts(self, command):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    @staticmethod
    def run_all_commands() -> dict[str, str]:
        """Config glob -> subcommand, as the loops of run_all.sh pair them."""
        text = (ROOT / "scripts" / "run_all.sh").read_text()
        return dict(re.findall(r"for cfg in (\S+); do\n.*\n\s+platevem (\S+) ", text))

    @pytest.mark.parametrize("name", sorted(
        p.name for p in (ROOT / "scripts" / "configs").glob("*.json")))
    def test_shipped_config_runs_one_level(self, tmp_path, capsys, name):
        path = f"scripts/configs/{name}"
        commands = [c for pattern, c in self.run_all_commands().items()
                    if fnmatch.fnmatch(path, pattern)]
        assert len(commands) == 1, f"run_all.sh runs {path} {len(commands)} times"
        for command in (commands[0], "mesh-info"):
            assert main([command, "--config", str(ROOT / path), "--levels", "1",
                         "--out", str(tmp_path / command)]) == 0, capsys.readouterr().err
