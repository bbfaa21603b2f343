"""Command-line front end: convergence studies, adaptive runs, time stepping.

One JSON config file describes one experiment; a handful of flags override
the common fields.  Every run writes a manifest (config echo, package
version, seed) next to its CSV outputs so a result can be reproduced
bit-for-bit with the direct solver.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .adaptivity import MarkingConfig, adaptive_loop
from .assembly import ModelParams, derive_params
from .manufactured import get_case, known_case, rate_table
from .mesh import (generate_lshape, generate_structured, load_mesh,
                   quality_report, uniform_refine)
from .runner import (assemble_projected_mass, constrained_system,
                     fit_loglog_slope, run_convergence, spaces_for,
                     timestep_driver, voronoi_ladder)
from .spaces import Family

SCHEMAS = {"rates": "rates-v1", "levels": "levels-v1",
           "trace": "trace-v1", "steps": "steps-v1"}


class ConfigError(Exception):
    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


# ---------------------------------------------------------------------------
# configuration


@dataclass
class MeshSpec:
    kind: str = "voronoi"          # voronoi | structured | lshape | files
    n0: int = 25
    counts: list[int] | None = None
    lloyd: int = 5
    paths: list[str] = field(default_factory=list)


@dataclass
class RunConfig:
    case: str = "smooth"
    family: str = "conforming"
    k: int = 2
    l: int = 1
    params: dict | None = None         # {alpha, beta, gamma}
    physical: dict | None = None       # {lam, mu, c0, alpha}
    mesh: MeshSpec = field(default_factory=MeshSpec)
    mode: str = "uniform"              # uniform | adaptive
    theta: float = 0.5
    levels: int = 5
    steps: int = 5
    solver: dict = field(default_factory=lambda: {"method": "direct"})
    out: str = "out"
    seed: int = 0

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config", "expected an object")
        cfg = RunConfig()
        mesh_doc = doc.pop("mesh", None)
        if mesh_doc is not None:
            if not isinstance(mesh_doc, dict):
                raise ConfigError("mesh", "expected an object")
            unknown = set(mesh_doc) - set(MeshSpec.__dataclass_fields__)
            if unknown:
                raise ConfigError(f"mesh.{sorted(unknown)[0]}", "unknown field")
            cfg.mesh = MeshSpec(**mesh_doc)
        for key, val in doc.items():
            if key not in RunConfig.__dataclass_fields__:
                raise ConfigError(key, "unknown field")
            setattr(cfg, key, val)
        return cfg

    def model_params(self) -> ModelParams:
        if self.physical is not None:
            if self.params is not None:
                raise ConfigError("params", "give either params or physical, not both")
            return derive_params(**_numbers("physical", self.physical,
                                            ("lam", "mu", "alpha", "c0"), True))
        if self.params is not None:
            return ModelParams(**_numbers("params", self.params,
                                          ("alpha", "beta", "gamma"), False))
        return ModelParams()

    @property
    def solver_method(self) -> str:
        return self.solver.get("method", "direct")

    def family_enum(self) -> Family:
        try:
            return Family[self.family.upper()]
        except KeyError:
            raise ConfigError("family",
                              f"unknown family {self.family!r} "
                              "(conforming|nonconforming)") from None

    def validate(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            _check_type(name, getattr(self, name), kind)
        for name, kind in _MESH_TYPES.items():
            _check_type(f"mesh.{name}", getattr(self.mesh, name), kind)
        counts, paths = self.mesh.counts, self.mesh.paths
        if counts is not None and not (
                isinstance(counts, list)
                and all(isinstance(n, int) and not isinstance(n, bool) and n > 0
                        for n in counts)):
            raise ConfigError("mesh.counts",
                              f"expected a list of positive ints, got {counts!r}")
        if not (isinstance(paths, list) and all(isinstance(p, str) for p in paths)):
            raise ConfigError("mesh.paths", f"expected a list of strings, got {paths!r}")
        if not known_case(self.case):
            raise ConfigError("case", f"unknown case {self.case!r}")
        if self.k < 2:
            raise ConfigError("k", "deflection degree must be at least 2")
        if not 1 <= self.l <= self.k:
            raise ConfigError("l", "pressure degree must satisfy 1 <= l <= k")
        fam = self.family_enum()
        if fam is Family.NONCONFORMING and self.k == 3 and self.l < self.k - 2:
            raise ConfigError("l", "nonconforming estimator with k=3 needs l >= k-2")
        if self.mode not in ("uniform", "adaptive"):
            raise ConfigError("mode", f"unknown mode {self.mode!r} (uniform|adaptive)")
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError("theta", "theta must lie in (0, 1]")
        if self.levels < 1:
            raise ConfigError("levels", "need at least one level")
        if self.steps < 1:
            raise ConfigError("steps", "need at least one step")
        if self.mesh.n0 < 1:
            raise ConfigError("mesh.n0", "need at least one cell")
        if self.mesh.lloyd < 0:
            raise ConfigError("mesh.lloyd", "number of Lloyd sweeps must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed", "seed must be >= 0")
        if self.mesh.kind not in ("voronoi", "structured", "lshape", "files"):
            raise ConfigError("mesh.kind", f"unknown kind {self.mesh.kind!r}")
        if self.mesh.kind == "files":
            if not self.mesh.paths:
                raise ConfigError("mesh.paths", "kind 'files' needs at least one path")
            for p in self.mesh.paths:
                if not Path(p).exists():
                    raise ConfigError("mesh.paths", f"no such file {p!r}")
        if not isinstance(self.solver, dict):
            raise ConfigError("solver", "expected an object")
        unknown = set(self.solver) - {"method"}
        if unknown:
            raise ConfigError(f"solver.{sorted(unknown)[0]}", "unknown field")
        if self.solver_method not in ("direct", "gmres"):
            raise ConfigError("solver.method", "direct or gmres")
        try:
            self.model_params().validate()
        except ValueError as exc:
            raise ConfigError("params" if self.physical is None else "physical",
                              str(exc)) from None


_FIELD_TYPES = {"case": "str", "family": "str", "k": "int", "l": "int",
                "mode": "str", "theta": "float", "levels": "int",
                "steps": "int", "out": "str", "seed": "int"}
_MESH_TYPES = {"kind": "str", "n0": "int", "lloyd": "int"}


def _check_type(path: str, value, kind: str) -> None:
    """Reject a value of the wrong JSON type; an int is a valid float, and
    a float must be finite (json accepts NaN and Infinity, and ints beyond
    the float range)."""
    allowed = {"int": int, "float": (int, float), "str": str}[kind]
    if not isinstance(value, allowed) or isinstance(value, bool):
        raise ConfigError(path, f"expected {kind}, got {value!r}")
    if kind == "float":
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise ConfigError(path, "expected a finite number, got an integer "
                                    "beyond the float range") from None
        if not finite:
            raise ConfigError(path, f"expected a finite number, got {value!r}")


def _numbers(path: str, doc, names: tuple[str, ...], required: bool) -> dict:
    """Check an object of named numbers: no unknown keys, numeric values."""
    if not isinstance(doc, dict):
        raise ConfigError(path, "expected an object")
    unknown = set(doc) - set(names)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown field")
    for name in names:
        if name in doc:
            _check_type(f"{path}.{name}", doc[name], "float")
        elif required:
            raise ConfigError(f"{path}.{name}", "missing field")
    return doc


def _load_config(args: argparse.Namespace) -> RunConfig:
    doc: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError("config", f"no such file {args.config!r}")
        doc = json.loads(path.read_text())
    cfg = RunConfig.from_dict(doc)
    for key in ("case", "levels", "theta", "family", "k", "l", "out", "seed"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# meshes and outputs


def _case_for(cfg: RunConfig):
    return get_case(cfg.case, params=cfg.model_params(), k=cfg.k, l=cfg.l)


def _mesh_ladder(cfg: RunConfig, case, levels: int | None = None) -> list:
    ms = cfg.mesh
    nlev = cfg.levels if levels is None else levels
    if ms.kind == "voronoi":
        counts = ms.counts or [ms.n0 * 4 ** j for j in range(nlev)]
        return voronoi_ladder(case, counts[:nlev], seed=cfg.seed,
                              lloyd_iters=ms.lloyd)
    if ms.kind == "structured":
        return [generate_structured(ms.n0 * 2 ** j, ms.n0 * 2 ** j,
                                    labeler=case.labeler)
                for j in range(nlev)]
    if ms.kind == "lshape":
        meshes = [generate_lshape(ms.n0, labeler=case.labeler)]
        while len(meshes) < nlev:
            meshes.append(uniform_refine(meshes[-1]))
        return meshes
    return [load_mesh(p, labeler=case.labeler) for p in ms.paths[:nlev]]


def _write_csv(path: Path, schema: str, header: list[str], rows) -> None:
    lines = [f"# platevem {SCHEMAS[schema]}", ",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, str):
                cells.append(v)
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(f"{float(v):.17g}")
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(cfg: RunConfig, outdir: Path, command: str) -> None:
    doc = {"command": command, "version": __version__, "seed": cfg.seed,
           "schemas": SCHEMAS, "config": asdict(cfg)}
    (outdir / "manifest.json").write_text(json.dumps(doc, indent=2) + "\n")


_LEVEL_HEADER = (["level", "ncells", "h", "ndof",
                  "err_u_h2", "err_p_h1", "err_u_l2", "err_p_l2", "energy",
                  "osc_f", "osc_g", "eta"]
                 + [f"eta{i}" for i in range(1, 10)])


def _level_row(level: int, ncells: int, h: float, ndof: int, report,
               eta: float, components2) -> list:
    return ([level, ncells, h, ndof,
             report.err_u_h2, report.err_p_h1, report.err_u_l2,
             report.err_p_l2, report.energy, report.osc_f, report.osc_g, eta]
            + [float(np.sqrt(c)) for c in components2])


# ---------------------------------------------------------------------------
# subcommands


def cmd_convergence(cfg: RunConfig) -> int:
    case = _case_for(cfg)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    meshes = _mesh_ladder(cfg, case)
    results = run_convergence(case, meshes, cfg.family_enum(), cfg.k, cfg.l,
                              solver=cfg.solver_method)

    hs = [r.h for r in results]
    rows = rate_table(hs, {
        "err_u_h2": [r.report.err_u_h2 for r in results],
        "err_p_h1": [r.report.err_p_h1 for r in results],
        "energy": [r.report.energy for r in results],
    })
    header = ["h", "err_u_h2", "rate_u", "err_p_h1", "rate_p",
              "energy", "rate_energy"]
    csv_rows = [[row["h"], row["err_u_h2"], row["rate(err_u_h2)"],
                 row["err_p_h1"], row["rate(err_p_h1)"],
                 row["energy"], row["rate(energy)"]] for row in rows]
    _write_csv(outdir / "rates.csv", "rates", header, csv_rows)
    _write_csv(outdir / "levels.csv", "levels", _LEVEL_HEADER,
               [_level_row(j, r.ncells, r.h, r.ndof, r.report,
                           r.est.eta, r.est.components2)
                for j, r in enumerate(results)])
    _write_manifest(cfg, outdir, "convergence")

    lines = [f"{cfg.case} {cfg.family} k={cfg.k} l={cfg.l}: "
             f"{len(results)} levels"]
    for row in rows:
        r = row["rate(energy)"]
        rs = r if isinstance(r, str) else f"{r:.3f}"
        lines.append(f"  h={row['h']:.4g} energy={row['energy']:.5g} rate={rs}")
    summary = "\n".join(lines)
    (outdir / "summary.txt").write_text(summary + "\n")
    print(summary)
    return 0


def cmd_adaptive(cfg: RunConfig) -> int:
    case = _case_for(cfg)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    mesh = _mesh_ladder(cfg, case, levels=1)[0]
    theta = 1.0 if cfg.mode == "uniform" else cfg.theta
    space_u, space_p = spaces_for(cfg.family_enum(), cfg.k, cfg.l)
    trace = adaptive_loop(case, mesh, space_u, space_p,
                          MarkingConfig(theta=theta, max_levels=cfg.levels),
                          solver=cfg.solver_method)
    _write_csv(outdir / "trace.csv", "trace", _LEVEL_HEADER + ["marked"],
               [_level_row(lv.level, lv.ncells, lv.h, lv.ndof, lv.report,
                           lv.eta, lv.components2) + [lv.n_marked]
                for lv in trace.levels])
    _write_manifest(cfg, outdir, "adaptive")

    tail = min(4, len(trace.levels))
    slope_err = fit_loglog_slope(trace.ndofs, trace.energies, tail)
    slope_eta = fit_loglog_slope(trace.ndofs, trace.etas, tail)
    summary = (f"{cfg.case} {cfg.family} k={cfg.k} l={cfg.l} "
               f"theta={theta:g}: {len(trace.levels)} levels, "
               f"final ndof={trace.ndofs[-1]}\n"
               f"  error slope vs ndof = {slope_err:.3f}\n"
               f"  eta slope vs ndof   = {slope_eta:.3f}")
    (outdir / "summary.txt").write_text(summary + "\n")
    print(summary)
    return 0


def cmd_timestep(cfg: RunConfig) -> int:
    case = _case_for(cfg)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    mesh = _mesh_ladder(cfg, case, levels=1)[0]
    system, constraints = constrained_system(
        case, mesh, spaces_for(cfg.family_enum(), cfg.k, cfg.l))
    M = assemble_projected_mass(system)
    n_u = system.dof_u.ndof
    seq = timestep_driver(system, constraints, case, M, steps=cfg.steps,
                          solver=cfg.solver_method)
    rows = []
    for step, (Un, Pn) in enumerate(seq, start=1):
        X = np.concatenate([Un, Pn])
        MX = M @ X
        nu = float(np.sqrt(X[:n_u] @ MX[:n_u]))
        npres = float(np.sqrt(X[n_u:] @ MX[n_u:]))
        rows.append([step, nu, npres,
                     float(np.abs(Un).max()), float(np.abs(Pn).max())])
    _write_csv(outdir / "steps.csv", "steps",
               ["step", "u_l2", "p_l2", "u_max", "p_max"], rows)
    _write_manifest(cfg, outdir, "timestep")
    print(f"timestep: {cfg.steps} steps, final u_l2={rows[-1][1]:.6g} "
          f"p_l2={rows[-1][2]:.6g}")
    return 0


def cmd_mesh_info(cfg: RunConfig) -> int:
    """Cell counts, mesh size and a 10-bin edge/diameter quality histogram."""
    case = _case_for(cfg)
    meshes = _mesh_ladder(cfg, case)
    bins = np.linspace(0.0, 0.5, 11)
    header = (["level", "ncells", "nvertices", "nedges", "h",
               "star_shaped", "min_edge_ratio", "flagged"]
              + [f"q_{bins[i]:.2f}_{bins[i + 1]:.2f}" for i in range(10)])
    rows = []
    for j, mesh in enumerate(meshes):
        rep = quality_report(mesh)
        hist, _ = np.histogram(np.clip(rep["min_edge_ratio"], 0.0, 0.5 - 1e-12),
                               bins=bins)
        rows.append([j, mesh.ncells, mesh.nvertices, mesh.nedges, mesh.h,
                     int(rep["star_shaped"].sum()),
                     float(rep["min_edge_ratio"].min()),
                     int(len(rep["flagged"]))] + [int(c) for c in hist])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, int) else f"{v:.17g}"
                              for v in row))
    text = "\n".join(lines)
    print(text)
    if cfg.out != "out" or Path(cfg.out).exists():
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "mesh.csv").write_text(text + "\n")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="platevem",
        description="Virtual element studies for the coupled plate-flow model")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("convergence", "adaptive", "timestep", "mesh-info"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--case", default=None)
        p.add_argument("--levels", type=int, default=None)
        p.add_argument("--theta", type=float, default=None)
        p.add_argument("--family", default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--l", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ConfigError, TypeError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    handlers = {"convergence": cmd_convergence, "adaptive": cmd_adaptive,
                "timestep": cmd_timestep, "mesh-info": cmd_mesh_info}
    try:
        return handlers[args.command](cfg)
    except Exception as exc:   # solver or I/O failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
