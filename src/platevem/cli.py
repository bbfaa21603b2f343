"""Command-line front end: convergence studies, adaptive runs, time stepping.

One JSON config file describes one experiment; a handful of flags override
the common fields.  Every run writes a manifest (config echo, package
version, seed, solve records, wall time and peak RSS) next to its CSV
outputs; the echoed config, run again, reproduces every CSV bit-for-bit.
`mesh-info` writes into the `mesh-info` subdirectory of `out`, so that it
leaves the record of a solve run in `out` alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import sys
import time
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

# The imports leave some 33,000 objects that the collector tracks and that
# live as long as the process, so the collector is off while they are made.
# Freezing and at once unfreezing them moves them, unwalked, into the oldest
# generation, which only a full pass reads; without that, the first young
# pass after re-enabling would walk them all.  The unfreeze would release
# what an importer froze itself, so such an importer skips both.  `entry`
# freezes them for good.
_gc_on = gc.isenabled()
gc.disable()
try:
    import numpy as np

    from . import __version__
    from .adaptivity import adaptive_loop
    from .assembly import ModelParams, derive_params
    from .manufactured import get_case, known_case, rate_table
    from .mesh import (generate_lshape, generate_structured, load_mesh,
                       quality_report, uniform_refine)
    from .runner import (LevelResult, assemble_projected_mass, constrained_system,
                         fit_loglog_slope, run_convergence, spaces_for,
                         timestep_driver, voronoi_ladder)
    from .spaces import Family
finally:
    if not gc.get_freeze_count():
        gc.freeze()
        gc.unfreeze()
    if _gc_on:
        gc.enable()

SCHEMAS = {"rates": "rates-v1", "levels": "levels-v1",
           "trace": "trace-v1", "steps": "steps-v1", "mesh": "mesh-v1"}


class ConfigError(Exception):
    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


# ---------------------------------------------------------------------------
# configuration: dataclasses whose annotations are the JSON types; `_parse`
# checks a document against them and each `check` holds its range rules


@dataclass
class MeshSpec:
    kind: str = "voronoi"          # a key of MESH_KINDS
    n0: int = 25
    counts: list[int] | None = None
    lloyd: int = 5
    paths: list[str] = field(default_factory=list)

    def check(self) -> None:
        """Range rules; `_mesh_ladder` checks the ladder's length."""
        if self.kind not in MESH_KINDS:
            raise ConfigError("mesh.kind", f"unknown kind {self.kind!r}")
        reads, default = ("kind",) + MESH_KINDS[self.kind], MeshSpec()
        for f in fields(self):
            if f.name not in reads and getattr(self, f.name) != getattr(default, f.name):
                raise ConfigError(f"mesh.{f.name}", f"kind {self.kind!r} ignores it")
        if self.n0 < 1:
            raise ConfigError("mesh.n0", "need at least one cell")
        if self.lloyd < 0:
            raise ConfigError("mesh.lloyd", "number of Lloyd sweeps must be >= 0")
        if min(self.counts or [1]) < 1:
            raise ConfigError("mesh.counts", f"need positive counts, got {self.counts}")
        for p in self.paths:
            if not Path(p).is_file():
                raise ConfigError("mesh.paths", f"not a file: {p!r}")


@dataclass
class Physical:
    lam: float
    mu: float
    alpha: float
    c0: float


@dataclass
class RunConfig:
    case: str = "smooth"
    family: str = "conforming"
    k: int = 2
    l: int = 1
    params: ModelParams | None = None
    physical: Physical | None = None
    mesh: MeshSpec = field(default_factory=MeshSpec)
    mode: str = "uniform"              # uniform | adaptive
    theta: float = 0.5
    levels: int = 5
    steps: int = 5
    out: str = "out"
    seed: int = 0

    @staticmethod
    def from_dict(doc) -> "RunConfig":
        """Check a JSON document against the schema and build the config."""
        return _parse(RunConfig, doc, "")

    def model_params(self) -> ModelParams:
        if self.physical is not None:
            return derive_params(**asdict(self.physical))
        return self.params or ModelParams()

    def family_enum(self) -> Family:
        return Family[self.family.upper()]

    def check(self) -> None:
        if not known_case(self.case):
            raise ConfigError("case", f"unknown case {self.case!r}")
        if self.family.upper() not in Family.__members__:
            raise ConfigError("family", f"unknown family {self.family!r}")
        if self.k < 2:
            raise ConfigError("k", "deflection degree must be at least 2")
        if not 1 <= self.l <= self.k:
            raise ConfigError("l", "pressure degree must satisfy 1 <= l <= k")
        if self.mode not in ("uniform", "adaptive"):
            raise ConfigError("mode", f"unknown mode {self.mode!r} (uniform|adaptive)")
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError("theta", "theta must lie in (0, 1]")
        if self.levels < 1:
            raise ConfigError("levels", "need at least one level")
        if self.steps < 1:
            raise ConfigError("steps", "need at least one step")
        if self.seed < 0:
            raise ConfigError("seed", "seed must be >= 0")
        if self.params is not None and self.physical is not None:
            raise ConfigError("params", "give either params or physical, not both")
        name = "params" if self.physical is None else "physical"
        try:
            params = self.model_params()
            if params.alpha < 0:        # derive_params passes alpha through
                raise ConfigError(f"{name}.alpha", "alpha must be >= 0")
            params.validate()
            if not all(map(math.isfinite, asdict(params).values())):
                raise ValueError(f"derived coefficients overflow: {params}")
        except (ValueError, OverflowError) as exc:   # OverflowError(errno, text)
            raise ConfigError(name, str(exc.args[-1])) from None


def _parse(schema, value, path: str):
    """Check one JSON value against a schema type and build it: a dataclass
    (then its `check`), a list, an optional or a leaf.  An int is a valid
    float; a float must be finite (json accepts NaN, Infinity, 10**400)."""
    if is_dataclass(schema):
        if not isinstance(value, dict):
            raise ConfigError(path or "config", "expected an object")
        prefix = f"{path}." if path else ""
        # this module's namespace, not that of the class's `__module__`:
        # run under a wrapper such as cProfile, `__main__` is the wrapper
        hints = typing.get_type_hints(schema, globals())
        for key in sorted(set(value) - set(hints)):
            raise ConfigError(prefix + key, "unknown field")
        kwargs = {}
        for f in fields(schema):
            if f.name in value:
                kwargs[f.name] = _parse(hints[f.name], value[f.name], prefix + f.name)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(prefix + f.name, "missing field")
        obj = schema(**kwargs)
        if hasattr(obj, "check"):
            obj.check()
        return obj
    args = typing.get_args(schema)
    if type(None) in args:
        return None if value is None else _parse(args[0], value, path)
    if typing.get_origin(schema) is list:
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list, got {value!r}")
        return [_parse(args[0], item, path) for item in value]
    leaf = {int: int, float: (int, float), str: str}[schema]
    if not isinstance(value, leaf) or isinstance(value, bool):
        raise ConfigError(path, f"expected {schema.__name__}, got {value!r}")
    if schema is float:
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise ConfigError(path, "expected a finite number, got an integer "
                                    "beyond the float range") from None
        if not finite:
            raise ConfigError(path, f"expected a finite number, got {value!r}")
    return value


_FLAGS = ("case", "levels", "theta", "family", "k", "l", "out", "seed")


def _load_config(args: argparse.Namespace) -> RunConfig:
    """Read the config file, merge the flags into it and parse it once."""
    doc = {}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_bytes())
        except (OSError, ValueError) as exc:   # missing, a directory, bad UTF-8 or JSON
            raise ConfigError("config", str(exc)) from None
    flags = {k: v for k, v in vars(args).items() if k in _FLAGS and v is not None}
    return RunConfig.from_dict({**doc, **flags} if isinstance(doc, dict) else doc)


# ---------------------------------------------------------------------------
# meshes and outputs


def _case_for(cfg: RunConfig):
    return get_case(cfg.case, params=cfg.model_params(), k=cfg.k, l=cfg.l)


# mesh kind -> the MeshSpec fields its ladder reads; the others keep defaults
MESH_KINDS = {"voronoi": ("n0", "counts", "lloyd"), "structured": ("n0",),
              "lshape": ("n0",), "files": ("paths",)}


def _mesh_ladder(cfg: RunConfig, case, levels: int | None = None) -> list:
    """The first `levels` (default cfg.levels) meshes of the configured
    ladder.  Explicit counts or paths must give every one of them."""
    kind, nlev = cfg.mesh.kind, cfg.levels if levels is None else levels
    ms = {name: getattr(cfg.mesh, name) for name in MESH_KINDS[kind]}
    name = "paths" if kind == "files" else "counts"
    if ms.get(name) is not None and len(ms[name]) < nlev:
        raise ConfigError(f"mesh.{name}", f"gives {len(ms[name])} of {nlev} levels")
    if kind == "voronoi":
        counts = ms["counts"]
        if counts is None:
            counts = [ms["n0"] * 4 ** j for j in range(nlev)]
        return voronoi_ladder(case, counts[:nlev], seed=cfg.seed, lloyd_iters=ms["lloyd"])
    if kind == "structured":
        sides = [ms["n0"] * 2 ** j for j in range(nlev)]
        return [generate_structured(n, n, labeler=case.labeler) for n in sides]
    if kind == "lshape":
        meshes = [generate_lshape(ms["n0"], labeler=case.labeler)]
        while len(meshes) < nlev:
            meshes.append(uniform_refine(meshes[-1]))
        return meshes
    return [load_mesh(p, labeler=case.labeler) for p in ms["paths"][:nlev]]


def _csv_text(header: list[str], rows) -> str:
    """Header and rows, comma-separated: ints as ints, floats with %.17g."""
    def cell(v) -> str:
        if isinstance(v, str):
            return v
        return str(int(v)) if isinstance(v, (int, np.integer)) else f"{float(v):.17g}"
    return "\n".join([",".join(header)] + [",".join(map(cell, row)) for row in rows])


def _write_outputs(cfg: RunConfig, command: str, started: float, tables: dict,
                   summary: str, solve: list[dict]) -> None:
    """Write a command's tables {schema: (header, rows)} as <schema>.csv,
    then manifest.json and summary.txt into cfg.out (its `mesh-info`
    subdirectory for that command); print the summary.  The manifest
    carries the `solve` record of each factorization, the seconds since
    `started` and the process's peak resident set (ru_maxrss, KiB on
    Linux) in MiB."""
    outdir = Path(cfg.out)
    if command == "mesh-info":
        outdir = outdir / "mesh-info"
    outdir.mkdir(parents=True, exist_ok=True)
    for schema, (header, rows) in tables.items():
        (outdir / f"{schema}.csv").write_text(
            f"# platevem {SCHEMAS[schema]}\n{_csv_text(header, rows)}\n")
    doc = {"command": command, "version": __version__, "seed": cfg.seed,
           "schemas": SCHEMAS, "config": asdict(cfg), "solve": solve,
           "wall_s": time.perf_counter() - started,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    (outdir / "manifest.json").write_text(json.dumps(doc, indent=2) + "\n")
    (outdir / "summary.txt").write_text(summary + "\n")
    print(summary)


_LEVEL_HEADER = (["level", "ncells", "h", "ndof",
                  "err_u_h2", "err_p_h1", "err_u_l2", "err_p_l2", "energy",
                  "osc_f", "osc_g", "eta"]
                 + [f"eta{i}" for i in range(1, 10)])


def _level_row(j: int, r: LevelResult) -> list:
    rep, est = r.report, r.est
    return ([j, r.mesh.ncells, r.mesh.h, r.ndof, rep.err_u_h2, rep.err_p_h1,
             rep.err_u_l2, rep.err_p_l2, rep.energy, rep.osc_f, rep.osc_g, est.eta]
            + [float(np.sqrt(c)) for c in est.components2])


# ---------------------------------------------------------------------------
# subcommands


def cmd_convergence(cfg: RunConfig) -> tuple[dict, str, list]:
    case = _case_for(cfg)
    meshes = _mesh_ladder(cfg, case)
    results = run_convergence(case, meshes, cfg.family_enum(), cfg.k, cfg.l)

    rows = rate_table([r.mesh.h for r in results], {
        "err_u_h2": [r.report.err_u_h2 for r in results],
        "err_p_h1": [r.report.err_p_h1 for r in results],
        "energy": [r.report.energy for r in results],
    })
    header = ["h", "err_u_h2", "rate_u", "err_p_h1", "rate_p", "energy", "rate_energy"]
    keys = ["h", "err_u_h2", "rate(err_u_h2)", "err_p_h1", "rate(err_p_h1)",
            "energy", "rate(energy)"]
    csv_rows = [[row[key] for key in keys] for row in rows]
    level_rows = [_level_row(j, r) for j, r in enumerate(results)]

    lines = [f"{cfg.case} {cfg.family} k={cfg.k} l={cfg.l}: "
             f"{len(results)} levels"]
    for row in rows:
        r = row["rate(energy)"]
        rs = r if isinstance(r, str) else f"{r:.3f}"
        lines.append(f"  h={row['h']:.4g} energy={row['energy']:.5g} rate={rs}")
    return ({"rates": (header, csv_rows), "levels": (_LEVEL_HEADER, level_rows)},
            "\n".join(lines), [r.solve for r in results])


def cmd_adaptive(cfg: RunConfig) -> tuple[dict, str, list]:
    case = _case_for(cfg)
    mesh = _mesh_ladder(cfg, case, levels=1)[0]
    theta = 1.0 if cfg.mode == "uniform" else cfg.theta
    space_u, space_p = spaces_for(cfg.family_enum(), cfg.k, cfg.l)
    levels = adaptive_loop(case, mesh, space_u, space_p, theta, cfg.levels)
    rows = [_level_row(j, r) + [r.marked] for j, r in enumerate(levels)]
    ndofs = [r.ndof for r in levels]

    def slope(y) -> str:
        return "n/a" if len(levels) < 2 else f"{fit_loglog_slope(ndofs, y):.3f}"

    summary = (f"{cfg.case} {cfg.family} k={cfg.k} l={cfg.l} "
               f"theta={theta:g}: {len(levels)} levels, "
               f"final ndof={ndofs[-1]}\n"
               f"  error slope vs ndof = {slope([r.report.energy for r in levels])}\n"
               f"  eta slope vs ndof   = {slope([r.est.eta for r in levels])}")
    return {"trace": (_LEVEL_HEADER + ["marked"], rows)}, summary, [r.solve for r in levels]


def cmd_timestep(cfg: RunConfig) -> tuple[dict, str, list]:
    case = _case_for(cfg)
    mesh = _mesh_ladder(cfg, case, levels=1)[0]
    system, constraints = constrained_system(
        case, mesh, spaces_for(cfg.family_enum(), cfg.k, cfg.l))
    M = assemble_projected_mass(system)
    n_u = system.dof_u.ndof
    states, solve = timestep_driver(system, constraints, case, M, steps=cfg.steps)
    rows = []
    for step, (Un, Pn) in enumerate(states, start=1):
        X = np.concatenate([Un, Pn])
        MX = M @ X
        nu = float(np.sqrt(X[:n_u] @ MX[:n_u]))
        npres = float(np.sqrt(X[n_u:] @ MX[n_u:]))
        rows.append([step, nu, npres,
                     float(np.abs(Un).max()), float(np.abs(Pn).max())])
    summary = (f"timestep: {cfg.steps} steps, final u_l2={rows[-1][1]:.6g} "
               f"p_l2={rows[-1][2]:.6g}")
    return ({"steps": (["step", "u_l2", "p_l2", "u_max", "p_max"], rows)}, summary,
            [solve])


def cmd_mesh_info(cfg: RunConfig) -> tuple[dict, str, list]:
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
    return {"mesh": (header, rows)}, _csv_text(header, rows), []


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="platevem",
        description="Virtual element studies for the coupled plate-flow model")
    sub = ap.add_subparsers(dest="command", required=True)
    hints = typing.get_type_hints(RunConfig, globals())
    for name in ("convergence", "adaptive", "timestep", "mesh-info"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        for flag in _FLAGS:
            p.add_argument(f"--{flag}", type=hints[flag])
    return ap


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _build_parser().parse_args(argv)
    commands = {"convergence": cmd_convergence, "adaptive": cmd_adaptive,
                "timestep": cmd_timestep, "mesh-info": cmd_mesh_info}
    try:
        cfg = _load_config(args)
        _write_outputs(cfg, args.command, started, *commands[args.command](cfg))
        return 0
    except ConfigError as exc:   # the config, or a mesh ladder it cannot give
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # solver or I/O failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> int:
    """The program: `python -m platevem.cli` and the `platevem` script.
    Moves everything imported so far out of the collector's reach, so that
    neither its passes during the run nor the one at exit walk it, then
    runs `main`, which leaves the collector as its caller set it."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
