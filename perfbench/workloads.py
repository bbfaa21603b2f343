"""The benchmark's workloads: generated configs and output checks.

Each workload is one ``platevem.cli`` command on a config generated from
the workload seed.  Configs set only case, family, k, l, mesh, mode,
theta, levels, steps, seed and out; solver, quadrature and thread fields
keep the package defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Relative tolerance against the reference CSVs: the dense-oracle scale,
# far above run-to-run rounding of a deterministic direct solve and far
# below any change a wrong solve would make.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # platevem CLI subcommand
    table: str                   # CSV the run is checked on
    rows: int                    # data rows the CSV must hold
    default_seed: int | None     # seed whose CSV is stored; None: any seed
    base: dict                   # config without seed and out

    def config(self, seed: int, out: str) -> dict:
        return {**self.base, "seed": seed, "out": out}

    @property
    def reference(self) -> Path:
        return REFERENCE_DIR / self.name / f"{self.table}.csv"

    def compares_reference(self, seed: int) -> bool:
        return self.default_seed is None or seed == self.default_seed


# Why each workload exists is in BENCHMARK.json and README.md: element
# build (uniform-voronoi), estimator, marking and refinement with the
# nonconforming family (adaptive-lshape), right-hand sides and repeated
# solves of one matrix (timestep-march).
WORKLOADS = {w.name: w for w in [
    Workload(
        "uniform-voronoi", "convergence", "levels", rows=3, default_seed=3,
        base={"case": "smooth", "family": "conforming", "k": 2, "l": 1,
              "mesh": {"kind": "voronoi", "n0": 25, "lloyd": 5},
              "mode": "uniform", "levels": 3}),
    Workload(
        "adaptive-lshape", "adaptive", "trace", rows=6, default_seed=None,
        base={"case": "lshape", "family": "nonconforming", "k": 2, "l": 1,
              "mesh": {"kind": "lshape", "n0": 2}, "mode": "adaptive",
              "theta": 0.5, "levels": 6}),
    Workload(
        "timestep-march", "timestep", "steps", rows=40, default_seed=0,
        base={"case": "smooth", "family": "conforming", "k": 2, "l": 1,
              "mesh": {"kind": "voronoi", "n0": 100, "lloyd": 5},
              "levels": 1, "steps": 40}),
]}


def read_table(path: Path) -> tuple[str, list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0], lines[1].split(","), [ln.split(",") for ln in lines[2:]]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_table(workload: Workload, outdir: Path, seed: int) -> list[str]:
    """Problems with one run's CSV, at most one per data row.

    Returns one entry per expected row that is missing or wrong, so the
    length of the list is the number of failed rows.
    """
    path = outdir / f"{workload.table}.csv"
    if not path.is_file():
        return [f"{path.name} missing"] * workload.rows
    ref_tag, ref_header, ref_rows = read_table(workload.reference)
    tag, header, rows = read_table(path)
    if tag != ref_tag or header != ref_header:
        return [f"{path.name}: schema {tag!r} {header} != {ref_tag!r}"] * workload.rows

    problems = [f"{path.name}: row {i} missing"
                for i in range(len(rows), workload.rows)]
    if len(rows) > workload.rows:
        problems.append(f"{path.name}: {len(rows) - workload.rows} extra rows")
    compare = workload.compares_reference(seed)
    energy = header.index("energy") if "energy" in header else None
    prev = math.inf
    for i, row in enumerate(rows[:workload.rows]):
        try:
            vals = [float(v) for v in row]
        except ValueError:
            problems.append(f"{path.name}: row {i} not numeric: {row}")
            continue
        if len(vals) != len(header) or not all(map(math.isfinite, vals)):
            problems.append(f"{path.name}: row {i} not finite or short: {row}")
        elif energy is not None and not vals[energy] < prev:
            problems.append(f"{path.name}: energy does not decrease at row {i}")
        elif compare and not all(map(_close, vals, map(float, ref_rows[i]))):
            bad = [h for h, a, b in zip(header, vals, map(float, ref_rows[i]))
                   if not _close(a, b)]
            problems.append(f"{path.name}: row {i} differs from reference in {bad}")
        if energy is not None and len(vals) == len(header):
            prev = vals[energy]
    return problems


def total_ndof(workload: Workload, outdir: Path) -> int:
    """Unknowns summed over the levels of a levels or trace CSV."""
    _, header, rows = read_table(outdir / f"{workload.table}.csv")
    col = header.index("ndof")
    return sum(int(r[col]) for r in rows)
