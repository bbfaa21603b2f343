"""platevem benchmark: whole CLI runs, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S]
    python3 perfbench/run.py --write-reference

Run from the repository root.  Each run of a workload generates one
config from the seed and runs ``python -m platevem.cli <command>`` with
``src`` on ``PYTHONPATH``, one child process at a time (closed loop, one
client), until ``--seconds`` seconds have passed.  Before that, set-up probes
import the CLI and build the workload's manufactured case.  Every CLI run
is checked (exit code, CSV schema tag and header, row count, finite
values, decreasing energy, and on the default seed the stored reference
CSV); failed rows count against the attempted ones.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced runs with runs of ``perfbench/traced.py`` and reports per-layer
self times and counts, checking that the counts repeat exactly and that
the spans cover the traced wall time.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, check_table, total_ndof

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 3
MIN_RUNS = 3            # untraced CLI runs per measurement
MIN_TRACED = 2          # traced runs, each paired with an untraced one
CHILD_TIMEOUT_S = 150
BLAS_THREADS = 1        # one busy core per run, below nproc on any machine
UNACCOUNTED_FLOOR = 0.01

LAYERS = ["cli", "runner", "adaptivity", "mesh", "spaces", "projectors",
          "quadrature", "assembly", "manufactured", "estimator"]
MESH_SPANS = ("mesh.generate_voronoi", "mesh.generate_lshape")
PROJECTOR_SPANS = ("projectors.build_deflection_projectors",
                      "projectors.build_pressure_projectors")
BASIS_EVAL = "quadrature.ScaledMonomialBasis.eval"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], log: Path) -> dict:
    """Run one child to completion; launch time, wall, peak RSS, exit code."""
    with open(log, "wb") as fh:
        launch = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - launch
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"launch": launch, "wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "rc": proc.returncode}


def describe(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    med = statistics.median(values)
    raw = " ".join(f"{v:.4g}" for v in values)
    if n < 11:
        return f"median {med:.6g}, no percentile with 10 samples beyond (n={n}: {raw})"
    return (f"median {med:.6g}, p{100.0 * (n - 10) / n:.0f} "
            f"{sorted(values)[n - 11]:.6g} (n={n}: {raw})")


class Measurement:
    """One benchmark run of one workload in its own scratch directory."""

    def __init__(self, workload: Workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(workload.config(seed, "unused")))
        self.runs = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def probe(self, ndof: bool = False) -> dict:
        argv = [sys.executable, str(BENCH / "probe.py"), str(self.config)]
        res = run_child(argv + (["--ndof"] if ndof else []), self.work / "probe.log")
        text = (self.work / "probe.log").read_text()
        if res["rc"] != 0:
            raise RuntimeError(f"set-up probe exited {res['rc']}:\n{text}")
        doc = json.loads(text.strip().splitlines()[-1])
        doc["setup_s"] = doc["ready"] - res["launch"]
        return doc

    def cli(self, traced: bool) -> dict:
        """One CLI run, checked; adds the trace document when traced."""
        self.runs += 1
        out = self.work / f"run{self.runs}"
        trace_file = self.work / f"trace{self.runs}.json"
        prefix = ([str(BENCH / "traced.py"), str(trace_file)] if traced
                  else ["-m", "platevem.cli"])
        argv = [sys.executable, *prefix, self.workload.command,
                "--config", str(self.config), "--out", str(out)]
        res = run_child(argv, self.work / "cli.log")
        rows = self.workload.rows
        if res["rc"] != 0:
            log = (self.work / "cli.log").read_text()[-2000:]
            problems = [f"exit code {res['rc']}: {log}"] * rows
        else:
            problems = check_table(self.workload, out, self.seed)
        self.attempted += rows
        self.failed += min(len(problems), rows)
        self.problems.extend(dict.fromkeys(problems))
        res["ok"] = not problems
        if res["ok"] and self.workload.table != "steps":
            res["ndof"] = total_ndof(self.workload, out)
        if traced and res["rc"] == 0:
            res["trace"] = json.loads(trace_file.read_text())
        shutil.rmtree(out, ignore_errors=True)
        return res

    def loop(self, step, min_rounds: int) -> list:
        """Repeat step() until the run length has passed, min_rounds times at least."""
        rounds = []
        start = time.monotonic()
        while len(rounds) < min_rounds or time.monotonic() - start < self.seconds:
            rounds.append(step())
        return rounds


def context(workload: Workload, seed: int, probe: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"workload": workload.name, "seed": seed, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "blas_threads": BLAS_THREADS, "versions": probe["versions"],
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "loadavg": os.getloadavg()}


def measure_end_to_end(m: Measurement) -> tuple[dict, list[str]]:
    steps = m.workload.table == "steps"
    probes = [m.probe(ndof=steps and i == 0) for i in range(SETUP_PROBES)]
    step_ndof = probes[0].get("ndof")
    samples = m.loop(lambda: m.cli(traced=False), MIN_RUNS)
    walls = [s["wall"] for s in samples]
    rates = [(step_ndof * m.workload.rows if steps else s["ndof"]) / s["wall"]
             for s in samples if s["ok"]]
    setups = [p["setup_s"] for p in probes]
    rss = [s["rss_mb"] for s in samples]
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setups),
               "dof_per_s": statistics.median(rates) if rates else 0.0,
               "peak_rss_mb": statistics.median(rss)}
    detail = [f"wall_s       {describe(walls)}",
              f"setup_s      {describe(setups)}",
              f"dof_per_s    {describe(rates) if rates else 'no successful run'}",
              f"peak_rss_mb  {describe(rss)}"]
    return metrics, [json.dumps({"context": context(m.workload, m.seed, probes[0])})] + detail


def layer_metrics(doc: dict, wall: float, launch: float) -> tuple[dict, list[dict]]:
    """Per-layer self times (s) and counts of one traced run."""
    spans = list(doc["spans"])
    # Interpreter start-up before traced.py's first line and exit after the
    # trace is written: process time that no span inside the child covers.
    interp = (doc["t_start"] - launch) + (launch + wall - doc["t_end"])
    spans.append({"name": "cli.interpreter", "parent": None, "calls": 1,
                  "total_s": interp, "self_s": interp})
    counts = doc["counts"]

    def self_s(*names):
        return sum(s["self_s"] for s in spans if s["name"] in names)

    def calls(*names):
        return sum(s["calls"] for s in spans if s["name"] in names)

    systems = counts.get("assembly.systems", 0)
    cells = counts.get("mesh.cells", 0)
    candidates = counts.get("adaptivity.mark_candidates", 0)
    out = {
        "assembly.element_s": self_s("assembly.build_element"),
        "assembly.scatter_s": self_s("assembly.assemble_system"),
        "assembly.rhs_s": self_s("assembly.assemble_rhs"),
        "assembly.solve_s": self_s("assembly.solve_system"),
        "assembly.solves": calls("assembly.solve_system"),
        "assembly.solves_per_system": calls("assembly.solve_system") / systems if systems else 0.0,
        "assembly.ndof": counts.get("assembly.ndof", 0),
        "assembly.nnz": counts.get("assembly.nnz", 0),
        "projectors.context_s": self_s("projectors.ElementContext"),
        "projectors.build_s": self_s(*PROJECTOR_SPANS),
        "projectors.calls": calls(*PROJECTOR_SPANS),
        "quadrature.basis_evals": calls(BASIS_EVAL),
        "quadrature.basis_eval_s": self_s(BASIS_EVAL),
        "spaces.dof_map_s": self_s("spaces.build_dof_map"),
        "spaces.bc_s": self_s("spaces.apply_essential_bc"),
        "runner.mass_s": self_s("runner.assemble_projected_mass"),
        "manufactured.case_s": self_s("manufactured.get_case"),
        "manufactured.errors_s": self_s("manufactured.compute_errors"),
        "manufactured.data_evals": counts.get("manufactured.data_evals", 0),
        "manufactured.data_points": counts.get("manufactured.data_points", 0),
        "estimator.estimate_s": self_s("estimator.estimate"),
        "mesh.generate_s": self_s(*MESH_SPANS),
        "mesh.refine_s": self_s("mesh.refine"),
        "mesh.cells": cells,
        "mesh.verts_per_cell": counts.get("mesh.verts", 0) / cells if cells else 0.0,
        "adaptivity.mark_s": self_s("adaptivity.dorfler_mark"),
        "adaptivity.marked_frac": (counts.get("adaptivity.marked", 0) / candidates
                                   if candidates else 0.0),
        "cli.self_s": self_s("cli.main"),
        "cli.import_s": self_s("cli.import"),
        "cli.interpreter_s": interp,
    }
    for layer in LAYERS:
        out[f"layer.{layer}_s"] = sum(s["self_s"] for s in spans
                                      if s["name"].split(".")[0] == layer)
    out["trace.unaccounted_frac"] = (wall - sum(s["self_s"] for s in spans)) / wall
    return out, spans


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares for the mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def exact_counts() -> list[str]:
    """Per-layer counts and ratios of counts, which must repeat exactly."""
    return [name for name, unit in declared_metrics(True).items()
            if unit in ("count", "ratio") and not name.startswith("trace.")]


def measure_traced(m: Measurement) -> tuple[dict, list[str]]:
    steps = m.workload.table == "steps"
    probe = m.probe(ndof=steps)
    pairs = m.loop(lambda: (m.cli(traced=False), m.cli(traced=True)), MIN_TRACED)
    plain = [p[0]["wall"] for p in pairs]
    traced = [p[1] for p in pairs if "trace" in p[1]]
    lines = [json.dumps({"context": context(m.workload, m.seed, probe)})]
    if not traced:
        return {}, lines + ["no traced run completed"]
    per_run = [layer_metrics(t["trace"], t["wall"], t["launch"]) for t in traced]
    metrics = {}
    exact = exact_counts()
    for key in per_run[0][0]:
        vals = [r[0][key] for r in per_run]
        if key in exact:
            if len(set(vals)) != 1:
                m.problems.append(f"count {key} differs across traced runs: {vals}")
            metrics[key] = vals[0]
        else:
            metrics[key] = statistics.median(vals)
    traced_wall = statistics.median(t["wall"] for t in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_frac"] = traced_wall / statistics.median(plain) - 1.0

    tolerance = max(abs(metrics["trace.overhead_frac"]), UNACCOUNTED_FLOOR)
    for r in per_run:
        if abs(r[0]["trace.unaccounted_frac"]) > tolerance:
            m.problems.append(f"spans leave {r[0]['trace.unaccounted_frac']:.2%} of the "
                              f"traced wall unaccounted (limit {tolerance:.2%})")
    missing = sorted({name for t in traced for name in t["trace"]["missing"]})
    if missing:
        lines.append(f"not traced (names absent from the package): {missing}")
    ndof = metrics["assembly.ndof"]
    expected = probe["ndof"] if steps else traced[0].get("ndof")
    if ndof != expected:
        m.problems.append(f"traced assembly.ndof {ndof} != reported ndof {expected}")

    lines.append(f"spans of the first traced run ({traced[0]['wall']:.3f} s wall):")
    lines.append(f"  {'span':42s} {'parent':42s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s}")
    for s in sorted(per_run[0][1], key=lambda s: -s["self_s"]):
        lines.append(f"  {s['name']:42s} {str(s['parent']):42s} {s['calls']:7d} "
                     f"{s['total_s']:9.4f} {s['self_s']:9.4f}")
    lines.append(f"traced wall_s {describe([t['wall'] for t in traced])}")
    lines.append(f"plain  wall_s {describe(plain)}")
    return metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    m = Measurement(workload, seed, seconds)
    try:
        metrics, lines = (measure_traced if trace else measure_end_to_end)(m)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        metrics, lines = {}, []
        m.problems.append(f"benchmark error: {exc!r}")
        m.failed = max(m.failed, 1)
        m.attempted = max(m.attempted, 1)
    finally:
        m.close()
    units = declared_metrics(trace)
    if metrics and set(metrics) != set(units):
        m.problems.append(f"metrics {sorted(set(metrics) ^ set(units))} computed but "
                          "not declared in BENCHMARK.json, or declared but not computed")
    for line in lines:
        print(line)
    for key, val in metrics.items():
        shown = f"{val:16d}" if isinstance(val, int) else f"{val:16.6f}"
        print(f"  {key:30s} {shown} {units.get(key, '?')}")
    print(f"failed_frac {m.failed / max(m.attempted, 1):.4g} "
          f"({m.failed} of {m.attempted} rows, {m.runs} CLI runs)")
    for problem in m.problems:
        print(f"CHECK FAILED: {problem}")
    return {"correct": not m.problems and m.failed == 0 and bool(metrics),
            "attempted": m.attempted, "failed": m.failed,
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in units.items() if k in metrics}}


def write_reference() -> int:
    for workload in WORKLOADS.values():
        seed = workload.default_seed if workload.default_seed is not None else 0
        work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
        try:
            cfg = work / "config.json"
            cfg.write_text(json.dumps(workload.config(seed, "unused")))
            out = work / "out"
            res = run_child([sys.executable, "-m", "platevem.cli", workload.command,
                             "--config", str(cfg), "--out", str(out)], work / "cli.log")
            if res["rc"] != 0:
                print((work / "cli.log").read_text(), file=sys.stderr)
                return 1
            workload.reference.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(out / f"{workload.table}.csv", workload.reference)
            print(f"wrote {workload.reference.relative_to(ROOT)} (seed {seed})")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the seed of the stored reference)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="regenerate the reference CSVs from the current code")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "platevem" / "cli.py").is_file():
        print(f"platevem sources not found under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        ap.error("--workload is required")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        seed = args.seed
        if seed is None:
            seed = WORKLOADS[name].default_seed or 0
        print(f"== {name} seed={seed} seconds={args.seconds:g} trace={args.trace}")
        results[name] = run_workload(name, seed, args.seconds, bool(args.trace))
    if len(names) == 1:
        result = results[names[0]]
    else:
        units = declared_metrics(False) if not args.trace else {}
        cols = list(units)
        print(f"{'workload':18s} " + " ".join(f"{c:>14s}" for c in cols + ["failed_frac"]))
        for name, res in results.items():
            vals = [res["metrics"].get(c, {}).get("value", float("nan")) for c in cols]
            vals.append(res["failed"] / max(res["attempted"], 1))
            print(f"{name:18s} " + " ".join(f"{v:14.6g}" for v in vals))
        if cols:
            print(f"{'(unit)':18s} " + " ".join(f"{u:>14s}" for u in units.values())
                  + f" {'ratio':>14s}")
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": v for n, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
