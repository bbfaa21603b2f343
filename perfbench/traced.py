"""Run one platevem CLI command with per-layer spans and counts.

    python3 perfbench/traced.py TRACE.json <cli arguments...>

The package must be importable (``src`` on ``PYTHONPATH``).  Nothing in
``src/`` is edited: the script imports the package, replaces the public
functions that each module calls into, as those names are bound in the
calling module's namespace, with wrappers that record a span (name,
parent, self time) and a few counts, then calls ``platevem.cli.main``
with the given arguments.  Spans stay in memory and are written to
TRACE.json when the command returns; the exit code is the command's.

A span's self time is its duration minus the durations of the spans it
encloses, so the self times of all spans add up to the time from the
first line of this file to the end of the command.  The trace file
records both instants on the system-wide monotonic clock, so the caller
can add interpreter start-up and exit, which no span covers.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

# (calling module, name bound there) for every call into a layer.  A name
# that a later version of the package no longer binds is skipped and
# listed under "missing" in the trace file.
CALLS = [
    ("cli", "get_case"), ("cli", "run_convergence"), ("cli", "solve_case"),
    ("cli", "timestep_driver"), ("cli", "assemble_projected_mass"),
    ("cli", "adaptive_loop"), ("cli", "generate_voronoi"),
    ("cli", "generate_lshape"),
    ("runner", "solve_case"), ("runner", "assemble_system"),
    ("runner", "assemble_rhs"), ("runner", "solve_system"),
    ("runner", "apply_essential_bc"), ("runner", "compute_errors"),
    ("runner", "estimate"), ("runner", "assemble_projected_mass"),
    ("adaptivity", "assemble_system"), ("adaptivity", "assemble_rhs"),
    ("adaptivity", "solve_system"), ("adaptivity", "apply_essential_bc"),
    ("adaptivity", "compute_errors"), ("adaptivity", "estimate"),
    ("adaptivity", "dorfler_mark"), ("adaptivity", "refine"),
    ("assembly", "build_element"), ("assembly", "build_dof_map"),
    ("assembly", "ElementContext"),
    ("assembly", "build_deflection_projectors"),
    ("assembly", "build_pressure_projectors"),
]
# Methods, looked up on the class by every caller.
METHODS = [("quadrature", "ScaledMonomialBasis", "eval")]


class Tracer:
    """Aggregated spans keyed by (name, parent) plus named counts."""

    def __init__(self):
        self.stack: list[list] = []      # [name, start, child seconds]
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counts: dict[str, float] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def enter(self, name: str, start: float | None = None) -> None:
        self.stack.append([name, time.monotonic() if start is None else start, 0.0])

    def leave(self) -> None:
        name, start, child = self.stack.pop()
        dur = time.monotonic() - start
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][2] += dur
        agg = self.spans.setdefault((name, parent), [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child

    def wrap(self, fn, name: str, after=None):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced


def _install(tracer: Tracer) -> list[str]:
    def on_case(args, kwargs, case):
        for attr in ("f", "g"):
            setattr(case, attr, _count_points(tracer, getattr(case, attr)))

    def on_system(args, kwargs, system):
        mesh = system.mesh
        tracer.count("assembly.systems")
        tracer.count("assembly.ndof", system.ndof)
        tracer.count("assembly.nnz", system.K.nnz)
        tracer.count("mesh.cells", mesh.ncells)
        tracer.count("mesh.verts", sum(len(c) for c in mesh.cells))

    def on_mark(args, kwargs, marked):
        tracer.count("adaptivity.marked", len(marked))
        tracer.count("adaptivity.mark_candidates", len(args[0]))

    after = {"get_case": on_case, "assemble_system": on_system,
             "dorfler_mark": on_mark}
    missing = []
    for modname, attr in CALLS:
        mod = importlib.import_module(f"platevem.{modname}")
        fn = getattr(mod, attr, None)
        if fn is None:
            missing.append(f"{modname}.{attr}")
            continue
        layer = fn.__module__.rsplit(".", 1)[-1]
        setattr(mod, attr, tracer.wrap(fn, f"{layer}.{fn.__qualname__}",
                                       after.get(attr)))
    for modname, cls_name, attr in METHODS:
        cls = getattr(importlib.import_module(f"platevem.{modname}"), cls_name, None)
        fn = getattr(cls, attr, None)
        if fn is None:
            missing.append(f"{modname}.{cls_name}.{attr}")
            continue
        setattr(cls, attr, tracer.wrap(fn, f"{modname}.{cls_name}.{attr}"))
    return missing


def _count_points(tracer: Tracer, fn):
    def counted(pts, *args, **kwargs):
        tracer.count("manufactured.data_evals")
        tracer.count("manufactured.data_points", len(pts))
        return fn(pts, *args, **kwargs)
    return counted


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced.py TRACE.json <cli arguments...>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.enter("cli.import", T_START)
    import platevem.cli as cli
    tracer.leave()
    missing = _install(tracer)
    tracer.enter("cli.main")
    try:
        rc = cli.main(cli_args)
    finally:
        tracer.leave()
    doc = {
        "exit": rc,
        "missing": missing,
        "t_start": T_START,
        "t_end": time.monotonic(),
        "spans": [{"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                  for (n, p), (c, t, s) in tracer.spans.items()],
        "counts": tracer.counts,
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
