"""Adaptive versus uniform refinement on the L-shaped corner problem.

The exact deflection behaves like r^(5/3) at the re-entrant corner, which
caps uniform refinement at slope -1/3 in error versus NDof.  Estimator-driven
Dorfler marking recovers the optimal -1/2.  The script runs both strategies,
prints the per-level traces and the fitted slopes, and leaves the CSVs under
results/.
"""

import argparse
from pathlib import Path

from platevem.adaptivity import MarkingConfig, adaptive_loop
from platevem.manufactured import lshape_case
from platevem.mesh import generate_lshape
from platevem.runner import fit_loglog_slope, spaces_for
from platevem.spaces import Family


def run(theta: float, levels: int, family: Family, outdir: Path):
    case = lshape_case()
    mesh = generate_lshape(2, labeler=case.labeler)
    space_u, space_p = spaces_for(family, 2, 1)
    trace = adaptive_loop(case, mesh, space_u, space_p,
                          MarkingConfig(theta=theta, max_levels=levels))
    outdir.mkdir(parents=True, exist_ok=True)
    lines = ["level,ncells,ndof,energy,eta"]
    for lv, energy in zip(trace.levels, trace.energies):
        lines.append(f"{lv.level},{lv.ncells},{lv.ndof},{energy:.17g},{lv.eta:.17g}")
    (outdir / "trace.csv").write_text("\n".join(lines) + "\n")
    return trace


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--levels", type=int, default=9)
    ap.add_argument("--theta", type=float, default=0.5)
    args = ap.parse_args()
    if args.levels < 2:
        ap.error("--levels must be at least 2 to fit a slope")

    results = Path("results")
    for family in (Family.NONCONFORMING, Family.CONFORMING):
        name = family.name.lower()
        adap = run(args.theta, args.levels, family, results / f"lshape_adaptive_{name}")
        unif = run(1.0, min(6, args.levels), family, results / f"lshape_uniform_{name}")
        s_a = fit_loglog_slope(adap.ndofs, adap.energies)
        s_u = fit_loglog_slope(unif.ndofs, unif.energies)
        print(f"{name:15s} adaptive slope {s_a:+.3f}   uniform slope {s_u:+.3f}")


if __name__ == "__main__":
    main()
