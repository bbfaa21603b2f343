"""End-to-end acceptance gate.

Each test checks one shipping criterion at its stated tolerance and
appends a single PASS/FAIL line (with the measured numbers) to the
terminal summary.  The expensive convergence ladders are shared between
criteria through module-scoped fixtures.
"""

import csv
import json
import time

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES
from _elements import build_element, cell_view, solve_patch
from _oracle import oracle_element

from platevem.adaptivity import adaptive_loop
from platevem.assembly import ModelParams
from platevem.cli import main as cli_main
from platevem.manufactured import get_case, polynomial_case
from platevem.mesh import generate_lshape, generate_voronoi
from platevem.projectors import CellGroup, deflection_projectors, pressure_projectors
from platevem.quadrature import poly_dim
from platevem.runner import fit_loglog_slope, run_convergence, spaces_for, voronoi_ladder
from platevem.spaces import Family, SpaceKind

FAMILIES = (Family.CONFORMING, Family.NONCONFORMING)
COUNTS_K2 = (25, 100, 400, 1600, 6400)
COUNTS_K3 = (25, 100, 400, 1600)


def record(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def settled_rate(hs, errs) -> float:
    """Rate reported for a refinement ladder: least-squares log-log slope.

    Single mesh pairs on unstructured Voronoi ladders oscillate around the
    settled slope (the finest pairs of this scheme overshoot toward the
    superconvergent projected norm), so the quoted rate is the fit over the
    whole ladder rather than the last pair.
    """
    return fit_loglog_slope(np.asarray(hs), np.asarray(errs), tail=len(hs))


# ---------------------------------------------------------------------------
# shared expensive runs


@pytest.fixture(scope="module")
def ex1_k2():
    case = get_case("smooth")
    t0 = time.perf_counter()
    runs = {}
    for family in FAMILIES:
        meshes = voronoi_ladder(case, COUNTS_K2, seed=3)
        runs[family] = run_convergence(case, meshes, family, 2, 1)
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ex1_k3():
    case = get_case("smooth")
    t0 = time.perf_counter()
    runs = {}
    for family in FAMILIES:
        meshes = voronoi_ladder(case, COUNTS_K3, seed=3)
        runs[family] = run_convergence(case, meshes, family, 3, 2)
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def lshape_runs():
    case = get_case("lshape")
    t0 = time.perf_counter()
    mesh0 = generate_lshape(2, labeler=case.labeler)
    space_u, space_p = spaces_for(Family.NONCONFORMING, 2, 1)
    uniform = adaptive_loop(case, mesh0, space_u, space_p, 1.0, 5)
    adaptive = {}
    for family in FAMILIES:
        su, sp_ = spaces_for(family, 2, 1)
        adaptive[family] = adaptive_loop(
            case, generate_lshape(2, labeler=case.labeler), su, sp_, 0.5, 10)
    return uniform, adaptive, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criteria


def test_projector_polynomial_reproduction():
    t0 = time.perf_counter()
    mesh = generate_voronoi(50, lloyd_iters=3, seed=2)
    rng = np.random.default_rng(17)
    worst = 0.0
    for family in FAMILIES:
        for k in (2, 3):
            space = SpaceKind("deflection", family, k)
            nk = poly_dim(k)
            C = rng.uniform(-1.0, 1.0, size=(nk, 200))
            for cell in range(mesh.ncells):
                group = CellGroup(mesh, [cell], max_degree=k)
                P = cell_view(deflection_projectors(group, space), 0)
                X = P.D @ C
                worst = max(worst, np.abs(P.pd @ X - C).max())
                worst = max(worst, np.abs(P.l2 @ X - C).max())
                for d, H in zip(((2, 0), (1, 1), (0, 2)), P.hess):
                    worst = max(worst, np.abs(
                        H @ X - group.deriv(d, k)[0] @ C).max())
                Gx, Gy = P.grads[k - 1]
                Dx = group.deriv((1, 0), k)[0]
                Dy = group.deriv((0, 1), k)[0]
                worst = max(worst, np.abs(Gx @ X - Dx @ C).max())
                worst = max(worst, np.abs(Gy @ X - Dy @ C).max())
        for l in (1, 2):
            space = SpaceKind("pressure", family, l)
            nl = poly_dim(l)
            C = rng.uniform(-1.0, 1.0, size=(nl, 200))
            for cell in range(mesh.ncells):
                group = CellGroup(mesh, [cell], max_degree=l)
                P = cell_view(pressure_projectors(group, space), 0)
                X = P.D @ C
                worst = max(worst, np.abs(P.pd @ X - C).max())
                worst = max(worst, np.abs(P.l2 @ X - C).max())
                worst = max(worst, np.abs(P.pg[l] @ X - C).max())
    dt = time.perf_counter() - t0
    record(1, worst <= 1e-9 and dt < 30.0,
           f"max reproduction defect {worst:.2e} (tol 1e-9) over 50 cells x "
           f"200 polynomials per degree, {dt:.1f}s (cap 30s)")


def test_patch_polynomial_exactness(grid4, voronoi25):
    t0 = time.perf_counter()
    worst = 0.0
    for family in FAMILIES:
        for k in (2, 3):
            case = polynomial_case(k, k - 1, ModelParams(1.0, 1.0, 1.0),
                                   seed=12)
            for mesh in (grid4, voronoi25):
                rep = solve_patch(case, mesh, family, k, k - 1)
                m = max(rep.err_u_h2, rep.err_p_h1, rep.err_u_l2,
                        rep.err_p_l2)
                worst = max(worst, m)
    dt = time.perf_counter() - t0
    record(2, worst <= 1e-8 and dt < 60.0,
           f"max error component {worst:.2e} (tol 1e-8) on perturbed grid "
           f"and Voronoi mesh, {dt:.1f}s (cap 60s)")


def test_quadratic_rates(ex1_k2):
    runs, dt = ex1_k2
    ok = dt < 600.0
    bits = []
    for family in FAMILIES:
        lv = runs[family]
        hs = [r.mesh.h for r in lv]
        er = settled_rate(hs, [r.report.energy for r in lv])
        pr = settled_rate(hs, [r.report.err_p_h1 for r in lv])
        ok = ok and 0.85 <= er <= 1.15 and pr >= 0.8
        bits.append(f"{family.value}: energy {er:.3f}, pressure H1 {pr:.3f}")
    record(3, ok,
           "; ".join(bits) + " (need energy in [0.85,1.15], pressure >= 0.8)"
           f", {dt:.0f}s (cap 600s)")


def test_cubic_rates(ex1_k3):
    runs, dt = ex1_k3
    ok = dt < 1200.0
    bits = []
    for family in FAMILIES:
        lv = runs[family]
        er = settled_rate([r.mesh.h for r in lv], [r.report.energy for r in lv])
        ok = ok and 1.8 <= er <= 2.3
        bits.append(f"{family.value}: energy {er:.3f}")
    record(4, ok, "; ".join(bits) + f" (need [1.8,2.3]), {dt:.0f}s (cap 1200s)")


def test_corner_singularity_slopes(lshape_runs):
    uniform, adaptive, dt = lshape_runs
    err_u = np.array([lv.report.energy for lv in uniform])
    s_uni = fit_loglog_slope([lv.ndof for lv in uniform], err_u, tail=4)
    ok = abs(s_uni - (-1.0 / 3.0)) <= 0.10 + 1e-12 and dt < 900.0
    bits = [f"uniform {s_uni:.3f} (need -0.33 +/- 0.10)"]
    for family in FAMILIES:
        tr = adaptive[family]
        err = np.array([lv.report.energy for lv in tr])
        s_ad = fit_loglog_slope([lv.ndof for lv in tr], err, tail=4)
        ok = ok and abs(s_ad - (-0.5)) <= 0.10 + 1e-12
        bits.append(f"adaptive {family.value} {s_ad:.3f} (need -0.50 +/- 0.10)")
    record(5, ok, "; ".join(bits) + f", {dt:.0f}s (cap 900s)")


def test_estimator_reliability_efficiency(ex1_k2, lshape_runs):
    runs, _ = ex1_k2
    _, adaptive, _ = lshape_runs
    ok = True
    bits = []
    # The estimator carries a boundary-dominated transient on the coarsest
    # meshes (5-10 cells across), so its slope is compared with the error's
    # on the settled tail of each run.
    for family in FAMILIES:
        lv = runs[family]
        err = np.array([r.report.energy for r in lv])
        eta = np.array([r.est.eta for r in lv])
        eff = eta[-5:] / err[-5:]
        ratio = eff.max() / eff.min()
        hs = np.array([r.mesh.h for r in lv])
        gap = abs(fit_loglog_slope(hs, eta, tail=3)
                  - fit_loglog_slope(hs, err, tail=3))
        ok = ok and ratio <= 3.0 and gap <= 0.2
        bits.append(f"smooth {family.value}: eff ratio {ratio:.2f}, "
                    f"rate gap {gap:.2f}")
    for family in FAMILIES:
        tr = adaptive[family]
        err = np.array([lv.report.energy for lv in tr])
        ndofs, etas = [lv.ndof for lv in tr], np.array([lv.est.eta for lv in tr])
        eff = etas[-5:] / err[-5:]
        ratio = eff.max() / eff.min()
        gap = abs(fit_loglog_slope(ndofs, etas, tail=3)
                  - fit_loglog_slope(ndofs, err, tail=3))
        ok = ok and ratio <= 3.0 and gap <= 0.2
        bits.append(f"corner {family.value}: eff ratio {ratio:.2f}, "
                    f"rate gap {gap:.2f}")
    record(6, ok, "; ".join(bits) + " (need ratio <= 3, gap <= 0.2)")


def test_extreme_parameter_rates():
    t0 = time.perf_counter()
    case = get_case("smooth", params=ModelParams(1e-6, 1e6, 1e6))
    ok = True
    bits = []
    for family in FAMILIES:
        meshes = voronoi_ladder(case, COUNTS_K2, seed=3)
        lv = run_convergence(case, meshes, family, 2, 1)
        hs = [r.mesh.h for r in lv]
        er = settled_rate(hs, [r.report.energy for r in lv])
        pr = settled_rate(hs, [r.report.err_p_h1 for r in lv])
        ok = ok and 0.85 <= er <= 1.15 and pr >= 0.8
        bits.append(f"{family.value}: energy {er:.3f}, pressure H1 {pr:.3f}")
    dt = time.perf_counter() - t0
    record(7, ok and dt < 600.0,
           "alpha=1e-6, beta=gamma=1e6; " + "; ".join(bits)
           + f" (same brackets), {dt:.0f}s (cap 600s)")


def test_local_operators_match_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    worst = 0.0

    def rel(a, b):
        return float(np.abs(a - b).max()) / max(float(np.abs(b).max()), 1e-30)

    for i in range(10):
        mesh = generate_voronoi(12 + 3 * i, seed=100 + 7 * i,
                                lloyd_iters=i % 4)
        cell = int(rng.integers(mesh.ncells))
        family = FAMILIES[i % 2]
        k, l = (2, 1) if i % 3 else (3, 2)
        params = ModelParams(*(0.25 + rng.uniform(0.0, 2.0, size=3)))
        space_u = SpaceKind("deflection", family, k)
        space_p = SpaceKind("pressure", family, l)
        op = build_element(mesh, cell, space_u, space_p, params)
        oo = oracle_element(mesh, cell, space_u, space_p, params)
        worst = max(worst, rel(op.A1, oo.A1), rel(op.B, oo.B),
                    rel(op.A3, oo.A3))
        worst = max(worst, rel(op.defl.pd, oo.defl.pd),
                    rel(op.defl.l2, oo.defl.l2), rel(op.defl.D, oo.defl.D))
        for j in range(3):
            worst = max(worst, rel(op.defl.hess[j], oo.defl.hess[j]))
        for g in oo.defl.grads:
            worst = max(worst, rel(op.defl.grads[g][0], oo.defl.grads[g][0]),
                        rel(op.defl.grads[g][1], oo.defl.grads[g][1]))
        for d in oo.defl.pg:
            worst = max(worst, rel(op.defl.pg[d], oo.defl.pg[d]))
        worst = max(worst, rel(op.pres.pd, oo.pres.pd),
                    rel(op.pres.l2, oo.pres.l2), rel(op.pres.D, oo.pres.D))
        for g in oo.pres.grads:
            worst = max(worst, rel(op.pres.grads[g][0], oo.pres.grads[g][0]),
                        rel(op.pres.grads[g][1], oo.pres.grads[g][1]))
        for d in oo.pres.pg:
            worst = max(worst, rel(op.pres.pg[d], oo.pres.pg[d]))
    dt = time.perf_counter() - t0
    record(8, worst <= 1e-9,
           f"max relative defect {worst:.2e} (tol 1e-9) over 10 elements "
           f"vs dense oracle, {dt:.1f}s")


def test_repeated_runs_are_deterministic(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "case": "smooth", "family": "nonconforming", "k": 2, "l": 1,
        "mesh": {"kind": "voronoi", "n0": 25, "lloyd": 3},
        "levels": 2, "seed": 5}))
    outputs = {}
    for run in (1, 2):
        out = tmp_path / f"run{run}"
        assert cli_main(["convergence", "--config", str(cfg),
                         "--out", str(out)]) == 0
        outputs[run] = out
    worst = 0.0
    for name in ("rates.csv", "levels.csv"):
        rows = {}
        for run, out in outputs.items():
            lines = (out / name).read_text().splitlines()
            rows[run] = list(csv.reader(lines[1:]))
        assert len(rows[1]) == len(rows[2])
        for ra, rb in zip(rows[1], rows[2]):
            for a, b in zip(ra, rb):
                try:
                    fa, fb = float(a), float(b)
                except ValueError:
                    assert a == b
                    continue
                scale = max(abs(fa), abs(fb), 1e-30)
                worst = max(worst, abs(fa - fb) / scale)
    dt = time.perf_counter() - t0
    record(9, worst <= 1e-12,
           f"two runs of one config: max relative CSV difference {worst:.2e} "
           f"(tol 1e-12), {dt:.1f}s")
