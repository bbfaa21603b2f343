"""Experiment drivers shared by the command line and the test suite.

Every experiment runs one level pipeline: assemble the system of a
manufactured case on one mesh and build its essential boundary values as
a ``Constraints`` value (``constrained_system``), then assemble the case
loads, factor once with those constraints, solve, and measure the error
norms and the estimator in one pass (``solve_level``); the loads and that
pass read the case itself.  A solved level is one ``LevelResult``, from
the solve to the CSV row.  On top of the pipeline sit the uniform
convergence ladders and the two-step time discretisation where previous
states feed the right-hand side through their projected polynomial
representations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import (AssembledSystem, CsrMatrix, CsrPlan, assemble_rhs,
                       assemble_system, factor_system)
from .estimator import EstimatorReport, measure
from .manufactured import ErrorReport, ManufacturedCase
from .mesh import PolygonalMesh, generate_voronoi
from .quadrature import poly_dim
from .spaces import Constraints, Family, SpaceKind, apply_essential_bc


def spaces_for(family: Family, k: int, l: int) -> tuple[SpaceKind, SpaceKind]:
    return (SpaceKind("deflection", family, k), SpaceKind("pressure", family, l))


# ---------------------------------------------------------------------------
# mesh ladders


def voronoi_ladder(case: ManufacturedCase, counts, seed: int = 0,
                   lloyd_iters: int = 5) -> list[PolygonalMesh]:
    """Independent smoothed Voronoi meshes of the requested cell counts."""
    return [generate_voronoi(int(n), lloyd_iters=lloyd_iters,
                             seed=seed + 101 * j, labeler=case.labeler)
            for j, n in enumerate(counts)]


# ---------------------------------------------------------------------------
# the level pipeline


def constrained_system(case: ManufacturedCase, mesh: PolygonalMesh,
                       spaces: tuple[SpaceKind, SpaceKind]
                       ) -> tuple[AssembledSystem, Constraints]:
    """The case's operator on one mesh and its essential boundary values,
    which every solve of that operator takes."""
    space_u, space_p = spaces
    system = assemble_system(mesh, space_u, space_p, case.params,
                             singular_cells=case.singular_cells(mesh))
    return system, Constraints.join(
        apply_essential_bc(system.dof_u, mesh, value=case.u, grad=case.grad_u),
        apply_essential_bc(system.dof_p, mesh, value=case.p,
                           pressure_dirichlet_on_clamped=case.pressure_dirichlet_on_clamped))


@dataclass
class LevelResult:
    """One solved level; `solve` is its ``FactoredSystem.record`` and
    `marked` counts the cells refined after it."""
    mesh: PolygonalMesh
    ndof: int
    report: ErrorReport
    est: EstimatorReport
    solve: dict
    marked: int = 0


def solve_level(case: ManufacturedCase, system: AssembledSystem,
                constraints: Constraints) -> LevelResult:
    """Solve the case under its constraints, then measure the solution.
    The load is assembled before the factor and the factor is dropped
    before the measuring pass, so the LU factors are never alive together
    with the quadrature temporaries of the load or of that pass."""
    F = assemble_rhs(system, case)
    factored = factor_system(system, constraints)
    U, P = factored.solve(F)
    solve = factored.record
    del F, factored
    report, est = measure(system, U, P, case)
    return LevelResult(system.mesh, system.ndof, report, est, solve)


# ---------------------------------------------------------------------------
# uniform convergence studies


def run_convergence(case: ManufacturedCase, meshes, family: Family,
                    k: int, l: int) -> list[LevelResult]:
    spaces = spaces_for(family, k, l)
    return [solve_level(case, *constrained_system(case, mesh, spaces)) for mesh in meshes]


def fit_loglog_slope(x, y, tail: int = 4) -> float:
    """Least-squares slope of log y against log x over the last tail points;
    a line needs at least two."""
    if tail < 2:
        raise ValueError(f"a slope needs at least two points, got a tail of {tail}")
    x = np.asarray(x, dtype=np.float64)[-tail:]
    y = np.asarray(y, dtype=np.float64)[-tail:]
    if len(x) < 2:
        raise ValueError(f"a slope needs at least two points, got {len(x)}")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


# ---------------------------------------------------------------------------
# time stepping


def assemble_projected_mass(system: AssembledSystem) -> CsrMatrix:
    """Block-diagonal mass actions (Pi_k ., Pi_k .) for both fields.

    Previous-step states multiply this operator when they enter the next
    right-hand side, so only their projected polynomial parts are carried
    forward.
    """
    nk = poly_dim(system.space_u.degree)
    nl = poly_dim(system.space_p.degree)
    plan = CsrPlan(system.ndof, [pair for g in system.groups
                                 for pair in ((g.dofs_u, g.dofs_u), (g.dofs_p, g.dofs_p))])
    for i, g in enumerate(system.groups):
        plan.write(2 * i, g.defl.l2.swapaxes(1, 2) @ g.ctx.H[:, :nk, :nk] @ g.defl.l2)
        plan.write(2 * i + 1, g.pres.l2.swapaxes(1, 2) @ g.ctx.H[:, :nl, :nl] @ g.pres.l2)
    return plan.matrix()


def timestep_driver(system: AssembledSystem, constraints: Constraints,
                    case: ManufacturedCase, M: CsrMatrix, *,
                    steps: int) -> tuple[list[tuple[np.ndarray, np.ndarray]], dict]:
    """March the one-step system with unit time step from rest: the (U, P)
    of every step, and the record of the one factorization, with the
    largest residual of all steps.

    Each step solves the static system with the load F + M [2 u_n - u_{n-1},
    p_n], where F is the case's load, assembled once, and M the projected
    mass of ``assemble_projected_mass``; so the previous states act through
    their projections.  The operator is factored once, and the boundary
    values of the constraints are held fixed over the march.
    """
    F = assemble_rhs(system, case)
    factored = factor_system(system, constraints)
    un = um1 = np.zeros(system.dof_u.ndof)
    pn = np.zeros(system.dof_p.ndof)
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(steps):
        U, P = factored.solve(F + M @ np.concatenate([2.0 * un - um1, pn]))
        out.append((U, P))
        um1, un, pn = un, U, P
    return out, factored.record
