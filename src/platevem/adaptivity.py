"""Bulk marking and the solve -> estimate -> mark -> refine loop."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .manufactured import ErrorReport, ManufacturedCase
from .mesh import PolygonalMesh, refine
from .runner import constrained_system, solve_level
from .spaces import SpaceKind


@dataclass(frozen=True)
class MarkingConfig:
    """Bulk parameter, level cap, and optional stopping tolerance."""
    theta: float = 0.5
    max_levels: int = 12
    eta_tol: float = 0.0

    def validate(self) -> None:
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")
        if self.max_levels < 1:
            raise ValueError("need at least one level")


def dorfler_mark(eta2, theta: float) -> list[int]:
    """Smallest set of cells carrying a theta-fraction of the squared total.

    Cells are ranked by their squared contribution, largest first, ties
    broken by cell id; the returned ids form the shortest prefix whose sum
    reaches theta times the total.
    """
    eta2 = np.asarray(eta2, dtype=np.float64)
    if eta2.size == 0:
        raise ValueError("empty estimator list")
    total = float(eta2.sum())
    if total <= 0.0:
        return []
    ids = np.arange(eta2.size)
    order = np.lexsort((ids, -eta2))
    csum = np.cumsum(eta2[order])
    target = theta * total
    m = int(np.searchsorted(csum, target * (1.0 - 1e-12)) + 1)
    m = min(m, eta2.size)
    return sorted(int(c) for c in order[:m])


@dataclass
class AdaptiveLevel:
    level: int
    ncells: int
    h: float
    ndof: int
    eta: float
    components2: np.ndarray
    cell_eta2: np.ndarray
    report: ErrorReport
    n_marked: int


@dataclass
class AdaptiveTrace:
    levels: list[AdaptiveLevel] = field(default_factory=list)
    meshes: list[PolygonalMesh] = field(default_factory=list)

    @property
    def ndofs(self) -> np.ndarray:
        return np.array([lv.ndof for lv in self.levels])

    @property
    def etas(self) -> np.ndarray:
        return np.array([lv.eta for lv in self.levels])

    @property
    def energies(self) -> np.ndarray:
        return np.array([lv.report.energy for lv in self.levels])


def adaptive_loop(case: ManufacturedCase, mesh: PolygonalMesh,
                  space_u: SpaceKind, space_p: SpaceKind,
                  marking: MarkingConfig, *,
                  solver: str = "direct",
                  keep_meshes: bool = False) -> AdaptiveTrace:
    """Iterate solve/estimate/mark/refine on one manufactured case.

    Stops at the level cap or once the global estimator drops below the
    configured tolerance; theta = 1 reproduces uniform refinement.
    """
    marking.validate()
    trace = AdaptiveTrace()
    for level in range(marking.max_levels):
        system, constraints = constrained_system(case, mesh, (space_u, space_p))
        result = solve_level(case, system, constraints, solver=solver)
        est = result.est
        if keep_meshes:
            trace.meshes.append(mesh)

        last = level == marking.max_levels - 1 or est.eta <= marking.eta_tol
        marked = [] if last else dorfler_mark(est.cell_eta2, marking.theta)
        trace.levels.append(AdaptiveLevel(
            level, mesh.ncells, mesh.h, result.ndof, est.eta,
            est.components2, est.cell_eta2, result.report,
            len(marked)))
        if last:
            break
        mesh = refine(mesh, marked)
    return trace
