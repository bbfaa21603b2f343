"""Bulk marking and the solve -> estimate -> mark -> refine loop."""

from __future__ import annotations

import numpy as np

from .manufactured import ManufacturedCase
from .mesh import PolygonalMesh, refine
from .runner import LevelResult, constrained_system, solve_level
from .spaces import SpaceKind


def dorfler_mark(eta2, theta: float) -> list[int]:
    """Smallest set of cells carrying a theta-fraction of the squared total.

    Cells are ranked by their squared contribution, largest first, ties
    broken by cell id; the returned ids form the shortest prefix whose sum
    reaches theta times the total.  A non-finite indicator, the trace of a
    failed solve, is rejected.
    """
    eta2 = np.asarray(eta2, dtype=np.float64)
    if eta2.size == 0:
        raise ValueError("empty estimator list")
    bad = np.flatnonzero(~np.isfinite(eta2))
    if bad.size:
        raise ValueError(f"estimator of cell {bad[0]} is not finite ({eta2[bad[0]]})")
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


def adaptive_loop(case: ManufacturedCase, mesh: PolygonalMesh,
                  space_u: SpaceKind, space_p: SpaceKind,
                  theta: float, max_levels: int) -> list[LevelResult]:
    """Iterate solve/estimate/mark/refine on one manufactured case.

    Marks a theta-fraction of the squared estimator (theta = 1 reproduces
    uniform refinement) and stops after max_levels levels or once the
    estimator is zero.  Each level's system is released before the next
    one is assembled.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    if max_levels < 1:
        raise ValueError("need at least one level")
    levels: list[LevelResult] = []
    for level in range(max_levels):
        result = solve_level(case, *constrained_system(case, mesh, (space_u, space_p)))
        levels.append(result)
        if level == max_levels - 1 or result.est.eta <= 0.0:
            break
        marked = dorfler_mark(result.est.cell_eta2, theta)
        result.marked = len(marked)
        mesh = refine(mesh, marked)
    return levels
