"""One cell's element operators and one polygon's rule, built through the
package's stacked paths: a one-cell ``CellGroup`` through the element build
of ``assemble_system``, and the triangulation ``CellGroup.rule`` lays its
rule on.  Tests compare them against the dense oracle and against the
stacked arrays of a level.  ``solve_patch`` solves a level whose data the
assembled operator synthesizes itself.  ``qhull_voronoi`` builds a
Voronoi mesh an independent way, through qhull on mirrored seeds, and
``coo_scatter`` sums local blocks the textbook way, through ``triplets``;
``to_scipy`` and ``from_scipy`` carry the package's CSC value to scipy
and back.  ``perturbed_grid`` jitters the interior vertices of a
structured grid."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from platevem.assembly import CscMatrix, _group_forms, factor_system
from platevem.estimator import measure
from platevem.manufactured import ErrorReport, ManufacturedCase
from platevem.mesh import PolygonalMesh, build_mesh, generate_structured
from platevem.projectors import CellGroup, ElementProjectors
from platevem.quadrature import (map_triangles, polygon_area_centroid, polygon_triangles,
                                 subdivide_triangles)
from platevem.runner import constrained_system, spaces_for
from platevem.spaces import Family, interpolate


def cell_view(P: ElementProjectors, i: int) -> ElementProjectors:
    """Cell i of stacked projectors, each array without its cell axis."""
    return ElementProjectors(
        P.ndof, P.D[i], P.pd[i], P.l2[i],
        {g: (gx[i], gy[i]) for g, (gx, gy) in P.grads.items()},
        None if P.hess is None else tuple(h[i] for h in P.hess),
        {d: M[i] for d, M in P.pg.items()},
        None if P.normal_moments is None else P.normal_moments[i],
        P.value_moments[i])


@dataclass
class ElementOperators:
    """The projectors and local matrices of one cell."""
    defl: ElementProjectors
    pres: ElementProjectors
    A1: np.ndarray
    B: np.ndarray
    A3: np.ndarray


def build_element(mesh, cell, space_u, space_p, params) -> ElementOperators:
    """One cell's operators, built as a group of one."""
    group = CellGroup(mesh, [cell], max(space_u.degree, space_p.degree))
    P_u, P_p, A1, B, A3 = _group_forms(group, space_u, space_p, params)
    return ElementOperators(cell_view(P_u, 0), cell_view(P_p, 0), A1[0], B[0], A3[0])


def polygon_rule(coords, order: int, subdivide: int = 0):
    """Points (n, 2) and weights (n,) on one polygon, exact for degree <=
    order, on its triangles split 4^subdivide-fold."""
    _, centroid = polygon_area_centroid(coords)
    tris = subdivide_triangles(polygon_triangles(coords, centroid), subdivide)
    return map_triangles(tris, order)


def solve_patch(case: ManufacturedCase, mesh: PolygonalMesh, family: Family,
                k: int, l: int) -> ErrorReport:
    """Solve with data synthesized by the assembled operator itself.

    The right-hand side is the operator applied to the interpolant of the
    exact polynomial pair, so the discrete solution must reproduce that
    interpolant exactly; any deviation points at the assembly, scatter,
    boundary, or solve stages.
    """
    system, constraints = constrained_system(case, mesh, spaces_for(family, k, l))
    UI = interpolate(mesh, system.dof_u, case.u, case.grad_u)
    PI = interpolate(mesh, system.dof_p, case.p)
    U, P = factor_system(system, constraints).solve(system.K @ np.concatenate([UI, PI]))
    return measure(system, U, P, case)[0]


def to_scipy(K: CscMatrix) -> sp.csc_matrix:
    """scipy's CSC matrix on the arrays of K."""
    return sp.csc_matrix((K.data, K.indices, K.indptr), shape=K.shape)


def from_scipy(A: sp.spmatrix) -> CscMatrix:
    """The canonical CSC arrays of a scipy matrix as the package's CSC value."""
    A = sp.csc_matrix(A)
    A.sum_duplicates()
    return CscMatrix(A.data, A.indices, A.indptr, A.shape)


def triplets(n: int, blocks) -> sp.coo_matrix:
    """Stacked local blocks (row dofs (m, r), col dofs (m, c), values
    (m, r, c)) as one COO matrix of (row, col, value) triplets in block
    order, int32 indices while n fits."""
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    rows = np.concatenate([np.broadcast_to(r[:, :, None], v.shape).ravel()
                           for r, _, v in blocks]).astype(index)
    cols = np.concatenate([np.broadcast_to(c[:, None, :], v.shape).ravel()
                           for _, c, v in blocks]).astype(index)
    vals = np.concatenate([v.ravel() for _, _, v in blocks])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n))


def coo_scatter(n: int, blocks) -> sp.csc_matrix:
    """The blocks' triplets summed the textbook way, each added into its
    entry in turn, so that every sum of duplicates has a defined order; the
    pattern is ``tocsc``'s.  The reference for ``assembly.CscPlan``."""
    coo = triplets(n, blocks)
    A = coo.tocsc()
    # tocsc adds duplicates in the order std::sort leaves them in
    entries = np.repeat(np.arange(n, dtype=np.int64), np.diff(A.indptr)) * n + A.indices
    A.data[:] = 0.0
    np.add.at(A.data, np.searchsorted(entries, coo.col.astype(np.int64) * n + coo.row),
              coo.data)
    return A


def qhull_voronoi(pts: np.ndarray, domain) -> tuple[PolygonalMesh, np.ndarray]:
    """The Voronoi mesh of the seeds pts within the box domain, from qhull,
    and the distance from each vertex to the farthest corner merged into it.

    Each seed is mirrored across the four sides moved out by a tenth of the
    box size, which bounds the seeds' regions without putting an image near
    any seed: an image closer than about 1e-8 of its seed costs qhull most
    of its digits.  The regions are clipped to the box, and their corners
    snapped onto the sides at generate_voronoi's tolerance, 1e-9 of the box
    size, and merged where chains of pairs within it join them: the
    connected components of a k-d tree's pairs.  A side cuts an edge where
    it crosses the edge's own line: the side it lies on, or the bisector of
    the seed pair of its qhull ridge, so that a side corner does not carry
    the rounding of the qhull vertices it lies between."""
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import Voronoi, cKDTree

    xmin, ymin, xmax, ymax = domain
    scale = max(xmax - xmin, ymax - ymin)
    margin = 0.1 * scale
    images = [pts]
    for axis, level in ((0, xmin - margin), (0, xmax + margin),
                        (1, ymin - margin), (1, ymax + margin)):
        image = pts.copy()
        image[:, axis] = 2 * level - pts[:, axis]
        images.append(image)
    vor = Voronoi(np.vstack(images))
    other = {}                      # (point, ridge's vertex pair) -> point across it
    for (p, q), ridge in zip(vor.ridge_points, vor.ridge_vertices):
        other[p, frozenset(ridge)] = q
        other[q, frozenset(ridge)] = p

    def cross(seed, line, axis, level):
        """The point of a line of the seed's region (the point across its
        bisector, or a side as (axis, level)) whose coordinate along axis
        is level."""
        cut = np.empty(2)
        cut[axis] = level
        if isinstance(line, tuple):             # the perpendicular side
            cut[1 - axis] = line[1]
        else:
            ps, pt = vor.points[seed], vor.points[line]
            normal = pt - ps
            cut[1 - axis] = (0.5 * normal @ (ps + pt) - normal[axis] * level) / normal[1 - axis]
        return cut

    cells = []
    for s, r in enumerate(vor.point_region[:len(pts)]):
        region = vor.regions[r]
        assert min(region) >= 0, "mirrored diagram should be bounded"
        if polygon_area_centroid(vor.vertices[region])[0] < 0:
            region = region[::-1]
        poly = vor.vertices[region]
        lines = [other[s, frozenset(e)] for e in zip(region, np.roll(region, -1))]
        for axis, level, sign in ((0, xmin, 1), (0, xmax, -1), (1, ymin, 1), (1, ymax, -1)):
            kept, kept_lines = [], []
            for a, b, line in zip(poly, np.roll(poly, -1, axis=0), lines):
                da, db = sign * (a[axis] - level), sign * (b[axis] - level)
                if da >= 0:
                    kept.append(a)
                    kept_lines.append(line)
                if (da >= 0) != (db >= 0):
                    kept.append(cross(s, line, axis, level))
                    kept_lines.append((axis, level) if da >= 0 else line)
            poly, lines = np.array(kept), kept_lines
        cells.append(poly)
    corners = np.concatenate(cells)
    tol = 1e-9 * scale
    for axis, (lo, hi) in enumerate([(xmin, xmax), (ymin, ymax)]):
        corners[np.abs(corners[:, axis] - lo) < tol, axis] = lo
        corners[np.abs(corners[:, axis] - hi) < tol, axis] = hi
    pairs = cKDTree(corners).query_pairs(tol, output_type="ndarray")
    _, ids = connected_components(sp.coo_matrix(
        (np.ones(len(pairs)), pairs.T), shape=(len(corners),) * 2), directed=False)
    _, first = np.unique(ids, return_index=True)
    spread = np.zeros(len(first))
    np.maximum.at(spread, ids, np.hypot(*(corners - corners[first][ids]).T))
    ids = np.split(ids, np.cumsum([len(c) for c in cells])[:-1])
    return build_mesh(corners[first], [[v for v, u in zip(c, np.roll(c, 1)) if v != u]
                                       for c in ids]), spread


def perturbed_grid(nx: int, ny: int, perturb: float, seed: int) -> PolygonalMesh:
    """The nx x ny grid of the unit square with each interior vertex moved
    by uniform draws in [-1, 1] times perturb times the smaller cell side."""
    grid = generate_structured(nx, ny)
    verts = grid.vertices.copy()
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-1.0, 1.0, size=verts.shape) * perturb * min(1.0 / nx, 1.0 / ny)
    interior = np.zeros((nx + 1, ny + 1), dtype=bool)
    interior[1:nx, 1:ny] = True
    interior = interior.ravel()
    verts[interior] += jitter[interior]
    return build_mesh(verts, grid.cell_verts.reshape(-1, 4))
