"""One cell's element operators and one polygon's rule, built through the
package's stacked paths: a one-cell ``CellGroup`` through the element build
of ``assemble_system``, and the triangulation ``CellGroup.rule`` lays its
rule on.  Tests compare them against the dense oracle and against the
stacked arrays of a level."""

from dataclasses import dataclass

import numpy as np

from platevem.assembly import _group_forms
from platevem.projectors import CellGroup, ElementProjectors
from platevem.quadrature import (map_triangles, polygon_area_centroid, polygon_triangles,
                                 subdivide_triangles)


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
