"""Degrees of freedom for the deflection and pressure element families.

Four families are supported, each parameterized by its polynomial degree:

deflection, conforming (k >= 2)
    vertex values; scaled vertex gradients h_V grad v(V); edge moments of
    the normal derivative against M_{k-3}(e); scaled edge moments of the
    value against M_{k-4}(e); scaled cell moments against M_{k-4}(K).

deflection, nonconforming (k >= 2)
    vertex values; edge moments of the normal derivative against
    M_{k-2}(e); scaled edge moments of the value against M_{k-3}(e);
    scaled cell moments against M_{k-4}(K).

pressure, conforming (l >= 1)
    vertex values; scaled edge moments against M_{l-2}(e); scaled cell
    moments against M_{l-2}(K).

pressure, nonconforming (l >= 1)
    scaled edge moments against M_{l-1}(e); scaled cell moments against
    M_{l-2}(K).

Edge quantities always refer to the canonical edge frame of the mesh, so
a shared degree of freedom has the same value seen from both cells.
Scaled moments are averages (divided by edge length or cell area), which
keeps every degree of freedom dimensionless and makes the plain dof-dof
Euclidean product a legitimate stabilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .mesh import ANGLE_TOL, CLAMPED, SIMPLY_SUPPORTED, PolygonalMesh, size_groups
from .quadrature import (PowerTable, edge_rule, fan_is_star, map_triangles, pointwise,
                         poly_dim, polygon_triangles)


class Family(Enum):
    CONFORMING = "conforming"
    NONCONFORMING = "nonconforming"


@dataclass(frozen=True)
class SpaceKind:
    """One discrete family: which field, which continuity, which degree."""

    field: str                # "deflection" or "pressure"
    family: Family
    degree: int

    def __post_init__(self):
        if self.field not in ("deflection", "pressure"):
            raise ValueError(f"unknown field {self.field!r}")
        if self.field == "deflection" and self.degree < 2:
            raise ValueError("deflection spaces need degree >= 2")
        if self.field == "pressure" and self.degree < 1:
            raise ValueError("pressure spaces need degree >= 1")

    # counts per entity -------------------------------------------------
    @property
    def n_vertex(self) -> int:
        if self.field == "deflection":
            return 3 if self.family is Family.CONFORMING else 1
        return 1 if self.family is Family.CONFORMING else 0

    @property
    def n_edge_normal(self) -> int:
        if self.field != "deflection":
            return 0
        k = self.degree
        return k - 2 if self.family is Family.CONFORMING else k - 1

    @property
    def n_edge_value(self) -> int:
        if self.field == "deflection":
            k = self.degree
            return max(k - 3, 0) if self.family is Family.CONFORMING else max(k - 2, 0)
        l = self.degree
        return max(l - 1, 0) if self.family is Family.CONFORMING else l

    @property
    def n_edge(self) -> int:
        return self.n_edge_normal + self.n_edge_value

    @property
    def n_cell(self) -> int:
        if self.field == "deflection":
            return poly_dim(self.degree - 4)
        return poly_dim(self.degree - 2)


class DofLayout:
    """Positions of a cell's dofs in its local vector, for cells of nverts
    vertices.

    Per entity the dofs come in one fixed order, locally and globally:
    the value and the scaled gradient pair of a vertex, the normal moments
    and then the value moments of an edge.  Locally, the values of all
    vertices (traversal order) come first, then their gradient pairs, the
    normal moments of every edge, the value moments of every edge, and the
    cell moments.  ``vertex`` (nverts, n_vertex) and ``edge`` (nverts,
    n_edge) hold the positions per entity; ``iv`` (values), ``igrad``,
    ``inorm``, ``ival`` (per vertex or edge) and ``icell`` split them by
    kind, and vsel, gsel, nsel, valsel, csel are the matching rows of the
    identity.
    """

    def __init__(self, space: SpaceKind, nverts: int):
        n = nverts
        sizes = [n * min(space.n_vertex, 1), n * max(space.n_vertex - 1, 0),
                 n * space.n_edge_normal, n * space.n_edge_value, space.n_cell]
        self.ndof = sum(sizes)
        self.iv, grads, normals, moments, self.icell = np.split(
            np.arange(self.ndof), np.cumsum(sizes)[:-1])
        self.igrad, self.inorm, self.ival = (b.reshape(n, -1) for b in (grads, normals, moments))
        self.vertex = np.column_stack([self.iv.reshape(n, -1), self.igrad])
        self.edge = np.column_stack([self.inorm, self.ival])
        eye = np.eye(self.ndof)
        self.vsel, self.gsel, self.nsel, self.valsel, self.csel = (
            eye[i] for i in (self.iv, self.igrad, self.inorm, self.ival, self.icell))


@dataclass(frozen=True)
class DofMap:
    """Global numbering of one space on one mesh: the vertex block, the
    edge block and the cell block, each entity's dofs contiguous in the
    per-entity order of ``DofLayout``."""

    space: SpaceKind
    nvertices: int
    nedges: int
    ncells: int

    @property
    def edge_base(self) -> int:
        return self.space.n_vertex * self.nvertices

    @property
    def cell_base(self) -> int:
        return self.edge_base + self.space.n_edge * self.nedges

    @property
    def ndof(self) -> int:
        return self.cell_base + self.space.n_cell * self.ncells

    def table(self, verts: np.ndarray, edges: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Global dofs (m, local ndof) of m cells with the same vertex
        count, from their vertex and edge ids (m, nverts) in traversal
        order and their cell ids (m,)."""
        space = self.space
        lay = DofLayout(space, verts.shape[1])
        out = np.empty((len(cells), lay.ndof), dtype=np.int64)
        out[:, lay.vertex] = space.n_vertex * verts[..., None] + np.arange(space.n_vertex)
        out[:, lay.edge] = self.edge_base + space.n_edge * edges[..., None] \
            + np.arange(space.n_edge)
        out[:, lay.icell] = self.cell_base + space.n_cell * cells[:, None] \
            + np.arange(space.n_cell)
        return out


def build_dof_map(mesh: PolygonalMesh, space: SpaceKind) -> DofMap:
    """Number the global degrees of freedom: vertex block, edge block, cell block."""
    return DofMap(space, mesh.nvertices, mesh.nedges, mesh.ncells)


@dataclass(frozen=True)
class Constraints:
    """Essential boundary conditions as a value: which dofs are fixed, and
    a lift that holds their values and is zero on the free dofs."""

    fixed: np.ndarray     # (ndof,) bool
    lift: np.ndarray      # (ndof,)

    def __post_init__(self):
        self.fixed.setflags(write=False)
        self.lift.setflags(write=False)

    @staticmethod
    def join(*parts: Constraints) -> Constraints:
        """Constraints of the block system whose fields come in this order."""
        return Constraints(np.concatenate([p.fixed for p in parts]),
                           np.concatenate([p.lift for p in parts]))


# ---------------------------------------------------------------------------
# dof functionals of analytic functions, one block at a time; moments are
# integrated exactly up to degree 2 * degree + 4


def _vertex_block(mesh: PolygonalMesh, space: SpaceKind, value: Callable,
                  grad: Callable, verts: np.ndarray) -> np.ndarray:
    """(len(verts), n_vertex): value and scaled gradient at each vertex."""
    pts = mesh.vertices[verts]
    if space.n_vertex == 0:
        return np.zeros((len(verts), 0))
    cols = [np.asarray(value(pts))[:, None]]
    if space.n_vertex == 3:
        cols.append(mesh.vertex_char_length[verts, None] * np.asarray(grad(pts)))
    return np.column_stack(cols)


def _edge_block(mesh: PolygonalMesh, space: SpaceKind, value: Callable,
                grad: Callable, edges: np.ndarray) -> np.ndarray:
    """(len(edges), n_edge): normal moments, then scaled value moments."""
    ends = mesh.vertices[mesh.edge_verts[edges]]
    pts, weights = edge_rule(ends[:, 0], ends[:, 1], 2 * space.degree + 4)
    length = mesh.edge_length[edges, None]
    s = ((pts - mesh.edge_mid[edges, None, :]) @ mesh.edge_tangent[edges, :, None])[..., 0] \
        / length
    cols = []
    if space.n_edge_normal:
        gn = (pointwise(grad, pts) @ mesh.edge_normal[edges, :, None])[..., 0]
        cols += [(weights * gn * s ** m).sum(axis=-1) for m in range(space.n_edge_normal)]
    if space.n_edge_value:
        vals = pointwise(value, pts)
        cols += [(weights * vals * s ** m).sum(axis=-1) / length[:, 0]
                 for m in range(space.n_edge_value)]
    return np.array(cols).reshape(space.n_edge, len(edges)).T


def _cell_block(mesh: PolygonalMesh, space: SpaceKind, value: Callable) -> np.ndarray:
    """(ncells, n_cell): scaled cell moments, one data call per vertex
    count and triangulation (centroid fan or ear clipping)."""
    out = np.zeros((mesh.ncells, space.n_cell))
    if space.n_cell == 0:
        return out
    for cells, slots in size_groups(mesh.cell_ptr):
        coords = mesh.vertices[mesh.cell_verts[slots]]
        star = fan_is_star(coords, mesh.centroids[cells])
        for part in (star, ~star):
            if not part.any():
                continue
            c, center = cells[part], mesh.centroids[cells[part]]
            tris = polygon_triangles(coords[part], center)
            pts, w = map_triangles(tris, 2 * space.degree + 4)
            mono = PowerTable.at(pts, center, mesh.diameters[c],
                                 space.degree).gather()[..., :space.n_cell]
            wv = w * pointwise(value, pts)
            # C order keeps each sum over one contiguous row, so every cell
            # sums its moments as its own rule alone would
            out[c] = np.multiply(wv[:, None, :], mono.swapaxes(1, 2), order="C").sum(axis=-1) \
                / mesh.areas[c, None]
    return out


def interpolate(mesh: PolygonalMesh, dofmap: DofMap, value: Callable,
                grad: Callable | None = None) -> np.ndarray:
    """Dof vector of an analytic function, block by block."""
    space = dofmap.space
    if grad is None and (space.n_vertex == 3 or space.n_edge_normal):
        raise ValueError("gradient data required for vertex gradients and normal moments")
    blocks = [_vertex_block(mesh, space, value, grad, np.arange(mesh.nvertices)),
              _edge_block(mesh, space, value, grad, np.arange(mesh.nedges)),
              _cell_block(mesh, space, value)]
    return np.concatenate([b.ravel() for b in blocks])


# ---------------------------------------------------------------------------
# essential boundary conditions


def pressure_is_dirichlet(mesh: PolygonalMesh,
                          pressure_dirichlet_on_clamped: bool) -> np.ndarray:
    """(nedges,) whether each edge carries Dirichlet pressure data: simply
    supported edges always, clamped ones when the flag is set.  The other
    boundary edges carry the natural flux condition."""
    return (mesh.edge_label == SIMPLY_SUPPORTED) | (
        pressure_dirichlet_on_clamped & (mesh.edge_label == CLAMPED))


def apply_essential_bc(dofmap: DofMap, mesh: PolygonalMesh, *,
                       value: Callable | None = None,
                       grad: Callable | None = None,
                       pressure_dirichlet_on_clamped: bool = False) -> Constraints:
    """The constrained boundary degrees of freedom and their values.

    Deflection: the value trace is constrained on the whole boundary
    (vertex values plus edge value moments); normal-derivative data is
    constrained on clamped edges only (vertex gradients for the conforming
    family, edge normal moments otherwise).  A conforming boundary vertex
    surrounded by simply supported edges gets both gradient components
    constrained when its two boundary edges are not collinear, because the
    value trace pins the tangential derivative along two independent
    directions there; at a straight (pi-angle) boundary vertex the gradient
    stays free.

    Pressure: Dirichlet data on simply supported edges, extended to clamped
    edges when pressure_dirichlet_on_clamped is set.

    Omitted value data is homogeneous, and omitted gradient data zero.
    """
    space = dofmap.space
    grad_vertices = np.zeros(mesh.nvertices, dtype=bool)
    if space.field == "deflection":
        dirichlet_edges = mesh.on_boundary
        normal_edges = mesh.edge_label == CLAMPED
        if space.family is Family.CONFORMING:
            bnd = np.flatnonzero(dirichlet_edges)
            ends = mesh.edge_verts[bnd].ravel()      # both ends of each boundary edge
            grad_vertices[ends[np.repeat(normal_edges[bnd], 2)]] = True
            # corners of the simply supported part: vertices whose two
            # boundary edges are not collinear
            by_vertex = np.argsort(ends, kind="stable")
            by_vertex = by_vertex[np.bincount(ends)[ends[by_vertex]] == 2]
            t = mesh.edge_tangent[bnd[by_vertex // 2]].reshape(-1, 2, 2)
            cross = t[:, 0, 0] * t[:, 1, 1] - t[:, 0, 1] * t[:, 1, 0]
            grad_vertices[ends[by_vertex[0::2]][np.abs(cross) > ANGLE_TOL]] = True
    else:
        dirichlet_edges = pressure_is_dirichlet(mesh, pressure_dirichlet_on_clamped)
        normal_edges = np.zeros(mesh.nedges, dtype=bool)
    dirichlet_vertices = np.zeros(mesh.nvertices, dtype=bool)
    dirichlet_vertices[mesh.edge_verts[dirichlet_edges].ravel()] = True

    vertex_fixed = np.column_stack([dirichlet_vertices, grad_vertices, grad_vertices])
    vertex_fixed = vertex_fixed[:, :space.n_vertex]
    edge_fixed = np.repeat(np.column_stack([normal_edges, dirichlet_edges]),
                           [space.n_edge_normal, space.n_edge_value], axis=1)
    fixed = np.concatenate([vertex_fixed.ravel(), edge_fixed.ravel(),
                            np.zeros(space.n_cell * mesh.ncells, dtype=bool)])
    lift = np.zeros(dofmap.ndof)
    if value is not None:
        grad = grad or (lambda pts: np.zeros((len(pts), 2)))
        verts = np.flatnonzero(vertex_fixed.any(axis=1))
        edges = np.flatnonzero(edge_fixed.any(axis=1))
        lift[space.n_vertex * verts[:, None] + np.arange(space.n_vertex)] = \
            _vertex_block(mesh, space, value, grad, verts)
        lift[dofmap.edge_base + space.n_edge * edges[:, None] + np.arange(space.n_edge)] = \
            _edge_block(mesh, space, value, grad, edges)
    return Constraints(fixed, np.where(fixed, lift, 0.0))
