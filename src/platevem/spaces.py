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

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .mesh import ANGLE_TOL, CLAMPED, SIMPLY_SUPPORTED, PolygonalMesh, size_groups
from .quadrature import (ScaledMonomialBasis, edge_rule, poly_dim,
                         polygon_rule)


class Family(Enum):
    CONFORMING = "conforming"
    NONCONFORMING = "nonconforming"


class DofKind(Enum):
    VERTEX_VALUE = "vertex_value"
    VERTEX_GRAD_X = "vertex_grad_x"
    VERTEX_GRAD_Y = "vertex_grad_y"
    EDGE_NORMAL_MOMENT = "edge_normal_moment"
    EDGE_VALUE_MOMENT = "edge_value_moment"
    CELL_MOMENT = "cell_moment"


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
    def n_cell(self) -> int:
        if self.field == "deflection":
            return poly_dim(self.degree - 4)
        return poly_dim(self.degree - 2)


@dataclass(frozen=True)
class DofDescriptor:
    kind: DofKind
    entity: int       # vertex, edge, or cell id
    index: int = 0    # moment index within the entity


def local_dofs(space: SpaceKind, mesh: PolygonalMesh, cell: int) -> list[DofDescriptor]:
    """Descriptors of the cell's degrees of freedom in local order.

    Local order: vertex values (cell traversal order), vertex gradient
    pairs, per-edge normal moments, per-edge value moments, cell moments.
    """
    own = slice(mesh.cell_ptr[cell], mesh.cell_ptr[cell + 1])
    verts, edges = mesh.cell_verts[own].tolist(), mesh.cell_edge[own].tolist()
    out: list[DofDescriptor] = []
    if space.n_vertex >= 1:
        out += [DofDescriptor(DofKind.VERTEX_VALUE, v) for v in verts]
    if space.n_vertex == 3:
        for v in verts:
            out.append(DofDescriptor(DofKind.VERTEX_GRAD_X, v))
            out.append(DofDescriptor(DofKind.VERTEX_GRAD_Y, v))
    for eid in edges:
        out += [DofDescriptor(DofKind.EDGE_NORMAL_MOMENT, eid, m)
                for m in range(space.n_edge_normal)]
    for eid in edges:
        out += [DofDescriptor(DofKind.EDGE_VALUE_MOMENT, eid, m)
                for m in range(space.n_edge_value)]
    out += [DofDescriptor(DofKind.CELL_MOMENT, cell, m) for m in range(space.n_cell)]
    return out


@dataclass
class DofMap:
    space: SpaceKind
    ndof: int
    cell_dofs: list[np.ndarray]
    descriptors: list[DofDescriptor]
    constrained: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    values: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def nfree(self) -> int:
        return int((~self.constrained).sum())


def build_dof_map(mesh: PolygonalMesh, space: SpaceKind) -> DofMap:
    """Number the global degrees of freedom: vertex block, edge block, cell block."""
    nv_per = space.n_vertex
    n_norm, n_val, n_cell = space.n_edge_normal, space.n_edge_value, space.n_cell
    ne_per = n_norm + n_val
    vert_base = 0
    edge_base = vert_base + nv_per * mesh.nvertices
    cell_base = edge_base + ne_per * mesh.nedges
    ndof = cell_base + n_cell * mesh.ncells

    kinds = [DofKind.VERTEX_VALUE, DofKind.VERTEX_GRAD_X, DofKind.VERTEX_GRAD_Y][:nv_per]
    edge_kinds = [(DofKind.EDGE_NORMAL_MOMENT, m) for m in range(n_norm)] \
        + [(DofKind.EDGE_VALUE_MOMENT, m) for m in range(n_val)]
    descriptors = [DofDescriptor(kind, v)
                   for v in range(mesh.nvertices) for kind in kinds] \
        + [DofDescriptor(kind, e, m)
           for e in range(mesh.nedges) for kind, m in edge_kinds] \
        + [DofDescriptor(DofKind.CELL_MOMENT, c, m)
           for c in range(mesh.ncells) for m in range(n_cell)]

    # local order: vertex values, vertex gradient pairs, normal moments of
    # every edge, value moments of every edge, cell moments; one table per
    # vertex count
    cell_dofs: list[np.ndarray] = [None] * mesh.ncells  # type: ignore[list-item]
    for cells, slots in size_groups(mesh.cell_ptr):
        verts = vert_base + nv_per * mesh.cell_verts[slots][..., None]
        edges = edge_base + ne_per * mesh.cell_edge[slots][..., None]
        blocks = [verts + np.arange(min(nv_per, 1)), verts + np.arange(1, nv_per),
                  edges + np.arange(n_norm), edges + n_norm + np.arange(n_val),
                  cell_base + n_cell * cells[:, None] + np.arange(n_cell)]
        table = np.concatenate([b.reshape(len(cells), -1) for b in blocks], axis=1)
        for c, row in zip(cells, table):
            cell_dofs[c] = row

    return DofMap(space, ndof, cell_dofs, descriptors,
                  np.zeros(ndof, dtype=bool), np.zeros(ndof))


# ---------------------------------------------------------------------------
# evaluating dof functionals on analytic functions


def _edge_scaled_coord(mesh: PolygonalMesh, e: int, pts: np.ndarray) -> np.ndarray:
    rel = pts - mesh.edge_mid[e][None, :]
    return (rel @ mesh.edge_tangent[e]) / mesh.edge_length[e]


def evaluate_dof(desc: DofDescriptor, mesh: PolygonalMesh, space: SpaceKind,
                 value: Callable, grad: Callable | None = None,
                 order: int | None = None) -> float:
    """Apply one dof functional to an analytic function."""
    if order is None:
        order = 2 * space.degree + 4
    if desc.kind is DofKind.VERTEX_VALUE:
        return float(value(mesh.vertices[desc.entity][None, :])[0])
    if desc.kind in (DofKind.VERTEX_GRAD_X, DofKind.VERTEX_GRAD_Y):
        if grad is None:
            raise ValueError("gradient data required for vertex gradient dofs")
        g = np.asarray(grad(mesh.vertices[desc.entity][None, :]))[0]
        comp = 0 if desc.kind is DofKind.VERTEX_GRAD_X else 1
        return float(mesh.vertex_char_length[desc.entity] * g[comp])
    if desc.kind is DofKind.EDGE_NORMAL_MOMENT:
        if grad is None:
            raise ValueError("gradient data required for edge normal moments")
        e = desc.entity
        rule = edge_rule(*mesh.vertices[mesh.edge_verts[e]], order)
        gn = np.asarray(grad(rule.points)) @ mesh.edge_normal[e]
        s = _edge_scaled_coord(mesh, e, rule.points)
        return float(np.sum(rule.weights * gn * s ** desc.index))
    if desc.kind is DofKind.EDGE_VALUE_MOMENT:
        e = desc.entity
        rule = edge_rule(*mesh.vertices[mesh.edge_verts[e]], order)
        s = _edge_scaled_coord(mesh, e, rule.points)
        vals = np.asarray(value(rule.points))
        return float(np.sum(rule.weights * vals * s ** desc.index) / mesh.edge_length[e])
    if desc.kind is DofKind.CELL_MOMENT:
        c = desc.entity
        basis = ScaledMonomialBasis(tuple(mesh.centroids[c]), float(mesh.diameters[c]),
                                    space.degree)
        rule = polygon_rule(mesh.cell_coords(c), order, centroid=mesh.centroids[c])
        mono = basis.eval(rule.points)[:, desc.index]
        vals = np.asarray(value(rule.points))
        return float(np.sum(rule.weights * vals * mono) / mesh.areas[c])
    raise ValueError(desc.kind)


def interpolate(mesh: PolygonalMesh, dofmap: DofMap, value: Callable,
                grad: Callable | None = None, order: int | None = None) -> np.ndarray:
    """Dof vector of an analytic function (all functionals evaluated)."""
    out = np.zeros(dofmap.ndof)
    for i, desc in enumerate(dofmap.descriptors):
        out[i] = evaluate_dof(desc, mesh, dofmap.space, value, grad, order)
    return out


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
                       pressure_dirichlet_on_clamped: bool = False) -> DofMap:
    """Mark and evaluate the constrained boundary degrees of freedom.

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

    With value/grad omitted the data is homogeneous.
    """
    space = dofmap.space
    zero = value is None

    def val_fn(pts):
        return np.zeros(len(pts)) if zero else np.asarray(value(pts))

    def grad_fn(pts):
        if zero or grad is None:
            return np.zeros((len(pts), 2))
        return np.asarray(grad(pts))

    constrained = dofmap.constrained
    values = dofmap.values

    def constrain(gid: int, val: float) -> None:
        constrained[gid] = True
        values[gid] = val

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

    for gid, desc in enumerate(dofmap.descriptors):
        if desc.kind is DofKind.VERTEX_VALUE and dirichlet_vertices[desc.entity]:
            constrain(gid, evaluate_dof(desc, mesh, space, val_fn, grad_fn))
        elif desc.kind in (DofKind.VERTEX_GRAD_X, DofKind.VERTEX_GRAD_Y) \
                and grad_vertices[desc.entity]:
            constrain(gid, evaluate_dof(desc, mesh, space, val_fn, grad_fn))
        elif desc.kind is DofKind.EDGE_VALUE_MOMENT and dirichlet_edges[desc.entity]:
            constrain(gid, evaluate_dof(desc, mesh, space, val_fn, grad_fn))
        elif desc.kind is DofKind.EDGE_NORMAL_MOMENT and normal_edges[desc.entity]:
            constrain(gid, evaluate_dof(desc, mesh, space, val_fn, grad_fn))
    return dofmap
