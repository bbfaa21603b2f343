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

from .mesh import ANGLE_TOL, BoundaryLabel, MeshError, PolygonalMesh
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
    verts = mesh.cells[cell]
    edges = [eid for eid, _ in mesh.cell_edges[cell]]
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
    by_size: dict[int, list[int]] = {}
    for c, cell in enumerate(mesh.cells):
        by_size.setdefault(len(cell), []).append(c)
    cell_dofs: list[np.ndarray] = [None] * mesh.ncells  # type: ignore[list-item]
    for cells in by_size.values():
        verts = vert_base + nv_per * np.array([mesh.cells[c] for c in cells])[..., None]
        edges = edge_base + ne_per * np.array(
            [[eid for eid, _ in mesh.cell_edges[c]] for c in cells])[..., None]
        blocks = [verts + np.arange(min(nv_per, 1)), verts + np.arange(1, nv_per),
                  edges + np.arange(n_norm), edges + n_norm + np.arange(n_val),
                  cell_base + n_cell * np.array(cells)[:, None] + np.arange(n_cell)]
        table = np.concatenate([b.reshape(len(cells), -1) for b in blocks], axis=1)
        for c, row in zip(cells, table):
            cell_dofs[c] = row

    return DofMap(space, ndof, cell_dofs, descriptors,
                  np.zeros(ndof, dtype=bool), np.zeros(ndof))


# ---------------------------------------------------------------------------
# evaluating dof functionals on analytic functions


def _edge_scaled_coord(edge, pts: np.ndarray) -> np.ndarray:
    rel = pts - edge.midpoint[None, :]
    return (rel @ edge.tangent) / edge.length


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
        e = mesh.edges[desc.entity]
        rule = edge_rule(mesh.vertices[e.v0], mesh.vertices[e.v1], order)
        gn = np.asarray(grad(rule.points)) @ e.normal
        s = _edge_scaled_coord(e, rule.points)
        return float(np.sum(rule.weights * gn * s ** desc.index))
    if desc.kind is DofKind.EDGE_VALUE_MOMENT:
        e = mesh.edges[desc.entity]
        rule = edge_rule(mesh.vertices[e.v0], mesh.vertices[e.v1], order)
        s = _edge_scaled_coord(e, rule.points)
        vals = np.asarray(value(rule.points))
        return float(np.sum(rule.weights * vals * s ** desc.index) / e.length)
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


def pressure_is_dirichlet(edge, pressure_dirichlet_on_clamped: bool) -> bool:
    """Whether a boundary edge carries Dirichlet pressure data: simply
    supported edges always, clamped ones when the flag is set.  The other
    boundary edges carry the natural flux condition."""
    return edge.is_boundary and (edge.label is BoundaryLabel.SIMPLY_SUPPORTED
                                 or pressure_dirichlet_on_clamped)


def _boundary_vertex_edges(mesh: PolygonalMesh) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for eid, e in enumerate(mesh.edges):
        if e.is_boundary:
            out.setdefault(e.v0, []).append(eid)
            out.setdefault(e.v1, []).append(eid)
    return out


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

    for e in mesh.edges:
        if e.is_boundary and e.label is None:
            raise MeshError(f"unlabeled boundary edge ({e.v0}, {e.v1})")

    bve = _boundary_vertex_edges(mesh)
    constrained = dofmap.constrained
    values = dofmap.values

    def constrain(gid: int, val: float) -> None:
        constrained[gid] = True
        values[gid] = val

    if space.field == "deflection":
        dirichlet_edges = {eid for eid, e in enumerate(mesh.edges) if e.is_boundary}
        normal_edges = {eid for eid in dirichlet_edges
                        if mesh.edges[eid].label is BoundaryLabel.CLAMPED}
    else:
        dirichlet_edges = {eid for eid, e in enumerate(mesh.edges)
                           if pressure_is_dirichlet(e, pressure_dirichlet_on_clamped)}
        normal_edges = set()

    dirichlet_vertices: set[int] = set()
    for eid in dirichlet_edges:
        dirichlet_vertices.add(mesh.edges[eid].v0)
        dirichlet_vertices.add(mesh.edges[eid].v1)

    grad_vertices: set[int] = set()
    if space.field == "deflection" and space.family is Family.CONFORMING:
        for v, eids in bve.items():
            labels = [mesh.edges[eid].label for eid in eids]
            if BoundaryLabel.CLAMPED in labels:
                grad_vertices.add(v)
            elif len(eids) == 2:
                t0 = mesh.edges[eids[0]].tangent
                t1 = mesh.edges[eids[1]].tangent
                if abs(t0[0] * t1[1] - t0[1] * t1[0]) > ANGLE_TOL:
                    grad_vertices.add(v)   # corner of the simply supported part

    for gid, desc in enumerate(dofmap.descriptors):
        if desc.kind is DofKind.VERTEX_VALUE and desc.entity in dirichlet_vertices:
            constrain(gid, evaluate_dof(desc, mesh, space, val_fn, grad_fn))
        elif desc.kind in (DofKind.VERTEX_GRAD_X, DofKind.VERTEX_GRAD_Y) \
                and desc.entity in grad_vertices:
            constrain(gid, evaluate_dof(desc, mesh, space, val_fn, grad_fn))
        elif desc.kind is DofKind.EDGE_VALUE_MOMENT and desc.entity in dirichlet_edges:
            constrain(gid, evaluate_dof(desc, mesh, space, val_fn, grad_fn))
        elif desc.kind is DofKind.EDGE_NORMAL_MOMENT and desc.entity in normal_edges:
            constrain(gid, evaluate_dof(desc, mesh, space, val_fn, grad_fn))
    return dofmap
