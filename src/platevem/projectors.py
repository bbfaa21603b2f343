"""Element-local polynomial projections for both discrete families.

Everything a scheme or estimator needs from one element is collected in
ElementProjectors: matrices that map the local dof vector to polynomial
coefficients of

* the energy projection (biharmonic Ritz projection for the deflection,
  gradient Ritz projection for the pressure),
* the L2 projection of the function itself,
* L2 projections of the gradient at one or more degrees,
* the componentwise L2 projection of the Hessian (deflection only),
* gradient Ritz projections at auxiliary degrees (estimator volume terms),

plus edge moment tables, built from reconstructed edge traces, in the
canonical edge frame.  The deflection energy projection is assembled
purely from dof data through the integration-by-parts identity

    a(v, chi) = int_K bilap(chi) v + int_bd d_nn(chi) d_n(v)
              - int_bd T(chi) v + sum_z [d_nt(chi)]_z v(z),

with T(chi) = d_n(lap chi + d_tt chi) and corner jumps of the twist
d_nt(chi); collinear vertices contribute no jump, so hanging nodes need
no special casing.  The kernel of each energy form is pinned by vertex
averages (conforming) or boundary integrals (nonconforming) of the
function and, for the deflection, of its gradient.

Cells are built in groups that share one local shape (``CellGroup``):
every array carries a leading axis over the cells of the group, and edge
quantities a second axis over the local edges, so one numpy call serves
the whole group.  What fixes the shapes, and hence the group key, is the
vertex count, the volume triangulation (centroid fan or ear clipping),
the singular subdivision, and for the nonconforming family the side
structure; edge orientations and geometry are per-cell data.  One
cell is a group of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import MeshError, PolygonalMesh, SideStructure, corner_mask, size_groups
from .quadrature import (PowerTable, edge_monomial_integrals, fan_is_star, gauss_01,
                         map_triangles, poly_dim, polygon_triangles, subdivide_triangles,
                         unit_deriv_matrix)
from .spaces import DofLayout, Family, SpaceKind


@lru_cache(maxsize=None)
def _edge_fit(npts: int, degree: int) -> np.ndarray:
    """Pseudo-inverse mapping values at the shared Gauss nodes to ŝ-coefficients."""
    t, _ = gauss_01(npts)
    shat = t - 0.5
    V = shat[:, None] ** np.arange(degree + 1)[None, :]
    return np.linalg.pinv(V)


@lru_cache(maxsize=None)
def _unit_edge_gram(d1: int, d2: int) -> np.ndarray:
    I = edge_monomial_integrals(d1 + d2)
    b, g = np.meshgrid(np.arange(d1 + 1), np.arange(d2 + 1), indexing="ij")
    table = I[b + g]
    table.setflags(write=False)
    return table


def _edge_gram(d1: int, d2: int, length) -> np.ndarray:
    """int_e s^b s^g ds over the scaled coordinate, shape (..., d1+1, d2+1)
    for edge lengths of shape (...)."""
    return np.asarray(length)[..., None, None] * _unit_edge_gram(d1, d2)


def _gram(V: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_q w_q V_qa V_qb over the quadrature axis, per leading index."""
    return (V * w[..., None]).swapaxes(-1, -2) @ V


def _T(M: np.ndarray) -> np.ndarray:
    return M.swapaxes(-1, -2)


def matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products: M (..., m, n) times x (..., n)."""
    return (M @ x[..., None])[..., 0]


def data_oscillation(V: np.ndarray, w: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Per cell, the squared L2 distance of data to the span of a monomial
    table: values (ncells, nq) and table V (ncells, nq, n) at a rule with
    weights w (ncells, nq)."""
    Vw = _T(V * w[..., None])
    coeff = np.linalg.solve(Vw @ V, Vw @ vals[..., None])
    return (w * (vals - matvec(V, coeff[..., 0])) ** 2).sum(axis=-1)


# ---------------------------------------------------------------------------
# cell groups


def cell_groups(mesh: PolygonalMesh, family: Family,
                singular_cells=frozenset()) -> list[tuple[np.ndarray, int]]:
    """Cells sharing one group key, in order of first appearance, with the
    subdivision their loads and estimator terms are integrated on.  Keys
    are computed one vertex count at a time."""
    key = np.zeros((mesh.ncells, 4), dtype=np.int64)
    key[list(singular_cells), 3] = 1
    for cells, slots in size_groups(mesh.cell_ptr):
        coords = mesh.vertices[mesh.cell_verts[slots]]
        key[cells, 0] = slots.shape[1]
        key[cells, 1] = fan_is_star(coords, mesh.centroids[cells])
        if family is Family.NONCONFORMING:
            corners = corner_mask(coords)
            if (corners.sum(axis=1) < 3).any():
                raise MeshError("polygon has fewer than 3 corners")
            key[cells, 2] = np.unique(corners, axis=0, return_inverse=True)[1].ravel()
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    by_group = np.argsort(inverse.ravel(), kind="stable")
    bounds = np.cumsum(np.bincount(inverse.ravel()))[:-1]
    groups = np.split(by_group, bounds)
    return [(groups[g], int(key[first[g], 3])) for g in np.argsort(first)]


class CellGroup:
    """Stacked geometry and monomial tables of cells with one group key.

    Cell arrays have shape (ncells, ...), edge arrays (ncells, nverts, ...);
    edge j runs from local vertex j to j+1, and loc0/loc1 give the local
    positions of its canonical start and end.  Monomial tables use the
    scaled basis of each cell up to max_degree, memoised per point set and
    derivative for the element build only: ``release`` drops them and the
    volume rule, and keeps the geometry and ``H`` that loads, error norms
    and the estimator read.
    """

    def __init__(self, mesh: PolygonalMesh, cells, max_degree: int,
                 singular_subdivide: int = 0):
        self.mesh = mesh
        self.cells = np.asarray(cells, dtype=np.int64)
        self.max_degree = max_degree
        self.singular_subdivide = singular_subdivide
        self.vol_order = 2 * max_degree + 2
        self.edge_npts = max_degree + 4
        first = mesh.cell_ptr[self.cells]
        slots = first[:, None] + np.arange(mesh.cell_ptr[self.cells[0] + 1] - first[0])
        self.verts = verts = mesh.cell_verts[slots]
        self.nverts = n = verts.shape[1]
        self.coords = mesh.vertices[verts]
        self.area = mesh.areas[self.cells]
        self.centroid = mesh.centroids[self.cells]
        self.diameter = mesh.diameters[self.cells]
        self.char = mesh.vertex_char_length[verts]

        self.eid = mesh.cell_edge[slots]
        forward = mesh.cell_sign[slots] == 1
        self.sigma = np.where(forward, 1.0, -1.0)
        j = np.arange(n)
        self.loc0 = np.where(forward, j, (j + 1) % n)
        self.loc1 = np.where(forward, (j + 1) % n, j)
        assert np.array_equal(np.take_along_axis(verts, self.loc0, 1),
                              mesh.edge_verts[self.eid, 0])
        self.normal = mesh.edge_normal[self.eid]
        self.tangent = mesh.edge_tangent[self.eid]
        self.length = mesh.edge_length[self.eid]

        t01, w01 = gauss_01(self.edge_npts)
        self.shat = t01 - 0.5
        p0 = np.take_along_axis(self.coords, self.loc0[..., None], axis=1)
        p1 = np.take_along_axis(self.coords, self.loc1[..., None], axis=1)
        self.edge_pts = p0[..., None, :] + t01[:, None] * (p1 - p0)[..., None, :]
        self.edge_w = w01 * self.length[..., None]
        self._vol: tuple[np.ndarray, np.ndarray] | None = None
        self._tabs: dict[tuple, np.ndarray] = {}
        self._H: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def side(self) -> SideStructure:
        """Side structure of the first cell; nonconforming groups share it."""
        return self.mesh.side_structure(int(self.cells[0]))

    def rule(self, order: int, subdivide: int) -> tuple[np.ndarray, np.ndarray]:
        """Volume points (ncells, nq, 2) and weights (ncells, nq), exact for
        degree <= order, on triangles split 4^subdivide-fold."""
        tris = polygon_triangles(self.coords, self.centroid)
        return map_triangles(subdivide_triangles(tris, subdivide), order)

    def data_rule(self, fine: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """The rule on which case data is integrated: order 2 max_degree + 4,
        with singular groups split once (loads, estimator) or three times
        (error norms, fine=True)."""
        return self.rule(2 * self.max_degree + 4,
                         (3 if fine else 1) * self.singular_subdivide)

    @property
    def vol_pts(self) -> np.ndarray:
        """Points (ncells, nq, 2) of the element build's volume rule."""
        return self._volume_rule()[0]

    @property
    def vol_w(self) -> np.ndarray:
        """Weights (ncells, nq) of the element build's volume rule, exact
        for degree 2 max_degree + 2 on the plain triangulation."""
        return self._volume_rule()[1]

    def _volume_rule(self) -> tuple[np.ndarray, np.ndarray]:
        if self._vol is None:
            self._vol = self.rule(self.vol_order, 0)
        return self._vol

    def release(self) -> None:
        """Drop the build-only state, the memoised tables and the volume
        rule, once the element build has formed ``H``."""
        self._tabs.clear()
        self._vol = None

    def powers(self, pts: np.ndarray) -> PowerTable:
        """Power table of the scaled monomials at points (ncells, npts, 2);
        its tables have shape (ncells, npts, dim)."""
        return PowerTable.at(pts, self.centroid, self.diameter, self.max_degree)

    # tables ------------------------------------------------------------
    def _table(self, where: str, deriv: tuple[int, int]) -> np.ndarray:
        """Memoised table at one point set.  The value table is gathered
        from powers formed at the points; every derivative is gathered
        from the powers that the value table holds."""
        if (where, deriv) not in self._tabs:
            pts, center, h = {
                "vol": (self.vol_pts, self.centroid, self.diameter),
                "edge": (self.edge_pts, self.centroid[:, None], self.diameter[:, None]),
                "vert": (self.coords, self.centroid, self.diameter)}[where]
            if deriv == (0, 0):
                powers = PowerTable.at(pts, center, h, self.max_degree)
            else:
                powers = PowerTable.of_values(self._table(where, (0, 0)), h,
                                              self.max_degree)
            self._tabs[where, deriv] = powers.gather(deriv)
        return self._tabs[where, deriv]

    def vtab(self, deriv: tuple[int, int]) -> np.ndarray:
        """(ncells, nq, dim) at the volume points."""
        return self._table("vol", deriv)

    def etab(self, deriv: tuple[int, int]) -> np.ndarray:
        """(ncells, nverts, npts, dim) at the edge Gauss points."""
        return self._table("edge", deriv)

    def vert(self, deriv: tuple[int, int]) -> np.ndarray:
        """(ncells, nverts, dim) at the vertices."""
        return self._table("vert", deriv)

    def efit(self, values: np.ndarray, degree: int) -> np.ndarray:
        """ŝ-coefficients (..., degree+1, ncols) of edge-restricted polynomials."""
        return _edge_fit(self.edge_npts, degree) @ values

    def deriv(self, deriv: tuple[int, int], degree: int) -> np.ndarray:
        """Per-cell ``unit_deriv_matrix`` at the cell diameters, shape
        (ncells, dim out, dim in)."""
        return unit_deriv_matrix(deriv, degree) / self.diameter[:, None, None] ** sum(deriv)

    @property
    def H(self) -> np.ndarray:
        """Mass Gram matrices of the full monomial basis, (ncells, dim, dim)."""
        if self._H is None:
            self._H = _gram(self.vtab((0, 0)), self.vol_w)
        return self._H


@dataclass
class ElementProjectors:
    """Projector matrices of the cells of a group; every array carries a
    leading cell axis."""
    ndof: int
    D: np.ndarray                                 # (ndof, n_poly)
    pd: np.ndarray                                # (n_poly, ndof)
    l2: np.ndarray                                # (n_poly, ndof)
    grads: dict[int, tuple[np.ndarray, np.ndarray]]
    hess: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    pg: dict[int, np.ndarray]
    normal_moments: np.ndarray | None             # (nedges, mu rows, ndof)
    value_moments: np.ndarray                     # (nedges, nu rows, ndof), plain integrals


# ---------------------------------------------------------------------------
# traces and moment tables


def _endpoint_trace_system(g: CellGroup, degree: int, ndof: int):
    """Trace systems (A, R) of one degree per edge with the endpoint
    value rows A[0], A[1] filled in."""
    pw = np.arange(degree + 1)
    A = np.zeros((*g.length.shape, degree + 1, degree + 1))
    A[..., 0, :] = (-0.5) ** pw
    A[..., 1, :] = 0.5 ** pw
    return A, np.zeros((*g.length.shape, degree + 1, ndof))


def _conforming_deflection_traces(g: CellGroup, space: SpaceKind, lay: DofLayout):
    """Edge value traces (degree max(k,3)) and normal traces (degree k-1)."""
    k = space.degree
    r = max(k, 3)
    L = g.length[..., None]
    char0 = np.take_along_axis(g.char, g.loc0, axis=1)[..., None]
    char1 = np.take_along_axis(g.char, g.loc1, axis=1)[..., None]

    def grad_rows(vec, char, loc):
        """Rows applying vec / char to the scaled gradient dofs at loc."""
        return ((vec / char)[..., None] * lay.gsel[loc]).sum(axis=-2)

    # value trace: endpoint values, endpoint tangential derivatives, moments
    A, R = _endpoint_trace_system(g, r, lay.ndof)
    pw = np.arange(r + 1)
    dpw = np.where(pw >= 1, pw, 0)
    A[..., 2, :] = dpw * np.where(pw >= 1, (-0.5) ** np.maximum(pw - 1, 0), 0.0) / L
    A[..., 3, :] = dpw * np.where(pw >= 1, 0.5 ** np.maximum(pw - 1, 0), 0.0) / L
    nv = space.n_edge_value
    A[..., 4:4 + nv, :] = _edge_gram(nv - 1, r, g.length) / g.length[..., None, None]
    R[..., 0, :] = lay.vsel[g.loc0]
    R[..., 1, :] = lay.vsel[g.loc1]
    R[..., 2, :] = grad_rows(g.tangent, char0, g.loc0)
    R[..., 3, :] = grad_rows(g.tangent, char1, g.loc1)
    R[..., 4:4 + nv, :] = lay.valsel
    value_traces = np.linalg.solve(A, R)

    # normal derivative trace: endpoint normal derivatives plus moments
    A, R = _endpoint_trace_system(g, k - 1, lay.ndof)
    nn = space.n_edge_normal
    A[..., 2:2 + nn, :] = _edge_gram(nn - 1, k - 1, g.length)
    R[..., 0, :] = grad_rows(g.normal, char0, g.loc0)
    R[..., 1, :] = grad_rows(g.normal, char1, g.loc1)
    R[..., 2:2 + nn, :] = lay.nsel
    return value_traces, np.linalg.solve(A, R)


def _moments_from_trace(trace: np.ndarray, length: np.ndarray, n_rows: int) -> np.ndarray:
    """Plain integrals int_e trace * s^b ds for b < n_rows."""
    return _edge_gram(n_rows - 1, trace.shape[-2] - 1, length) @ trace


# ---------------------------------------------------------------------------
# the deflection energy projection


def _deflection_pd(g: CellGroup, space: SpaceKind, lay: DofLayout,
                   mu: np.ndarray, nu_low: np.ndarray):
    k = space.degree
    nk = poly_dim(k)
    w = g.vol_w
    sigma = g.sigma[..., None, None]
    nx, ny = g.normal[..., 0, None, None], g.normal[..., 1, None, None]
    tx, ty = g.tangent[..., 0, None, None], g.tangent[..., 1, None, None]

    G = _gram(g.vtab((2, 0))[..., :nk], w) + 2.0 * _gram(g.vtab((1, 1))[..., :nk], w) \
        + _gram(g.vtab((0, 2))[..., :nk], w)

    # d_nn(m) against the normal-derivative moments
    e_nn = nx * nx * g.etab((2, 0))[..., :nk] + 2.0 * nx * ny * g.etab((1, 1))[..., :nk] \
        + ny * ny * g.etab((0, 2))[..., :nk]
    B = (sigma * _T(g.efit(e_nn, k - 2)) @ mu[..., :k - 1, :]).sum(axis=1)

    # T(m) against the value moments; degree k-3 restriction
    if k >= 3:
        Tvals = (nx + nx * tx * tx) * g.etab((3, 0))[..., :nk] \
            + (ny + 2.0 * nx * tx * ty + ny * tx * tx) * g.etab((2, 1))[..., :nk] \
            + (nx + nx * ty * ty + 2.0 * ny * tx * ty) * g.etab((1, 2))[..., :nk] \
            + (ny + ny * ty * ty) * g.etab((0, 3))[..., :nk]
        B -= (sigma * _T(g.efit(Tvals, k - 3)) @ nu_low[..., :k - 2, :]).sum(axis=1)

    # interior term: int_K bilap(m) v via cell moments
    if space.n_cell > 0:
        L4 = g.deriv((4, 0), k) + 2.0 * g.deriv((2, 2), k) + g.deriv((0, 4), k)
        B += g.area[:, None, None] * _T(L4) @ lay.csel

    # corner jumps of the twist d_nt(m); edge j-1 precedes vertex j
    mxx, mxy, myy = (g.vert(d)[..., :nk] for d in [(2, 0), (1, 1), (0, 2)])

    def twist(n, t):
        return (n[..., 0] * t[..., 0])[..., None] * mxx \
            + (n[..., 0] * t[..., 1] + n[..., 1] * t[..., 0])[..., None] * mxy \
            + (n[..., 1] * t[..., 1])[..., None] * myy

    jump = twist(np.roll(g.normal, 1, axis=1), np.roll(g.tangent, 1, axis=1)) \
        - twist(g.normal, g.tangent)
    B[:, :, lay.iv] += _T(jump)

    # kernel constraints replace the three affine rows
    n = g.nverts
    G[:, 0] = g.vert((0, 0))[..., :nk].mean(axis=1)
    B[:, 0] = lay.vsel.mean(axis=0)
    if space.family is Family.CONFORMING:
        G[:, 1] = g.vert((1, 0))[..., :nk].mean(axis=1)
        G[:, 2] = g.vert((0, 1))[..., :nk].mean(axis=1)
        B[:, 1:3] = 0.0
        B[:, 1, lay.igrad[:, 0]] = 1.0 / g.char / n
        B[:, 2, lay.igrad[:, 1]] = 1.0 / g.char / n
    else:
        w_e = g.edge_w[..., None, :]
        G[:, 1] = (w_e @ g.etab((1, 0))[..., :nk]).sum(axis=1)[:, 0]
        G[:, 2] = (w_e @ g.etab((0, 1))[..., :nk]).sum(axis=1)[:, 0]
        jump_v = lay.vsel[g.loc1] - lay.vsel[g.loc0]
        for c in range(2):
            B[:, 1 + c] = (g.normal[..., c, None] * mu[..., 0, :]
                           + g.tangent[..., c, None] * jump_v).sum(axis=1)
    return np.linalg.solve(G, B)


def _nc_deflection_traces(g: CellGroup, space: SpaceKind, lay: DofLayout,
                          pd: np.ndarray) -> np.ndarray:
    """Edge traces of degree k from vertex values, the C1 rule along sides,
    and value moments borrowed from the energy projection."""
    k = space.degree
    nk = poly_dim(k)
    pw = np.arange(k + 1)
    dpw = np.where(pw >= 1, pw, 0)
    # moments of the pd trace at the Gauss nodes, (ncells, nverts, k-1, ndof)
    powers = g.shat[:, None] ** np.arange(k - 1)[None, :]
    mom = _T(powers * g.edge_w[..., None]) @ (g.etab((0, 0))[..., :nk] @ pd[:, None])
    A_all, R_all = _endpoint_trace_system(g, k, lay.ndof)
    R_all[..., 0, :] = lay.vsel[g.loc0]
    R_all[..., 1, :] = lay.vsel[g.loc1]
    traces = np.zeros_like(R_all)

    side = g.side
    for s in range(side.nsides):
        prev_deriv_row: np.ndarray | None = None
        for pos_in_side, j in enumerate(side.side_edges(s, g.nverts)):
            A, R = A_all[:, j], R_all[:, j]
            sigma = g.sigma[:, j, None]
            length = g.length[:, j, None]
            if pos_in_side == 0:
                n_mom = k - 1
                first = 2
            else:
                # C1 matching of the running tangential derivative at the
                # shared hanging vertex, then lower-order moments
                start_shat = -0.5 * sigma
                A[:, 2] = sigma * (dpw * np.where(
                    pw >= 1, start_shat ** np.clip(pw - 1, 0, None), 0.0)) / length
                R[:, 2] = prev_deriv_row
                n_mom = k - 2
                first = 3
            A[:, first:first + n_mom] = _edge_gram(n_mom - 1, k, g.length[:, j])
            R[:, first:first + n_mom] = mom[:, j, :n_mom]
            trace = np.linalg.solve(A, R)
            traces[:, j] = trace
            end_shat = 0.5 * sigma
            drow = dpw * np.where(pw >= 1, end_shat ** np.clip(pw - 1, 0, None), 0.0)
            prev_deriv_row = sigma * (drow[:, None, :] @ trace)[:, 0] / length
    return traces


# ---------------------------------------------------------------------------
# L2, gradient, and Hessian projections


def _l2_projection(g: CellGroup, degree: int, low_dim: int, csel: np.ndarray,
                   energy_proj: np.ndarray) -> np.ndarray:
    """Moments below low_dim come from cell dofs, the rest from the energy projection."""
    n = poly_dim(degree)
    H = g.H[:, :n, :n]
    R = np.zeros((len(g), n, energy_proj.shape[-1]))
    if low_dim > 0:
        R[:, :low_dim] = g.area[:, None, None] * csel
    if low_dim < n:
        R[:, low_dim:] = H[:, low_dim:, :energy_proj.shape[1]] @ energy_proj
    return np.linalg.solve(H, R)


def _grad_projection(g: CellGroup, deg: int, proj_full: np.ndarray,
                     nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L2 projection of the gradient onto degree deg, via the function's L2
    projection in the volume and value moments on the boundary."""
    ng = poly_dim(deg)
    n_in = proj_full.shape[1]
    # restriction of each m_i to the edges against the value moments
    contract = _T(g.efit(g.etab((0, 0))[..., :ng], deg)) @ nu[..., :deg + 1, :]
    out = []
    for comp, dxy in enumerate([(1, 0), (0, 1)]):
        Dc = g.deriv(dxy, deg)      # (ncells, dim M_{deg-1}, ng)
        nlow = Dc.shape[1]
        rhs = ((g.sigma * g.normal[..., comp])[..., None, None] * contract).sum(axis=1)
        if nlow > 0:
            rhs -= _T(Dc) @ (g.H[:, :nlow, :n_in] @ proj_full)
        out.append(np.linalg.solve(g.H[:, :ng, :ng], rhs))
    return out[0], out[1]


def _hessian_projection(g: CellGroup, space: SpaceKind, lay: DofLayout,
                        mu: np.ndarray, nu_low: np.ndarray):
    """Componentwise L2 projection of the Hessian onto degree k-2.

    Each component row chi E_ab is integrated by parts twice; the
    tangential part of (X n) . grad v is integrated along every edge so
    only endpoint values and low-order value moments of v appear.
    """
    k = space.degree
    nh = poly_dim(k - 2)
    n, t, sigma = g.normal, g.tangent, g.sigma
    C_mu = _T(g.efit(g.etab((0, 0))[..., :nh], k - 2)) @ mu[..., :k - 1, :]
    if k >= 3:
        ex, ey = g.etab((1, 0))[..., :nh], g.etab((0, 1))[..., :nh]
        dt = t[..., 0, None, None] * ex + t[..., 1, None, None] * ey
        C_dt = _T(g.efit(dt, k - 3)) @ nu_low[..., :k - 2, :]
        C_d = [_T(g.efit(e, k - 3)) @ nu_low[..., :k - 2, :] for e in (ex, ey)]
    mv = g.vert((0, 0))[..., :nh]

    def route(a: int, b: int) -> np.ndarray:
        terms = (sigma * n[..., a] * n[..., b])[..., None, None] * C_mu
        if k >= 3:
            terms = terms - (sigma * n[..., b] * t[..., a])[..., None, None] * C_dt \
                - (sigma * n[..., a])[..., None, None] * C_d[b]
        rhs = terms.sum(axis=1)
        gnext = n[..., b] * t[..., a]
        rhs[:, :, lay.iv] += _T(mv * (np.roll(gnext, 1, axis=1) - gnext)[..., None])
        d2 = g.deriv(((2, 0) if a == 0 else (0, 2)) if a == b else (1, 1), k - 2)
        if space.n_cell > 0 and d2.shape[1] > 0:
            rhs += g.area[:, None, None] * _T(d2) @ lay.csel[:d2.shape[1]]
        return rhs

    Hm = g.H[:, :nh, :nh]
    Hxx = np.linalg.solve(Hm, route(0, 0))
    Hyy = np.linalg.solve(Hm, route(1, 1))
    Hxy = np.linalg.solve(Hm, 0.5 * (route(0, 1) + route(1, 0)))
    return Hxx, Hxy, Hyy


def _ritz_grad_projection(g: CellGroup, space: SpaceKind, lay: DofLayout,
                          degree: int, nu: np.ndarray,
                          volume_proj: np.ndarray) -> np.ndarray:
    """Gradient Ritz projection onto degree `degree`.

    volume_proj supplies the moments for -(v, lap chi): either the cell
    moment selector scaled by |K| (pressure) or H @ l2 coefficients
    (deflection).  The kernel constant is pinned by the vertex average for
    conforming spaces, else by the boundary integral.
    """
    nd = poly_dim(degree)
    w = g.vol_w
    G = _gram(g.vtab((1, 0))[..., :nd], w) + _gram(g.vtab((0, 1))[..., :nd], w)

    dn = g.normal[..., 0, None, None] * g.etab((1, 0))[..., :nd] \
        + g.normal[..., 1, None, None] * g.etab((0, 1))[..., :nd]
    B = (g.sigma[..., None, None] * _T(g.efit(dn, degree - 1))
         @ nu[..., :degree, :]).sum(axis=1)
    lap = g.deriv((2, 0), degree) + g.deriv((0, 2), degree)
    if lap.shape[1] > 0:
        B -= _T(lap) @ volume_proj[:, :lap.shape[1]]

    if space.family is Family.CONFORMING:
        G[:, 0] = g.vert((0, 0))[..., :nd].mean(axis=1)
        B[:, 0] = lay.vsel.mean(axis=0)
    else:
        G[:, 0] = (g.edge_w[..., None, :] @ g.etab((0, 0))[..., :nd]).sum(axis=1)[:, 0]
        B[:, 0] = nu[..., 0, :].sum(axis=1)
    return np.linalg.solve(G, B)


# ---------------------------------------------------------------------------
# dof matrix


def _dof_matrix(g: CellGroup, space: SpaceKind, lay: DofLayout) -> np.ndarray:
    """D[i, a] = dof_i(m_a): every dof functional applied to the monomials."""
    n = poly_dim(space.degree)
    D = np.zeros((len(g), lay.ndof, n))
    D[:, lay.iv] = g.vert((0, 0))[:, :len(lay.iv), :n]
    if space.n_vertex == 3:
        D[:, lay.igrad[:, 0]] = g.char[..., None] * g.vert((1, 0))[..., :n]
        D[:, lay.igrad[:, 1]] = g.char[..., None] * g.vert((0, 1))[..., :n]
    weights = g.edge_w[..., None]
    if space.n_edge_normal > 0:
        dn = g.normal[..., 0, None, None] * g.etab((1, 0))[..., :n] \
            + g.normal[..., 1, None, None] * g.etab((0, 1))[..., :n]
        powers = g.shat[:, None] ** np.arange(space.n_edge_normal)[None, :]
        D[:, lay.inorm] = _T(powers * weights) @ dn
    if space.n_edge_value > 0:
        powers = g.shat[:, None] ** np.arange(space.n_edge_value)[None, :]
        D[:, lay.ival] = _T(powers * weights) @ g.etab((0, 0))[..., :n] \
            / g.length[..., None, None]
    if space.n_cell > 0:
        D[:, lay.icell] = g.H[:, :space.n_cell, :n] / g.area[:, None, None]
    return D


# ---------------------------------------------------------------------------
# entry points


def deflection_projectors(g: CellGroup, space: SpaceKind,
                          pg_degrees: tuple[int, ...] = (),
                          grad_degrees: tuple[int, ...] | None = None) -> ElementProjectors:
    """Deflection projectors of every cell of a group, stacked."""
    k = space.degree
    if grad_degrees is None:
        grad_degrees = (k - 1,)
    lay = DofLayout(space, g.nverts)

    if space.family is Family.CONFORMING:
        value_traces, normal_traces = _conforming_deflection_traces(g, space, lay)
        mu = _moments_from_trace(normal_traces, g.length, k)
        nu_low = _moments_from_trace(value_traces, g.length, max(k - 2, 1))
    else:
        mu = np.broadcast_to(lay.nsel, (len(g), *lay.nsel.shape))
        nu_low = g.length[..., None, None] * lay.valsel
        pad = max(k - 2, 1) - nu_low.shape[-2]
        if pad > 0:
            nu_low = np.concatenate(
                [nu_low, np.zeros((*nu_low.shape[:2], pad, lay.ndof))], axis=-2)

    pd = _deflection_pd(g, space, lay, mu, nu_low)

    if space.family is Family.NONCONFORMING:
        value_traces = _nc_deflection_traces(g, space, lay, pd)

    nu = _moments_from_trace(value_traces, g.length, k)
    l2 = _l2_projection(g, k, space.n_cell, lay.csel, pd)
    grads = {d: _grad_projection(g, d, l2, nu) for d in sorted(set(grad_degrees))}
    hess = _hessian_projection(g, space, lay, mu, nu_low)
    volume_proj = g.H[:, :, :poly_dim(k)] @ l2
    pg = {d: _ritz_grad_projection(g, space, lay, d, nu, volume_proj)
          for d in sorted(set(pg_degrees))}
    D = _dof_matrix(g, space, lay)
    return ElementProjectors(lay.ndof, D, pd, l2, grads, hess, pg, mu, nu)


def pressure_projectors(g: CellGroup, space: SpaceKind,
                        extra_pg_degrees: tuple[int, ...] = ()) -> ElementProjectors:
    """Pressure projectors of every cell of a group, stacked."""
    l = space.degree
    lay = DofLayout(space, g.nverts)

    if space.family is Family.CONFORMING:
        # trace of degree l per edge: endpoint values plus scaled moments
        A, R = _endpoint_trace_system(g, l, lay.ndof)
        nv = space.n_edge_value
        A[..., 2:2 + nv, :] = _edge_gram(nv - 1, l, g.length) / g.length[..., None, None]
        R[..., 0, :] = lay.vsel[g.loc0]
        R[..., 1, :] = lay.vsel[g.loc1]
        R[..., 2:2 + nv, :] = lay.valsel
        nu = _moments_from_trace(np.linalg.solve(A, R), g.length, l)
    else:
        nu = g.length[..., None, None] * lay.valsel

    volume_from_cells = g.area[:, None, None] * lay.csel
    pg = {d: _ritz_grad_projection(g, space, lay, d, nu, volume_from_cells)
          for d in sorted(set((l,) + tuple(extra_pg_degrees)))}
    l2 = _l2_projection(g, l, space.n_cell, lay.csel, pg[l])
    grads = {l - 1: _grad_projection(g, l - 1, l2, nu)}
    D = _dof_matrix(g, space, lay)
    return ElementProjectors(lay.ndof, D, pg[l], l2, grads, None, pg, None, nu)
