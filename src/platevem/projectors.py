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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import PolygonalMesh, SideStructure
from .quadrature import (QuadratureRule, ScaledMonomialBasis, edge_monomial_integrals,
                         gauss_01, poly_dim, polygon_rule)
from .spaces import Family, SpaceKind


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


def _edge_gram(d1: int, d2: int, length: float) -> np.ndarray:
    """int_e s^b s^g ds over the scaled coordinate, shape (d1+1, d2+1)."""
    return length * _unit_edge_gram(d1, d2)


@dataclass
class _EdgeGeom:
    eid: int
    sigma: int
    loc0: int        # local vertex position of the canonical start
    loc1: int
    p0: np.ndarray
    p1: np.ndarray
    normal: np.ndarray
    tangent: np.ndarray
    length: float
    shat: np.ndarray     # canonical scaled coordinate of the Gauss nodes
    pts: np.ndarray      # (npts, 2)
    weights: np.ndarray  # (npts,), sum to length


class ElementContext:
    """Geometry, quadrature, and monomial tables shared by both fields on a cell."""

    def __init__(self, mesh: PolygonalMesh, cell: int, max_degree: int,
                 singular_subdivide: int = 0):
        self.mesh = mesh
        self.cell = cell
        self.coords = mesh.cell_coords(cell)
        self.nverts = len(self.coords)
        self.area = float(mesh.areas[cell])
        self.centroid = mesh.centroids[cell]
        self.diameter = float(mesh.diameters[cell])
        self.max_degree = max_degree
        self.vol_order = 2 * max_degree + 2
        self.edge_npts = max_degree + 4
        self.singular_subdivide = singular_subdivide
        self.basis = ScaledMonomialBasis(tuple(self.centroid), self.diameter, max_degree)
        self.side: SideStructure = mesh.side_structure(cell)
        self._rules: dict[tuple[int, int], QuadratureRule] = {}
        self._vtabs: dict[tuple[int, int], np.ndarray] = {}
        self._etabs: dict[tuple[int, int, int], np.ndarray] = {}
        self._H: np.ndarray | None = None

        t01, w01 = gauss_01(self.edge_npts)
        self.edges: list[_EdgeGeom] = []
        cell_list = mesh.cells[cell]
        for j, (eid, sigma) in enumerate(mesh.cell_edges[cell]):
            e = mesh.edges[eid]
            p0 = mesh.vertices[e.v0]
            p1 = mesh.vertices[e.v1]
            loc0 = j if sigma == +1 else (j + 1) % self.nverts
            loc1 = (j + 1) % self.nverts if sigma == +1 else j
            assert cell_list[loc0] == e.v0 and cell_list[loc1] == e.v1
            pts = p0[None, :] + t01[:, None] * (p1 - p0)[None, :]
            self.edges.append(_EdgeGeom(eid, sigma, loc0, loc1, p0, p1,
                                        e.normal, e.tangent, e.length,
                                        t01 - 0.5, pts, w01 * e.length))

    # tables ------------------------------------------------------------
    def rule(self, order: int, subdivide: int | None = None) -> QuadratureRule:
        sub = self.singular_subdivide if subdivide is None else subdivide
        key = (order, sub)
        if key not in self._rules:
            self._rules[key] = polygon_rule(self.coords, order,
                                            centroid=self.centroid, subdivide=sub)
        return self._rules[key]

    def vtab(self, deriv: tuple[int, int]) -> np.ndarray:
        if deriv not in self._vtabs:
            self._vtabs[deriv] = self.basis.eval(self.rule(self.vol_order, 0).points,
                                                 deriv)
        return self._vtabs[deriv]

    def etab(self, j: int, deriv: tuple[int, int]) -> np.ndarray:
        key = (j, *deriv)
        if key not in self._etabs:
            self._etabs[key] = self.basis.eval(self.edges[j].pts, deriv)
        return self._etabs[key]

    def efit(self, values: np.ndarray, degree: int) -> np.ndarray:
        """Coefficients (degree+1, ncols) of edge-restricted polynomials."""
        return _edge_fit(self.edge_npts, degree) @ values

    @property
    def H(self) -> np.ndarray:
        """Mass Gram matrix of the full monomial basis."""
        if self._H is None:
            V = self.vtab((0, 0))
            w = self.rule(self.vol_order, 0).weights
            self._H = (V * w[:, None]).T @ V
        return self._H


@dataclass
class ElementProjectors:
    ndof: int
    D: np.ndarray                                 # (ndof, n_poly)
    pd: np.ndarray                                # (n_poly, ndof)
    l2: np.ndarray                                # (n_poly, ndof)
    grads: dict[int, tuple[np.ndarray, np.ndarray]]
    hess: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    pg: dict[int, np.ndarray]
    normal_moments: list[np.ndarray] | None       # per edge (mu rows, ndof)
    value_moments: list[np.ndarray]               # per edge (nu rows, ndof), plain integrals


# ---------------------------------------------------------------------------
# local dof layout helpers (must match spaces.local_dofs ordering)


class _Layout:
    def __init__(self, space: SpaceKind, nverts: int):
        self.nverts = nverts
        n = nverts
        self.iv = np.arange(n) if space.n_vertex >= 1 else np.empty(0, dtype=int)
        pos = n if space.n_vertex >= 1 else 0
        if space.n_vertex == 3:
            self.igrad = pos + np.arange(2 * n).reshape(n, 2)
            pos += 2 * n
        else:
            self.igrad = None
        self.inorm = []
        for _ in range(n):
            self.inorm.append(pos + np.arange(space.n_edge_normal))
            pos += space.n_edge_normal
        self.ival = []
        for _ in range(n):
            self.ival.append(pos + np.arange(space.n_edge_value))
            pos += space.n_edge_value
        self.icell = pos + np.arange(space.n_cell)
        self.ndof = pos + space.n_cell


def _vertex_selector(layout: _Layout, ndof: int) -> np.ndarray:
    sel = np.zeros((layout.nverts, ndof))
    for j in range(layout.nverts):
        sel[j, layout.iv[j]] = 1.0
    return sel


# ---------------------------------------------------------------------------
# traces and moment tables


def _conforming_deflection_traces(ctx: ElementContext, space: SpaceKind,
                                  layout: _Layout, char: np.ndarray):
    """Edge value traces (degree max(k,3)) and normal traces (degree k-1)."""
    k = space.degree
    r = max(k, 3)
    ndof = layout.ndof
    value_traces = []
    normal_traces = []
    for j, e in enumerate(ctx.edges):
        # value trace: endpoint values, endpoint tangential derivatives, moments
        A = np.zeros((r + 1, r + 1))
        R = np.zeros((r + 1, ndof))
        pw = np.arange(r + 1)
        A[0] = (-0.5) ** pw
        R[0, layout.iv[e.loc0]] = 1.0
        A[1] = 0.5 ** pw
        R[1, layout.iv[e.loc1]] = 1.0
        dpw = np.where(pw >= 1, pw, 0)
        A[2] = dpw * np.where(pw >= 1, (-0.5) ** np.maximum(pw - 1, 0), 0.0) / e.length
        R[2, layout.igrad[e.loc0]] = e.tangent / char[e.loc0]
        A[3] = dpw * np.where(pw >= 1, 0.5 ** np.maximum(pw - 1, 0), 0.0) / e.length
        R[3, layout.igrad[e.loc1]] = e.tangent / char[e.loc1]
        nv = space.n_edge_value
        A[4:4 + nv] = _edge_gram(nv - 1, r, e.length) / e.length
        for m in range(nv):
            R[4 + m, layout.ival[j][m]] = 1.0
        value_traces.append(np.linalg.solve(A, R))

        # normal derivative trace: endpoint normal derivatives plus moments
        A = np.zeros((k, k))
        R = np.zeros((k, ndof))
        pw = np.arange(k)
        A[0] = (-0.5) ** pw
        R[0, layout.igrad[e.loc0]] = e.normal / char[e.loc0]
        A[1] = 0.5 ** pw
        R[1, layout.igrad[e.loc1]] = e.normal / char[e.loc1]
        nn = space.n_edge_normal
        A[2:2 + nn] = _edge_gram(nn - 1, k - 1, e.length)
        for m in range(nn):
            R[2 + m, layout.inorm[j][m]] = 1.0
        normal_traces.append(np.linalg.solve(A, R))
    return value_traces, normal_traces


def _moments_from_trace(trace: np.ndarray, length: float, n_rows: int) -> np.ndarray:
    """Plain integrals int_e trace * s^b ds for b < n_rows."""
    gram = _edge_gram(n_rows - 1, trace.shape[0] - 1, length)
    return gram @ trace


def _nc_value_moment_table(ctx, space, layout):
    """Plain-integral value moments available directly from dofs."""
    out = []
    for j, e in enumerate(ctx.edges):
        M = np.zeros((space.n_edge_value, layout.ndof))
        for m in range(space.n_edge_value):
            M[m, layout.ival[j][m]] = e.length
        out.append(M)
    return out


def _nc_normal_moment_table(ctx, space, layout):
    out = []
    for j in range(len(ctx.edges)):
        M = np.zeros((space.n_edge_normal, layout.ndof))
        for m in range(space.n_edge_normal):
            M[m, layout.inorm[j][m]] = 1.0
        out.append(M)
    return out


# ---------------------------------------------------------------------------
# the deflection energy projection


def _deflection_pd(ctx: ElementContext, space: SpaceKind, layout: _Layout,
                   mu: list[np.ndarray], nu_low: list[np.ndarray],
                   vertex_sel: np.ndarray, char: np.ndarray):
    k = space.degree
    nk = poly_dim(k)
    ndof = layout.ndof
    basis = ctx.basis
    w = ctx.rule(ctx.vol_order, 0).weights

    Vxx = ctx.vtab((2, 0))[:, :nk]
    Vxy = ctx.vtab((1, 1))[:, :nk]
    Vyy = ctx.vtab((0, 2))[:, :nk]
    G = (Vxx * w[:, None]).T @ Vxx + 2.0 * (Vxy * w[:, None]).T @ Vxy \
        + (Vyy * w[:, None]).T @ Vyy

    B = np.zeros((nk, ndof))

    # interior term: int_K bilap(m) v via cell moments
    if space.n_cell > 0:
        L4 = basis.deriv_matrix((4, 0), k) + 2.0 * basis.deriv_matrix((2, 2), k) \
            + basis.deriv_matrix((0, 4), k)
        cell_sel = np.zeros((space.n_cell, ndof))
        for m in range(space.n_cell):
            cell_sel[m, layout.icell[m]] = 1.0
        B += ctx.area * L4.T @ cell_sel

    third = {d: None for d in [(3, 0), (2, 1), (1, 2), (0, 3)]}
    for j, e in enumerate(ctx.edges):
        nx, ny = e.normal
        tx, ty = e.tangent
        # d_nn(m) against the normal-derivative moments
        e_nn = nx * nx * ctx.etab(j, (2, 0))[:, :nk] \
            + 2.0 * nx * ny * ctx.etab(j, (1, 1))[:, :nk] \
            + ny * ny * ctx.etab(j, (0, 2))[:, :nk]
        C_nn = ctx.efit(e_nn, k - 2)
        B += e.sigma * C_nn.T @ mu[j][:k - 1]

        # T(m) against the value moments; degree k-3 restriction
        if k >= 3:
            vxxx = ctx.etab(j, (3, 0))[:, :nk]
            vxxy = ctx.etab(j, (2, 1))[:, :nk]
            vxyy = ctx.etab(j, (1, 2))[:, :nk]
            vyyy = ctx.etab(j, (0, 3))[:, :nk]
            Tvals = (nx + nx * tx * tx) * vxxx \
                + (ny + 2.0 * nx * tx * ty + ny * tx * tx) * vxxy \
                + (nx + nx * ty * ty + 2.0 * ny * tx * ty) * vxyy \
                + (ny + ny * ty * ty) * vyyy
            C_T = ctx.efit(Tvals, k - 3)
            B -= e.sigma * C_T.T @ nu_low[j][:k - 2]

    # corner jumps of the twist d_nt(m)
    for pos in range(ctx.nverts):
        vpt = ctx.coords[pos][None, :]
        mxx = basis.eval(vpt, (2, 0))[0, :nk]
        mxy = basis.eval(vpt, (1, 1))[0, :nk]
        myy = basis.eval(vpt, (0, 2))[0, :nk]

        def twist(e):
            nx, ny = e.normal
            tx, ty = e.tangent
            return nx * tx * mxx + (nx * ty + ny * tx) * mxy + ny * ty * myy

        jump = twist(ctx.edges[pos - 1]) - twist(ctx.edges[pos])
        B += np.outer(jump, vertex_sel[pos])

    # kernel constraints replace the three affine rows
    Gc = G.copy()
    Bc = B.copy()
    vert_vals = basis.eval(ctx.coords)[:, :nk]
    Gc[0] = vert_vals.mean(axis=0)
    Bc[0] = vertex_sel.mean(axis=0)
    if space.family is Family.CONFORMING:
        gx = basis.eval(ctx.coords, (1, 0))[:, :nk]
        gy = basis.eval(ctx.coords, (0, 1))[:, :nk]
        Gc[1] = gx.mean(axis=0)
        Gc[2] = gy.mean(axis=0)
        rx = np.zeros(ndof)
        ry = np.zeros(ndof)
        for pos in range(ctx.nverts):
            rx[layout.igrad[pos][0]] += 1.0 / char[pos]
            ry[layout.igrad[pos][1]] += 1.0 / char[pos]
        Bc[1] = rx / ctx.nverts
        Bc[2] = ry / ctx.nverts
    else:
        gx_row = np.zeros(nk)
        gy_row = np.zeros(nk)
        rx = np.zeros(ndof)
        ry = np.zeros(ndof)
        for j, e in enumerate(ctx.edges):
            gx_row += e.weights @ ctx.etab(j, (1, 0))[:, :nk]
            gy_row += e.weights @ ctx.etab(j, (0, 1))[:, :nk]
            rx += e.normal[0] * mu[j][0] + e.tangent[0] * (vertex_sel[e.loc1] - vertex_sel[e.loc0])
            ry += e.normal[1] * mu[j][0] + e.tangent[1] * (vertex_sel[e.loc1] - vertex_sel[e.loc0])
        Gc[1] = gx_row
        Gc[2] = gy_row
        Bc[1] = rx
        Bc[2] = ry
    return np.linalg.solve(Gc, Bc)


def _nc_deflection_traces(ctx: ElementContext, space: SpaceKind, layout: _Layout,
                          pd: np.ndarray, vertex_sel: np.ndarray):
    """Edge traces of degree k from vertex values, the C1 rule along sides,
    and value moments borrowed from the energy projection."""
    k = space.degree
    nk = poly_dim(k)
    ndof = layout.ndof
    pw = np.arange(k + 1)
    traces: list[np.ndarray | None] = [None] * ctx.nverts

    def pd_edge_moments(j: int, count: int) -> np.ndarray:
        e = ctx.edges[j]
        vals = ctx.etab(j, (0, 0))[:, :nk] @ pd          # pd trace at Gauss nodes
        powers = e.shat[:, None] ** np.arange(count)[None, :]
        return (powers * e.weights[:, None]).T @ vals    # (count, ndof)

    for s in range(ctx.side.nsides):
        edge_ids = ctx.side.side_edges(s, ctx.nverts)
        prev_deriv_row: np.ndarray | None = None
        prev_sigma_end = 0.0
        for pos_in_side, j in enumerate(edge_ids):
            e = ctx.edges[j]
            A = np.zeros((k + 1, k + 1))
            R = np.zeros((k + 1, ndof))
            A[0] = (-0.5) ** pw
            R[0] = vertex_sel[e.loc0]
            A[1] = 0.5 ** pw
            R[1] = vertex_sel[e.loc1]
            if pos_in_side == 0:
                n_mom = k - 1
                mom_rows = pd_edge_moments(j, n_mom)
                gram = _edge_gram(n_mom - 1, k, e.length)
                A[2:2 + n_mom] = gram
                R[2:2 + n_mom] = mom_rows
            else:
                # C1 matching of the running tangential derivative at the
                # shared hanging vertex, then lower-order moments
                start_shat = -0.5 * e.sigma
                drow = np.where(pw >= 1, pw, 0) * np.where(
                    pw >= 1, start_shat ** np.clip(pw - 1, 0, None), 0.0)
                A[2] = e.sigma * drow / e.length
                R[2] = prev_deriv_row
                n_mom = k - 2
                if n_mom > 0:
                    mom_rows = pd_edge_moments(j, n_mom)
                    gram = _edge_gram(n_mom - 1, k, e.length)
                    A[3:3 + n_mom] = gram
                    R[3:3 + n_mom] = mom_rows
            trace = np.linalg.solve(A, R)
            traces[j] = trace
            end_shat = 0.5 * e.sigma
            drow = np.where(pw >= 1, pw, 0) * np.where(
                pw >= 1, end_shat ** np.clip(pw - 1, 0, None), 0.0)
            prev_deriv_row = e.sigma * (drow @ trace) / e.length
    return traces  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# L2, gradient, and Hessian projections


def _l2_projection(ctx: ElementContext, degree: int, low_dim: int,
                   cell_sel: np.ndarray, energy_proj: np.ndarray) -> np.ndarray:
    """Moments below low_dim come from cell dofs, the rest from the energy projection."""
    n = poly_dim(degree)
    H = ctx.H[:n, :n]
    R = np.zeros((n, energy_proj.shape[1]))
    if low_dim > 0:
        R[:low_dim] = ctx.area * cell_sel
    if low_dim < n:
        R[low_dim:] = H[low_dim:, :energy_proj.shape[0]] @ energy_proj
    return np.linalg.solve(H, R)


def _grad_projection(ctx: ElementContext, g: int, proj_full: np.ndarray,
                     nu: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """L2 projection of the gradient onto degree g, via the function's L2
    projection in the volume and value moments on the boundary."""
    ng = poly_dim(g)
    n_in = proj_full.shape[0]
    basis = ctx.basis
    Hg = ctx.H[:ng, :ng]
    rhs = [np.zeros((ng, proj_full.shape[1])), np.zeros((ng, proj_full.shape[1]))]
    for comp, dxy in enumerate([(1, 0), (0, 1)]):
        Dc = basis.deriv_matrix(dxy, g)      # (dim M_{g-1}, ng)
        nlow = Dc.shape[0]
        if nlow > 0:
            rhs[comp] -= Dc.T @ (ctx.H[:nlow, :n_in] @ proj_full)
    for j, e in enumerate(ctx.edges):
        C = ctx.efit(ctx.etab(j, (0, 0))[:, :ng], g)   # restriction of each m_i
        contract = C.T @ nu[j][:g + 1]
        rhs[0] += e.sigma * e.normal[0] * contract
        rhs[1] += e.sigma * e.normal[1] * contract
    return np.linalg.solve(Hg, rhs[0]), np.linalg.solve(Hg, rhs[1])


def _hessian_projection(ctx: ElementContext, space: SpaceKind, layout: _Layout,
                        mu: list[np.ndarray], nu_low: list[np.ndarray],
                        vertex_sel: np.ndarray):
    """Componentwise L2 projection of the Hessian onto degree k-2.

    Each component row chi E_ab is integrated by parts twice; the
    tangential part of (X n) . grad v is integrated along every edge so
    only endpoint values and low-order value moments of v appear.
    """
    k = space.degree
    nh = poly_dim(k - 2)
    ndof = layout.ndof
    basis = ctx.basis
    Hm = ctx.H[:nh, :nh]

    def route(a: int, b: int) -> np.ndarray:
        rhs = np.zeros((nh, ndof))
        for j, e in enumerate(ctx.edges):
            n = e.normal
            t = e.tangent
            vals = ctx.etab(j, (0, 0))[:, :nh]
            C = ctx.efit(vals, k - 2)
            rhs += e.sigma * n[a] * n[b] * (C.T @ mu[j][:k - 1])
            if k >= 3:
                dt = t[0] * ctx.etab(j, (1, 0))[:, :nh] + t[1] * ctx.etab(j, (0, 1))[:, :nh]
                Cdt = ctx.efit(dt, k - 3)
                rhs -= e.sigma * n[b] * t[a] * (Cdt.T @ nu_low[j][:k - 2])
                db = ctx.etab(j, (1, 0) if b == 0 else (0, 1))[:, :nh]
                Cdb = ctx.efit(db, k - 3)
                rhs -= e.sigma * n[a] * (Cdb.T @ nu_low[j][:k - 2])
        for pos in range(ctx.nverts):
            vpt = ctx.coords[pos][None, :]
            mv = basis.eval(vpt)[0, :nh]
            e_prev = ctx.edges[pos - 1]
            e_next = ctx.edges[pos]
            gprev = e_prev.normal[b] * e_prev.tangent[a]
            gnext = e_next.normal[b] * e_next.tangent[a]
            rhs += np.outer(mv * (gprev - gnext), vertex_sel[pos])
        d2 = basis.deriv_matrix(((2, 0) if a == 0 else (0, 2)) if a == b
                                else (1, 1), k - 2)
        if space.n_cell > 0 and d2.shape[0] > 0:
            cell_sel = np.zeros((space.n_cell, ndof))
            for m in range(space.n_cell):
                cell_sel[m, layout.icell[m]] = 1.0
            rhs += ctx.area * d2.T @ cell_sel[:d2.shape[0]]
        return rhs

    Hxx = np.linalg.solve(Hm, route(0, 0))
    Hyy = np.linalg.solve(Hm, route(1, 1))
    Hxy = np.linalg.solve(Hm, 0.5 * (route(0, 1) + route(1, 0)))
    return Hxx, Hxy, Hyy


def _ritz_grad_projection(ctx: ElementContext, space: SpaceKind, layout: _Layout,
                          degree: int, nu: list[np.ndarray],
                          vertex_sel: np.ndarray | None,
                          volume_proj: np.ndarray | None) -> np.ndarray:
    """Gradient Ritz projection onto degree `degree`.

    volume_proj supplies the moments for -(v, lap chi): either the cell
    moment selector scaled by |K| (pressure) or H @ l2 coefficients
    (deflection).  The kernel constant is pinned by the vertex average for
    conforming spaces with vertex dofs, else by the boundary integral.
    """
    nd = poly_dim(degree)
    ndof = nu[0].shape[1]
    basis = ctx.basis
    w = ctx.rule(ctx.vol_order, 0).weights
    Vx = ctx.vtab((1, 0))[:, :nd]
    Vy = ctx.vtab((0, 1))[:, :nd]
    G = (Vx * w[:, None]).T @ Vx + (Vy * w[:, None]).T @ Vy

    B = np.zeros((nd, ndof))
    lap = basis.deriv_matrix((2, 0), degree) + basis.deriv_matrix((0, 2), degree)
    if lap.shape[0] > 0 and volume_proj is not None:
        B -= lap.T @ volume_proj[:lap.shape[0]]
    for j, e in enumerate(ctx.edges):
        dn = e.normal[0] * ctx.etab(j, (1, 0))[:, :nd] \
            + e.normal[1] * ctx.etab(j, (0, 1))[:, :nd]
        C = ctx.efit(dn, degree - 1)
        B += e.sigma * (C.T @ nu[j][:degree])

    Gc = G.copy()
    Bc = B.copy()
    use_vertex = (space.family is Family.CONFORMING) and vertex_sel is not None
    if use_vertex:
        Gc[0] = basis.eval(ctx.coords)[:, :nd].mean(axis=0)
        Bc[0] = vertex_sel.mean(axis=0)
    else:
        row = np.zeros(nd)
        r = np.zeros(ndof)
        for j, e in enumerate(ctx.edges):
            row += e.weights @ ctx.etab(j, (0, 0))[:, :nd]
            r += nu[j][0]
        Gc[0] = row
        Bc[0] = r
    return np.linalg.solve(Gc, Bc)


# ---------------------------------------------------------------------------
# dof matrix


def _dof_matrix(ctx: ElementContext, space: SpaceKind, layout: _Layout,
                char: np.ndarray) -> np.ndarray:
    """D[i, a] = dof_i(m_a): every dof functional applied to the monomials."""
    n = poly_dim(space.degree)
    D = np.zeros((layout.ndof, n))
    vals = ctx.basis.eval(ctx.coords)[:, :n]
    if space.n_vertex >= 1:
        for pos in range(ctx.nverts):
            D[layout.iv[pos]] = vals[pos]
    if space.n_vertex == 3:
        gx = ctx.basis.eval(ctx.coords, (1, 0))[:, :n]
        gy = ctx.basis.eval(ctx.coords, (0, 1))[:, :n]
        for pos in range(ctx.nverts):
            D[layout.igrad[pos][0]] = char[pos] * gx[pos]
            D[layout.igrad[pos][1]] = char[pos] * gy[pos]
    for j, e in enumerate(ctx.edges):
        if space.n_edge_normal > 0:
            dn = e.normal[0] * ctx.etab(j, (1, 0))[:, :n] \
                + e.normal[1] * ctx.etab(j, (0, 1))[:, :n]
            powers = e.shat[:, None] ** np.arange(space.n_edge_normal)[None, :]
            D[layout.inorm[j]] = (powers * e.weights[:, None]).T @ dn
        if space.n_edge_value > 0:
            powers = e.shat[:, None] ** np.arange(space.n_edge_value)[None, :]
            D[layout.ival[j]] = (powers * e.weights[:, None]).T @ ctx.etab(j, (0, 0))[:, :n] \
                / e.length
    if space.n_cell > 0:
        D[layout.icell] = ctx.H[:space.n_cell, :n] / ctx.area
    return D


# ---------------------------------------------------------------------------
# entry points


def build_deflection_projectors(ctx: ElementContext, space: SpaceKind,
                                pg_degrees: tuple[int, ...] = (),
                                grad_degrees: tuple[int, ...] | None = None) -> ElementProjectors:
    k = space.degree
    if grad_degrees is None:
        grad_degrees = (k - 1,)
    layout = _Layout(space, ctx.nverts)
    char = np.array([ctx.mesh.vertex_char_length[v] for v in ctx.mesh.cells[ctx.cell]])
    vertex_sel = _vertex_selector(layout, layout.ndof)

    if space.family is Family.CONFORMING:
        value_traces, normal_traces = _conforming_deflection_traces(ctx, space, layout, char)
        mu = [_moments_from_trace(normal_traces[j], ctx.edges[j].length, k)
              for j in range(ctx.nverts)]
        nu_low = [_moments_from_trace(value_traces[j], ctx.edges[j].length,
                                      max(k - 2, 1)) for j in range(ctx.nverts)]
    else:
        mu = _nc_normal_moment_table(ctx, space, layout)
        nu_low = _nc_value_moment_table(ctx, space, layout)
        pad = max(k - 2, 1)
        nu_low = [np.vstack([M, np.zeros((pad - M.shape[0], layout.ndof))])
                  if M.shape[0] < pad else M for M in nu_low]

    pd = _deflection_pd(ctx, space, layout, mu, nu_low, vertex_sel, char)

    if space.family is Family.NONCONFORMING:
        value_traces = _nc_deflection_traces(ctx, space, layout, pd, vertex_sel)

    nu = [_moments_from_trace(value_traces[j], ctx.edges[j].length, k)
          for j in range(ctx.nverts)]

    cell_sel = np.zeros((space.n_cell, layout.ndof))
    for m in range(space.n_cell):
        cell_sel[m, layout.icell[m]] = 1.0
    l2 = _l2_projection(ctx, k, space.n_cell, cell_sel, pd)

    grads = {}
    for g in sorted(set(grad_degrees)):
        grads[g] = _grad_projection(ctx, g, l2, nu)

    hess = _hessian_projection(ctx, space, layout, mu, nu_low, vertex_sel)

    pg = {}
    for d in sorted(set(pg_degrees)):
        volume_proj = ctx.H[:, :poly_dim(k)] @ l2
        pg[d] = _ritz_grad_projection(ctx, space, layout, d, nu, vertex_sel, volume_proj)

    D = _dof_matrix(ctx, space, layout, char)
    return ElementProjectors(layout.ndof, D, pd, l2, grads, hess, pg, mu, nu)


def build_pressure_projectors(ctx: ElementContext, space: SpaceKind,
                              extra_pg_degrees: tuple[int, ...] = ()) -> ElementProjectors:
    l = space.degree
    layout = _Layout(space, ctx.nverts)
    char = np.array([ctx.mesh.vertex_char_length[v] for v in ctx.mesh.cells[ctx.cell]])
    vertex_sel = _vertex_selector(layout, layout.ndof) if space.n_vertex else None

    if space.family is Family.CONFORMING:
        # trace of degree l per edge: endpoint values plus scaled moments
        nu = []
        pw = np.arange(l + 1)
        for j, e in enumerate(ctx.edges):
            A = np.zeros((l + 1, l + 1))
            R = np.zeros((l + 1, layout.ndof))
            A[0] = (-0.5) ** pw
            R[0] = vertex_sel[e.loc0]
            A[1] = 0.5 ** pw
            R[1] = vertex_sel[e.loc1]
            nv = space.n_edge_value
            A[2:2 + nv] = _edge_gram(nv - 1, l, e.length) / e.length
            for m in range(nv):
                R[2 + m, layout.ival[j][m]] = 1.0
            nu.append(_moments_from_trace(np.linalg.solve(A, R), e.length, l))
    else:
        nu = _nc_value_moment_table(ctx, space, layout)

    cell_sel = np.zeros((space.n_cell, layout.ndof))
    for m in range(space.n_cell):
        cell_sel[m, layout.icell[m]] = 1.0
    volume_from_cells = ctx.area * cell_sel

    pg = {}
    degrees = sorted(set((l,) + tuple(extra_pg_degrees)))
    for d in degrees:
        pg[d] = _ritz_grad_projection(ctx, space, layout, d, nu, vertex_sel,
                                      volume_from_cells)

    l2 = _l2_projection(ctx, l, space.n_cell, cell_sel, pg[l])
    grads = {l - 1: _grad_projection(ctx, l - 1, l2, nu)}

    D = _dof_matrix(ctx, space, layout, char)
    return ElementProjectors(layout.ndof, D, pg[l], l2, grads, None, pg, None, nu)
