"""Dense reference implementations of the element-local objects.

Everything is recomputed from the defining equations with plain numpy
quadrature: tensor Gauss rules collapsed onto fan triangles for volume
integrals, Gauss-Legendre along edges, Vandermonde solves for polynomial
edge coefficients.  Only mesh geometry, the corner test and the space
descriptors are imported from the package; the projector and assembly
code paths are not touched, so agreement is evidence rather than
tautology.
"""

from __future__ import annotations

import numpy as np

from platevem.mesh import MeshError, corner_mask
from platevem.spaces import Family, SpaceKind

# ---------------------------------------------------------------------------
# quadrature from scratch


def gauss01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def shoelace(coords):
    x, y = coords[:, 0], coords[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum()
    cx = ((x + xn) * cross).sum() / (6.0 * area)
    cy = ((y + yn) * cross).sum() / (6.0 * area)
    return float(area), np.array([cx, cy])


def polygon_quad(coords, order: int):
    """Fan the polygon from its centroid, collapse a tensor rule per triangle.

    The map (a, b) -> c + a [(1-b) d1 + b d2] has Jacobian a (d1 x d2), so a
    degree-p integrand needs a rule exact to p+1 in a and p in b.
    """
    n = (order + 4) // 2 + 1
    a, wa = gauss01(n)
    b, wb = gauss01(n)
    A, B = np.meshgrid(a, b, indexing="ij")
    W = np.outer(wa, wb)
    _, c = shoelace(coords)
    pts, wts = [], []
    m = len(coords)
    for i in range(m):
        d1 = coords[i] - c
        d2 = coords[(i + 1) % m] - c
        twice = d1[0] * d2[1] - d1[1] * d2[0]
        px = c[0] + A * ((1.0 - B) * d1[0] + B * d2[0])
        py = c[1] + A * ((1.0 - B) * d1[1] + B * d2[1])
        pts.append(np.column_stack([px.ravel(), py.ravel()]))
        wts.append((W * A * twice).ravel())
    return np.vstack(pts), np.concatenate(wts)


def smoment_gram(rows: int, cols: int, length: float) -> np.ndarray:
    """int_e shat^b shat^g ds over the canonical scaled edge coordinate."""
    t, w = gauss01(rows + cols + 2)
    s = t - 0.5
    V1 = s[:, None] ** np.arange(rows)[None, :]
    V2 = s[:, None] ** np.arange(cols)[None, :]
    return length * (V1 * w[:, None]).T @ V2


# ---------------------------------------------------------------------------
# scaled monomials from scratch


def pdim(degree: int) -> int:
    return 0 if degree < 0 else (degree + 1) * (degree + 2) // 2


class Mono:
    """Graded-lex scaled monomials ((x-xc)/h)^a ((y-yc)/h)^b."""

    def __init__(self, center, diameter: float, degree: int):
        self.center = np.asarray(center, dtype=float)
        self.h = float(diameter)
        self.degree = degree
        self.exps = [(d - j, j) for d in range(degree + 1) for j in range(d + 1)]

    def eval(self, pts, dx: int = 0, dy: int = 0) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        sx = (pts[:, 0] - self.center[0]) / self.h
        sy = (pts[:, 1] - self.center[1]) / self.h
        cols = []
        for a, b in self.exps:
            ca = 1.0
            for i in range(dx):
                ca *= a - i
            for i in range(dy):
                ca *= b - i
            if ca == 0.0 or a - dx < 0 or b - dy < 0:
                cols.append(np.zeros(len(pts)))
            else:
                cols.append(ca * sx ** (a - dx) * sy ** (b - dy)
                            / self.h ** (dx + dy))
        return np.column_stack(cols)

    def deriv_matrix(self, dx: int, dy: int, degree_in: int) -> np.ndarray:
        """Coefficient map of d^(dx,dy) from degree_in down to degree_in-dx-dy."""
        deg_out = degree_in - dx - dy
        out = np.zeros((pdim(deg_out), pdim(degree_in)))
        if deg_out < 0:
            return out
        exps_in = [(d - j, j) for d in range(degree_in + 1) for j in range(d + 1)]
        index = {}
        i = 0
        for d in range(deg_out + 1):
            for j in range(d + 1):
                index[(d - j, j)] = i
                i += 1
        for col, (a, b) in enumerate(exps_in):
            ca = 1.0
            for i in range(dx):
                ca *= a - i
            for i in range(dy):
                ca *= b - i
            if ca != 0.0 and a - dx >= 0 and b - dy >= 0:
                out[index[(a - dx, b - dy)], col] = ca / self.h ** (dx + dy)
        return out


# ---------------------------------------------------------------------------
# geometry and dof layout mirrors (conventions, not algebra)


class OEdge:
    def __init__(self, mesh, cell: int, j: int, npts: int = 24):
        slot = mesh.cell_ptr[cell] + j
        eid, sigma = int(mesh.cell_edge[slot]), int(mesh.cell_sign[slot])
        coords = mesh.cell_coords(cell)
        nv = len(coords)
        self.eid = eid
        self.sigma = sigma
        self.loc0 = j if sigma == +1 else (j + 1) % nv
        self.loc1 = (j + 1) % nv if sigma == +1 else j
        # the edge frame from the endpoint coordinates alone
        self.p0 = coords[self.loc0]
        self.p1 = coords[self.loc1]
        self.length = float(np.hypot(*(self.p1 - self.p0)))
        self.tangent = (self.p1 - self.p0) / self.length
        self.normal = np.array([self.tangent[1], -self.tangent[0]])
        t, w = gauss01(npts)
        self.shat = t - 0.5
        self.pts = self.p0[None, :] + t[:, None] * (self.p1 - self.p0)[None, :]
        self.weights = w * self.length

    def fit(self, values: np.ndarray, degree: int) -> np.ndarray:
        """Exact shat coefficients of polynomial edge restrictions."""
        V = self.shat[:, None] ** np.arange(degree + 1)[None, :]
        coef, *_ = np.linalg.lstsq(V, values, rcond=None)
        return coef


class OLayout:
    def __init__(self, space: SpaceKind, nverts: int):
        n = nverts
        self.nverts = n
        self.iv = np.arange(n) if space.n_vertex >= 1 else np.empty(0, dtype=int)
        pos = n if space.n_vertex >= 1 else 0
        self.igrad = None
        if space.n_vertex == 3:
            self.igrad = pos + np.arange(2 * n).reshape(n, 2)
            pos += 2 * n
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


class OracleCell:
    """Shared per-cell scaffolding: geometry, rules, monomial tables."""

    def __init__(self, mesh, cell: int, max_degree: int):
        self.mesh = mesh
        self.cell = cell
        self.coords = mesh.cell_coords(cell)
        self.nverts = len(self.coords)
        self.area = float(mesh.areas[cell])
        self.centroid = mesh.centroids[cell]
        self.diameter = float(mesh.diameters[cell])
        own = slice(mesh.cell_ptr[cell], mesh.cell_ptr[cell + 1])
        self.char = mesh.vertex_char_length[mesh.cell_verts[own]]
        self.mono = Mono(self.centroid, self.diameter, max_degree)
        self.edges = [OEdge(mesh, cell, j) for j in range(self.nverts)]
        self.qpts, self.qw = polygon_quad(self.coords, 2 * max_degree + 4)
        V = self.mono.eval(self.qpts)
        self.H = (V * self.qw[:, None]).T @ V

    def vol_gram(self, da, db, n: int) -> np.ndarray:
        Va = self.mono.eval(self.qpts, *da)[:, :n]
        Vb = self.mono.eval(self.qpts, *db)[:, :n]
        return (Va * self.qw[:, None]).T @ Vb


def _selector(rows, ndof, idx) -> np.ndarray:
    out = np.zeros((rows, ndof))
    for r, i in enumerate(idx):
        out[r, i] = 1.0
    return out


def _trace_moments(trace: np.ndarray, length: float, n_rows: int) -> np.ndarray:
    return smoment_gram(n_rows, trace.shape[0], length) @ trace


# ---------------------------------------------------------------------------
# deflection projections


def _conf_deflection_traces(oc: OracleCell, space: SpaceKind, lay: OLayout):
    k = space.degree
    r = max(k, 3)
    value_traces, normal_traces = [], []
    for j, e in enumerate(oc.edges):
        pw = np.arange(r + 1)
        A = np.zeros((r + 1, r + 1))
        R = np.zeros((r + 1, lay.ndof))
        A[0] = (-0.5) ** pw
        R[0, lay.iv[e.loc0]] = 1.0
        A[1] = 0.5 ** pw
        R[1, lay.iv[e.loc1]] = 1.0
        dpw = np.where(pw >= 1, pw, 0)
        A[2] = dpw * np.where(pw >= 1, (-0.5) ** np.maximum(pw - 1, 0), 0.0) / e.length
        R[2, lay.igrad[e.loc0]] = e.tangent / oc.char[e.loc0]
        A[3] = dpw * np.where(pw >= 1, 0.5 ** np.maximum(pw - 1, 0), 0.0) / e.length
        R[3, lay.igrad[e.loc1]] = e.tangent / oc.char[e.loc1]
        gram = smoment_gram(space.n_edge_value, r + 1, e.length)
        for m in range(space.n_edge_value):
            A[4 + m] = gram[m] / e.length
            R[4 + m, lay.ival[j][m]] = 1.0
        value_traces.append(np.linalg.solve(A, R))

        pw = np.arange(k)
        A = np.zeros((k, k))
        R = np.zeros((k, lay.ndof))
        A[0] = (-0.5) ** pw
        R[0, lay.igrad[e.loc0]] = e.normal / oc.char[e.loc0]
        A[1] = 0.5 ** pw
        R[1, lay.igrad[e.loc1]] = e.normal / oc.char[e.loc1]
        gram = smoment_gram(space.n_edge_normal, k, e.length)
        for m in range(space.n_edge_normal):
            A[2 + m] = gram[m]
            R[2 + m, lay.inorm[j][m]] = 1.0
        normal_traces.append(np.linalg.solve(A, R))
    return value_traces, normal_traces


def _deflection_ritz(oc: OracleCell, space: SpaceKind, lay: OLayout,
                     mu, nu_low, vertex_sel, cell_sel):
    k = space.degree
    nk = pdim(k)
    G = (oc.vol_gram((2, 0), (2, 0), nk) + 2.0 * oc.vol_gram((1, 1), (1, 1), nk)
         + oc.vol_gram((0, 2), (0, 2), nk))
    B = np.zeros((nk, lay.ndof))

    if space.n_cell > 0:
        L4 = (oc.mono.deriv_matrix(4, 0, k) + 2.0 * oc.mono.deriv_matrix(2, 2, k)
              + oc.mono.deriv_matrix(0, 4, k))
        B += oc.area * L4.T @ cell_sel

    for j, e in enumerate(oc.edges):
        nx, ny = e.normal
        tx, ty = e.tangent
        e_nn = (nx * nx * oc.mono.eval(e.pts, 2, 0)[:, :nk]
                + 2.0 * nx * ny * oc.mono.eval(e.pts, 1, 1)[:, :nk]
                + ny * ny * oc.mono.eval(e.pts, 0, 2)[:, :nk])
        C_nn = e.fit(e_nn, k - 2)
        B += e.sigma * C_nn.T @ mu[j][:k - 1]
        if k >= 3:
            Tvals = ((nx + nx * tx * tx) * oc.mono.eval(e.pts, 3, 0)[:, :nk]
                     + (ny + 2.0 * nx * tx * ty + ny * tx * tx) * oc.mono.eval(e.pts, 2, 1)[:, :nk]
                     + (nx + nx * ty * ty + 2.0 * ny * tx * ty) * oc.mono.eval(e.pts, 1, 2)[:, :nk]
                     + (ny + ny * ty * ty) * oc.mono.eval(e.pts, 0, 3)[:, :nk])
            C_T = e.fit(Tvals, k - 3)
            B -= e.sigma * C_T.T @ nu_low[j][:k - 2]

    for pos in range(oc.nverts):
        vpt = oc.coords[pos][None, :]
        mxx = oc.mono.eval(vpt, 2, 0)[0, :nk]
        mxy = oc.mono.eval(vpt, 1, 1)[0, :nk]
        myy = oc.mono.eval(vpt, 0, 2)[0, :nk]

        def twist(e):
            return (e.normal[0] * e.tangent[0] * mxx
                    + (e.normal[0] * e.tangent[1] + e.normal[1] * e.tangent[0]) * mxy
                    + e.normal[1] * e.tangent[1] * myy)

        jump = twist(oc.edges[pos - 1]) - twist(oc.edges[pos])
        B += np.outer(jump, vertex_sel[pos])

    Gc, Bc = G.copy(), B.copy()
    Gc[0] = oc.mono.eval(oc.coords)[:, :nk].mean(axis=0)
    Bc[0] = vertex_sel.mean(axis=0)
    if space.family is Family.CONFORMING:
        Gc[1] = oc.mono.eval(oc.coords, 1, 0)[:, :nk].mean(axis=0)
        Gc[2] = oc.mono.eval(oc.coords, 0, 1)[:, :nk].mean(axis=0)
        rx = np.zeros(lay.ndof)
        ry = np.zeros(lay.ndof)
        for pos in range(oc.nverts):
            rx[lay.igrad[pos][0]] += 1.0 / oc.char[pos]
            ry[lay.igrad[pos][1]] += 1.0 / oc.char[pos]
        Bc[1] = rx / oc.nverts
        Bc[2] = ry / oc.nverts
    else:
        gx_row = np.zeros(nk)
        gy_row = np.zeros(nk)
        rx = np.zeros(lay.ndof)
        ry = np.zeros(lay.ndof)
        for j, e in enumerate(oc.edges):
            gx_row += e.weights @ oc.mono.eval(e.pts, 1, 0)[:, :nk]
            gy_row += e.weights @ oc.mono.eval(e.pts, 0, 1)[:, :nk]
            step = vertex_sel[e.loc1] - vertex_sel[e.loc0]
            rx += e.normal[0] * mu[j][0] + e.tangent[0] * step
            ry += e.normal[1] * mu[j][0] + e.tangent[1] * step
        Gc[1], Gc[2] = gx_row, gy_row
        Bc[1], Bc[2] = rx, ry
    return np.linalg.solve(Gc, Bc)


def side_runs(coords) -> list[list[int]]:
    """Local edge ids of each maximal collinear run of a CCW polygon's
    boundary, from one corner (``corner_mask``) to the next; fewer than 3
    corners means the polygon is degenerate."""
    n = len(coords)
    corners = [int(i) for i in np.flatnonzero(corner_mask(coords))]
    if len(corners) < 3:
        raise MeshError("polygon has fewer than 3 corners")
    return [[(c + i) % n for i in range((nxt - c) % n)]
            for c, nxt in zip(corners, corners[1:] + corners[:1])]


def _nc_deflection_traces(oc: OracleCell, space: SpaceKind, lay: OLayout,
                          pd: np.ndarray, vertex_sel):
    k = space.degree
    nk = pdim(k)
    pw = np.arange(k + 1)
    traces: list = [None] * oc.nverts

    def pd_edge_moments(j: int, count: int) -> np.ndarray:
        e = oc.edges[j]
        vals = oc.mono.eval(e.pts)[:, :nk] @ pd
        powers = e.shat[:, None] ** np.arange(count)[None, :]
        return (powers * e.weights[:, None]).T @ vals

    for edge_ids in side_runs(oc.coords):
        prev_deriv_row = None
        for pos_in_side, j in enumerate(edge_ids):
            e = oc.edges[j]
            A = np.zeros((k + 1, k + 1))
            R = np.zeros((k + 1, lay.ndof))
            A[0] = (-0.5) ** pw
            R[0] = vertex_sel[e.loc0]
            A[1] = 0.5 ** pw
            R[1] = vertex_sel[e.loc1]
            if pos_in_side == 0:
                n_mom = k - 1
                A[2:2 + n_mom] = smoment_gram(n_mom, k + 1, e.length)
                R[2:2 + n_mom] = pd_edge_moments(j, n_mom)
            else:
                start_shat = -0.5 * e.sigma
                drow = np.where(pw >= 1, pw, 0) * np.where(
                    pw >= 1, start_shat ** np.clip(pw - 1, 0, None), 0.0)
                A[2] = e.sigma * drow / e.length
                R[2] = prev_deriv_row
                n_mom = k - 2
                if n_mom > 0:
                    A[3:3 + n_mom] = smoment_gram(n_mom, k + 1, e.length)
                    R[3:3 + n_mom] = pd_edge_moments(j, n_mom)
            trace = np.linalg.solve(A, R)
            traces[j] = trace
            end_shat = 0.5 * e.sigma
            drow = np.where(pw >= 1, pw, 0) * np.where(
                pw >= 1, end_shat ** np.clip(pw - 1, 0, None), 0.0)
            prev_deriv_row = e.sigma * (drow @ trace) / e.length
    return traces


def _l2_from_energy(oc: OracleCell, degree: int, low_dim: int,
                    cell_sel, energy_proj) -> np.ndarray:
    n = pdim(degree)
    H = oc.H[:n, :n]
    R = np.zeros((n, energy_proj.shape[1]))
    if low_dim > 0:
        R[:low_dim] = oc.area * cell_sel
    if low_dim < n:
        R[low_dim:] = H[low_dim:, :energy_proj.shape[0]] @ energy_proj
    return np.linalg.solve(H, R)


def _grad_l2(oc: OracleCell, g: int, proj_full: np.ndarray, nu):
    ng = pdim(g)
    n_in = proj_full.shape[0]
    Hg = oc.H[:ng, :ng]
    rhs = [np.zeros((ng, proj_full.shape[1])) for _ in range(2)]
    for comp, (dx, dy) in enumerate([(1, 0), (0, 1)]):
        Dc = oc.mono.deriv_matrix(dx, dy, g)
        if Dc.shape[0] > 0:
            rhs[comp] -= Dc.T @ (oc.H[:Dc.shape[0], :n_in] @ proj_full)
    for j, e in enumerate(oc.edges):
        C = e.fit(oc.mono.eval(e.pts)[:, :ng], g)
        contract = C.T @ nu[j][:g + 1]
        rhs[0] += e.sigma * e.normal[0] * contract
        rhs[1] += e.sigma * e.normal[1] * contract
    return np.linalg.solve(Hg, rhs[0]), np.linalg.solve(Hg, rhs[1])


def _hessian_l2(oc: OracleCell, space: SpaceKind, lay: OLayout,
                mu, nu_low, vertex_sel, cell_sel):
    k = space.degree
    nh = pdim(k - 2)
    Hm = oc.H[:nh, :nh]

    def route(a: int, b: int) -> np.ndarray:
        rhs = np.zeros((nh, lay.ndof))
        for j, e in enumerate(oc.edges):
            n, t = e.normal, e.tangent
            C = e.fit(oc.mono.eval(e.pts)[:, :nh], k - 2)
            rhs += e.sigma * n[a] * n[b] * (C.T @ mu[j][:k - 1])
            if k >= 3:
                dt = (t[0] * oc.mono.eval(e.pts, 1, 0)[:, :nh]
                      + t[1] * oc.mono.eval(e.pts, 0, 1)[:, :nh])
                rhs -= e.sigma * n[b] * t[a] * (e.fit(dt, k - 3).T @ nu_low[j][:k - 2])
                db = oc.mono.eval(e.pts, *((1, 0) if b == 0 else (0, 1)))[:, :nh]
                rhs -= e.sigma * n[a] * (e.fit(db, k - 3).T @ nu_low[j][:k - 2])
        for pos in range(oc.nverts):
            mv = oc.mono.eval(oc.coords[pos][None, :])[0, :nh]
            e_prev, e_next = oc.edges[pos - 1], oc.edges[pos]
            gprev = e_prev.normal[b] * e_prev.tangent[a]
            gnext = e_next.normal[b] * e_next.tangent[a]
            rhs += np.outer(mv * (gprev - gnext), vertex_sel[pos])
        d2 = oc.mono.deriv_matrix(*(((2, 0) if a == 0 else (0, 2)) if a == b
                                    else (1, 1)), k - 2)
        if space.n_cell > 0 and d2.shape[0] > 0:
            rhs += oc.area * d2.T @ cell_sel[:d2.shape[0]]
        return rhs

    Hxx = np.linalg.solve(Hm, route(0, 0))
    Hyy = np.linalg.solve(Hm, route(1, 1))
    Hxy = np.linalg.solve(Hm, 0.5 * (route(0, 1) + route(1, 0)))
    return Hxx, Hxy, Hyy


def _ritz_grad(oc: OracleCell, space: SpaceKind, degree: int, nu,
               vertex_sel, volume_proj):
    nd = pdim(degree)
    ndof = nu[0].shape[1]
    G = oc.vol_gram((1, 0), (1, 0), nd) + oc.vol_gram((0, 1), (0, 1), nd)
    B = np.zeros((nd, ndof))
    lap = oc.mono.deriv_matrix(2, 0, degree) + oc.mono.deriv_matrix(0, 2, degree)
    if lap.shape[0] > 0 and volume_proj is not None:
        B -= lap.T @ volume_proj[:lap.shape[0]]
    for j, e in enumerate(oc.edges):
        dn = (e.normal[0] * oc.mono.eval(e.pts, 1, 0)[:, :nd]
              + e.normal[1] * oc.mono.eval(e.pts, 0, 1)[:, :nd])
        C = e.fit(dn, degree - 1)
        B += e.sigma * (C.T @ nu[j][:degree])

    Gc, Bc = G.copy(), B.copy()
    if space.family is Family.CONFORMING and vertex_sel is not None:
        Gc[0] = oc.mono.eval(oc.coords)[:, :nd].mean(axis=0)
        Bc[0] = vertex_sel.mean(axis=0)
    else:
        row = np.zeros(nd)
        r = np.zeros(ndof)
        for j, e in enumerate(oc.edges):
            row += e.weights @ oc.mono.eval(e.pts)[:, :nd]
            r += nu[j][0]
        Gc[0] = row
        Bc[0] = r
    return np.linalg.solve(Gc, Bc)


def _dof_matrix(oc: OracleCell, space: SpaceKind, lay: OLayout) -> np.ndarray:
    n = pdim(space.degree)
    D = np.zeros((lay.ndof, n))
    vals = oc.mono.eval(oc.coords)[:, :n]
    if space.n_vertex >= 1:
        for pos in range(oc.nverts):
            D[lay.iv[pos]] = vals[pos]
    if space.n_vertex == 3:
        gx = oc.mono.eval(oc.coords, 1, 0)[:, :n]
        gy = oc.mono.eval(oc.coords, 0, 1)[:, :n]
        for pos in range(oc.nverts):
            D[lay.igrad[pos][0]] = oc.char[pos] * gx[pos]
            D[lay.igrad[pos][1]] = oc.char[pos] * gy[pos]
    for j, e in enumerate(oc.edges):
        if space.n_edge_normal > 0:
            dn = (e.normal[0] * oc.mono.eval(e.pts, 1, 0)[:, :n]
                  + e.normal[1] * oc.mono.eval(e.pts, 0, 1)[:, :n])
            powers = e.shat[:, None] ** np.arange(space.n_edge_normal)[None, :]
            D[lay.inorm[j]] = (powers * e.weights[:, None]).T @ dn
        if space.n_edge_value > 0:
            powers = e.shat[:, None] ** np.arange(space.n_edge_value)[None, :]
            D[lay.ival[j]] = (powers * e.weights[:, None]).T \
                @ oc.mono.eval(e.pts)[:, :n] / e.length
    if space.n_cell > 0:
        D[lay.icell] = oc.H[:space.n_cell, :n] / oc.area
    return D


# ---------------------------------------------------------------------------
# entry points


class OracleProjectors:
    def __init__(self, **kw):
        self.__dict__.update(kw)


def oracle_deflection(mesh, cell: int, space: SpaceKind, max_degree: int,
                      pg_degrees=(), grad_degrees=None) -> OracleProjectors:
    k = space.degree
    if grad_degrees is None:
        grad_degrees = (k - 1,)
    oc = OracleCell(mesh, cell, max_degree)
    lay = OLayout(space, oc.nverts)
    vertex_sel = _selector(oc.nverts, lay.ndof, lay.iv)
    cell_sel = _selector(space.n_cell, lay.ndof, lay.icell)

    if space.family is Family.CONFORMING:
        value_traces, normal_traces = _conf_deflection_traces(oc, space, lay)
        mu = [_trace_moments(normal_traces[j], oc.edges[j].length, k)
              for j in range(oc.nverts)]
        nu_low = [_trace_moments(value_traces[j], oc.edges[j].length,
                                 max(k - 2, 1)) for j in range(oc.nverts)]
    else:
        mu = []
        nu_low = []
        for j, e in enumerate(oc.edges):
            M = np.zeros((space.n_edge_normal, lay.ndof))
            for m in range(space.n_edge_normal):
                M[m, lay.inorm[j][m]] = 1.0
            mu.append(M)
            N = np.zeros((max(k - 2, 1), lay.ndof))
            for m in range(space.n_edge_value):
                N[m, lay.ival[j][m]] = e.length
            nu_low.append(N)

    pd = _deflection_ritz(oc, space, lay, mu, nu_low, vertex_sel, cell_sel)
    if space.family is Family.NONCONFORMING:
        value_traces = _nc_deflection_traces(oc, space, lay, pd, vertex_sel)
    nu = [_trace_moments(value_traces[j], oc.edges[j].length, k)
          for j in range(oc.nverts)]

    l2 = _l2_from_energy(oc, k, space.n_cell, cell_sel, pd)
    grads = {g: _grad_l2(oc, g, l2, nu) for g in sorted(set(grad_degrees))}
    hess = _hessian_l2(oc, space, lay, mu, nu_low, vertex_sel, cell_sel)
    pg = {}
    for d in sorted(set(pg_degrees)):
        volume_proj = oc.H[:, :pdim(k)] @ l2
        pg[d] = _ritz_grad(oc, space, d, nu, vertex_sel, volume_proj)
    D = _dof_matrix(oc, space, lay)
    return OracleProjectors(oc=oc, ndof=lay.ndof, D=D, pd=pd, l2=l2,
                            grads=grads, hess=hess, pg=pg)


def oracle_pressure(mesh, cell: int, space: SpaceKind, max_degree: int,
                    extra_pg_degrees=()) -> OracleProjectors:
    l = space.degree
    oc = OracleCell(mesh, cell, max_degree)
    lay = OLayout(space, oc.nverts)
    vertex_sel = _selector(oc.nverts, lay.ndof, lay.iv) if space.n_vertex else None
    cell_sel = _selector(space.n_cell, lay.ndof, lay.icell)

    if space.family is Family.CONFORMING:
        value_traces = []
        pw = np.arange(l + 1)
        for j, e in enumerate(oc.edges):
            A = np.zeros((l + 1, l + 1))
            R = np.zeros((l + 1, lay.ndof))
            A[0] = (-0.5) ** pw
            R[0] = vertex_sel[e.loc0]
            A[1] = 0.5 ** pw
            R[1] = vertex_sel[e.loc1]
            gram = smoment_gram(space.n_edge_value, l + 1, e.length)
            for m in range(space.n_edge_value):
                A[2 + m] = gram[m] / e.length
                R[2 + m, lay.ival[j][m]] = 1.0
            value_traces.append(np.linalg.solve(A, R))
        nu = [_trace_moments(value_traces[j], oc.edges[j].length, l)
              for j in range(oc.nverts)]
    else:
        nu = []
        for j, e in enumerate(oc.edges):
            M = np.zeros((space.n_edge_value, lay.ndof))
            for m in range(space.n_edge_value):
                M[m, lay.ival[j][m]] = e.length
            nu.append(M)

    volume_from_cells = oc.area * cell_sel
    pg = {d: _ritz_grad(oc, space, d, nu, vertex_sel, volume_from_cells)
          for d in sorted(set((l,) + tuple(extra_pg_degrees)))}
    l2 = _l2_from_energy(oc, l, space.n_cell, cell_sel, pg[l])
    grads = {l - 1: _grad_l2(oc, l - 1, l2, nu)}
    D = _dof_matrix(oc, space, lay)
    return OracleProjectors(oc=oc, ndof=lay.ndof, D=D, pd=pg[l], l2=l2,
                            grads=grads, hess=None, pg=pg)


def oracle_element(mesh, cell: int, space_u: SpaceKind, space_p: SpaceKind,
                   params, coupling_degree=None) -> OracleProjectors:
    """Local A1 / B / A3 rebuilt from oracle projections and oracle grams."""
    k, l = space_u.degree, space_p.degree
    maxdeg = max(k, l)
    gu = k - 2 if coupling_degree is None else coupling_degree
    grad_degrees = tuple(sorted({k - 1, max(l - 1, 0), gu}))
    extra_pg = (k - 2,) if (k - 2 >= 1 and k - 2 != l) else ()
    P_u = oracle_deflection(mesh, cell, space_u, maxdeg, pg_degrees=(l,),
                            grad_degrees=grad_degrees)
    P_p = oracle_pressure(mesh, cell, space_p, maxdeg,
                          extra_pg_degrees=extra_pg)
    oc = P_u.oc
    h = oc.diameter
    nk, nl, nh = pdim(k), pdim(l), pdim(k - 2)

    S0 = np.eye(P_u.ndof) - P_u.D @ P_u.l2
    S2 = np.eye(P_u.ndof) - P_u.D @ P_u.pd
    Hxx, Hxy, Hyy = P_u.hess
    A1 = (P_u.l2.T @ oc.H[:nk, :nk] @ P_u.l2 + (h * h) * (S0.T @ S0)
          + Hxx.T @ oc.H[:nh, :nh] @ Hxx + 2.0 * (Hxy.T @ oc.H[:nh, :nh] @ Hxy)
          + Hyy.T @ oc.H[:nh, :nh] @ Hyy + (S2.T @ S2) / (h * h))

    T0 = np.eye(P_p.ndof) - P_p.D @ P_p.l2
    T1 = np.eye(P_p.ndof) - P_p.D @ P_p.pg[l]
    gp = max(l - 1, 0)
    ngp = pdim(gp)
    Gxp, Gyp = P_p.grads[gp]
    A3 = (params.beta * (P_p.l2.T @ oc.H[:nl, :nl] @ P_p.l2
                         + (h * h) * (T0.T @ T0))
          + params.gamma * (Gxp.T @ oc.H[:ngp, :ngp] @ Gxp
                            + Gyp.T @ oc.H[:ngp, :ngp] @ Gyp + T1.T @ T1))

    Gxu, Gyu = P_u.grads[gu]
    Hcross = oc.H[:pdim(gu), :ngp]
    B = params.alpha * (Gxu.T @ Hcross @ Gxp + Gyu.T @ Hcross @ Gyp)
    return OracleProjectors(defl=P_u, pres=P_p, A1=A1, B=B, A3=A3)
