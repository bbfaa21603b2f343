"""Measuring a discrete solution: the error norms of a manufactured case
and the residual a posteriori estimator of the coupled plate/flow system,
in one pass (``measure``) that fills an ``ErrorReport`` and an
``EstimatorReport``.

Nine squared contributions are collected per element:

  1, 2  volume residuals of the two strong equations, including the data
        oscillation of the sources,
  3-5   edge jumps of the bending moment, the effective transverse shear
        combined with the pressure-gradient coupling, and the normal flux,
  6     the stabilisation energies of the solution remainders,
  7     the distance of the deflection to its low-order Ritz projection,
  8, 9  nonconformity measures: gradient/pressure trace jumps and, for
        cubic deflections, the pressure distance to P_{k-2}.

Contributions 8 and 9 belong to the nonconforming family; in conforming
mode the total is the sum of the first seven parts and both are stored as
zero.  Boundary edges enter the jump terms with the prescribed data
subtracted where a natural or essential trace is known, so manufactured
runs with inhomogeneous data keep the estimator decaying at the error's
rate.  The data oscillation in parts 1 and 2 is the one the error report
carries, except on singular groups, whose error norms use a finer rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import AssembledSystem
from .manufactured import ErrorReport, ManufacturedCase
from .mesh import CLAMPED, SIMPLY_SUPPORTED
from .projectors import data_oscillation, matvec
from .quadrature import PowerTable, edge_rule, poly_dim
from .spaces import Family

N_PARTS = 9


@dataclass
class EstimatorReport:
    parts: np.ndarray                # squared contributions eta_1..eta_9, (ncells, 9)

    @property
    def components2(self) -> np.ndarray:
        """Global squared sums, shape (9,)."""
        return self.parts.sum(axis=0)

    @property
    def cell_eta2(self) -> np.ndarray:
        """Per-cell totals, shape (ncells,)."""
        return self.parts.sum(axis=1)

    @property
    def eta(self) -> float:
        return float(np.sqrt(self.components2.sum()))


def _poly(V: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Values at the points of tables V (..., npts, dim) of polynomials
    with stacked coefficients (..., n), n <= dim."""
    return matvec(V[..., :coeffs.shape[-1]], coeffs)


def measure(system: AssembledSystem, U: np.ndarray, P: np.ndarray,
            case: ManufacturedCase) -> tuple[ErrorReport, EstimatorReport]:
    """The error norms and the estimator of one discrete solution, in one
    walk over the cell groups.

    Each group's coefficient vectors, and the data rule with its tables,
    source values and data oscillations, serve both; only a singular group
    integrates its error norms on a finer split of that rule
    (``CellGroup.data_rule``) and its estimator on a second, coarser one.
    The case supplies the exact fields and sources, and the boundary data:
    the prescribed bending moment on simply supported edges, the combined
    normal flux on pressure-Neumann edges, and for the nonconforming trace
    terms the gradient of the prescribed deflection and the pressure trace
    on its Dirichlet edges.  Each boundary data function is called once,
    on the stacked Gauss points of all edges that carry its data.
    """
    mesh = system.mesh
    k = system.space_u.degree
    l = system.space_p.degree
    alpha, beta, gamma = (system.params.alpha, system.params.beta,
                          system.params.gamma)
    nonconf = system.space_u.family is Family.NONCONFORMING
    nk, nl = poly_dim(k), poly_dim(l)
    gl = max(l - 1, 0)
    n_u = system.dof_u.ndof

    # per cell: |u - pd u_h|_2^2, ||u - Pi u_h||^2, |p - pg p_h|_1^2,
    # ||p - Pi p_h||^2, and the two data oscillations
    norms = np.zeros((6, mesh.ncells))
    parts = np.zeros((mesh.ncells, N_PARTS))
    # coefficients of the polynomials the edge terms compare, one row per cell
    cu_pd = np.zeros((mesh.ncells, nk))
    cp_l2 = np.zeros((mesh.ncells, nl))
    gu = np.zeros((2, mesh.ncells, poly_dim(k - 1)))
    gp = np.zeros((2, mesh.ncells, poly_dim(gl)))

    def data(cg, fine: bool):
        """A group's data rule, its power and value tables, the sources on
        it and their squared distances to P_k and P_l."""
        pts, w = cg.data_rule(fine)
        powers = cg.powers(pts)
        V = powers.gather()
        fvals, gvals = case.f(pts), case.g(pts)
        return (pts, w, powers, V, fvals, gvals, data_oscillation(V[..., :nk], w, fvals),
                data_oscillation(V[..., :nl], w, gvals))

    for grp in system.groups:
        cg, defl, pres = grp.ctx, grp.defl, grp.pres
        cells, h = cg.cells, cg.diameter
        uloc = U[grp.dofs_u]
        ploc = P[grp.dofs_p - n_u]
        cu_pd[cells] = cu = matvec(defl.pd, uloc)
        cu0 = matvec(defl.l2, uloc)
        cp = matvec(pres.pg[l], ploc)
        cp_l2[cells] = cp0 = matvec(pres.l2, ploc)

        # error norms on the fine data rule
        pts, w, powers, V, fvals, gvals, osc_f, osc_g = data(cg, fine=True)
        Hex = case.hess_u(pts)
        d_xx = Hex[..., 0] - _poly(powers.gather((2, 0)), cu)
        d_xy = Hex[..., 1] - _poly(powers.gather((1, 1)), cu)
        d_yy = Hex[..., 2] - _poly(powers.gather((0, 2)), cu)
        norms[0, cells] = (w * (d_xx ** 2 + 2.0 * d_xy ** 2 + d_yy ** 2)).sum(-1)
        # each error term's temporaries go before the next one's are made
        del Hex, d_xx, d_xy, d_yy
        Gex = case.grad_p(pts)
        d_px = Gex[..., 0] - _poly(powers.gather((1, 0)), cp)
        d_py = Gex[..., 1] - _poly(powers.gather((0, 1)), cp)
        norms[2, cells] = (w * (d_px ** 2 + d_py ** 2)).sum(-1)
        del Gex, d_px, d_py, powers
        norms[1, cells] = (w * (case.u(pts) - _poly(V, cu0)) ** 2).sum(-1)
        norms[3, cells] = (w * (case.p(pts) - _poly(V, cp0)) ** 2).sum(-1)
        norms[4, cells] = h ** 4 * osc_f
        norms[5, cells] = h ** 2 * osc_g
        if cg.singular_subdivide:
            # the estimator integrates its data on the coarser split
            del pts, w, V, fvals, gvals
            pts, w, _, V, fvals, gvals, osc_f, osc_g = data(cg, fine=False)

        for c in range(2):
            gu[c, cells] = matvec(defl.grads[k - 1][c], uloc)
            gp[c, cells] = matvec(pres.grads[gl][c], ploc)
        lap_k = cg.deriv((2, 0), k) + cg.deriv((0, 2), k)
        lap_k2 = cg.deriv((2, 0), k - 2) + cg.deriv((0, 2), k - 2)
        bilap_u = matvec(lap_k2, matvec(lap_k, cu))
        div_gp = matvec(cg.deriv((1, 0), gl), gp[0, cells]) \
            + matvec(cg.deriv((0, 1), gl), gp[1, cells])
        div_gu = matvec(cg.deriv((1, 0), k - 1), gu[0, cells]) \
            + matvec(cg.deriv((0, 1), k - 1), gu[1, cells])

        # volume residuals with data oscillation
        R1 = (fvals - _poly(V, bilap_u) - _poly(V, cu0)
              - alpha * _poly(V, div_gp))
        R2 = (gvals + gamma * _poly(V, div_gp)
              - beta * _poly(V, cp0) + alpha * _poly(V, div_gu))
        parts[cells, 0] = h ** 4 * (osc_f + (w * R1 ** 2).sum(-1))
        parts[cells, 1] = h ** 2 * (osc_g + (w * R2 ** 2).sum(-1))

        # stabilisation energies of the remainders
        s_hess = ((uloc - matvec(defl.D, cu)) ** 2).sum(-1) / h ** 2
        s_grad = gamma * ((ploc - matvec(pres.D, cp)) ** 2).sum(-1)
        s_mass = beta * h ** 2 * ((ploc - matvec(pres.D, cp0)) ** 2).sum(-1)
        wgt = (1.0 + np.sqrt(alpha) * h + h ** 2) ** 2
        parts[cells, 5] = wgt * s_hess + s_grad + s_mass

        # distance of the deflection to its gradient-Ritz image
        cu_rg = matvec(defl.pg[l], uloc)
        parts[cells, 6] = alpha * ((uloc - matvec(defl.D[..., :nl], cu_rg)) ** 2).sum(-1)

        if nonconf and k >= 3:
            n2 = poly_dim(k - 2)
            cp_low = matvec(pres.pg[k - 2], ploc)
            parts[cells, 8] = alpha * h ** 2 * (
                (ploc - matvec(pres.D[..., :n2], cp_low)) ** 2).sum(-1)

    # edge terms over all edges at once, on Gauss rules exact to degree
    # 2k+2; interior contributions split evenly between the two cells
    he = mesh.edge_length
    n = mesh.edge_normal[:, None, :]
    t = mesh.edge_tangent[:, None, :]
    nx, ny, tx, ty = n[..., 0], n[..., 1], t[..., 0], t[..., 1]
    boundary = mesh.on_boundary
    L = mesh.edge_cells[:, 0]
    R = np.where(boundary, L, mesh.edge_cells[:, 1])
    simply = mesh.edge_label == SIMPLY_SUPPORTED
    clamped = mesh.edge_label == CLAMPED
    dirichlet_p = case.pressure_dirichlet_edges(mesh)
    natural_p = boundary & ~dirichlet_p
    ends = mesh.vertices[mesh.edge_verts]
    pts, w = edge_rule(ends[:, 0], ends[:, 1], 2 * k + 2)

    def integral(v: np.ndarray) -> np.ndarray:
        return (w * v ** 2).sum(-1)

    def data(fn, on: np.ndarray, *, normal: bool = False, comps=()) -> np.ndarray:
        """Boundary data at the points of the edges in `on`, else zero; fn
        takes the points, and with normal=True also the edge normals."""
        out = np.zeros(pts.shape[:2] + comps)
        on = np.flatnonzero(on)
        if on.size:
            out[on] = fn(pts[on], n[on]) if normal else fn(pts[on])
        return out

    def traces(side: np.ndarray):
        """Edge traces of the polynomials of the cells on one side."""
        tab = PowerTable.at(pts, mesh.centroids[side], mesh.diameters[side],
                            max(k, l)).gather

        du = {d: _poly(tab(d), cu_pd[side]) for d in
              [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]}
        V = tab((0, 0))
        dnn = nx * nx * du[2, 0] + 2.0 * nx * ny * du[1, 1] + ny * ny * du[0, 2]
        # effective transverse shear d_n(lap v) + d_t(n.hess v.t), third
        # derivatives collected into one coefficient each
        shear = nx * (1.0 + tx * tx) * du[3, 0] \
            + (ny + 2.0 * nx * tx * ty + ny * tx * tx) * du[2, 1] \
            + (nx + nx * ty * ty + 2.0 * ny * tx * ty) * du[1, 2] \
            + ny * (1.0 + ty * ty) * du[0, 3]
        gp_n = nx * _poly(V, gp[0, side]) + ny * _poly(V, gp[1, side])
        gu_n = nx * _poly(V, gu[0, side]) + ny * _poly(V, gu[1, side])
        return (dnn, shear + alpha * gp_n, alpha * gu_n + gamma * gp_n,
                du[1, 0], du[0, 1], _poly(V, cp_l2[side]))

    dnnL, shearL, fluxL, gxL, gyL, pvL = traces(L)
    dnnR, shearR, fluxR, gxR, gyR, pvR = traces(R)
    inside = ~boundary[:, None]
    acc = np.zeros((mesh.nedges, N_PARTS))

    # eta_3: bending moment jump; interior and simply supported edges
    j3 = dnnL - np.where(inside, dnnR, data(case.bending_moment_data, simply, normal=True))
    acc[:, 2] = np.where(~boundary | simply, he * integral(j3), 0.0)

    # eta_4: shear plus coupling jump; interior edges only
    acc[:, 3] = np.where(boundary, 0.0, he ** 3 * integral(shearL - shearR))

    # eta_5: combined normal flux; interior and pressure-Neumann edges
    j5 = fluxL - np.where(inside, fluxR, data(case.pressure_flux_data, natural_p, normal=True))
    acc[:, 4] = np.where(~boundary | natural_p, he * integral(j5), 0.0)

    # eta_8: trace jumps of the gradient and the pressure (nonconforming);
    # the deflection value is prescribed on the whole boundary, its normal
    # slope only on the clamped part
    if nonconf:
        grad_data = data(case.grad_u, boundary, comps=(2,))
        dgx = gxL - np.where(inside, gxR, grad_data[..., 0])
        dgy = gyL - np.where(inside, gyR, grad_data[..., 1])
        dp = pvL - np.where(inside, pvR, data(case.p, dirichlet_p))
        s8_bnd = integral(tx * dgx + ty * dgy) \
            + np.where(clamped, integral(nx * dgx + ny * dgy), 0.0) \
            + np.where(dirichlet_p, integral(dp), 0.0)
        s8 = np.where(boundary, s8_bnd, (w * (dgx ** 2 + dgy ** 2 + dp ** 2)).sum(-1))
        acc[:, 7] = s8 / he

    np.add.at(parts, L, np.where(boundary, 1.0, 0.5)[:, None] * acc)
    np.add.at(parts, R[~boundary], 0.5 * acc[~boundary])

    k_u2, k_u0, k_p1, k_p0, osc_f, osc_g = norms
    e_u2, e_u0, e_p1, e_p0 = k_u2.sum(), k_u0.sum(), k_p1.sum(), k_p0.sum()
    report = ErrorReport(math.sqrt(e_u2), math.sqrt(e_p1), math.sqrt(e_u0), math.sqrt(e_p0),
                         math.sqrt(e_u0 + e_u2 + beta * e_p0 + gamma * e_p1),
                         math.sqrt(osc_f.sum()), math.sqrt(osc_g.sum()),
                         k_u0 + k_u2 + beta * k_p0 + gamma * k_p1)
    return report, EstimatorReport(parts)
