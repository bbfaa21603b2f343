"""Residual a posteriori error estimator for the coupled plate/flow system.

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
rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import AssembledSystem
from .mesh import BoundaryLabel
from .quadrature import ScaledMonomialBasis, edge_rule, poly_dim
from .spaces import Family

N_PARTS = 9


@dataclass
class LocalEstimators:
    """Squared contributions of one element, indexed 0..8 for eta_1..eta_9."""

    cell: int
    parts: np.ndarray

    @property
    def total2(self) -> float:
        return float(self.parts.sum())


@dataclass
class EstimatorReport:
    locals_: list[LocalEstimators]
    components2: np.ndarray          # global squared sums, shape (9,)
    cell_eta2: np.ndarray            # per-cell totals, shape (ncells,)
    eta: float
    included: tuple[int, ...]        # 1-based component indices in the total

    def component(self, i: int) -> float:
        """Global eta_i (1-based), as a plain square root."""
        return float(np.sqrt(self.components2[i - 1]))


def global_eta(locals_: list[LocalEstimators]) -> tuple[float, np.ndarray]:
    """Total estimator and the per-component squared breakdown."""
    if not locals_:
        raise ValueError("empty estimator list")
    components2 = np.zeros(N_PARTS)
    for le in locals_:
        components2 += le.parts
    return float(np.sqrt(components2.sum())), components2


# ---------------------------------------------------------------------------
# polynomial edge traces


def _peval(basis: ScaledMonomialBasis, pts: np.ndarray, coeffs: np.ndarray,
           deriv: tuple[int, int] = (0, 0)) -> np.ndarray:
    if coeffs.size == 0:
        return np.zeros(len(pts))
    return basis.eval(pts, deriv)[:, :coeffs.size] @ coeffs


class EdgeTables:
    """Derivative tables of one element basis at one edge point set.

    Each table is evaluated once and reused across every polynomial that
    needs it, which matters because the edge loop visits every mesh edge.
    """

    def __init__(self, basis: ScaledMonomialBasis, pts: np.ndarray):
        self.basis = basis
        self.pts = pts
        self._tabs: dict[tuple[int, int], np.ndarray] = {}

    def table(self, deriv: tuple[int, int]) -> np.ndarray:
        T = self._tabs.get(deriv)
        if T is None:
            T = self.basis.eval(self.pts, deriv)
            self._tabs[deriv] = T
        return T

    def poly(self, coeffs: np.ndarray,
             deriv: tuple[int, int] = (0, 0)) -> np.ndarray:
        if coeffs.size == 0:
            return np.zeros(len(self.pts))
        return self.table(deriv)[:, :coeffs.size] @ coeffs


def normal_bending_trace(tab: EdgeTables, coeffs: np.ndarray,
                         n: np.ndarray) -> np.ndarray:
    """d_nn of the polynomial with the given coefficients, at tab.pts."""
    return (n[0] * n[0] * tab.poly(coeffs, (2, 0))
            + 2.0 * n[0] * n[1] * tab.poly(coeffs, (1, 1))
            + n[1] * n[1] * tab.poly(coeffs, (0, 2)))


def shear_trace(tab: EdgeTables, coeffs: np.ndarray,
                n: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Effective transverse shear d_n(lap v) + d_t(n.hess v.t) at tab.pts.

    Collecting the third derivatives gives one coefficient per component,
    which keeps the trace a single linear combination of monomial tables.
    """
    nx, ny = n
    tx, ty = t
    c_xxx = nx * (1.0 + tx * tx)
    c_xxy = ny + 2.0 * nx * tx * ty + ny * tx * tx
    c_xyy = nx + nx * ty * ty + 2.0 * ny * tx * ty
    c_yyy = ny * (1.0 + ty * ty)
    return (c_xxx * tab.poly(coeffs, (3, 0))
            + c_xxy * tab.poly(coeffs, (2, 1))
            + c_xyy * tab.poly(coeffs, (1, 2))
            + c_yyy * tab.poly(coeffs, (0, 3)))


# ---------------------------------------------------------------------------
# per-cell polynomial data


@dataclass
class _CellPolys:
    cu_pd: np.ndarray
    cu_l2: np.ndarray
    gux: np.ndarray
    guy: np.ndarray
    cp_pg: np.ndarray
    cp_l2: np.ndarray
    gpx: np.ndarray
    gpy: np.ndarray
    bilap_u: np.ndarray     # coefficients of lap(lap(pd u)), degree k-4
    div_gp: np.ndarray      # divergence of the projected pressure gradient
    div_gu: np.ndarray      # divergence of the projected deflection gradient


def _cell_polys(op, uloc: np.ndarray, ploc: np.ndarray, k: int, l: int) -> _CellPolys:
    basis = op.ctx.basis
    cu_pd = op.defl.pd @ uloc
    gux_m, guy_m = op.defl.grads[k - 1]
    gpx_m, gpy_m = op.pres.grads[max(l - 1, 0)]
    lap_k = basis.deriv_matrix((2, 0), k) + basis.deriv_matrix((0, 2), k)
    lap_k2 = basis.deriv_matrix((2, 0), k - 2) + basis.deriv_matrix((0, 2), k - 2)
    gpx = gpx_m @ ploc
    gpy = gpy_m @ ploc
    gux = gux_m @ uloc
    guy = guy_m @ uloc
    return _CellPolys(
        cu_pd=cu_pd,
        cu_l2=op.defl.l2 @ uloc,
        gux=gux, guy=guy,
        cp_pg=op.pres.pg[l] @ ploc,
        cp_l2=op.pres.l2 @ ploc,
        gpx=gpx, gpy=gpy,
        bilap_u=lap_k2 @ (lap_k @ cu_pd),
        div_gp=(basis.deriv_matrix((1, 0), max(l - 1, 0)) @ gpx
                + basis.deriv_matrix((0, 1), max(l - 1, 0)) @ gpy),
        div_gu=(basis.deriv_matrix((1, 0), k - 1) @ gux
                + basis.deriv_matrix((0, 1), k - 1) @ guy),
    )


# ---------------------------------------------------------------------------
# main entry


def estimate(system: AssembledSystem, U: np.ndarray, P: np.ndarray, *,
             f, g,
             bending_moment_data=None,
             pressure_flux_data=None,
             grad_u_data=None,
             pressure_trace_data=None) -> EstimatorReport:
    """Compute all local contributions and the global estimator.

    f and g are the sources of the two equations.  The optional callbacks
    supply boundary data: the prescribed bending moment on simply
    supported edges, the combined normal flux on pressure-Neumann edges,
    and for the nonconforming trace terms the gradient of the prescribed
    deflection and the pressure trace on its Dirichlet edges.  Missing
    callbacks mean homogeneous data.
    """
    mesh = system.mesh
    k = system.space_u.degree
    l = system.space_p.degree
    alpha, beta, gamma = (system.params.alpha, system.params.beta,
                          system.params.gamma)
    nonconf = system.space_u.family is Family.NONCONFORMING
    include: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7)
    if nonconf:
        include += (8,)
        if k >= 3:
            include += (9,)
    vol_order = 2 * k + 4
    e_order = 2 * k + 2

    parts = np.zeros((mesh.ncells, N_PARTS))
    nk, nl = poly_dim(k), poly_dim(l)

    polys: list[_CellPolys] = []
    for op in system.elements:
        cell = op.cell
        uloc = U[system.dof_u.cell_dofs[cell]]
        ploc = P[system.dof_p.cell_dofs[cell]]
        cp = _cell_polys(op, uloc, ploc, k, l)
        polys.append(cp)
        basis = op.ctx.basis
        h = op.ctx.diameter
        rule = op.ctx.rule(vol_order)
        pts, w = rule.points, rule.weights

        # volume residuals with data oscillation
        fvals = f(pts)
        gvals = g(pts)
        Vk = basis.eval(pts)[:, :nk]
        Vl = Vk[:, :nl]
        cf = np.linalg.solve((Vk * w[:, None]).T @ Vk, (Vk * w[:, None]).T @ fvals)
        cg = np.linalg.solve((Vl * w[:, None]).T @ Vl, (Vl * w[:, None]).T @ gvals)
        osc_f = float(w @ (fvals - Vk @ cf) ** 2)
        osc_g = float(w @ (gvals - Vl @ cg) ** 2)
        R1 = (fvals - _peval(basis, pts, cp.bilap_u) - Vk @ cp.cu_l2
              - alpha * _peval(basis, pts, cp.div_gp))
        R2 = (gvals + gamma * _peval(basis, pts, cp.div_gp)
              - beta * (Vl @ cp.cp_l2) + alpha * _peval(basis, pts, cp.div_gu))
        parts[cell, 0] = h ** 4 * (osc_f + float(w @ R1 ** 2))
        parts[cell, 1] = h ** 2 * (osc_g + float(w @ R2 ** 2))

        # stabilisation energies of the remainders
        s_hess = float(np.sum((uloc - op.defl.D @ cp.cu_pd) ** 2)) / h ** 2
        s_grad = gamma * float(np.sum((ploc - op.pres.D @ cp.cp_pg) ** 2))
        s_mass = beta * h ** 2 * float(np.sum((ploc - op.pres.D @ cp.cp_l2) ** 2))
        wgt = (1.0 + np.sqrt(alpha) * h + h ** 2) ** 2
        parts[cell, 5] = wgt * s_hess + s_grad + s_mass

        # distance of the deflection to its gradient-Ritz image
        cu_rg = op.defl.pg[l] @ uloc
        parts[cell, 6] = alpha * float(
            np.sum((uloc - op.defl.D[:, :nl] @ cu_rg) ** 2))

        if nonconf and k >= 3:
            n2 = poly_dim(k - 2)
            cp_low = op.pres.pg[k - 2] @ ploc
            parts[cell, 8] = alpha * h ** 2 * float(
                np.sum((ploc - op.pres.D[:, :n2] @ cp_low) ** 2))

    # edge terms; interior contributions split evenly between the two cells
    for edge in mesh.edges:
        rule = edge_rule(mesh.vertices[edge.v0], mesh.vertices[edge.v1], e_order)
        pts, w = rule.points, rule.weights
        n, t = edge.normal, edge.tangent
        he = edge.length
        L, R = edge.left, edge.right
        tL = EdgeTables(system.elements[L].ctx.basis, pts)
        pL = polys[L]
        boundary = R is None
        if not boundary:
            tR = EdgeTables(system.elements[R].ctx.basis, pts)
            pR = polys[R]

        acc = np.zeros(N_PARTS)

        # eta_3: bending moment jump; interior and simply supported edges
        if not boundary or edge.label is BoundaryLabel.SIMPLY_SUPPORTED:
            j3 = normal_bending_trace(tL, pL.cu_pd, n)
            if boundary:
                if bending_moment_data is not None:
                    j3 = j3 - bending_moment_data(pts, n)
            else:
                j3 = j3 - normal_bending_trace(tR, pR.cu_pd, n)
            acc[2] = he * float(w @ j3 ** 2)

        # eta_4: shear plus coupling jump; interior edges only
        if not boundary:
            qL = (shear_trace(tL, pL.cu_pd, n, t)
                  + alpha * (n[0] * tL.poly(pL.gpx) + n[1] * tL.poly(pL.gpy)))
            qR = (shear_trace(tR, pR.cu_pd, n, t)
                  + alpha * (n[0] * tR.poly(pR.gpx) + n[1] * tR.poly(pR.gpy)))
            acc[3] = he ** 3 * float(w @ (qL - qR) ** 2)

        # eta_5: combined normal flux; interior and pressure-Neumann edges
        natural_p = (boundary and edge.label is not BoundaryLabel.SIMPLY_SUPPORTED
                     and not system.pressure_dirichlet_on_clamped)
        if not boundary or natural_p:
            qL = (alpha * (n[0] * tL.poly(pL.gux) + n[1] * tL.poly(pL.guy))
                  + gamma * (n[0] * tL.poly(pL.gpx) + n[1] * tL.poly(pL.gpy)))
            if boundary:
                if pressure_flux_data is not None:
                    qL = qL - pressure_flux_data(pts, n)
                acc[4] = he * float(w @ qL ** 2)
            else:
                qR = (alpha * (n[0] * tR.poly(pR.gux) + n[1] * tR.poly(pR.guy))
                      + gamma * (n[0] * tR.poly(pR.gpx) + n[1] * tR.poly(pR.gpy)))
                acc[4] = he * float(w @ (qL - qR) ** 2)

        # eta_8: trace jumps of the gradient and the pressure (nonconforming)
        if nonconf:
            gxL = tL.poly(pL.cu_pd, (1, 0))
            gyL = tL.poly(pL.cu_pd, (0, 1))
            pvL = tL.poly(pL.cp_l2)
            if boundary:
                if grad_u_data is not None:
                    gex = grad_u_data(pts)
                    dgx, dgy = gxL - gex[:, 0], gyL - gex[:, 1]
                else:
                    dgx, dgy = gxL, gyL
                # the deflection value is prescribed on the whole boundary,
                # its normal slope only on the clamped part
                jt = t[0] * dgx + t[1] * dgy
                s8 = float(w @ jt ** 2)
                if edge.label is BoundaryLabel.CLAMPED:
                    jn = n[0] * dgx + n[1] * dgy
                    s8 += float(w @ jn ** 2)
                dirichlet_p = (edge.label is BoundaryLabel.SIMPLY_SUPPORTED
                               or system.pressure_dirichlet_on_clamped)
                if dirichlet_p:
                    pd_val = pvL if pressure_trace_data is None else \
                        pvL - pressure_trace_data(pts)
                    s8 += float(w @ pd_val ** 2)
            else:
                dgx = gxL - tR.poly(pR.cu_pd, (1, 0))
                dgy = gyL - tR.poly(pR.cu_pd, (0, 1))
                dp = pvL - tR.poly(pR.cp_l2)
                s8 = float(w @ (dgx ** 2 + dgy ** 2 + dp ** 2))
            acc[7] = s8 / he

        if boundary:
            parts[L] += acc
        else:
            parts[L] += 0.5 * acc
            parts[R] += 0.5 * acc

    locals_ = [LocalEstimators(c, parts[c].copy()) for c in range(mesh.ncells)]
    eta, components2 = global_eta(locals_)
    return EstimatorReport(locals_, components2, parts.sum(axis=1), eta, include)
