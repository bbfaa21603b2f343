"""Local forms, global assembly, and the linear solve for the coupled model.

One implicit step of the coupled bending/flow system reads: find the
deflection u and pressure p with

    (u, v) + (hess u, hess v) - alpha (grad p, grad v) = (f, v)
    beta (p, q) + alpha (grad u, grad q) + gamma (grad p, grad q) = (g, q)

for all admissible v, q.  Element matrices combine polynomial-consistency
terms built from the projections with diagonal-free dof-style
stabilisation of the complementary part; scalings follow the natural
dimensions of each norm (h^2 for mass terms, h^-2 for bending, 1 for the
pressure gradient).

Manufactured solutions that do not satisfy the homogeneous natural
conditions contribute boundary data terms: the bending moment d_nn(u) on
simply supported edges enters the first equation, and the combined flux
gamma d_n(p) + alpha d_n(u) on pressure-Neumann edges enters the second.
Both are consumed through the canonical edge moment tables, so they stay
computable for every family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import SIMPLY_SUPPORTED, PolygonalMesh
from .projectors import (CellGroup, ElementProjectors, cell_groups,
                         deflection_projectors, matvec, pressure_projectors)
from .quadrature import pointwise, poly_dim
from .spaces import Constraints, DofMap, SpaceKind, build_dof_map

if TYPE_CHECKING:
    from .manufactured import ManufacturedCase

# Most cells built at once: bounds the monomial tables and temporaries of
# the element build.
BUILD_CHUNK = 256


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless coefficients of the one-step coupled system."""
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0

    def validate(self) -> None:
        if self.beta <= 0 or self.gamma <= 0:
            raise ValueError("beta and gamma must be positive")


def derive_params(lam: float, mu: float, alpha: float, c0: float) -> ModelParams:
    """Map physical poroelastic constants to the dimensionless triple."""
    if mu <= 0:
        raise ValueError("shear modulus must be positive")
    gamma = (lam + mu) / mu
    beta = (c0 * (lam + 2.0 * mu) + alpha ** 2) * gamma
    return ModelParams(alpha=alpha, beta=beta, gamma=gamma)


@dataclass
class ElementGroup:
    """The stacked operators of one CellGroup and the cells' dof indices."""
    ctx: CellGroup
    defl: ElementProjectors
    pres: ElementProjectors
    A1: np.ndarray             # (ncells, ndof_u, ndof_u)
    B: np.ndarray              # (ncells, ndof_u, ndof_p)
    A3: np.ndarray             # (ncells, ndof_p, ndof_p)
    dofs_u: np.ndarray         # (ncells, ndof_u) global deflection dofs
    dofs_p: np.ndarray         # (ncells, ndof_p) global pressure dofs, offset by n_u


@dataclass
class AssembledSystem:
    mesh: PolygonalMesh
    space_u: SpaceKind
    space_p: SpaceKind
    params: ModelParams
    dof_u: DofMap
    dof_p: DofMap
    K: sp.csr_matrix
    groups: list[ElementGroup]

    @property
    def ndof(self) -> int:
        return self.dof_u.ndof + self.dof_p.ndof


# ---------------------------------------------------------------------------
# element matrices


def _group_forms(group: CellGroup, space_u: SpaceKind, space_p: SpaceKind,
                 params: ModelParams):
    """Projectors and local matrices (A1, B, A3) of every cell of a group;
    the group's build-only tables are released afterwards."""
    k = space_u.degree
    l = space_p.degree
    h2 = (group.diameter ** 2)[:, None, None]
    H = group.H

    grad_degrees = tuple(sorted({k - 1, max(l - 1, 0), k - 2}))
    extra_pg = (k - 2,) if (k - 2 >= 1 and k - 2 != l) else ()
    P_u = deflection_projectors(group, space_u, pg_degrees=(l,),
                                grad_degrees=grad_degrees)
    P_p = pressure_projectors(group, space_p, extra_pg_degrees=extra_pg)

    def sq(M):
        return M.swapaxes(-1, -2) @ M

    def form(P, n):
        """P^T H P over the first n monomials."""
        return P.swapaxes(-1, -2) @ H[:, :n, :n] @ P

    nk = poly_dim(k)
    nl = poly_dim(l)
    nh = poly_dim(k - 2)

    # deflection form: mass plus full Hessian, each with its own scaling
    S0 = np.eye(P_u.ndof) - P_u.D @ P_u.l2
    S2 = np.eye(P_u.ndof) - P_u.D @ P_u.pd
    Hxx, Hxy, Hyy = P_u.hess
    A1 = form(P_u.l2, nk) + h2 * sq(S0) \
        + form(Hxx, nh) + 2.0 * form(Hxy, nh) + form(Hyy, nh) + sq(S2) / h2

    # pressure form: projected mass and projected-gradient terms
    T0 = np.eye(P_p.ndof) - P_p.D @ P_p.l2
    T1 = np.eye(P_p.ndof) - P_p.D @ P_p.pg[l]
    gp = max(l - 1, 0)
    ngp = poly_dim(gp)
    Gxp, Gyp = P_p.grads[gp]
    A3 = params.beta * (form(P_p.l2, nl) + h2 * sq(T0)) \
        + params.gamma * (form(Gxp, ngp) + form(Gyp, ngp) + sq(T1))

    # coupling: pressure gradient at degree l-1 against the deflection
    # gradient at degree k-2 (one below full keeps it matched)
    gu = k - 2
    Gxu, Gyu = P_u.grads[gu]
    Hcross = H[:, :poly_dim(gu), :ngp]
    B = params.alpha * (Gxu.swapaxes(-1, -2) @ Hcross @ Gxp
                        + Gyu.swapaxes(-1, -2) @ Hcross @ Gyp)
    group.release()
    return P_u, P_p, A1, B, A3


# ---------------------------------------------------------------------------
# global assembly


def scatter(n: int, blocks) -> sp.csr_matrix:
    """Sum stacked local blocks (row dofs (m, r), col dofs (m, c), values
    (m, r, c)) into one n x n sparse matrix.  The triplets are written in
    block order into one preallocated array, with int32 indices while n
    fits."""
    sizes = [v.size for _, _, v in blocks]
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    rows = np.empty(sum(sizes), dtype=index)
    cols = np.empty_like(rows)
    vals = np.empty(rows.shape)
    end = 0
    for (r, c, v), size in zip(blocks, sizes):
        at, end = end, end + size
        rows[at:end].reshape(v.shape)[...] = r[:, :, None]
        cols[at:end].reshape(v.shape)[...] = c[:, None, :]
        vals[at:end].reshape(v.shape)[...] = v
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def assemble_system(mesh: PolygonalMesh, space_u: SpaceKind, space_p: SpaceKind,
                    params: ModelParams, *,
                    singular_cells: frozenset[int] | set[int] = frozenset()) -> AssembledSystem:
    """Build the element operators group by group and scatter them into
    one sparse block matrix.

    The cells of one group key are built in chunks of at most BUILD_CHUNK
    cells, one ElementGroup each, so the monomial tables of one chunk are
    alive at a time.  The triplets keep the order group key, block (A1,
    -B, B^T, A3), cell, which makes K independent of the chunk size.
    Cells in singular_cells integrate case data on subdivided rules
    (``CellGroup.data_rule``).
    """
    params.validate()
    dof_u = build_dof_map(mesh, space_u)
    dof_p = build_dof_map(mesh, space_p)
    n_u = dof_u.ndof
    max_degree = max(space_u.degree, space_p.degree)
    groups: list[ElementGroup] = []
    blocks = []
    for cells, subdivide in cell_groups(mesh, space_u.family, singular_cells):
        chunks = []
        for lo in range(0, len(cells), BUILD_CHUNK):
            group = CellGroup(mesh, cells[lo:lo + BUILD_CHUNK], max_degree, subdivide)
            chunks.append(ElementGroup(
                group, *_group_forms(group, space_u, space_p, params),
                dof_u.table(group.verts, group.eid, group.cells),
                dof_p.table(group.verts, group.eid, group.cells) + n_u))
        groups += chunks
        blocks += [(g.dofs_u, g.dofs_u, g.A1) for g in chunks] \
            + [(g.dofs_u, g.dofs_p, -g.B) for g in chunks] \
            + [(g.dofs_p, g.dofs_u, g.B.swapaxes(1, 2)) for g in chunks] \
            + [(g.dofs_p, g.dofs_p, g.A3) for g in chunks]
    K = scatter(n_u + dof_p.ndof, blocks)
    return AssembledSystem(mesh, space_u, space_p, params, dof_u, dof_p, K, groups)


# ---------------------------------------------------------------------------
# right-hand side


def assemble_rhs(system: AssembledSystem, case: ManufacturedCase) -> np.ndarray:
    """The case's loads f, g against the L2 projections plus its natural
    boundary data: the bending moment on simply supported edges and the
    combined flux on pressure-Neumann edges.  Each data method is called
    once per group, on all of the group's edges that carry its data.
    """
    nk = poly_dim(system.space_u.degree)
    nl = poly_dim(system.space_p.degree)
    mesh = system.mesh
    moment_edges = mesh.edge_label == SIMPLY_SUPPORTED
    flux_edges = mesh.on_boundary & ~case.pressure_dirichlet_edges(mesh)
    F = np.zeros(system.ndof)
    for grp in system.groups:
        cg = grp.ctx
        pts, w = cg.data_rule()
        Vw = (cg.powers(pts).gather() * w[..., None]).swapaxes(1, 2)
        f, g = pointwise(case.f, pts), pointwise(case.g, pts)
        loc_u = matvec(grp.defl.l2.swapaxes(1, 2), matvec(Vw[:, :nk], f))
        loc_p = matvec(grp.pres.l2.swapaxes(1, 2), matvec(Vw[:, :nl], g))

        for data_fn, on, moments, loc in (
                (case.bending_moment_data, moment_edges, grp.defl.normal_moments, loc_u),
                (case.pressure_flux_data, flux_edges, grp.pres.value_moments, loc_p)):
            i, j = np.nonzero(on[cg.eid])
            if i.size == 0:
                continue
            data = data_fn(cg.edge_pts[i, j], cg.normal[i, j, None, :])
            fit = cg.efit(data[..., None], moments.shape[-2] - 1)[..., 0]
            np.add.at(loc, i, matvec(moments[i, j].swapaxes(1, 2), fit))

        np.add.at(F, grp.dofs_u, loc_u)
        np.add.at(F, grp.dofs_p, loc_p)
    return F


# ---------------------------------------------------------------------------
# solve


@dataclass
class FactoredSystem:
    """The free block of a constrained system, factored for many loads.

    The essential values enter through a lift; its image under the full
    operator is kept, so each solve costs one subtraction and one
    application of the factorization.
    """
    free: np.ndarray
    lift: np.ndarray
    K_lift: np.ndarray
    n_u: int
    solve_free: Callable[[np.ndarray], np.ndarray]

    def solve(self, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full coefficient vectors (U, P) with boundary values filled in."""
        full = self.lift.copy()
        full[self.free] = self.solve_free((F - self.K_lift)[self.free])
        return full[:self.n_u], full[self.n_u:]


def factor_system(system: AssembledSystem, constraints: Constraints,
                  method: str = "direct") -> FactoredSystem:
    """Eliminate the fixed dofs by their lift and factor the free block.

    "direct" is a sparse LU; "gmres" builds an incomplete LU once and uses
    it to precondition every solve.
    """
    if method not in ("direct", "gmres"):
        raise ValueError(f"unknown solve method {method!r}")
    free = ~constraints.fixed
    Kff = system.K[free][:, free].tocsc()
    if method == "direct":
        solve_free = spla.splu(Kff).solve
    else:
        ilu = spla.spilu(Kff, drop_tol=1e-8, fill_factor=20)
        M = spla.LinearOperator(Kff.shape, ilu.solve)

        def solve_free(rhs: np.ndarray) -> np.ndarray:
            x, info = spla.gmres(Kff, rhs, rtol=1e-12, atol=0.0, M=M,
                                 restart=200, maxiter=2000)
            if info != 0:
                raise RuntimeError(f"gmres failed to converge (info={info})")
            return x
    return FactoredSystem(free, constraints.lift, system.K @ constraints.lift,
                          system.dof_u.ndof, solve_free)
