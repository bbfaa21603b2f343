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

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import SIMPLY_SUPPORTED, PolygonalMesh
from .projectors import (CellGroup, ElementProjectors, cell_groups,
                         deflection_projectors, matvec, pressure_projectors)
from .quadrature import poly_dim
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
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
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
    """What loads, error norms and the estimator read of one CellGroup:
    its projectors (without the deflection's Hessian projection, value
    moments and build-only gradient degrees) and the cells' dof indices.
    The local matrices go into K as they are built and are not kept."""
    ctx: CellGroup
    defl: ElementProjectors
    pres: ElementProjectors
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

    grad_degrees = (k - 2, k - 1)
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


class CsrPlan:
    """The unsummed CSR arrays of a sum of stacked local blocks, planned
    from their dof tables alone, so that each block's values can be written
    the moment they are built and then dropped.

    Block i has row dofs (m, r) and column dofs (m, c), and its values
    (m, r, c) come through ``write(i, values)``.  Each entry has its place
    in its row in block order, which is the order
    ``coo_matrix(...).tocsr()`` gives the same triplets; summing the
    duplicates in ``matrix`` then makes the sum bit-identical to it.  Row
    counts go by ``np.add.at``, so each block costs its entries, not n.
    Indices are int32 while the entry count and n fit."""

    def __init__(self, n: int, pattern):
        counts = np.zeros(n, dtype=np.int64)
        for r, c in pattern:
            np.add.at(counts, r.ravel(), c.shape[1])
        total = int(counts.sum())
        index = np.int32 if max(total, n) <= np.iinfo(np.int32).max else np.int64
        self.shape = (n, n)
        self.indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(counts, out=self.indptr[1:])
        cursor = self.indptr[:-1].astype(np.int64)
        self.indices = np.empty(total, dtype=index)
        self.data = np.empty(total)
        # per block, where the entries of each of its rows start
        self.starts: list[np.ndarray | None] = []
        for r, c in pattern:
            rows = r.ravel()
            width = c.shape[1]
            order = np.argsort(rows, kind="stable")
            ranked = rows[order]
            # an occurrence's rank among this block's entries of its row
            rank = np.arange(rows.size) - np.searchsorted(ranked, ranked)
            start = np.empty(rows.size, dtype=np.int64)
            start[order] = cursor[ranked] + rank * width
            dest = start[:, None] + np.arange(width)
            self.indices[dest] = np.broadcast_to(c[:, None, :], (*r.shape, width)
                                                 ).reshape(dest.shape)
            np.add.at(cursor, rows, width)
            self.starts.append(start)

    def write(self, i: int, values: np.ndarray) -> None:
        """The values (m, r, c) of block i, written once."""
        start = self.starts[i]
        self.starts[i] = None
        dest = start[:, None] + np.arange(values.shape[-1])
        self.data[dest] = values.reshape(dest.shape)

    def matrix(self) -> sp.csr_matrix:
        """The summed matrix, once every block is written."""
        if any(s is not None for s in self.starts):
            raise RuntimeError("a planned block was never written")
        K = sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)
        K.sum_duplicates()
        return K


def assemble_system(mesh: PolygonalMesh, space_u: SpaceKind, space_p: SpaceKind,
                    params: ModelParams, *,
                    singular_cells: frozenset[int] | set[int] = frozenset()) -> AssembledSystem:
    """Build the element operators group by group and stream them into
    one sparse block matrix.

    The cells of one group key are built in chunks of at most BUILD_CHUNK
    cells, one ElementGroup each, so the monomial tables of one chunk are
    alive at a time.  The CSR arrays of K are planned from the chunks' dof
    tables first, in the order group key, block (A1, -B, B^T, A3), cell,
    which makes K independent of the chunk size; each chunk's blocks are
    then written into them as soon as they are built.  Cells in
    singular_cells integrate case data on subdivided rules
    (``CellGroup.data_rule``).
    """
    params.validate()
    dof_u = build_dof_map(mesh, space_u)
    dof_p = build_dof_map(mesh, space_p)
    n_u = dof_u.ndof
    max_degree = max(space_u.degree, space_p.degree)
    chunks, pattern, slots = [], [], []
    for cells, subdivide in cell_groups(mesh, space_u.family, singular_cells):
        key = []
        for lo in range(0, len(cells), BUILD_CHUNK):
            group = CellGroup(mesh, cells[lo:lo + BUILD_CHUNK], max_degree, subdivide)
            key.append((group, dof_u.table(group.verts, group.eid, group.cells),
                        dof_p.table(group.verts, group.eid, group.cells) + n_u))
        # block b of chunk c of this key is pattern entry first + b * len(key) + c
        first = len(pattern)
        for rows, cols in ((1, 1), (1, 2), (2, 1), (2, 2)):
            pattern += [(chunk[rows], chunk[cols]) for chunk in key]
        slots += [first + c + len(key) * np.arange(4) for c in range(len(key))]
        chunks += key
    plan = CsrPlan(n_u + dof_p.ndof, pattern)
    groups = []
    k = space_u.degree
    for (group, dofs_u, dofs_p), slot in zip(chunks, slots):
        P_u, P_p, A1, B, A3 = _group_forms(group, space_u, space_p, params)
        for i, values in zip(slot, (A1, -B, B.swapaxes(1, 2), A3)):
            plan.write(i, values)
        defl = replace(P_u, grads={k - 1: P_u.grads[k - 1]}, hess=None, value_moments=None)
        groups.append(ElementGroup(group, defl, P_p, dofs_u, dofs_p))
    return AssembledSystem(mesh, space_u, space_p, params, dof_u, dof_p, plan.matrix(),
                           groups)


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
        V = cg.powers(pts).gather().swapaxes(1, 2)
        wf, wg = w * case.f(pts), w * case.g(pts)
        loc_u = matvec(grp.defl.l2.swapaxes(1, 2), matvec(V[:, :nk], wf))
        loc_p = matvec(grp.pres.l2.swapaxes(1, 2), matvec(V[:, :nl], wg))

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


# Largest relative residual ||(K x - F)[free]|| / ||(F - K lift)[free]|| a
# solve may leave: over 200 times the largest measured, 4.4e-11 (Voronoi
# levels of 100 to 6,400 cells in both families at k = 2 and 3, with unit
# and criterion 7's parameters; a 25,600-cell conforming k = 2 level; the
# shipped L-shape runs).  A factor of the free block plus 1e-3 I leaves
# about 1e-4.
SOLVE_RTOL = 1e-8


@dataclass
class FactoredSystem:
    """The free block of a constrained system, factored for many loads.

    The essential values enter through a lift; its image under the full
    operator `K` is kept, so each solve costs one subtraction and one
    application of the sparse LU factors `lu`.  Every solve is checked
    against `K`: `residual` is the largest relative residual checked, and
    `residual_u`, `residual_p` the largest of the deflection and pressure
    rows alone, each relative to its own rows of the load.
    """
    K: sp.csr_matrix
    free: np.ndarray
    lift: np.ndarray
    K_lift: np.ndarray
    n_u: int
    lu: spla.SuperLU
    residual: float = 0.0
    residual_u: float = 0.0
    residual_p: float = 0.0

    def solve(self, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full coefficient vectors (U, P) with boundary values filled in;
        a RuntimeError if the residual exceeds SOLVE_RTOL."""
        b = (F - self.K_lift)[self.free]
        full = self.lift.copy()
        full[self.free] = self.lu.solve(b)
        r = (self.K @ full - F)[self.free]

        def rel(rows: slice) -> float:
            bnorm = np.linalg.norm(b[rows])
            rnorm = np.linalg.norm(r[rows])
            return float(rnorm / bnorm if bnorm else rnorm)

        combined = rel(slice(None))
        if not combined <= SOLVE_RTOL:      # NaN fails too
            raise RuntimeError(f"solve residual {combined:.3g} exceeds SOLVE_RTOL "
                               f"{SOLVE_RTOL:g}")
        # the free dofs are ascending, so the deflection rows come first
        split = int(np.count_nonzero(self.free[:self.n_u]))
        self.residual = max(self.residual, combined)
        self.residual_u = max(self.residual_u, rel(slice(None, split)))
        self.residual_p = max(self.residual_p, rel(slice(split, None)))
        return full[:self.n_u], full[self.n_u:]

    @property
    def record(self) -> dict:
        """ndof and nnz of K, the entries SuperLU stores for L and U (the
        `lu.L` and `lu.U` views would copy them), and the largest relative
        residuals checked: of all free rows, then of the deflection and
        the pressure rows."""
        return {"ndof": self.K.shape[0], "nnz": int(self.K.nnz),
                "fill": int(self.lu.nnz), "residual": self.residual,
                "residual_u": self.residual_u, "residual_p": self.residual_p}


def factor_system(system: AssembledSystem, constraints: Constraints) -> FactoredSystem:
    """Eliminate the fixed dofs by their lift and factor the free block by
    a sparse LU without pivoting, in a minimum-degree ordering of its
    symmetric pattern.

    The free block is [[A, -B], [B^T, D]] with A and D symmetric positive
    definite, so its symmetric part diag(A, D) is positive definite and an
    LU without pivoting exists under any symmetric permutation."""
    free = ~constraints.fixed
    Kff = system.K[free][:, free].tocsc()
    lu = spla.splu(Kff, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    return FactoredSystem(system.K, free, constraints.lift, system.K @ constraints.lift,
                          system.dof_u.ndof, lu)
