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

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

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


def _gstrf(superlu, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray):
    """``superlu.gstrf`` on the CSC matrix (data, indices, indptr), called
    as ``scipy.sparse.linalg.splu`` calls it for a minimum-degree ordering
    of A^T + A, no pivoting and symmetric mode.  The factor's ``L`` and
    ``U`` are their CSC arrays (data, indices, indptr)."""
    return superlu.gstrf(indptr.size - 1, data.size, data, indices, indptr,
                         csc_construct_func=lambda arrays, shape: arrays, ilu=False,
                         options={"DiagPivotThresh": 0.0, "ColPerm": "MMD_AT_PLUS_A",
                                  "PanelSize": None, "Relax": None,
                                  "SymmetricMode": True})


def load_superlu():
    """SuperLU's compiled module ``_superlu`` from scipy's
    ``sparse/linalg/_dsolve``; its ``gstrf`` is what
    ``scipy.sparse.linalg.splu`` calls.  Loading the module alone runs no
    scipy package code, so no ``scipy.*`` module is imported.  The module
    factors a 1x1 matrix through ``_gstrf`` before it is returned, so a
    scipy whose layout or ``gstrf`` signature differs fails here, with an
    ImportError that names the directory searched and scipy's version."""
    scipy = importlib.util.find_spec("scipy")
    directory = None if scipy is None else os.path.join(
        scipy.submodule_search_locations[0], "sparse", "linalg", "_dsolve")
    spec = None if directory is None else \
        importlib.machinery.PathFinder.find_spec("_superlu", [directory])

    def failure(cause: str) -> ImportError:
        from importlib.metadata import PackageNotFoundError, version
        try:
            found = f"scipy {version('scipy')}"
        except PackageNotFoundError:
            found = "no scipy installed"
        return ImportError(f"SuperLU's compiled module _superlu {cause} "
                           f"(searched {directory}; {found})")

    if spec is None:
        raise failure("is missing")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    try:
        _gstrf(module, np.ones(1), np.zeros(1, dtype=np.intc), np.arange(2, dtype=np.intc))
    except (AttributeError, TypeError, ValueError) as err:
        raise failure(f"does not factor as splu calls it: {err}") from err
    return module


_superlu = load_superlu()


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
    K: CsrMatrix
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


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A sparse matrix in canonical CSR form: each row's column indices
    ascend, without duplicates.  ``A @ x`` adds each row's products onto
    zero in index order (``np.add.at`` adds in the order of its indices),
    as scipy's ``csr_matvec`` does, so the two agree to the bit."""
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return self.data.size

    @cached_property
    def _rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[0], dtype=self.indices.dtype),
                         np.diff(self.indptr))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = np.zeros(self.shape[0])
        np.add.at(y, self._rows, self.data * x[self.indices])
        return y


class CsrPlan:
    """The CSR arrays of a sum of stacked local blocks, planned from their
    dof tables alone, so that each block's values can be added the moment
    they are built and then dropped.

    Block i has row dofs (m, r) and column dofs (m, c), and its values
    (m, r, c) come through ``write(i, values)``.  The plan holds the summed
    pattern and the slot of each of a block's entries in it, and ``write``
    adds the entries into their slots cell by cell, in order.  An entry's
    sum thus follows the order the blocks that share it are written in,
    and not how their cells are split into blocks.  Indices are int32
    while the entry count and n fit."""

    def __init__(self, n: int, pattern):
        # block i's entries are bounds[i]:bounds[i + 1] of the plan's
        self.bounds = np.zeros(len(pattern) + 1, dtype=np.int64)
        np.cumsum([r.size * c.shape[1] for r, c in pattern], out=self.bounds[1:])
        total = int(self.bounds[-1])
        index = np.int32 if max(total, n) <= np.iinfo(np.int32).max else np.int64
        keys = np.empty(total, dtype=np.int64)      # entry (i, j) is i n + j
        for (r, c), lo, hi in zip(pattern, self.bounds[:-1], self.bounds[1:]):
            keys[lo:hi] = (r.astype(np.int64)[:, :, None] * n + c[:, None, :]).ravel()
        order = np.argsort(keys)
        keys = keys[order]
        first = np.empty(total, dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        # an entry's slot: how many distinct keys precede its own
        self.slot = np.empty(total, dtype=index)
        self.slot[order] = np.cumsum(first, dtype=index) - 1
        del order, first
        self.shape = (n, n)
        self.indices = (keys % n).astype(index)
        self.indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(np.bincount(keys // n, minlength=n), out=self.indptr[1:])
        self.data = np.zeros(keys.size)
        self.unwritten = set(range(len(pattern)))

    def write(self, i: int, values: np.ndarray) -> None:
        """The values (m, r, c) of block i, added once."""
        self.unwritten.remove(i)
        np.add.at(self.data, self.slot[self.bounds[i]:self.bounds[i + 1]], values.ravel())

    def matrix(self) -> CsrMatrix:
        """The summed matrix, once every block is written."""
        if self.unwritten:
            raise RuntimeError("a planned block was never written")
        return CsrMatrix(self.data, self.indices, self.indptr, self.shape)


def assemble_system(mesh: PolygonalMesh, space_u: SpaceKind, space_p: SpaceKind,
                    params: ModelParams, *,
                    singular_cells: frozenset[int] | set[int] = frozenset()) -> AssembledSystem:
    """Build the element operators group by group and stream them into
    one sparse block matrix.

    The cells of one group key are built in chunks of at most BUILD_CHUNK
    cells, one ElementGroup each, so the monomial tables of one chunk are
    alive at a time.  The CSR pattern of K is planned from the chunks' dof
    tables first; each chunk's blocks (A1, -B, B^T, A3) are then added
    into it as soon as they are built, chunk after chunk, so each entry of
    K sums its cells' values in the order group key, cell, whatever the
    chunk size.  Cells in
    singular_cells integrate case data on subdivided rules
    (``CellGroup.data_rule``).
    """
    params.validate()
    dof_u = build_dof_map(mesh, space_u)
    dof_p = build_dof_map(mesh, space_p)
    n_u = dof_u.ndof
    max_degree = max(space_u.degree, space_p.degree)
    chunks = []
    for cells, subdivide in cell_groups(mesh, space_u.family, singular_cells):
        for lo in range(0, len(cells), BUILD_CHUNK):
            group = CellGroup(mesh, cells[lo:lo + BUILD_CHUNK], max_degree, subdivide)
            chunks.append((group, dof_u.table(group.verts, group.eid, group.cells),
                           dof_p.table(group.verts, group.eid, group.cells) + n_u))
    # chunk c's blocks A1, -B, B^T, A3 are pattern entries 4 c to 4 c + 3
    plan = CsrPlan(n_u + dof_p.ndof, [(rows, cols) for _, u, p in chunks
                                      for rows, cols in ((u, u), (u, p), (p, u), (p, p))])
    groups = []
    k = space_u.degree
    for c, (group, dofs_u, dofs_p) in enumerate(chunks):
        P_u, P_p, A1, B, A3 = _group_forms(group, space_u, space_p, params)
        for b, values in enumerate((A1, -B, B.swapaxes(1, 2), A3)):
            plan.write(4 * c + b, values)
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
    K: CsrMatrix
    free: np.ndarray
    lift: np.ndarray
    K_lift: np.ndarray
    n_u: int
    lu: _superlu.SuperLU
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
        """ndof and nnz of K, the entries SuperLU stores for L and U, and
        the largest relative residuals checked: of all free rows, then of
        the deflection and the pressure rows."""
        return {"ndof": self.K.shape[0], "nnz": self.K.nnz,
                "fill": int(self.lu.nnz), "residual": self.residual,
                "residual_u": self.residual_u, "residual_p": self.residual_p}


def free_block(K: CsrMatrix, free: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The canonical CSC arrays (data, row indices, column pointers; intc
    indices) of K restricted to the free rows and columns.

    Each entry of K is keyed by its column's place among the free dofs,
    and by nfree in a fixed row or column; one stable sort of the keys
    then lists the free block column by column, each column's rows
    ascending, and leaves the other entries at the end.  numpy sorts keys
    of 16 bits by radix, several times faster than 32-bit ones."""
    nfree = int(np.count_nonzero(free))
    counts = np.diff(K.indptr)
    number = np.where(free, np.cumsum(free) - 1, nfree).astype(np.intc)
    key = number.astype(np.uint16 if nfree < 2 ** 16 else np.intc)[K.indices]
    key[~np.repeat(free, counts)] = nfree
    indptr = np.zeros(nfree + 1, dtype=np.intc)
    np.cumsum(np.bincount(key, minlength=nfree + 1)[:nfree], out=indptr[1:])
    order = np.argsort(key, kind="stable")[:indptr[-1]]
    del key
    rows = np.repeat(number, counts)[order]
    return K.data[order], rows, indptr


def splu(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray):
    """SuperLU's factor of the CSC matrix (data, indices, indptr), by
    ``_gstrf``."""
    return _gstrf(_superlu, data, indices, indptr)


def factor_system(system: AssembledSystem, constraints: Constraints) -> FactoredSystem:
    """Eliminate the fixed dofs by their lift and factor the free block by
    a sparse LU without pivoting, in a minimum-degree ordering of its
    symmetric pattern.

    The free block is [[A, -B], [B^T, D]] with A and D symmetric positive
    definite, so its symmetric part diag(A, D) is positive definite and an
    LU without pivoting exists under any symmetric permutation."""
    free = ~constraints.fixed
    lu = splu(*free_block(system.K, free))
    return FactoredSystem(system.K, free, constraints.lift, system.K @ constraints.lift,
                          system.dof_u.ndof, lu)
