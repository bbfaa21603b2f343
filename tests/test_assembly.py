import json
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from _elements import (build_element, coo_scatter, from_scipy, perturbed_grid, polygon_rule,
                       solve_patch, to_scipy, triplets)

from platevem import assembly, projectors, runner
from platevem.assembly import (SOLVE_RTOL, ModelParams, _group_forms, assemble_rhs,
                               assemble_system, derive_params, factor_system)
from platevem.cli import main
from platevem.estimator import measure
from platevem.manufactured import get_case, polynomial_case
from platevem.mesh import (LABELS, SIMPLY_SUPPORTED, BoundaryLabel, build_mesh, corner_mask,
                           generate_lshape, generate_voronoi, refine)
from platevem.quadrature import PowerTable, gauss_01, poly_dim, triangle_rule_reference
from platevem.runner import (assemble_projected_mass, constrained_system, run_convergence,
                             solve_level, spaces_for, timestep_driver)
from platevem.spaces import Family

PARAMS = ModelParams(0.9, 1.2, 1.5)


def scaled(case, c):
    """The case with every data closure multiplied by c."""
    def times(fn):
        return lambda pts: c * fn(pts)
    return replace(case, **{name: times(getattr(case, name)) for name in
                            ("u", "grad_u", "hess_u", "p", "grad_p", "f", "g")})


def cell_dofs(dofmap, mesh, c):
    """Global dofs of one cell, from the dof map's table of that cell alone."""
    own = slice(mesh.cell_ptr[c], mesh.cell_ptr[c + 1])
    return dofmap.table(mesh.cell_verts[own][None], mesh.cell_edge[own][None],
                        np.array([c]))[0]


class TestModelParams:
    def test_validate_accepts_positive(self):
        ModelParams(1.0, 1.0, 1.0).validate()
        ModelParams(0.0, 1e-8, 1e8).validate()

    def test_validate_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ModelParams(1.0, -1.0, 1.0).validate()
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.0, 0.0).validate()
        with pytest.raises(ValueError):
            derive_params(1.0, 0.0, 1.0, 0.1)

    def test_derive_params(self):
        lam, mu, alpha, c0 = 1.5, 0.5, 0.8, 0.1
        p = derive_params(lam, mu, alpha, c0)
        gamma = (lam + mu) / mu
        assert p.gamma == pytest.approx(gamma)
        assert p.beta == pytest.approx((c0 * (lam + 2 * mu) + alpha**2) * gamma)
        assert p.alpha == pytest.approx(alpha)

    def test_derive_params_incompressible_storage_free(self):
        p = derive_params(1.0, 1.0, 1.0, 0.0)
        assert p.gamma == pytest.approx(2.0)
        assert p.beta == pytest.approx(2.0)


class TestElementForms:
    @pytest.mark.parametrize("family", [Family.CONFORMING, Family.NONCONFORMING])
    def test_symmetry_and_positivity(self, family, voronoi25):
        space_u, space_p = spaces_for(family, 2, 1)
        rng = np.random.default_rng(5)
        for cell in (0, 11, 20):
            op = build_element(voronoi25, cell, space_u, space_p, PARAMS)
            assert np.abs(op.A1 - op.A1.T).max() < 1e-12 * np.abs(op.A1).max()
            assert np.abs(op.A3 - op.A3.T).max() < 1e-12 * np.abs(op.A3).max()
            # A1 contains the projected mass term, so it is positive definite;
            # A3 is as well for beta, gamma > 0.
            for A in (op.A1, op.A3):
                w = np.linalg.eigvalsh(0.5 * (A + A.T))
                assert w.min() > 0
            for _ in range(20):
                x = rng.standard_normal(op.A1.shape[0])
                assert x @ op.A1 @ x > 0

    def test_coupling_scales_with_alpha(self, voronoi25):
        space_u, space_p = spaces_for(Family.CONFORMING, 2, 1)
        op1 = build_element(voronoi25, 3, space_u, space_p,
                            ModelParams(1.0, 1.2, 1.5))
        op2 = build_element(voronoi25, 3, space_u, space_p,
                            ModelParams(2.5, 1.2, 1.5))
        assert np.abs(op2.B - 2.5 * op1.B).max() < 1e-12 * np.abs(op1.B).max()
        assert np.abs(op2.A1 - op1.A1).max() == 0.0
        assert np.abs(op2.A3 - op1.A3).max() == 0.0

    @pytest.mark.parametrize("family", [Family.CONFORMING, Family.NONCONFORMING])
    def test_deflection_gradients_that_are_read(self, monkeypatch, family, voronoi25):
        """The deflection's gradient projections are built at k-2 (the
        coupling) and k-1 (the estimator) only; at k=3, l=1 the pressure's
        degree l-1 = 0 is not among them."""
        real, seen = projectors._grad_projection, []

        def spy(g, deg, l2, nu):
            seen.append((l2.shape[-2], deg))
            return real(g, deg, l2, nu)

        monkeypatch.setattr(projectors, "_grad_projection", spy)
        space_u, space_p = spaces_for(family, 3, 1)
        build_element(voronoi25, 3, space_u, space_p, PARAMS)
        assert {deg for rows, deg in seen if rows == poly_dim(3)} == {1, 2}


class TestGlobalSystem:
    @pytest.mark.parametrize("family", [Family.CONFORMING, Family.NONCONFORMING])
    def test_block_skew_coercivity(self, family, voronoi25):
        """x^T K x reduces to the two diagonal energies: the coupling
        blocks enter with opposite signs and cancel."""
        space_u, space_p = spaces_for(family, 2, 1)
        system = assemble_system(voronoi25, space_u, space_p, PARAMS)
        K = to_scipy(system.K).toarray()
        nu = system.dof_u.ndof
        upper = K[:nu, nu:]
        lower = K[nu:, :nu]
        assert np.abs(upper + lower.T).max() < 1e-12 * max(np.abs(lower).max(), 1)
        rng = np.random.default_rng(77)
        for _ in range(100):
            x = rng.standard_normal(K.shape[0])
            assert x @ K @ x > 1e-10

    def test_rhs_zero_data(self, voronoi25):
        space_u, space_p = spaces_for(Family.CONFORMING, 2, 1)
        system = assemble_system(voronoi25, space_u, space_p, PARAMS)
        F = assemble_rhs(system, scaled(get_case("smooth", params=PARAMS), 0.0))
        assert np.abs(F).max() == 0.0

    def test_rhs_linearity(self, voronoi25):
        space_u, space_p = spaces_for(Family.CONFORMING, 2, 1)
        system = assemble_system(voronoi25, space_u, space_p, PARAMS)
        f1 = lambda pts: np.sin(pts[..., 0]) * pts[..., 1]
        g1 = lambda pts: pts[..., 0] + pts[..., 1] ** 2
        case = replace(get_case("smooth", params=PARAMS), f=f1, g=g1)
        Fa = assemble_rhs(system, case)
        Fb = assemble_rhs(system, scaled(case, 2.0))
        assert np.abs(Fb - 2 * Fa).max() < 1e-12 * np.abs(Fa).max()


def lshape_refined_twice():
    """L-shape mesh refined twice at the re-entrant corner and at cell 0,
    so it has hanging nodes and cells touching the singular point."""
    case = get_case("lshape")
    mesh = generate_lshape(2, labeler=case.labeler)
    for _ in range(2):
        mesh = refine(mesh, sorted(case.singular_cells(mesh)) + [0])
    return case, mesh


class TestGroupedBuild:
    """Every cell's operators from the grouped build in assemble_system
    equal those of build_element on that cell alone, and the loads and
    error norms read from the group arrays equal a per-cell recomputation.
    The local matrices of a group come from ``_group_forms`` on it, as in
    the build, which streams them into K and keeps none."""

    @staticmethod
    def check(mesh, family, k, l, singular):
        space_u, space_p = spaces_for(family, k, l)
        system = assemble_system(mesh, space_u, space_p, PARAMS,
                                 singular_cells=singular)
        n = system.ndof
        K = np.zeros((n, n))
        seen = []
        for g in system.groups:
            cells = g.ctx.cells
            _, _, A1, B, A3 = _group_forms(g.ctx, space_u, space_p, PARAMS)
            assert len(A1) == len(g.dofs_u) == len(g.dofs_p) == len(cells)
            for i, cell in enumerate(cells):
                ref = build_element(mesh, cell, space_u, space_p, PARAMS)
                pairs = [(A1[i], ref.A1), (B[i], ref.B), (A3[i], ref.A3),
                         (g.defl.pd[i], ref.defl.pd), (g.defl.l2[i], ref.defl.l2),
                         (g.pres.l2[i], ref.pres.l2), (g.pres.pg[l][i], ref.pres.pg[l])]
                for got, want in pairs:
                    assert got.shape == want.shape
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
                assert g.ctx.singular_subdivide == (1 if cell in singular else 0)
                # row i of the group's index arrays belongs to cell i of the group
                gu = cell_dofs(system.dof_u, mesh, cell)
                gp = cell_dofs(system.dof_p, mesh, cell) + system.dof_u.ndof
                assert np.array_equal(g.dofs_u[i], gu)
                assert np.array_equal(g.dofs_p[i], gp)
                K[np.ix_(gu, gu)] += ref.A1
                K[np.ix_(gu, gp)] -= ref.B
                K[np.ix_(gp, gu)] += ref.B.T
                K[np.ix_(gp, gp)] += ref.A3
            seen.extend(cells)
        assert sorted(seen) == list(range(mesh.ncells))
        assert np.abs(to_scipy(system.K).toarray() - K).max() <= 1e-12 * np.abs(K).max()
        return system

    @staticmethod
    def check_loads_and_errors(case, mesh, family, k, l):
        """assemble_rhs and the cell energies of measure against one
        build_element, polygon_rule and power table per cell: loads on the
        group's subdivision (1 at singular cells), errors on subdivision 3
        there."""
        system, constraints = constrained_system(case, mesh, spaces_for(family, k, l))
        F = assemble_rhs(system, case)
        U, P = factor_system(system, constraints).solve(F)
        energy2 = measure(system, U, P, case)[0].cell_energy2
        singular = case.singular_cells(mesh)
        nk, nl, n_u = poly_dim(k), poly_dim(l), system.dof_u.ndof
        t, _ = gauss_01(max(k, l) + 4)
        F_ref = np.zeros_like(F)
        energy2_ref = np.zeros(mesh.ncells)
        for c in range(mesh.ncells):
            op = build_element(mesh, c, system.space_u, system.space_p, case.params)

            def basis(x, deriv=(0, 0)):
                return PowerTable.at(x, mesh.centroids[c], mesh.diameters[c], k).gather(deriv)

            gu, gp = cell_dofs(system.dof_u, mesh, c), cell_dofs(system.dof_p, mesh, c)
            x, w = polygon_rule(mesh.cell_coords(c), 2 * k + 4,
                                subdivide=1 if c in singular else 0)
            Vw = basis(x) * w[:, None]
            F_ref[gu] += op.defl.l2.T @ (Vw[:, :nk].T @ case.f(x))
            F_ref[n_u + gp] += op.pres.l2.T @ (Vw[:, :nl].T @ case.g(x))
            own = mesh.cell_edge[mesh.cell_ptr[c]:mesh.cell_ptr[c + 1]]
            for j, eid in enumerate(own):
                if not mesh.on_boundary[eid]:
                    continue
                v0, v1 = mesh.vertices[mesh.edge_verts[eid]]
                pts = v0 + t[:, None] * (v1 - v0)
                normal = mesh.edge_normal[eid]

                def moments(table, data):
                    """table against the least-squares fit of data on the edge."""
                    powers = (t - 0.5)[:, None] ** np.arange(table.shape[0])
                    return table.T @ np.linalg.lstsq(powers, data, rcond=None)[0]

                if mesh.edge_label[eid] == SIMPLY_SUPPORTED:
                    F_ref[gu] += moments(op.defl.normal_moments[j],
                                         case.bending_moment_data(pts, normal))
                elif not case.pressure_dirichlet_on_clamped:
                    F_ref[n_u + gp] += moments(op.pres.value_moments[j],
                                               case.pressure_flux_data(pts, normal))

            x, w = polygon_rule(mesh.cell_coords(c), 2 * k + 4,
                                subdivide=3 if c in singular else 0)
            uloc, ploc = U[gu], P[gp]
            cu, cp = op.defl.pd @ uloc, op.pres.pg[l] @ ploc
            H, G = case.hess_u(x), case.grad_p(x)
            d2 = [H[:, i] - basis(x, d)[:, :nk] @ cu
                  for i, d in enumerate([(2, 0), (1, 1), (0, 2)])]
            d1 = [G[:, i] - basis(x, d)[:, :nl] @ cp
                  for i, d in enumerate([(1, 0), (0, 1)])]
            V = basis(x)
            e_u0 = w @ (case.u(x) - V[:, :nk] @ (op.defl.l2 @ uloc)) ** 2
            e_u2 = w @ (d2[0] ** 2 + 2.0 * d2[1] ** 2 + d2[2] ** 2)
            e_p0 = w @ (case.p(x) - V[:, :nl] @ (op.pres.l2 @ ploc)) ** 2
            e_p1 = w @ (d1[0] ** 2 + d1[1] ** 2)
            energy2_ref[c] = e_u0 + e_u2 + case.params.beta * e_p0 \
                + case.params.gamma * e_p1
        assert np.abs(F - F_ref).max() <= 1e-12 * np.abs(F_ref).max()
        assert np.abs(energy2 - energy2_ref).max() <= 1e-12 * energy2_ref.max()

    @pytest.mark.parametrize("k, l", [(2, 1), (3, 2)])
    def test_voronoi_conforming(self, voronoi25, k, l):
        system = self.check(voronoi25, Family.CONFORMING, k, l, frozenset())
        # 12 hexagons, 11 pentagons and 2 quadrilaterals
        assert sorted(len(g.ctx.cells) for g in system.groups) == [2, 11, 12]
        # the same cells with the smooth case's clamped and simply supported
        # edges, so both boundary data terms enter the loads
        case = get_case("smooth")
        mesh = build_mesh(voronoi25.vertices, voronoi25.cells, labeler=case.labeler)
        labels = {LABELS[c] for c in mesh.edge_label[mesh.on_boundary]}
        assert labels == {BoundaryLabel.CLAMPED, BoundaryLabel.SIMPLY_SUPPORTED}
        self.check_loads_and_errors(case, mesh, Family.CONFORMING, k, l)

    def test_refined_lshape_nonconforming(self):
        case, mesh = lshape_refined_twice()
        singular = case.singular_cells(mesh)
        system = self.check(mesh, Family.NONCONFORMING, 2, 1, singular)
        assert singular
        assert len(system.groups) == 4
        assert sum(g.ctx.singular_subdivide == 1 for g in system.groups) == 1
        # hanging nodes are per-cell data: the pentagons, squares with one
        # hanging vertex in any of four places, share one group
        assert any(len(np.unique(corner_mask(g.ctx.coords), axis=0)) > 1
                   for g in system.groups)
        self.check_loads_and_errors(case, mesh, Family.NONCONFORMING, 2, 1)

    def test_families_share_the_grouping(self):
        case, mesh = lshape_refined_twice()
        singular = case.singular_cells(mesh)
        conforming, nonconforming = (projectors.cell_groups(mesh, family, singular)
                                     for family in (Family.CONFORMING, Family.NONCONFORMING))
        assert len(conforming) == len(nonconforming) == 4
        for (cells_c, sub_c), (cells_n, sub_n) in zip(conforming, nonconforming):
            assert np.array_equal(cells_c, cells_n) and sub_c == sub_n

    def test_ear_clipped_cell(self):
        """An L-shaped octagon whose centroid fan folds over is integrated
        on ear-clipped triangles inside its group."""
        vertices = np.array([[0, 0], [3, 0], [3, .5], [.5, .5], [.5, 3], [0, 3],
                             [3, 3], [1.7, 0], [0, 1.9]], dtype=float)
        mesh = build_mesh(vertices, [[0, 7, 1, 2, 3, 4, 5, 8], [3, 2, 6, 4]])
        system = self.check(mesh, Family.NONCONFORMING, 3, 2, frozenset())
        octagon = next(g.ctx for g in system.groups if g.ctx.nverts == 8)
        assert octagon.rule(octagon.vol_order, 0)[1].shape[1] == \
            6 * len(triangle_rule_reference(8)[1])


class TestBoundedBuild:
    """The element build holds the monomial tables of at most BUILD_CHUNK
    cells at a time, and nothing a level computes depends on the chunk
    size."""

    def test_no_table_outlives_the_build(self, voronoi25):
        """No monomial table and no local matrix outlives the build; of the
        deflection projectors a group keeps what loads, error norms and the
        estimator read."""
        system = assemble_system(voronoi25, *spaces_for(Family.CONFORMING, 2, 1), PARAMS)
        for g in system.groups:
            assert g.ctx._tabs == {}
            assert g.ctx._H is not None
            assert not {"A1", "B", "A3"} & set(vars(g))
            assert g.defl.hess is None and g.defl.value_moments is None
            assert set(g.defl.grads) == {1}

    @staticmethod
    def level(case, mesh, family):
        system, constraints = constrained_system(case, mesh, spaces_for(family, 2, 1))
        return system, solve_level(case, system, constraints)

    @pytest.mark.parametrize("where, family", [
        ("voronoi25", Family.CONFORMING), ("voronoi25", Family.NONCONFORMING),
        ("lshape", Family.NONCONFORMING)])
    def test_chunk_size_is_invisible(self, monkeypatch, voronoi25, where, family):
        """K, the projected mass, the error norms and the estimator are
        bit-identical when every group is split into chunks of at most 7
        cells."""
        if where == "lshape":
            case, mesh = lshape_refined_twice()
            assert case.singular_cells(mesh)
        else:
            case, mesh = get_case("smooth"), voronoi25
        system, result = self.level(case, mesh, family)
        monkeypatch.setattr(assembly, "BUILD_CHUNK", 7)
        chunked, chunked_result = self.level(case, mesh, family)
        assert max(len(g.ctx) for g in chunked.groups) <= 7
        assert len(chunked.groups) > len(system.groups)
        for got, want in ((chunked.K, system.K), (assemble_projected_mass(chunked),
                                                  assemble_projected_mass(system))):
            for name in ("data", "indices", "indptr"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b)
        for f in fields(result.report):
            assert np.array_equal(getattr(chunked_result.report, f.name),
                                  getattr(result.report, f.name)), f.name
        assert np.array_equal(chunked_result.est.parts, result.est.parts)

    @pytest.mark.parametrize("family, peak_mb, live_mb", [
        (Family.CONFORMING, 9.5, 6.5), (Family.NONCONFORMING, 6.2, 4.0)])
    def test_level_memory(self, family, peak_mb, live_mb):
        """The build of the seed-3 400-cell Voronoi level (k=2 l=1) peaks at
        8.73 MB of traced allocations and keeps 6.01 MB alive (conforming),
        5.69 and 3.63 MB (nonconforming).  Holding every chunk's local
        matrices until one scatter, volume derivative tables and the
        deflection's build-only projectors took it to 12.47 and 8.39 MB
        (conforming), 10.72 and 5.05 MB (nonconforming)."""
        case = get_case("smooth")
        mesh = generate_voronoi(400, lloyd_iters=5, seed=3, labeler=case.labeler)
        tracemalloc.start()
        try:
            system = assemble_system(mesh, *spaces_for(family, 2, 1), case.params)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert system.K.shape == (system.ndof, system.ndof)
        assert peak < peak_mb * 1e6
        assert live < live_mb * 1e6

    @pytest.mark.parametrize("family", [Family.CONFORMING, Family.NONCONFORMING])
    def test_measuring_pass_memory(self, family):
        """The measuring pass of the seed-3 400-cell Voronoi level (k=2
        l=1) peaks at 7.22 MB of traced allocations in either family, below
        the 7.95 MB of the error norms alone when they had a pass of their
        own.  A group's error-norm temporaries are dropped before its
        estimator terms, and a singular group's error rule before its
        estimator rule; keeping them took the peak to 8.34 MB."""
        case = get_case("smooth")
        mesh = generate_voronoi(400, lloyd_iters=5, seed=3, labeler=case.labeler)
        system, constraints = constrained_system(case, mesh, spaces_for(family, 2, 1))
        U, P = factor_system(system, constraints).solve(assemble_rhs(system, case))
        tracemalloc.start()
        try:
            measure(system, U, P, case)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8.4e6

    def test_traced_peak_of_a_400_cell_build(self):
        """The build of a 400-cell Voronoi level (conforming k=2 l=1) peaks
        at 9.3 MB of traced allocations; 13.8 MB before its blocks were
        streamed into K.  Keeping every group's tables until the level ends
        took it to 28 MB, and one scatter that concatenates per-block
        triplet lists to 22 MB."""
        case = get_case("smooth")
        mesh = generate_voronoi(400, lloyd_iters=5, seed=205, labeler=case.labeler)
        tracemalloc.start()
        try:
            assemble_system(mesh, *spaces_for(Family.CONFORMING, 2, 1), case.params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11e6


@pytest.fixture(scope="module")
def mesh400():
    return generate_voronoi(400, lloyd_iters=5, seed=3, labeler=get_case("smooth").labeler)


def level_blocks(mesh, system, spaces):
    """The local blocks (row dofs, col dofs, values) of every chunk of a
    level, rebuilt by ``_group_forms``, in the order group key, block
    (A1, -B, B^T, A3), chunk: each entry of K gets its cells' values in
    the order group key, cell, as in ``assemble_system``."""
    blocks, groups = [], iter(system.groups)
    for cells, _ in projectors.cell_groups(mesh, spaces[0].family):
        chunks = [next(groups) for _ in range(0, len(cells), assembly.BUILD_CHUNK)]
        forms = [_group_forms(g.ctx, *spaces, PARAMS)[2:] for g in chunks]
        blocks += [(g.dofs_u, g.dofs_u, A1) for g, (A1, _, _) in zip(chunks, forms)] \
            + [(g.dofs_u, g.dofs_p, -B) for g, (_, B, _) in zip(chunks, forms)] \
            + [(g.dofs_p, g.dofs_u, B.swapaxes(1, 2)) for g, (_, B, _) in zip(chunks, forms)] \
            + [(g.dofs_p, g.dofs_p, A3) for g, (_, _, A3) in zip(chunks, forms)]
    assert next(groups, None) is None
    return blocks


class TestScatter:
    """`assemble_system` adds each chunk's blocks into their planned
    places in the CSC columns, and K is bit-identical to adding the same
    blocks' triplets into their entries one at a time, whatever the chunk
    size."""

    @pytest.mark.parametrize("chunk", [1, 7, assembly.BUILD_CHUNK])
    @pytest.mark.parametrize("family", [Family.CONFORMING, Family.NONCONFORMING])
    def test_matches_coo_triplets(self, monkeypatch, mesh400, chunk, family):
        monkeypatch.setattr(assembly, "BUILD_CHUNK", chunk)
        spaces = spaces_for(family, 2, 1)
        system = assemble_system(mesh400, *spaces, PARAMS)
        assert max(len(g.ctx) for g in system.groups) <= chunk
        want = coo_scatter(system.ndof, level_blocks(mesh400, system, spaces))
        for name in ("data", "indices", "indptr"):
            a, b = getattr(system.K, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_unwritten_block_fails(self):
        """A plan whose blocks are not all written gives no matrix."""
        dofs = np.array([[0, 1]])
        plan = assembly.CscPlan(2, [(dofs, dofs), (dofs, dofs)])
        plan.write(0, np.ones((1, 2, 2)))
        with pytest.raises(RuntimeError, match="never written"):
            plan.matrix()
        plan.write(1, np.ones((1, 2, 2)))
        assert np.array_equal(to_scipy(plan.matrix()).toarray(), np.full((2, 2), 2.0))


class TestScipyReference:
    """On the seed-3 400-cell Voronoi level, the numpy sparse path against
    scipy's: scipy sums K's duplicates in the order its sort leaves them,
    so K's values may differ from its sum in the last bits; the free block
    has scipy's CSC arrays, and its factor, solve and K's products are
    scipy's to the bit."""

    @pytest.fixture(scope="class", params=[Family.CONFORMING, Family.NONCONFORMING],
                    ids=lambda f: f.value)
    def level(self, request, mesh400):
        spaces = spaces_for(request.param, 2, 1)
        system = assemble_system(mesh400, *spaces, PARAMS)
        constraints = constrained_system(get_case("smooth"), mesh400, spaces)[1]
        reference = triplets(system.ndof, level_blocks(mesh400, system, spaces)).tocsc()
        return system, ~constraints.fixed, reference

    def test_free_block_is_scipys(self, level):
        system, free, reference = level
        got = assembly.free_block(system.K, free)
        assert got[1].dtype == got[2].dtype == np.intc
        same = to_scipy(system.K)[free][:, free].tocsc()
        for a, b in zip(got, (same.data, same.indices, same.indptr)):
            assert np.array_equal(a, b)
        want = reference[free][:, free].tocsc()
        assert np.array_equal(got[1], want.indices) and np.array_equal(got[2], want.indptr)
        scale = np.abs(system.K.data).max()
        assert np.abs(got[0] - want.data).max() <= 1e-15 * scale

    def test_factor_is_scipys(self, level):
        system, free, _ = level
        data, indices, indptr = assembly.free_block(system.K, free)
        n = indptr.size - 1
        lu = assembly.splu(data, indices, indptr)
        want = spla.splu(sp.csc_matrix((data, indices, indptr), shape=(n, n)),
                         permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
        assert np.array_equal(lu.perm_c, want.perm_c)
        assert np.array_equal(lu.perm_r, want.perm_r)
        assert lu.nnz == want.nnz
        b = np.random.default_rng(5).standard_normal(n)
        assert np.array_equal(lu.solve(b).view(np.int64), want.solve(b).view(np.int64))

    def test_matvec_is_scipys(self, level):
        system, _, _ = level
        x = np.random.default_rng(6).standard_normal(system.ndof)
        got, want = system.K @ x, to_scipy(system.K) @ x
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def edge_shape(shape: str) -> tuple[sp.csc_matrix, np.ndarray]:
    """A matrix and its free dofs: 70,000 random rows (over 65,535 free
    dofs), or a full 7x7 matrix with dofs 0 and 5 fixed whose first free
    column has an entry in fixed row 0 only, whose middle free column is
    empty, or with every dof fixed."""
    if shape == "70,000 rows":
        rng = np.random.default_rng(7)
        n = 70_000
        rows, cols = rng.integers(n, size=(2, 4 * n))
        A = sp.coo_matrix((rng.standard_normal(4 * n), (rows, cols)), shape=(n, n))
        return (A + sp.eye(n)).tocsc(), rng.random(n) > 0.03
    A = np.arange(1.0, 50.0).reshape(7, 7)
    free = np.array([False, True, True, True, True, False, True])
    if shape == "empty first free column":
        A[1:, 1] = 0.0
    elif shape == "empty middle free column":
        A[:, 3] = 0.0
    else:
        free[:] = False
    return sp.csc_matrix(A), free


@pytest.mark.parametrize("shape", ["70,000 rows", "empty first free column",
                                   "empty middle free column", "no free dofs"])
def test_free_block_of_an_edge_shape_is_scipys(shape):
    """``free_block`` gives scipy's CSC arrays of ``A[free][:, free]``, with
    intc indices, past 65,535 free dofs, with an empty free column first or
    in the middle, and with no free dof."""
    A, free = edge_shape(shape)
    got = assembly.free_block(from_scipy(A), free)
    same = A[free][:, free].tocsc()
    assert same.has_canonical_format
    assert got[1].dtype == got[2].dtype == np.intc
    for a, b in zip(got, (same.data, same.indices, same.indptr)):
        assert np.array_equal(a, b)
    if shape.startswith("empty"):
        assert 0 in np.diff(got[2])


def test_free_block_memory(mesh400):
    """The free block of the seed-3 400-cell Voronoi level (conforming k=2
    l=1; 3,005 free dofs, 161,152 entries of K) is taken with a traced
    peak of 1.98 MB, its own arrays being 1.82 MB: K is stored column by
    column, so the block is a mask of K's entries.  From K's rows, one
    stable sort of the entries by free column peaked at 3.13 MB."""
    case = get_case("smooth")
    system, constraints = constrained_system(case, mesh400,
                                             spaces_for(Family.CONFORMING, 2, 1))
    tracemalloc.start()
    try:
        assembly.free_block(system.K, ~constraints.fixed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.6e6


class TestPatchReproduction:
    """With the right-hand side synthesized from the interpolant, the
    solver must return that interpolant to solver precision."""

    @pytest.mark.parametrize("family", [Family.CONFORMING, Family.NONCONFORMING])
    @pytest.mark.parametrize("k", [2, 3])
    def test_perturbed_grid(self, family, k):
        mesh = perturbed_grid(4, 4, 0.2, 1)
        case = polynomial_case(k, k - 1, PARAMS, seed=12)
        rep = solve_patch(case, mesh, family, k, k - 1)
        assert rep.err_u_h2 < 1e-8
        assert rep.err_p_h1 < 1e-8

    @pytest.mark.parametrize("family", [Family.CONFORMING, Family.NONCONFORMING])
    def test_voronoi(self, family, voronoi25):
        case = polynomial_case(2, 1, PARAMS, seed=3)
        rep = solve_patch(case, voronoi25, family, 2, 1)
        assert rep.err_u_h2 < 1e-8
        assert rep.err_p_h1 < 1e-8


def singular(system, constraints):
    """The constrained system with the row and column of its first free
    dof in K set to zero."""
    keep = np.ones(system.ndof)
    keep[np.flatnonzero(~constraints.fixed)[0]] = 0.0
    D = sp.diags(keep)
    return replace(system, K=from_scipy(D @ to_scipy(system.K) @ D)), constraints


class TestSolvers:
    def test_singular_free_block_raises(self, voronoi25):
        """A free dof that no equation touches makes the LU fail loudly."""
        case = get_case("smooth")
        system, constraints = constrained_system(case, voronoi25,
                                                 spaces_for(Family.CONFORMING, 2, 1))
        with pytest.raises(RuntimeError, match="Factor is exactly singular"):
            factor_system(*singular(system, constraints))

    def test_singular_level_exits_one_without_table(self, tmp_path, monkeypatch, capsys):
        """Through the CLI the failed factorization is the run's reported
        cause, and no level table is written."""
        original = runner.constrained_system
        monkeypatch.setattr(runner, "constrained_system",
                            lambda *args: singular(*original(*args)))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"mesh": {"kind": "voronoi", "n0": 16, "lloyd": 3},
                                   "levels": 1, "out": str(tmp_path / "out")}))
        assert main(["convergence", "--config", str(cfg)]) == 1
        assert "error: Factor is exactly singular" in capsys.readouterr().err
        assert not (tmp_path / "out" / "levels.csv").exists()

    @staticmethod
    def perturb_factor(monkeypatch):
        """Make factor_system factor its free block plus 1e-3 I."""
        splu = assembly.splu

        def shifted(data, indices, indptr):
            n = indptr.size - 1
            A = (sp.csc_matrix((data, indices, indptr), shape=(n, n))
                 + 1e-3 * sp.identity(n, format="csc")).tocsc()
            A.sort_indices()
            return splu(A.data, A.indices.astype(np.intc), A.indptr.astype(np.intc))

        monkeypatch.setattr(assembly, "splu", shifted)

    def test_wrong_factor_fails_the_residual_check(self, monkeypatch, voronoi25):
        """A factor of another matrix solves without error, and the
        residual against K rejects its solution."""
        case = get_case("smooth")
        system, constraints = constrained_system(case, voronoi25,
                                                 spaces_for(Family.CONFORMING, 2, 1))
        F = assemble_rhs(system, case)
        factor_system(system, constraints).solve(F)
        self.perturb_factor(monkeypatch)
        with pytest.raises(RuntimeError, match="solve residual .* exceeds SOLVE_RTOL"):
            factor_system(system, constraints).solve(F)

    def test_wrong_factor_exits_one_without_table(self, tmp_path, monkeypatch, capsys):
        self.perturb_factor(monkeypatch)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"mesh": {"kind": "voronoi", "n0": 16, "lloyd": 3},
                                   "levels": 1, "out": str(tmp_path / "out")}))
        assert main(["convergence", "--config", str(cfg)]) == 1
        assert "error: solve residual" in capsys.readouterr().err
        assert not (tmp_path / "out" / "levels.csv").exists()

    def test_per_field_residuals(self):
        """Under criterion 7's parameters (alpha, beta, gamma) = (1e-6, 1e6,
        1e6) the pressure rows dominate the combined residual, so the record
        gives each field's rows their own relative residual: the
        combined one lies between them and the deflection's is larger."""
        case = get_case("smooth", params=ModelParams(1e-6, 1e6, 1e6))
        mesh = generate_voronoi(100, lloyd_iters=5, seed=3, labeler=case.labeler)
        system, constraints = constrained_system(case, mesh,
                                                 spaces_for(Family.CONFORMING, 2, 1))
        factored = factor_system(system, constraints)
        factored.solve(assemble_rhs(system, case))
        record = factored.record
        u, p, both = record["residual_u"], record["residual_p"], record["residual"]
        assert 0 < p <= both * (1 + 1e-9) and both <= u <= SOLVE_RTOL
        assert u > 5 * both

    def test_ordering_is_structure_aware(self):
        """On a 400-cell Voronoi level (conforming k=2 l=1) the factor
        stores at most 0.8 of the entries of scipy's default LU (584k
        against 803k), and its residual is far below SOLVE_RTOL."""
        case = get_case("smooth")
        mesh = generate_voronoi(400, lloyd_iters=5, seed=3, labeler=case.labeler)
        system, constraints = constrained_system(case, mesh,
                                                 spaces_for(Family.CONFORMING, 2, 1))
        factored = factor_system(system, constraints)
        factored.solve(assemble_rhs(system, case))
        record = factored.record
        n = factored.free.sum()
        Kff = sp.csc_matrix(assembly.free_block(system.K, factored.free), shape=(n, n))
        same = spla.splu(Kff, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
        assert record["fill"] == same.L.nnz + same.U.nnz
        default = spla.splu(Kff)
        assert record["fill"] <= 0.8 * (default.L.nnz + default.U.nnz)
        assert record["residual"] < 1e-3 * SOLVE_RTOL
        assert (record["ndof"], record["nnz"]) == (system.ndof, system.K.nnz)


class TestTimestepping:
    def test_single_step_from_rest_matches_static(self, voronoi25):
        """One implicit step from the zero state solves the static system
        with the same data, because the history terms vanish."""
        case = get_case("smooth")
        system, constraints = constrained_system(case, voronoi25,
                                                 spaces_for(Family.CONFORMING, 2, 1))
        U, P = factor_system(system, constraints).solve(assemble_rhs(system, case))
        states, _ = timestep_driver(system, constraints, case,
                                    assemble_projected_mass(system), steps=1)
        U1, P1 = states[-1]
        scale = max(np.abs(U).max(), np.abs(P).max())
        assert np.abs(U1 - U).max() < 1e-10 * scale
        assert np.abs(P1 - P).max() < 1e-10 * scale

    def test_iteration_converges_to_steady_state(self, voronoi25):
        """The march tends to its fixed point for step-independent data:
        the solve of the operator minus the projected-mass feedback."""
        # beta > 1 keeps the pressure feedback a strict contraction even
        # when no pressure Dirichlet edge pins the constant mode.
        case = get_case("smooth", params=ModelParams(1.0, 2.0, 1.0))
        system, constraints = constrained_system(case, voronoi25,
                                                 spaces_for(Family.CONFORMING, 2, 1))
        M = assemble_projected_mass(system)
        states, _ = timestep_driver(system, constraints, case, M, steps=60)
        shifted = replace(system, K=from_scipy(to_scipy(system.K) - to_scipy(M)))
        Us, Ps = factor_system(shifted, constraints).solve(assemble_rhs(system, case))
        Ue, Pe = states[-1]
        scale = max(np.abs(Us).max(), np.abs(Ps).max())
        assert np.abs(Ue - Us).max() < 1e-6 * scale
        assert np.abs(Pe - Ps).max() < 1e-6 * scale


def count_calls(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that records each call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestFactorOnce:
    """Each level factors its operator once; the time march reuses one
    factorization and one load vector for every step."""

    def test_march_factors_once(self, monkeypatch, voronoi25):
        case = get_case("smooth")
        system, constraints = constrained_system(case, voronoi25,
                                                 spaces_for(Family.CONFORMING, 2, 1))
        M = assemble_projected_mass(system)
        splu = count_calls(monkeypatch, assembly, "splu")
        rhs = count_calls(monkeypatch, runner, "assemble_rhs")
        states, _ = timestep_driver(system, constraints, case, M, steps=6)
        assert len(states) == 6
        assert len(splu) == 1
        assert len(rhs) == 1

    def test_convergence_factors_once_per_level(self, monkeypatch, voronoi25):
        case = get_case("smooth")
        meshes = [generate_voronoi(9, lloyd_iters=2, seed=4,
                                   labeler=case.labeler), voronoi25]
        splu = count_calls(monkeypatch, assembly, "splu")
        rhs = count_calls(monkeypatch, runner, "assemble_rhs")
        run_convergence(case, meshes, Family.CONFORMING, 2, 1)
        assert len(splu) == len(meshes)
        assert len(rhs) == len(meshes)

    @pytest.mark.parametrize("steps", [1, 4])
    def test_timestep_command_factors_once(self, monkeypatch, tmp_path, steps):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "mesh": {"kind": "voronoi", "n0": 12, "lloyd": 2},
            "steps": steps, "out": str(tmp_path / "out")}))
        splu = count_calls(monkeypatch, assembly, "splu")
        rhs = count_calls(monkeypatch, runner, "assemble_rhs")
        assert main(["timestep", "--config", str(cfg)]) == 0
        assert len(splu) == 1
        assert len(rhs) == 1


class TestNoPerCellLoop:
    """Loads, error norms and the estimator read the stacked group rules
    and tables."""

    def test_one_power_table_per_point_set(self, monkeypatch, voronoi25):
        """Each point set a level reads has its coordinate powers formed
        once, and every table on it is gathered from them: the volume rule
        of each group, whose value table forms H and nothing else (every
        derivative Gram comes from H, so no volume derivative table
        exists); the edge and vertex points of each group, whose value
        tables alone are memoised and whose derivative tables are gathered
        from the powers those value tables hold, each at most once per
        projector build; the data rule of the loads of each group, and the
        one data rule that the error norms and the estimator share in the
        measuring pass; and the two sides of the estimator's edge
        traces."""
        readers = ("_table", "H", "assemble_rhs", "measure", "traces")
        builders = ("deflection_projectors", "pressure_projectors")
        at, gather, of_values = PowerTable.at, PowerTable.gather, PowerTable.of_values
        formed, derived, gathers, groups, memoised = [], [], [], [], []

        def caller(names):
            """The innermost of names on the stack above the wrapper, or None."""
            frame = sys._getframe(2)
            while frame is not None and frame.f_code.co_name not in names:
                frame = frame.f_back
            return None if frame is None else frame.f_code.co_name

        def counted_at(cls, *args):
            formed.append((caller(readers), at(*args)))
            return formed[-1][1]

        def counted_of_values(cls, values, *args):
            derived.append((values, of_values(values, *args)))
            return derived[-1][1]

        def counted_gather(self, deriv=(0, 0)):
            gathers.append((self, deriv, caller(builders)))
            return gather(self, deriv)

        monkeypatch.setattr(PowerTable, "at", classmethod(counted_at))
        monkeypatch.setattr(PowerTable, "of_values", classmethod(counted_of_values))
        monkeypatch.setattr(PowerTable, "gather", counted_gather)
        init = projectors.CellGroup.__init__

        def counted_init(cg, *args, **kwargs):
            groups.append(cg)
            init(cg, *args, **kwargs)

        monkeypatch.setattr(projectors.CellGroup, "__init__", counted_init)
        # the tables live only during the build; collect them when released
        release = projectors.CellGroup.release

        def counted_release(cg):
            memoised.append(dict(cg._tabs))
            release(cg)

        monkeypatch.setattr(projectors.CellGroup, "release", counted_release)
        run_convergence(get_case("smooth"), [voronoi25], Family.CONFORMING, 2, 1)

        n = len(groups)
        assert n > 1
        assert {r: sum(reader == r for reader, _ in formed) for r in readers} == \
            {"_table": 2 * n, "H": n, "assemble_rhs": n, "measure": n, "traces": 2}
        tables = {"_table": 1, "H": 1, "assemble_rhs": 1, "measure": 6, "traces": 10}
        for reader, powers in formed:
            assert sum(p is powers for p, _, _ in gathers) == tables[reader], reader
        # the volume and the memoised point sets are gathered as values only
        assert all(d == (0, 0) for reader, powers in formed if reader in ("_table", "H")
                   for p, d, _ in gathers if p is powers)
        # one value table per edge and vertex point set is memoised, and
        # every derivative table reads the powers of one of them
        assert len(memoised) == n
        assert all(sorted(tabs) == ["edge", "vert"] for tabs in memoised)
        values = [t for tabs in memoised for t in tabs.values()]
        assert derived and all(any(v is t for t in values) for v, _ in derived)
        once = [(id(v), d, builder) for v, powers in derived
                for p, d, builder in gathers if p is powers]
        assert len(once) == len(derived)
        assert all(builder in builders for _, _, builder in once)
        assert len(set(once)) == len(once)

    @pytest.mark.parametrize("where", ["voronoi25", "lshape"])
    def test_sources_once_per_data_rule(self, voronoi25, where):
        """The measuring pass evaluates f and g once per group, on the data
        rule its error norms and estimator share.  A singular group has
        two: the error norms' finer split and the estimator's rule."""
        if where == "lshape":
            case, mesh = lshape_refined_twice()
        else:
            case, mesh = get_case("smooth"), voronoi25
        system, constraints = constrained_system(case, mesh,
                                                 spaces_for(Family.NONCONFORMING, 2, 1))
        U, P = factor_system(system, constraints).solve(assemble_rhs(system, case))
        calls = {"f": [], "g": []}
        for name, seen in calls.items():
            fn = getattr(case, name)
            setattr(case, name,
                    lambda pts, fn=fn, seen=seen: seen.append(pts[..., 0].size) or fn(pts))
        measure(system, U, P, case)
        singular = [g.ctx.singular_subdivide > 0 for g in system.groups]
        assert sum(singular) == (where == "lshape")
        want = [len(g.ctx.data_rule(fine)[1].ravel())
                for g, s in zip(system.groups, singular) for fine in (True, False)[:1 + s]]
        assert calls["f"] == calls["g"] == want
        assert len(want) == len(system.groups) + sum(singular)
