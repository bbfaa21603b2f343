import json
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from _elements import build_element, polygon_rule

from platevem import assembly, projectors, runner
from platevem.assembly import (ModelParams, assemble_rhs, assemble_system, derive_params,
                               factor_system)
from platevem.cli import main
from platevem.manufactured import compute_errors, get_case, polynomial_case
from platevem.mesh import (LABELS, SIMPLY_SUPPORTED, BoundaryLabel, build_mesh,
                           generate_lshape, generate_structured, generate_voronoi,
                           refine)
from platevem.quadrature import PowerTable, gauss_01, poly_dim, triangle_rule_reference
from platevem.runner import (assemble_projected_mass, constrained_system, run_convergence,
                             solve_level, solve_patch, spaces_for, timestep_driver)
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


class TestGlobalSystem:
    @pytest.mark.parametrize("family", [Family.CONFORMING, Family.NONCONFORMING])
    def test_block_skew_coercivity(self, family, voronoi25):
        """x^T K x reduces to the two diagonal energies: the coupling
        blocks enter with opposite signs and cancel."""
        space_u, space_p = spaces_for(family, 2, 1)
        system = assemble_system(voronoi25, space_u, space_p, PARAMS)
        K = system.K.toarray()
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
        f1 = lambda pts: np.sin(pts[:, 0]) * pts[:, 1]
        g1 = lambda pts: pts[:, 0] + pts[:, 1] ** 2
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
    error norms read from the group arrays equal a per-cell recomputation."""

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
            assert len(g.A1) == len(g.dofs_u) == len(g.dofs_p) == len(cells)
            for i, cell in enumerate(cells):
                ref = build_element(mesh, cell, space_u, space_p, PARAMS)
                pairs = [(g.A1[i], ref.A1), (g.B[i], ref.B), (g.A3[i], ref.A3),
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
        assert np.abs(system.K.toarray() - K).max() <= 1e-12 * np.abs(K).max()
        return system

    @staticmethod
    def check_loads_and_errors(case, mesh, family, k, l):
        """assemble_rhs and the cell energies of compute_errors against one
        build_element, polygon_rule and power table per cell: loads on the
        group's subdivision (1 at singular cells), errors on subdivision 3
        there."""
        system, constraints = constrained_system(case, mesh, spaces_for(family, k, l))
        F = assemble_rhs(system, case)
        U, P = factor_system(system, constraints).solve(F)
        energy2 = compute_errors(system, U, P, case).cell_energy2
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
        assert len(system.groups) == 8
        assert sum(g.ctx.singular_subdivide == 1 for g in system.groups) == 1
        # hanging nodes: some group's cells have more edges than corners
        assert any(g.ctx.side.nsides < g.ctx.nverts for g in system.groups)
        self.check_loads_and_errors(case, mesh, Family.NONCONFORMING, 2, 1)

    def test_ear_clipped_cell(self):
        """An L-shaped octagon whose centroid fan folds over is integrated
        on ear-clipped triangles inside its group."""
        vertices = np.array([[0, 0], [3, 0], [3, .5], [.5, .5], [.5, 3], [0, 3],
                             [3, 3], [1.7, 0], [0, 1.9]], dtype=float)
        mesh = build_mesh(vertices, [[0, 7, 1, 2, 3, 4, 5, 8], [3, 2, 6, 4]])
        system = self.check(mesh, Family.NONCONFORMING, 3, 2, frozenset())
        octagon = next(g.ctx for g in system.groups if g.ctx.nverts == 8)
        assert octagon.vol_w.shape[1] == 6 * len(triangle_rule_reference(8)[1])


class TestBoundedBuild:
    """The element build holds the monomial tables of at most BUILD_CHUNK
    cells at a time, and nothing a level computes depends on the chunk
    size."""

    def test_no_table_outlives_the_build(self, voronoi25):
        system = assemble_system(voronoi25, *spaces_for(Family.CONFORMING, 2, 1), PARAMS)
        for g in system.groups:
            assert g.ctx._tabs == {}
            assert g.ctx._vol is None
            assert g.ctx._H is not None

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

    def test_traced_peak_of_a_400_cell_build(self):
        """The build of a 400-cell Voronoi level (conforming k=2 l=1) peaks
        at 13.8 MB of traced allocations.  Keeping every group's tables
        until the level ends took it to 28 MB, and one scatter that
        concatenates per-block triplet lists to 22 MB."""
        case = get_case("smooth")
        mesh = generate_voronoi(400, lloyd_iters=5, seed=205, labeler=case.labeler)
        tracemalloc.start()
        try:
            assemble_system(mesh, *spaces_for(Family.CONFORMING, 2, 1), case.params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 17e6


class TestPatchReproduction:
    """With the right-hand side synthesized from the interpolant, the
    solver must return that interpolant to solver precision."""

    @pytest.mark.parametrize("family", [Family.CONFORMING, Family.NONCONFORMING])
    @pytest.mark.parametrize("k", [2, 3])
    def test_perturbed_grid(self, family, k):
        mesh = generate_structured(4, 4, perturb=0.2, seed=1)
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


class TestSolvers:
    def test_gmres_matches_direct(self, voronoi25):
        case = get_case("smooth")
        system, constraints = constrained_system(case, voronoi25,
                                                 spaces_for(Family.CONFORMING, 2, 1))
        F = assemble_rhs(system, case)
        U1, P1 = factor_system(system, constraints, "direct").solve(F)
        U2, P2 = factor_system(system, constraints, "gmres").solve(F)
        scale = max(np.abs(U1).max(), np.abs(P1).max())
        assert np.abs(U1 - U2).max() < 1e-8 * scale
        assert np.abs(P1 - P2).max() < 1e-8 * scale

    def test_unknown_method_raises(self, voronoi25):
        case = get_case("smooth")
        system, constraints = constrained_system(case, voronoi25,
                                                 spaces_for(Family.CONFORMING, 2, 1))
        with pytest.raises(ValueError):
            factor_system(system, constraints, method="cholesky")


class TestTimestepping:
    def test_single_step_from_rest_matches_static(self, voronoi25):
        """One implicit step from the zero state solves the static system
        with the same data, because the history terms vanish."""
        case = get_case("smooth")
        system, constraints = constrained_system(case, voronoi25,
                                                 spaces_for(Family.CONFORMING, 2, 1))
        U, P = factor_system(system, constraints).solve(assemble_rhs(system, case))
        hist = timestep_driver(system, constraints, case,
                               assemble_projected_mass(system), steps=1)
        U1, P1 = hist[-1]
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
        hist = timestep_driver(system, constraints, case, M, steps=60)
        shifted = replace(system, K=(system.K - M).tocsr())
        Us, Ps = factor_system(shifted, constraints).solve(assemble_rhs(system, case))
        Ue, Pe = hist[-1]
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
        splu = count_calls(monkeypatch, assembly.spla, "splu")
        rhs = count_calls(monkeypatch, runner, "assemble_rhs")
        hist = timestep_driver(system, constraints, case, M, steps=6)
        assert len(hist) == 6
        assert len(splu) == 1
        assert len(rhs) == 1

    def test_convergence_factors_once_per_level(self, monkeypatch, voronoi25):
        case = get_case("smooth")
        meshes = [generate_voronoi(9, lloyd_iters=2, seed=4,
                                   labeler=case.labeler), voronoi25]
        splu = count_calls(monkeypatch, assembly.spla, "splu")
        rhs = count_calls(monkeypatch, runner, "assemble_rhs")
        run_convergence(case, meshes, Family.CONFORMING, 2, 1,
                        with_estimator=False)
        assert len(splu) == len(meshes)
        assert len(rhs) == len(meshes)

    @pytest.mark.parametrize("steps", [1, 4])
    def test_timestep_command_factors_once(self, monkeypatch, tmp_path, steps):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "mesh": {"kind": "voronoi", "n0": 12, "lloyd": 2},
            "steps": steps, "out": str(tmp_path / "out")}))
        splu = count_calls(monkeypatch, assembly.spla, "splu")
        rhs = count_calls(monkeypatch, runner, "assemble_rhs")
        assert main(["timestep", "--config", str(cfg)]) == 0
        assert len(splu) == 1
        assert len(rhs) == 1


class TestNoPerCellLoop:
    """Loads, error norms and the estimator read the stacked group rules
    and tables."""

    def test_one_power_table_per_point_set(self, monkeypatch, voronoi25):
        """Each point set a level reads has its coordinate powers formed
        once, and every table on it is gathered from them: the element
        tables at the volume, edge and vertex points of each group (whose
        derivatives take the powers their value table holds), the data
        rules of loads, error norms and estimator of each group, and the
        two sides of the estimator's edge traces."""
        readers = ("_table", "assemble_rhs", "compute_errors", "estimate", "traces")
        at, gather = PowerTable.at, PowerTable.gather
        formed, gathers, groups = [], [], []

        def counted_at(cls, *args):
            frame = sys._getframe(1)
            while frame.f_code.co_name not in readers:
                frame = frame.f_back
            formed.append((frame.f_code.co_name, at(*args)))
            return formed[-1][1]

        def counted_gather(self, deriv=(0, 0)):
            gathers.append(self)
            return gather(self, deriv)

        monkeypatch.setattr(PowerTable, "at", classmethod(counted_at))
        monkeypatch.setattr(PowerTable, "gather", counted_gather)
        from_values = count_calls(monkeypatch, PowerTable, "of_values")
        init = projectors.CellGroup.__init__

        def counted_init(cg, *args, **kwargs):
            groups.append(cg)
            init(cg, *args, **kwargs)

        monkeypatch.setattr(projectors.CellGroup, "__init__", counted_init)
        # the tables live only during the build; count them when released
        memoised = []
        release = projectors.CellGroup.release

        def counted_release(cg):
            memoised.append(len(cg._tabs))
            release(cg)

        monkeypatch.setattr(projectors.CellGroup, "release", counted_release)
        run_convergence(get_case("smooth"), [voronoi25], Family.CONFORMING, 2, 1)

        n = len(groups)
        assert n > 1
        assert {r: sum(reader == r for reader, _ in formed) for r in readers} == \
            {"_table": 3 * n, "assemble_rhs": n, "compute_errors": n, "estimate": n,
             "traces": 2}
        tables = {"_table": 1, "assemble_rhs": 1, "estimate": 1, "compute_errors": 6,
                  "traces": 10}
        for reader, powers in formed:
            assert sum(g is powers for g in gathers) == tables[reader]
        # every memoised derivative table, and only those, reads the powers
        # of its point set's value table
        assert len(memoised) == n
        assert len(from_values) == sum(memoised) - 3 * n
