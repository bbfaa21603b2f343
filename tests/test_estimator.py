import numpy as np
import pytest

from platevem.assembly import ModelParams, assemble_system
from platevem.estimator import EstimatorReport, estimate
from platevem.manufactured import get_case, polynomial_case
from platevem.mesh import BoundaryLabel, generate_lshape, generate_structured
from platevem.runner import solve_case, spaces_for
from platevem.spaces import Family, interpolate

PARAMS = ModelParams(0.9, 1.4, 1.2)


def estimate_for(case, mesh, family, k, l, U=None, P=None):
    system, Us, Ps = solve_case(case, mesh, family, k, l)
    if U is None:
        U, P = Us, Ps
    return system, estimate(
        system, U, P, f=case.f, g=case.g,
        bending_moment_data=case.bending_moment_data,
        pressure_flux_data=case.pressure_flux_data,
        grad_u_data=case.grad_u,
        pressure_trace_data=case.p)


class TestGlobalEta:
    def test_component_accessor(self):
        rep = EstimatorReport(np.arange(1.0, 10.0)[None, :], (1, 2, 3, 4, 5, 6, 7))
        assert rep.component(1) == pytest.approx(1.0)
        assert rep.component(9) == pytest.approx(3.0)


class TestExactness:
    """A discrete solution that reproduces polynomial data leaves only
    roundoff in every residual and jump term."""

    @pytest.mark.parametrize("family", [Family.CONFORMING, Family.NONCONFORMING])
    def test_patch_estimator_near_zero(self, family, voronoi25):
        case = polynomial_case(2, 1, PARAMS, seed=21)
        space_u, space_p = spaces_for(family, 2, 1)
        system = assemble_system(voronoi25, space_u, space_p, PARAMS)
        U = interpolate(voronoi25, system.dof_u, case.u, case.grad_u)
        P = interpolate(voronoi25, system.dof_p, case.p)
        rep = estimate(system, U, P, f=case.f, g=case.g,
                       bending_moment_data=case.bending_moment_data,
                       pressure_flux_data=case.pressure_flux_data,
                       grad_u_data=case.grad_u,
                       pressure_trace_data=case.p)
        comps = np.sqrt(rep.components2)
        # Every residual and jump term collapses to roundoff.  The one
        # exception is the coupling-distance term eta_7: it measures how far
        # the deflection sits from the degree-l gradient space, which is a
        # genuine O(h^l) quantity even for exact polynomial data of degree k.
        survivors = np.delete(comps, 6)
        assert survivors.max() < 1e-9
        assert comps[6] > 1e-3

    def test_zero_solution_zero_data(self, voronoi25):
        space_u, space_p = spaces_for(Family.NONCONFORMING, 2, 1)
        system = assemble_system(voronoi25, space_u, space_p, PARAMS)
        zero = lambda pts: np.zeros(len(pts))
        U = np.zeros(system.dof_u.ndof)
        P = np.zeros(system.dof_p.ndof)
        rep = estimate(system, U, P, f=zero, g=zero)
        assert rep.eta == 0.0
        assert np.all(rep.components2 == 0.0)


class TestComponentStructure:
    def test_conforming_total_uses_seven_parts(self, voronoi25):
        case = get_case("smooth", params=PARAMS)
        _, rep = estimate_for(case, voronoi25, Family.CONFORMING, 2, 1)
        assert rep.included == (1, 2, 3, 4, 5, 6, 7)
        assert rep.eta == pytest.approx(
            np.sqrt(rep.components2[:7].sum()), rel=1e-12)
        assert rep.components2[7] == 0.0
        assert rep.components2[8] == 0.0

    def test_nonconforming_adds_trace_terms(self, voronoi25):
        case = get_case("smooth", params=PARAMS)
        _, rep = estimate_for(case, voronoi25, Family.NONCONFORMING, 2, 1)
        assert rep.included == (1, 2, 3, 4, 5, 6, 7, 8)
        assert rep.components2[7] > 0.0
        assert rep.components2[8] == 0.0    # ninth term needs k >= 3

    def test_cubic_nonconforming_has_nine(self, voronoi25):
        case = get_case("smooth", params=PARAMS)
        _, rep = estimate_for(case, voronoi25, Family.NONCONFORMING, 3, 2)
        assert rep.included == (1, 2, 3, 4, 5, 6, 7, 8, 9)

    def test_cell_totals_sum_to_eta(self, voronoi25):
        case = get_case("smooth", params=PARAMS)
        _, rep = estimate_for(case, voronoi25, Family.CONFORMING, 2, 1)
        assert rep.eta == pytest.approx(np.sqrt(rep.cell_eta2.sum()),
                                        rel=1e-12)
        assert rep.parts.shape == (voronoi25.ncells, 9)
        assert np.array_equal(rep.components2, rep.parts.sum(0))


class TestBoundaryEdgeSets:
    """Boundary terms must live exactly on their edge families: the
    bending-moment jump skips clamped edges and the flux jump skips
    pressure Dirichlet edges."""

    def _grid_case(self, labeler):
        mesh = generate_structured(3, 3, labeler=labeler)
        return mesh

    def test_all_clamped_square_has_no_boundary_moment_term(self):
        mesh = self._grid_case(lambda m: BoundaryLabel.CLAMPED)
        case = get_case("smooth", params=PARAMS)
        space_u, space_p = spaces_for(Family.CONFORMING, 2, 1)
        system = assemble_system(mesh, space_u, space_p, PARAMS)
        U = interpolate(mesh, system.dof_u, case.u, case.grad_u)
        P = interpolate(mesh, system.dof_p, case.p)

        calls = []

        def moment_data(pts, normal):
            calls.append(pts)
            return case.bending_moment_data(pts, normal)

        estimate(system, U, P, f=case.f, g=case.g,
                 bending_moment_data=moment_data,
                 pressure_flux_data=case.pressure_flux_data)
        assert not calls   # never evaluated on a clamped-only boundary

    def test_simply_supported_square_queries_moment_data(self):
        mesh = self._grid_case(lambda m: BoundaryLabel.SIMPLY_SUPPORTED)
        case = get_case("smooth", params=PARAMS)
        space_u, space_p = spaces_for(Family.CONFORMING, 2, 1)
        system = assemble_system(mesh, space_u, space_p, PARAMS)
        U = interpolate(mesh, system.dof_u, case.u, case.grad_u)
        P = interpolate(mesh, system.dof_p, case.p)

        moment_calls, flux_calls = [], []

        def moment_data(pts, normal):
            moment_calls.append(pts)
            return case.bending_moment_data(pts, normal)

        def flux_data(pts, normal):
            flux_calls.append(pts)
            return case.pressure_flux_data(pts, normal)

        estimate(system, U, P, f=case.f, g=case.g,
                 bending_moment_data=moment_data,
                 pressure_flux_data=flux_data)
        assert moment_calls        # every boundary edge is simply supported
        assert not flux_calls      # ... so pressure is Dirichlet everywhere

    def test_data_subtraction_lowers_boundary_terms(self):
        """Once the mesh resolves the exact bending trace, subtracting the
        prescribed data must shrink the simply supported moment term."""
        mesh = generate_structured(
            8, 8, labeler=lambda m: BoundaryLabel.SIMPLY_SUPPORTED)
        case = get_case("smooth", params=PARAMS)
        system, U, P = solve_case(case, mesh, Family.CONFORMING, 2, 1)
        with_data = estimate(system, U, P, f=case.f, g=case.g,
                             bending_moment_data=case.bending_moment_data)
        without = estimate(system, U, P, f=case.f, g=case.g)
        assert with_data.component(3) < without.component(3)


class TestSingularityDetection:
    def test_lshape_marks_reentrant_corner(self):
        case = get_case("lshape")
        mesh = generate_lshape(4, labeler=case.labeler)
        system, rep = estimate_for(case, mesh, Family.NONCONFORMING, 2, 1)
        worst = int(np.argmax(rep.cell_eta2))
        d = np.linalg.norm(mesh.cell_coords(worst), axis=1)
        assert d.min() < 1e-12   # the worst cell touches the corner
