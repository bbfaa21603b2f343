from dataclasses import replace

import numpy as np
import pytest

from platevem.assembly import ModelParams, assemble_rhs, assemble_system, factor_system
from platevem.estimator import EstimatorReport, measure
from platevem.manufactured import get_case, polynomial_case
from platevem.mesh import BoundaryLabel, generate_lshape, generate_structured
from platevem.runner import constrained_system, spaces_for
from platevem.spaces import Family, interpolate

PARAMS = ModelParams(0.9, 1.4, 1.2)


def solve(case, mesh, family, k, l):
    """The case's constrained system on mesh and its discrete solution."""
    system, constraints = constrained_system(case, mesh, spaces_for(family, k, l))
    return system, *factor_system(system, constraints).solve(assemble_rhs(system, case))


def estimate_for(case, mesh, family, k, l):
    system, U, P = solve(case, mesh, family, k, l)
    return system, measure(system, U, P, case)[1]


def zeroed(case, *names):
    """The case with the named closures replaced by zeros of their shapes."""
    def zero(fn):
        return lambda pts: np.zeros_like(fn(pts))
    return replace(case, **{name: zero(getattr(case, name)) for name in names})


def count_data(case, name: str) -> list:
    """Record the calls of one of the case's data methods, wrapped as an
    instance attribute."""
    calls = []
    method = getattr(case, name)

    def counted(pts, normal):
        calls.append(pts)
        return method(pts, normal)

    setattr(case, name, counted)
    return calls


class TestGlobalEta:
    def test_component_accessor(self):
        rep = EstimatorReport(np.arange(1.0, 10.0)[None, :])
        assert np.sqrt(rep.components2[0]) == pytest.approx(1.0)
        assert np.sqrt(rep.components2[8]) == pytest.approx(3.0)


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
        rep = measure(system, U, P, case)[1]
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
        case = zeroed(get_case("smooth", params=PARAMS),
                      "u", "grad_u", "hess_u", "p", "grad_p", "f", "g")
        U = np.zeros(system.dof_u.ndof)
        P = np.zeros(system.dof_p.ndof)
        rep = measure(system, U, P, case)[1]
        assert rep.eta == 0.0
        assert np.all(rep.components2 == 0.0)


class TestComponentStructure:
    def test_conforming_total_uses_seven_parts(self, voronoi25):
        case = get_case("smooth", params=PARAMS)
        _, rep = estimate_for(case, voronoi25, Family.CONFORMING, 2, 1)
        assert rep.eta == pytest.approx(
            np.sqrt(rep.components2[:7].sum()), rel=1e-12)
        assert rep.components2[7] == 0.0
        assert rep.components2[8] == 0.0

    def test_nonconforming_adds_trace_terms(self, voronoi25):
        case = get_case("smooth", params=PARAMS)
        _, rep = estimate_for(case, voronoi25, Family.NONCONFORMING, 2, 1)
        assert rep.components2[7] > 0.0
        assert rep.components2[8] == 0.0    # ninth term needs k >= 3

    def test_cubic_nonconforming_has_nine(self, voronoi25):
        case = get_case("smooth", params=PARAMS)
        _, rep = estimate_for(case, voronoi25, Family.NONCONFORMING, 3, 2)
        assert rep.components2[8] > 0.0

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

        calls = count_data(case, "bending_moment_data")
        measure(system, U, P, case)
        assert not calls   # never evaluated on a clamped-only boundary

    def test_simply_supported_square_queries_moment_data(self):
        mesh = self._grid_case(lambda m: BoundaryLabel.SIMPLY_SUPPORTED)
        case = get_case("smooth", params=PARAMS)
        space_u, space_p = spaces_for(Family.CONFORMING, 2, 1)
        system = assemble_system(mesh, space_u, space_p, PARAMS)
        U = interpolate(mesh, system.dof_u, case.u, case.grad_u)
        P = interpolate(mesh, system.dof_p, case.p)

        moment_calls = count_data(case, "bending_moment_data")
        flux_calls = count_data(case, "pressure_flux_data")
        measure(system, U, P, case)
        assert moment_calls        # every boundary edge is simply supported
        assert not flux_calls      # ... so pressure is Dirichlet everywhere

    def test_data_subtraction_lowers_boundary_terms(self):
        """Once the mesh resolves the exact bending trace, subtracting the
        prescribed data must shrink the simply supported moment term."""
        mesh = generate_structured(
            8, 8, labeler=lambda m: BoundaryLabel.SIMPLY_SUPPORTED)
        case = get_case("smooth", params=PARAMS)
        system, U, P = solve(case, mesh, Family.CONFORMING, 2, 1)
        with_data = measure(system, U, P, case)[1]
        without = measure(system, U, P, zeroed(case, "hess_u"))[1]
        assert with_data.components2[2] < without.components2[2]

    @pytest.mark.parametrize("name, queried", [("poly", False), ("smooth", True)])
    def test_loads_and_estimator_follow_case_pressure_flag(self, name, queried):
        """On a clamped-only boundary the flux data is needed exactly when
        the case keeps the pressure natural on clamped edges: never for the
        polynomial case (Dirichlet there), always for the smooth one."""
        mesh = self._grid_case(lambda m: BoundaryLabel.CLAMPED)
        case = get_case(name, params=PARAMS, k=2, l=1)
        assert case.pressure_dirichlet_on_clamped is not queried
        system = assemble_system(mesh, *spaces_for(Family.CONFORMING, 2, 1), PARAMS)
        U = interpolate(mesh, system.dof_u, case.u, case.grad_u)
        P = interpolate(mesh, system.dof_p, case.p)
        calls = count_data(case, "pressure_flux_data")
        assemble_rhs(system, case)
        assert bool(calls) is queried
        calls.clear()
        measure(system, U, P, case)
        assert bool(calls) is queried


class TestSingularityDetection:
    def test_lshape_marks_reentrant_corner(self):
        case = get_case("lshape")
        mesh = generate_lshape(4, labeler=case.labeler)
        system, rep = estimate_for(case, mesh, Family.NONCONFORMING, 2, 1)
        worst = int(np.argmax(rep.cell_eta2))
        d = np.linalg.norm(mesh.cell_coords(worst), axis=1)
        assert d.min() < 1e-12   # the worst cell touches the corner
