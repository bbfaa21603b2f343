import numpy as np
import pytest
from _elements import build_element, cell_view
from _oracle import oracle_element, polygon_quad, shoelace
from test_assembly import lshape_refined_twice

from platevem.assembly import ModelParams
from platevem.mesh import build_mesh, corner_mask, generate_voronoi
from platevem.projectors import (CellGroup, _edge_gram, deflection_projectors,
                                 pressure_projectors)
from platevem.quadrature import edge_monomial_integrals, poly_dim
from platevem.spaces import Family, SpaceKind

PARAMS = ModelParams(0.7, 1.4, 1.1)


class TestPolynomialReproduction:
    """Applying any projector to a projected polynomial's dof vector
    returns that polynomial's coefficients: proj @ D = identity (or the
    exact derivative map for gradient and Hessian projections)."""

    @pytest.mark.parametrize("family", [Family.CONFORMING, Family.NONCONFORMING])
    @pytest.mark.parametrize("k", [2, 3])
    def test_deflection(self, family, k, voronoi25):
        space = SpaceKind("deflection", family, k)
        for cell in (0, 7, 13):
            group = CellGroup(voronoi25, [cell], max_degree=k)
            P = cell_view(deflection_projectors(group, space, pg_degrees=(k - 1,)), 0)
            nk = poly_dim(k)
            assert np.abs(P.pd @ P.D - np.eye(nk)).max() < 1e-9
            assert np.abs(P.l2 @ P.D - np.eye(nk)).max() < 1e-9
            nlow = poly_dim(k - 1)
            assert np.abs(P.pg[k - 1] @ P.D[:, :nlow]
                          - np.eye(nlow)).max() < 1e-9
            Dx = group.deriv((1, 0), k)[0]
            Dy = group.deriv((0, 1), k)[0]
            Gx, Gy = P.grads[k - 1]
            assert np.abs(Gx @ P.D - Dx).max() < 1e-9 * max(1, np.abs(Dx).max())
            assert np.abs(Gy @ P.D - Dy).max() < 1e-9 * max(1, np.abs(Dy).max())
            Hxx, Hxy, Hyy = P.hess
            for H, d in [(Hxx, (2, 0)), (Hxy, (1, 1)), (Hyy, (0, 2))]:
                M = group.deriv(d, k)[0]
                assert np.abs(H @ P.D - M).max() < 1e-9 * max(1, np.abs(M).max())

    @pytest.mark.parametrize("family", [Family.CONFORMING, Family.NONCONFORMING])
    @pytest.mark.parametrize("l", [1, 2])
    def test_pressure(self, family, l, voronoi25):
        space = SpaceKind("pressure", family, l)
        for cell in (2, 9):
            group = CellGroup(voronoi25, [cell], max_degree=l)
            P = cell_view(pressure_projectors(group, space), 0)
            nl = poly_dim(l)
            assert np.abs(P.pd @ P.D - np.eye(nl)).max() < 1e-9
            assert np.abs(P.l2 @ P.D - np.eye(nl)).max() < 1e-9
            Gx, Gy = P.grads[l - 1]
            Dx = group.deriv((1, 0), l)[0]
            Dy = group.deriv((0, 1), l)[0]
            assert np.abs(Gx @ P.D - Dx).max() < 1e-9 * max(1, np.abs(Dx).max())
            assert np.abs(Gy @ P.D - Dy).max() < 1e-9 * max(1, np.abs(Dy).max())


def rel_err(a, b):
    scale = max(float(np.abs(b).max()), 1e-30)
    return float(np.abs(a - b).max()) / scale


class TestOracleAgreement:
    """Dense from-scratch recomputation of every local object."""

    @pytest.mark.parametrize("family", [Family.CONFORMING, Family.NONCONFORMING])
    @pytest.mark.parametrize("k,l", [(2, 1), (3, 2)])
    def test_projectors_and_forms(self, family, k, l):
        mesh = generate_voronoi(30, seed=11, lloyd_iters=4)
        space_u = SpaceKind("deflection", family, k)
        space_p = SpaceKind("pressure", family, l)
        for cell in (3, 17):
            op = build_element(mesh, cell, space_u, space_p, PARAMS)
            oo = oracle_element(mesh, cell, space_u, space_p, PARAMS)
            assert rel_err(op.A1, oo.A1) < 1e-9
            assert rel_err(op.B, oo.B) < 1e-9
            assert rel_err(op.A3, oo.A3) < 1e-9
            assert rel_err(op.defl.pd, oo.defl.pd) < 1e-9
            assert rel_err(op.defl.l2, oo.defl.l2) < 1e-9
            assert rel_err(op.defl.D, oo.defl.D) < 1e-9
            for i in range(3):
                assert rel_err(op.defl.hess[i], oo.defl.hess[i]) < 1e-9
            for g in oo.defl.grads:
                assert rel_err(op.defl.grads[g][0], oo.defl.grads[g][0]) < 1e-9
                assert rel_err(op.defl.grads[g][1], oo.defl.grads[g][1]) < 1e-9
            for d in oo.defl.pg:
                assert rel_err(op.defl.pg[d], oo.defl.pg[d]) < 1e-9
            assert rel_err(op.pres.pd, oo.pres.pd) < 1e-9
            assert rel_err(op.pres.l2, oo.pres.l2) < 1e-9
            assert rel_err(op.pres.D, oo.pres.D) < 1e-9
            gp = max(l - 1, 0)
            assert rel_err(op.pres.grads[gp][0], oo.pres.grads[gp][0]) < 1e-9
            assert rel_err(op.pres.grads[gp][1], oo.pres.grads[gp][1]) < 1e-9


class TestHangingNodeOracle:
    """Nonconforming cells with hanging vertices, whose sides run over
    several edges, against the dense oracle: the C1 continuation rule of
    the edge traces is checked on its own, not only against another build
    of the same code."""

    @staticmethod
    def hanging_cells():
        _, mesh = lshape_refined_twice()
        hanging = [c for c in range(mesh.ncells) if not corner_mask(mesh.cell_coords(c)).all()]
        # a pentagon whose local vertex 0 hangs, so its bottom side wraps
        # past vertex 0 from local edge 4 to local edge 0
        pentagon = build_mesh(np.array([[.5, 0], [1, 0], [1, 1], [0, 1], [0, 0]]),
                              [[0, 1, 2, 3, 4]])
        assert not corner_mask(pentagon.cell_coords(0))[0]
        return [(mesh, c) for c in hanging] + [(pentagon, 0)]

    @pytest.mark.parametrize("k,l", [(2, 1), (3, 2)])
    def test_projectors_and_forms(self, k, l):
        space_u = SpaceKind("deflection", Family.NONCONFORMING, k)
        space_p = SpaceKind("pressure", Family.NONCONFORMING, l)
        cases = self.hanging_cells()
        assert len(cases) > 10
        for mesh, cell in cases:
            op = build_element(mesh, cell, space_u, space_p, PARAMS)
            oo = oracle_element(mesh, cell, space_u, space_p, PARAMS)
            assert rel_err(op.A1, oo.A1) < 1e-9
            assert rel_err(op.B, oo.B) < 1e-9
            assert rel_err(op.A3, oo.A3) < 1e-9
            assert rel_err(op.defl.pd, oo.defl.pd) < 1e-9
            assert rel_err(op.defl.l2, oo.defl.l2) < 1e-9


@pytest.mark.parametrize("d1, d2", [(0, 3), (1, 2), (2, 4)])
def test_edge_gram_matches_direct_table(d1, d2):
    """The cached unit table scaled by the length is the direct table,
    bit for bit, and a caller writing into its copy leaves the cache intact."""
    length = 0.37
    I = edge_monomial_integrals(d1 + d2)
    b, g = np.meshgrid(np.arange(d1 + 1), np.arange(d2 + 1), indexing="ij")
    gram = _edge_gram(d1, d2, length)
    assert np.array_equal(gram, length * I[b + g])
    gram[:] = 0.0
    assert np.array_equal(_edge_gram(d1, d2, length), length * I[b + g])


def test_oracle_quadrature_self_check():
    """The oracle's own volume rule integrates monomials exactly."""
    coords = np.array([[0.0, 0.0], [1.2, -0.1], [1.5, 0.9], [0.4, 1.3], [-0.2, 0.6]])
    pts, w = polygon_quad(coords, order=6)
    area, _ = shoelace(coords)
    assert w.sum() == pytest.approx(area, rel=1e-13)
    tri_pts, tri_w = [], []
    for i in range(1, 4):
        p, ww = polygon_quad(np.array([coords[0], coords[i], coords[i + 1]]), 6)
        tri_pts.append(p)
        tri_w.append(ww)
    tri_pts = np.vstack(tri_pts)
    tri_w = np.concatenate(tri_w)
    for a, b in [(4, 2), (0, 6), (3, 3)]:
        mine = w @ (pts[:, 0] ** a * pts[:, 1] ** b)
        ref = tri_w @ (tri_pts[:, 0] ** a * tri_pts[:, 1] ** b)
        assert mine == pytest.approx(ref, rel=1e-12)


class TestStabilizedStructure:
    def test_energy_projection_kernel_orthogonality(self, voronoi25):
        """(I - D pd) annihilates polynomial dof vectors."""
        for family in (Family.CONFORMING, Family.NONCONFORMING):
            space = SpaceKind("deflection", family, 2)
            P = cell_view(deflection_projectors(CellGroup(voronoi25, [4], max_degree=2),
                                                space), 0)
            S2 = np.eye(P.ndof) - P.D @ P.pd
            assert np.abs(S2 @ P.D).max() < 1e-10

    def test_projector_matrices_finite_on_tiny_edge_cells(self):
        """Cells with very short edges stay numerically tame."""
        mesh = generate_voronoi(60, seed=8, lloyd_iters=0)   # unsmoothed: bad cells
        space = SpaceKind("deflection", Family.CONFORMING, 2)
        shortest = np.minimum.reduceat(mesh.edge_length[mesh.cell_edge], mesh.cell_ptr[:-1])
        worst = int(np.argmin(shortest))
        P = cell_view(deflection_projectors(CellGroup(mesh, [worst], max_degree=2), space), 0)
        assert np.isfinite(P.pd).all()
        assert np.abs(P.pd @ P.D - np.eye(6)).max() < 1e-6
