import numpy as np
import pytest

from platevem.mesh import (CLAMPED, BoundaryLabel, generate_structured,
                           generate_voronoi, region_labeler)
from platevem.quadrature import poly_dim
from platevem.spaces import (DofKind, Family, SpaceKind, apply_essential_bc,
                             build_dof_map, interpolate, local_dofs)


def count_local(space, mesh, cell):
    return len(local_dofs(space, mesh, cell))


class TestDofCounts:
    def test_conforming_deflection_k2(self, voronoi25):
        space = SpaceKind("deflection", Family.CONFORMING, 2)
        for cell in range(5):
            n = len(voronoi25.cell_coords(cell))
            assert count_local(space, voronoi25, cell) == 3 * n

    def test_conforming_deflection_k3(self, voronoi25):
        space = SpaceKind("deflection", Family.CONFORMING, 3)
        for cell in range(5):
            n = len(voronoi25.cell_coords(cell))
            # 3 per vertex plus one normal moment per edge
            assert count_local(space, voronoi25, cell) == 3 * n + n

    def test_nonconforming_deflection(self, voronoi25):
        for k in (2, 3, 4):
            space = SpaceKind("deflection", Family.NONCONFORMING, k)
            for cell in range(5):
                n = len(voronoi25.cell_coords(cell))
                expect = n + (k - 1) * n + max(k - 2, 0) * n + poly_dim(k - 4)
                assert count_local(space, voronoi25, cell) == expect

    def test_pressure_counts(self, voronoi25):
        for l in (1, 2, 3):
            conf = SpaceKind("pressure", Family.CONFORMING, l)
            nonc = SpaceKind("pressure", Family.NONCONFORMING, l)
            for cell in range(5):
                n = len(voronoi25.cell_coords(cell))
                assert count_local(conf, voronoi25, cell) == \
                    n + (l - 1) * n + poly_dim(l - 2)
                assert count_local(nonc, voronoi25, cell) == \
                    l * n + poly_dim(l - 2)

    def test_local_order_vertex_grad_normal_value_cell(self, voronoi25):
        space = SpaceKind("deflection", Family.CONFORMING, 4)
        descs = local_dofs(space, voronoi25, 0)
        kinds = [d.kind for d in descs]
        order = [DofKind.VERTEX_VALUE, DofKind.VERTEX_GRAD_X,
                 DofKind.EDGE_NORMAL_MOMENT, DofKind.EDGE_VALUE_MOMENT,
                 DofKind.CELL_MOMENT]
        seen = [kinds.index(k) for k in order]
        assert seen == sorted(seen)

    def test_invalid_degrees_rejected(self):
        with pytest.raises(ValueError):
            SpaceKind("deflection", Family.CONFORMING, 1)
        with pytest.raises(ValueError):
            SpaceKind("pressure", Family.CONFORMING, 0)
        with pytest.raises(ValueError):
            SpaceKind("stress", Family.CONFORMING, 2)


class TestDofMap:
    def test_shared_dofs_agree_across_cells(self, voronoi25):
        space = SpaceKind("deflection", Family.NONCONFORMING, 3)
        dm = build_dof_map(voronoi25, space)
        desc_of = dm.descriptors
        for c in range(voronoi25.ncells):
            local = local_dofs(space, voronoi25, c)
            gids = dm.cell_dofs[c]
            assert len(local) == len(gids)
            for d, g in zip(local, gids):
                assert desc_of[g] == d

    def test_global_count_formula_nc(self, voronoi25):
        k = 2
        space = SpaceKind("deflection", Family.NONCONFORMING, k)
        dm = build_dof_map(voronoi25, space)
        expect = voronoi25.nvertices + (k - 1) * voronoi25.nedges
        assert dm.ndof == expect

    def test_global_count_formula_conf_pressure(self, voronoi25):
        space = SpaceKind("pressure", Family.CONFORMING, 2)
        dm = build_dof_map(voronoi25, space)
        expect = voronoi25.nvertices + voronoi25.nedges + voronoi25.ncells
        assert dm.ndof == expect

    def test_interpolation_reproduces_polynomial_dofs(self, grid4):
        """Interpolating x^2 y then evaluating the same functionals is a fixed point."""
        space = SpaceKind("deflection", Family.CONFORMING, 3)
        dm = build_dof_map(grid4, space)
        f = lambda pts: pts[:, 0] ** 2 * pts[:, 1]
        g = lambda pts: np.column_stack([2 * pts[:, 0] * pts[:, 1], pts[:, 0] ** 2])
        vec = interpolate(grid4, dm, f, g)
        again = interpolate(grid4, dm, f, g)
        assert np.array_equal(vec, again)
        assert np.isfinite(vec).all()
        # vertex value dofs literally hold the function values
        for gid, desc in enumerate(dm.descriptors):
            if desc.kind is DofKind.VERTEX_VALUE:
                x, y = grid4.vertices[desc.entity]
                assert vec[gid] == pytest.approx(x * x * y, abs=1e-13)


def mixed_mesh():
    lab = region_labeler([((-0.1, -0.1, 1.1, 1e-9), BoundaryLabel.SIMPLY_SUPPORTED)],
                         default=BoundaryLabel.CLAMPED)
    return generate_structured(3, 3, labeler=lab)


class TestEssentialBC:
    def test_deflection_value_constrained_everywhere(self):
        mesh = mixed_mesh()
        space = SpaceKind("deflection", Family.CONFORMING, 2)
        dm = apply_essential_bc(build_dof_map(mesh, space), mesh)
        boundary_vertices = set(mesh.edge_verts[mesh.on_boundary].ravel().tolist())
        for gid, desc in enumerate(dm.descriptors):
            if desc.kind is DofKind.VERTEX_VALUE and desc.entity in boundary_vertices:
                assert dm.constrained[gid]

    def test_clamped_gradients_constrained_ss_tangential_free(self):
        mesh = mixed_mesh()
        space = SpaceKind("deflection", Family.CONFORMING, 2)
        dm = apply_essential_bc(build_dof_map(mesh, space), mesh)
        clamped_vertices = set()
        ss_vertices = set()
        for e in np.flatnonzero(mesh.on_boundary):
            target = clamped_vertices if mesh.edge_label[e] == CLAMPED else ss_vertices
            target.update(mesh.edge_verts[e].tolist())
        ss_only = ss_vertices - clamped_vertices
        # a straight simply supported vertex keeps free gradient dofs
        straight = [v for v in ss_only
                    if np.isclose(mesh.vertices[v][1], 0.0)
                    and 0.0 < mesh.vertices[v][0] < 1.0]
        assert straight
        for gid, desc in enumerate(dm.descriptors):
            if desc.kind in (DofKind.VERTEX_GRAD_X, DofKind.VERTEX_GRAD_Y):
                if desc.entity in clamped_vertices:
                    assert dm.constrained[gid]
                elif desc.entity in straight:
                    assert not dm.constrained[gid]

    def test_nonconforming_normal_moments_on_clamped_only(self):
        mesh = mixed_mesh()
        space = SpaceKind("deflection", Family.NONCONFORMING, 2)
        dm = apply_essential_bc(build_dof_map(mesh, space), mesh)
        for gid, desc in enumerate(dm.descriptors):
            if desc.kind is DofKind.EDGE_NORMAL_MOMENT:
                e = desc.entity
                if not mesh.on_boundary[e]:
                    assert not dm.constrained[gid]
                elif mesh.edge_label[e] == CLAMPED:
                    assert dm.constrained[gid]
                else:
                    assert not dm.constrained[gid]

    def test_pressure_dirichlet_sets(self):
        mesh = mixed_mesh()
        space = SpaceKind("pressure", Family.CONFORMING, 1)
        dm_nat = apply_essential_bc(build_dof_map(mesh, space), mesh)
        dm_all = apply_essential_bc(build_dof_map(mesh, space), mesh,
                                    pressure_dirichlet_on_clamped=True)
        assert dm_all.nfree < dm_nat.nfree
        # with the flag every boundary vertex value is pinned
        boundary_vertices = set(mesh.edge_verts[mesh.on_boundary].ravel().tolist())
        for gid, desc in enumerate(dm_all.descriptors):
            if desc.kind is DofKind.VERTEX_VALUE and desc.entity in boundary_vertices:
                assert dm_all.constrained[gid]

    def test_inhomogeneous_values_evaluated(self):
        mesh = mixed_mesh()
        space = SpaceKind("deflection", Family.CONFORMING, 2)
        f = lambda pts: pts[:, 0] + 2.0 * pts[:, 1]
        g = lambda pts: np.tile([1.0, 2.0], (len(pts), 1))
        dm = apply_essential_bc(build_dof_map(mesh, space), mesh, value=f, grad=g)
        for gid, desc in enumerate(dm.descriptors):
            if dm.constrained[gid] and desc.kind is DofKind.VERTEX_VALUE:
                x, y = mesh.vertices[desc.entity]
                assert dm.values[gid] == pytest.approx(x + 2 * y, abs=1e-13)
