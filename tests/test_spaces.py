import numpy as np
import pytest
from _elements import polygon_rule

from platevem.assembly import ModelParams, assemble_system
from platevem.manufactured import get_case
from platevem.mesh import (CLAMPED, BoundaryLabel, build_mesh, generate_structured,
                           region_labeler, size_groups)
from platevem.quadrature import PowerTable, edge_rule, poly_dim
from platevem.spaces import (DofLayout, Family, SpaceKind, apply_essential_bc,
                             build_dof_map, interpolate)


def count_local(space, mesh, cell):
    return DofLayout(space, len(mesh.cell_coords(cell))).ndof


def blocks(dm, vec):
    """Views of a global dof vector: vertex block (nvertices, n_vertex),
    edge block (nedges, n_edge) and cell block (ncells, n_cell)."""
    space = dm.space
    return (vec[:dm.edge_base].reshape(dm.nvertices, space.n_vertex),
            vec[dm.edge_base:dm.cell_base].reshape(dm.nedges, space.n_edge),
            vec[dm.cell_base:].reshape(dm.ncells, space.n_cell))


def reference_interpolant(mesh, space, value, grad):
    """The dof functionals applied one entity at a time, in global order:
    the per-dof reference for the block evaluation of interpolate."""
    order = 2 * space.degree + 4
    out = []
    for v, x in enumerate(mesh.vertices):
        vals = [value(x[None])[0]]
        if space.n_vertex == 3:
            vals += list(mesh.vertex_char_length[v] * grad(x[None])[0])
        out += vals[:space.n_vertex]
    for e, (i, j) in enumerate(mesh.edge_verts):
        pts, w = edge_rule(mesh.vertices[i], mesh.vertices[j], order)
        s = ((pts - mesh.edge_mid[e]) @ mesh.edge_tangent[e]) / mesh.edge_length[e]
        if space.n_edge_normal:
            gn = grad(pts) @ mesh.edge_normal[e]
            out += [np.sum(w * gn * s ** m) for m in range(space.n_edge_normal)]
        vals = value(pts)
        out += [np.sum(w * vals * s ** m) / mesh.edge_length[e]
                for m in range(space.n_edge_value)]
    for c in range(mesh.ncells if space.n_cell else 0):
        pts, w = polygon_rule(mesh.cell_coords(c), order)
        mono = PowerTable.at(pts, mesh.centroids[c], mesh.diameters[c], space.degree).gather()
        vals = value(pts)
        out += [np.sum(w * vals * mono[:, m]) / mesh.areas[c]
                for m in range(space.n_cell)]
    return np.array(out)


def ear_clipped_mesh(labeler):
    """An L-shaped octagon whose centroid fan folds over, and a quadrilateral."""
    vertices = np.array([[0, 0], [3, 0], [3, .5], [.5, .5], [.5, 3], [0, 3],
                         [3, 3], [1.7, 0], [0, 1.9]]) / 3.0
    return build_mesh(vertices, [[0, 7, 1, 2, 3, 4, 5, 8], [3, 2, 6, 4]], labeler=labeler)


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
        lay = DofLayout(space, len(voronoi25.cell_coords(0)))
        order = [lay.iv, lay.igrad[:, 0], lay.inorm, lay.ival, lay.icell]
        seen = [int(block.min()) for block in order]
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
        """Every entry of the assembled group tables names the global dof
        of the entity and moment that the one local layout puts there."""
        for family in (Family.CONFORMING, Family.NONCONFORMING):
            self.check_group_tables(voronoi25, SpaceKind("deflection", family, 4))

    @staticmethod
    def check_group_tables(mesh, space):
        system = assemble_system(mesh, space, SpaceKind("pressure", space.family, 3),
                                 ModelParams())
        dm = system.dof_u
        vertex, edge, cell = blocks(dm, np.arange(dm.ndof))
        for g in system.groups:
            lay = DofLayout(space, g.ctx.nverts)
            table = g.dofs_u
            assert table.shape == (len(g.ctx), lay.ndof)
            assert np.array_equal(table[:, lay.vertex], vertex[g.ctx.verts])
            assert np.array_equal(table[:, lay.edge], edge[g.ctx.eid])
            assert np.array_equal(table[:, lay.icell], cell[g.ctx.cells])
            # positions by kind: values, gradient pairs, normal and value moments
            assert np.array_equal(table[:, lay.iv], vertex[g.ctx.verts, 0])
            assert np.array_equal(table[:, lay.igrad], vertex[g.ctx.verts, 1:])
            assert np.array_equal(table[:, lay.inorm],
                                  edge[g.ctx.eid, :space.n_edge_normal])
            assert np.array_equal(table[:, lay.ival],
                                  edge[g.ctx.eid, space.n_edge_normal:])

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
        f = lambda pts: pts[..., 0] ** 2 * pts[..., 1]
        g = lambda pts: np.stack([2 * pts[..., 0] * pts[..., 1], pts[..., 0] ** 2], axis=-1)
        vec = interpolate(grid4, dm, f, g)
        again = interpolate(grid4, dm, f, g)
        assert np.array_equal(vec, again)
        assert np.isfinite(vec).all()
        # vertex value dofs literally hold the function values
        x, y = grid4.vertices.T
        assert np.abs(blocks(dm, vec)[0][:, 0] - x * x * y).max() <= 1e-13

    @pytest.mark.parametrize("family", [Family.CONFORMING, Family.NONCONFORMING])
    def test_block_evaluation_matches_per_dof_reference(self, voronoi25, family):
        """interpolate and the lift of apply_essential_bc equal the dof
        functionals applied one entity at a time, bit for bit, also on a
        cell that is ear clipped."""
        case = get_case("smooth")
        for mesh in (build_mesh(voronoi25.vertices, voronoi25.cells, labeler=case.labeler),
                     ear_clipped_mesh(case.labeler)):
            for space, value, grad in (
                    (SpaceKind("deflection", family, 4), case.u, case.grad_u),
                    (SpaceKind("pressure", family, 3), case.p, None)):
                dm = build_dof_map(mesh, space)
                ref = reference_interpolant(mesh, space, value, grad)
                assert np.array_equal(interpolate(mesh, dm, value, grad), ref)
                bc = apply_essential_bc(dm, mesh, value=value, grad=grad)
                assert bc.fixed.any()
                assert np.array_equal(bc.lift, np.where(bc.fixed, ref, 0.0))

    @pytest.mark.parametrize("family", [Family.CONFORMING, Family.NONCONFORMING])
    def test_interpolate_calls_data_per_block(self, voronoi25, family):
        """One value and gradient call for the vertex block, one for the
        edge block, and one value call per vertex count and triangulation
        for the cell block; never one per dof."""
        calls = {"value": 0, "grad": 0}

        def counted(name, fn):
            def wrapped(pts):
                calls[name] += 1
                return fn(pts)
            return wrapped

        f = counted("value", lambda pts: np.sin(pts[..., 0]) * pts[..., 1])
        g = counted("grad", lambda pts: np.stack(
            [np.cos(pts[..., 0]) * pts[..., 1], np.sin(pts[..., 0])], axis=-1))
        dm = build_dof_map(voronoi25, SpaceKind("deflection", family, 4))
        vec = interpolate(voronoi25, dm, f, g)
        assert np.isfinite(vec).all()
        nsizes = len(list(size_groups(voronoi25.cell_ptr)))
        assert 3 <= calls["value"] <= 2 + 2 * nsizes
        assert 1 <= calls["grad"] <= 2


def mixed_mesh():
    lab = region_labeler([((-0.1, -0.1, 1.1, 1e-9), BoundaryLabel.SIMPLY_SUPPORTED)])
    return generate_structured(3, 3, labeler=lab)


class TestEssentialBC:
    def test_deflection_value_constrained_everywhere(self):
        mesh = mixed_mesh()
        space = SpaceKind("deflection", Family.CONFORMING, 2)
        dm = build_dof_map(mesh, space)
        fixed = blocks(dm, apply_essential_bc(dm, mesh).fixed)[0]
        boundary_vertices = np.unique(mesh.edge_verts[mesh.on_boundary])
        assert fixed[boundary_vertices, 0].all()

    def test_clamped_gradients_constrained_ss_tangential_free(self):
        mesh = mixed_mesh()
        space = SpaceKind("deflection", Family.CONFORMING, 2)
        dm = build_dof_map(mesh, space)
        fixed = blocks(dm, apply_essential_bc(dm, mesh).fixed)[0]
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
        assert fixed[sorted(clamped_vertices), 1:].all()
        assert not fixed[straight, 1:].any()

    def test_nonconforming_normal_moments_on_clamped_only(self):
        mesh = mixed_mesh()
        space = SpaceKind("deflection", Family.NONCONFORMING, 2)
        dm = build_dof_map(mesh, space)
        fixed = blocks(dm, apply_essential_bc(dm, mesh).fixed)[1]
        normal = fixed[:, :space.n_edge_normal]
        clamped = mesh.on_boundary & (mesh.edge_label == CLAMPED)
        assert normal.shape[1] == 1
        assert normal[clamped].all()
        assert not normal[~clamped].any()

    def test_pressure_dirichlet_sets(self):
        mesh = mixed_mesh()
        space = SpaceKind("pressure", Family.CONFORMING, 1)
        dm = build_dof_map(mesh, space)
        nat = apply_essential_bc(dm, mesh)
        full = apply_essential_bc(dm, mesh, pressure_dirichlet_on_clamped=True)
        assert (~full.fixed).sum() < (~nat.fixed).sum()
        # with the flag every boundary vertex value is pinned
        boundary_vertices = np.unique(mesh.edge_verts[mesh.on_boundary])
        assert blocks(dm, full.fixed)[0][boundary_vertices, 0].all()

    def test_reused_map_gives_fresh_constraints(self):
        """Constraints are a value: building them with and then without the
        pressure flag on one map gives the mask of a fresh map, and the
        map itself is unchanged."""
        mesh = mixed_mesh()
        space = SpaceKind("pressure", Family.CONFORMING, 1)
        dm = build_dof_map(mesh, space)
        with_flag = apply_essential_bc(dm, mesh, pressure_dirichlet_on_clamped=True)
        again = apply_essential_bc(dm, mesh, pressure_dirichlet_on_clamped=False)
        fresh = apply_essential_bc(build_dof_map(mesh, space), mesh,
                                   pressure_dirichlet_on_clamped=False)
        assert with_flag.fixed.sum() > fresh.fixed.sum()
        assert np.array_equal(again.fixed, fresh.fixed)
        assert np.array_equal(again.lift, fresh.lift)
        assert dm == build_dof_map(mesh, space)

    def test_inhomogeneous_values_evaluated(self):
        mesh = mixed_mesh()
        space = SpaceKind("deflection", Family.CONFORMING, 2)
        f = lambda pts: pts[..., 0] + 2.0 * pts[..., 1]
        g = lambda pts: np.broadcast_to([1.0, 2.0], pts.shape)
        dm = build_dof_map(mesh, space)
        bc = apply_essential_bc(dm, mesh, value=f, grad=g)
        fixed, lift = blocks(dm, bc.fixed)[0][:, 0], blocks(dm, bc.lift)[0][:, 0]
        x, y = mesh.vertices[fixed].T
        assert fixed.any()
        assert np.abs(lift[fixed] - (x + 2 * y)).max() <= 1e-13
