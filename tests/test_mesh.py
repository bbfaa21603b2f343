import hashlib
import json
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from _elements import perturbed_grid, qhull_voronoi
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

import platevem.mesh as mesh_module
from platevem.mesh import (LABELS, BoundaryLabel, MeshError, Pcg64, _merge_close,
                           build_mesh, corner_mask, generate_lshape, generate_structured,
                           generate_voronoi, load_mesh, quality_report, refine,
                           region_labeler, uniform_refine)
from platevem.quadrature import polygon_area_centroid


def unit_square_two_cells():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.0], [0.5, 1.0]])
    cells = [[0, 4, 5, 3], [4, 1, 2, 5]]
    return build_mesh(verts, cells)


class TestBuildMesh:
    def test_shared_edge_is_interior(self):
        mesh = unit_square_two_cells()
        interior = np.flatnonzero(~mesh.on_boundary)
        assert len(interior) == 1
        e = interior[0]
        assert set(mesh.edge_cells[e].tolist()) == {0, 1}

    def test_normals_point_out_of_left_cell(self):
        mesh = unit_square_two_cells()
        for (v0, v1), (left, _), normal in zip(mesh.edge_verts, mesh.edge_cells,
                                               mesh.edge_normal):
            mid = 0.5 * (mesh.vertices[v0] + mesh.vertices[v1])
            toward = mid - mesh.centroids[left]
            assert np.dot(normal, toward) > 0

    def test_tangent_normal_orthonormal(self):
        mesh = generate_voronoi(10, seed=2)
        for normal, tangent in zip(mesh.edge_normal, mesh.edge_tangent):
            assert np.dot(normal, tangent) == pytest.approx(0.0, abs=1e-14)
            assert np.linalg.norm(normal) == pytest.approx(1.0)
            assert np.linalg.norm(tangent) == pytest.approx(1.0)

    def test_clockwise_cell_is_reversed(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        with pytest.warns(UserWarning):
            mesh = build_mesh(verts, [[0, 2, 1]])
        assert mesh.areas[0] > 0

    def test_rejects_degenerate_cell(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(MeshError):
            build_mesh(verts, [[0, 1]])

    def test_rejects_repeated_vertex(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(MeshError):
            build_mesh(verts, [[0, 1, 1, 2]])

    def test_area_sums_to_domain(self):
        mesh = generate_voronoi(40, seed=3)
        assert mesh.areas.sum() == pytest.approx(1.0, rel=1e-12)


class TestBuildMeshErrors:
    """One case per MeshError branch of build_mesh."""

    SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

    def test_vertex_out_of_range(self):
        with pytest.raises(MeshError, match="cell 1 references a vertex out of range"):
            build_mesh(self.SQUARE, [[0, 1, 2], [0, 2, 4]])

    def test_self_intersecting_cell(self):
        # a counterclockwise bow tie: edges 0 and 2 cross at (2/3, 2/3)
        verts = np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match="cell 0 is self-intersecting"):
            build_mesh(verts, [[3, 2, 1, 0]])

    def test_edge_shared_by_three_cells(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
        with pytest.raises(MeshError, match=r"edge \(0, 1\) is shared by more than two cells"):
            build_mesh(verts, [[0, 1, 2], [1, 0, 3], [1, 4, 0]])

    def test_same_direction_traversal(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0]])
        with pytest.raises(MeshError, match=r"cells 0 and 1 traverse edge \(0, 1\) in the same"):
            build_mesh(verts, [[0, 1, 2], [0, 1, 3]])

    def test_zero_length_edge(self):
        # vertices 3 and 4 sit at one reflex corner, so the polygon itself
        # is simple and only its edge between them is degenerate
        verts = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [1.0, 1.0], [1.0, 1.0],
                          [0.0, 2.0]])
        with pytest.raises(MeshError, match=r"zero-length edge \(3, 4\)"):
            build_mesh(verts, [[0, 1, 2, 3, 4, 5]])

    def test_labeler_must_return_a_label(self):
        with pytest.raises(MeshError, match="no label"):
            build_mesh(self.SQUARE, [[0, 1, 2, 3]], labeler=lambda mid: None)

    def test_zero_area_cell(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(MeshError, match="cell 0 has zero area"):
            build_mesh(verts, [[0, 1, 2]])


def per_cell_reference(mesh):
    """The derived arrays of a mesh recomputed one cell and one edge at a
    time from its vertices and oriented cells."""
    ref = {"areas": [], "centroids": [], "diameters": [], "cell_edge": [], "cell_sign": []}
    first: dict[tuple[int, int], int] = {}
    edges = []                                  # [v0, v1, left, right]
    acc, count = np.zeros(mesh.nvertices), np.zeros(mesh.nvertices)
    for c, cell in enumerate(mesh.cells):
        coords = mesh.vertices[cell]
        area, centroid = polygon_area_centroid(coords)
        diff = coords[:, None, :] - coords[None, :, :]
        ref["areas"].append(area)
        ref["centroids"].append(centroid)
        ref["diameters"].append(np.sqrt((diff ** 2).sum(-1)).max())
        for i, a in enumerate(cell):
            b = cell[(i + 1) % len(cell)]
            key = (min(a, b), max(a, b))
            if key not in first:
                first[key] = len(edges)
                edges.append([a, b, c, -1])
            else:
                edges[first[key]][3] = c
            ref["cell_edge"].append(first[key])
            ref["cell_sign"].append(1 if edges[first[key]][:2] == [a, b] else -1)
            acc[a] += ref["diameters"][-1]
            count[a] += 1
    ref["vertex_char_length"] = acc / count
    edges = np.array(edges)
    ref["edge_verts"], ref["edge_cells"] = edges[:, :2], edges[:, 2:]
    ref["edge_length"], ref["edge_tangent"], ref["edge_normal"], ref["edge_mid"] = \
        [], [], [], []
    for v0, v1 in ref["edge_verts"]:
        p0, p1 = mesh.vertices[v0], mesh.vertices[v1]
        length = float(np.hypot(*(p1 - p0)))
        tangent = (p1 - p0) / length
        ref["edge_length"].append(length)
        ref["edge_tangent"].append(tangent)
        ref["edge_normal"].append([tangent[1], -tangent[0]])
        ref["edge_mid"].append(0.5 * (p0 + p1))
    return ref


class TestArraysMatchPerCellReference:
    """The grouped construction of build_mesh, generate_voronoi and refine
    gives the same bits as a loop over cells and edges."""

    @pytest.mark.parametrize("make", [
        lambda: generate_voronoi(30, lloyd_iters=3, seed=11),
        lambda: perturbed_grid(5, 4, 0.3, 2),
        lambda: refine(refine(generate_lshape(2), [0, 5, 7]), [0, 1, 2, 20]),
    ])
    def test_bitwise(self, make):
        mesh = make()
        for name, want in per_cell_reference(mesh).items():
            got = getattr(mesh, name)
            assert np.array_equal(got, np.asarray(want, dtype=got.dtype)), name


class TestGenerators:
    def test_structured_counts(self):
        mesh = generate_structured(3, 4)
        assert mesh.ncells == 12
        assert mesh.nvertices == 20

    def test_structured_perturbed_keeps_boundary(self):
        mesh = perturbed_grid(5, 5, 0.3, 7)
        on_boundary = np.isclose(mesh.vertices, 0.0) | np.isclose(mesh.vertices, 1.0)
        boundary_vertices = set(mesh.edge_verts[mesh.on_boundary].ravel().tolist())
        for v in boundary_vertices:
            assert on_boundary[v].any()

    def test_criterion_2_grid_is_pinned(self):
        """The jittered 4 x 4 grid that criterion 2 and the patch tests
        solve on, as the SHA-256 of its vertex bytes."""
        mesh = perturbed_grid(4, 4, 0.2, 1)
        assert hashlib.sha256(mesh.vertices.tobytes()).hexdigest() == \
            "7ce5175d95cbfb1b1230ad6c2d9e18e321cf95e1a53899990167f311e5fc5439"

    def test_lshape_excludes_fourth_quadrant(self):
        mesh = generate_lshape(3)
        assert mesh.ncells == 3 * 9
        assert mesh.areas.sum() == pytest.approx(3.0, rel=1e-12)
        for c in range(mesh.ncells):
            cx, cy = mesh.centroids[c]
            assert not (cx > 0 and cy < 0)

    def test_voronoi_cell_count_and_convexity(self):
        mesh = generate_voronoi(25, seed=0, lloyd_iters=5)
        assert mesh.ncells == 25
        rep = quality_report(mesh)
        assert rep["star_shaped"].all()

    def test_voronoi_seed_reproducible(self):
        a = generate_voronoi(12, seed=9, lloyd_iters=3)
        b = generate_voronoi(12, seed=9, lloyd_iters=3)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.cell_ptr, b.cell_ptr)
        assert np.array_equal(a.cell_verts, b.cell_verts)

    def test_region_labeler(self):
        lab = region_labeler([((-0.1, -0.1, 1.1, 0.0 + 1e-9), BoundaryLabel.SIMPLY_SUPPORTED)])
        mesh = generate_structured(2, 2, labeler=lab)
        labels = {LABELS[c] for c in mesh.edge_label[mesh.on_boundary]}
        assert BoundaryLabel.SIMPLY_SUPPORTED in labels
        assert BoundaryLabel.CLAMPED in labels


@contextmanager
def planted_seeds(pts):
    """generate_voronoi draws the seeds pts: its generator hands out their
    x and then their y coordinates, and real draws after that."""
    real = mesh_module.Pcg64

    class Planted:
        def __init__(self, seed):
            self.rng, self.planted = real(seed), [pts[:, 1].copy(), pts[:, 0].copy()]

        def uniform(self, *args, **kwargs):
            return self.planted.pop() if self.planted else self.rng.uniform(*args, **kwargs)

    with patch.object(mesh_module, "Pcg64", Planted):
        yield


class TestSeedStream:
    """generate_voronoi draws its seeds from the package's PCG64 stream,
    which hands out numpy's ``default_rng(seed).uniform`` draws bit for bit."""

    SEEDS = [0, 1, 3, 104, 205, 2 ** 32 + 5, 2 ** 70 + 11, 123456789]
    # (seed + 101 j, n0 4^j) of every level of the shipped Voronoi ladders
    LADDERS = [(3 + 101 * j, 25 * 4 ** j) for j in range(5)] + [(0, 100)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_successive_draws_are_numpys(self, seed):
        ours, numpys = Pcg64(seed), np.random.default_rng(seed)
        for low, high, n in [(0.0, 1.0, 800), (-1.0, 3.0, 400), (10.0, 10.5, 7)]:
            assert np.array_equal(ours.uniform(low, high, n), numpys.uniform(low, high, n))

    @pytest.mark.parametrize("seed, n", LADDERS)
    def test_ladder_seeds_and_rejitter_are_numpys(self, seed, n):
        """x then y of the n seeds, then an (n, 2) re-jitter draw in C order."""
        ours, numpys = Pcg64(seed), np.random.default_rng(seed)
        for low, high, size in [(0.0, 1.0, n), (0.0, 1.0, n), (-1e-6, 1e-6, (n, 2))]:
            assert np.array_equal(ours.uniform(low, high, size), numpys.uniform(low, high, size))

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError):
            np.random.default_rng(-1)
        with pytest.raises(ValueError):
            Pcg64(-1)
        with pytest.raises(ValueError):
            generate_voronoi(4, seed=-3)


def clipped_mesh(pts, domain):
    """The mesh generate_voronoi makes of the seeds pts, without sweeps."""
    with planted_seeds(pts):
        return generate_voronoi(len(pts), domain, lloyd_iters=0)


def lattice(m, domain):
    """An m x m lattice of seeds at the cell centres of a uniform grid."""
    xmin, ymin, xmax, ymax = domain
    g = (np.arange(m) + 0.5) / m
    return np.column_stack([xmin + (xmax - xmin) * np.repeat(g, m),
                            ymin + (ymax - ymin) * np.tile(g, m)])


DOMAINS = [(0.0, 0.0, 1.0, 1.0), (-1.0, 2.0, 3.0, 2.5), (10.0, -5.0, 10.5, 3.0), (0, -2, 1, 3)]


class TestVoronoiCells:
    """The cells generate_voronoi cuts out of the box are qhull's cells,
    and its meshes are valid polygonal tilings of the box."""

    @staticmethod
    def assert_cells_match(mesh, pts, domain):
        """Each cell's corners are the cycle of qhull's cell, up to rotation,
        within 1e-12 of the box size.  Where the merge joined corners, the
        two meshes may keep different ones of them, so a vertex may also
        differ by the spread of the corners qhull's merge joined there."""
        xmin, ymin, xmax, ymax = domain
        oracle, spread = qhull_voronoi(pts, domain)
        assert mesh.ncells == oracle.ncells
        for c in range(mesh.ncells):
            got = mesh.cell_coords(c)
            ids = oracle.cell_verts[oracle.cell_ptr[c]:oracle.cell_ptr[c + 1]]
            assert len(got) == len(ids), f"cell {c}"
            k = np.argmin(((oracle.vertices[ids] - got[0]) ** 2).sum(axis=1))
            ids = np.roll(ids, -k)
            gap = np.abs(oracle.vertices[ids] - got).max(axis=1)
            assert (gap <= 1e-12 * max(xmax - xmin, ymax - ymin) + 2 * spread[ids]).all(), \
                f"cell {c}: {got.tolist()} against {oracle.vertices[ids].tolist()}"

    @staticmethod
    def assert_valid(mesh, domain):
        """No two vertices within the merge tolerance, every interior vertex
        on three or more edges, V - E + F = 1, and convex CCW cells."""
        xmin, ymin, xmax, ymax = domain
        scale = max(xmax - xmin, ymax - ymin)
        assert not cKDTree(mesh.vertices).query_pairs(1e-9 * scale)
        boundary = np.zeros(mesh.nvertices, dtype=bool)
        boundary[mesh.edge_verts[mesh.on_boundary]] = True
        valence = np.bincount(mesh.edge_verts.ravel(), minlength=mesh.nvertices)
        assert valence[~boundary].min(initial=3) >= 3
        assert mesh.nvertices - mesh.nedges + mesh.ncells == 1
        assert quality_report(mesh)["star_shaped"].all()
        assert (mesh.areas > 0).all()
        assert mesh.areas.sum() == pytest.approx((xmax - xmin) * (ymax - ymin), rel=1e-12)
        for c in range(mesh.ncells):
            p = mesh.cell_coords(c)
            e = np.roll(p, -1, axis=0) - p
            turn = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
            assert turn.min() > -1e-12 * scale ** 2, f"cell {c} is not convex"

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 80), domain=st.sampled_from(DOMAINS),
           seed=st.integers(0, 2 ** 32 - 1), hug=st.integers(0, 8),
           corners=st.integers(0, 4))
    @example(n=8, domain=DOMAINS[2], seed=2353652848, hug=7, corners=0)
    @example(n=4, domain=DOMAINS[2], seed=5, hug=0, corners=4)
    def test_cells_match_qhull(self, n, domain, seed, hug, corners):
        """Random seeds; the first `hug` of them within 1e-10 of a side and
        the next `corners` within 1e-10 of a box corner, one per corner.
        The first example puts two seeds 5.4e-6 apart within 1e-10 of the
        top side, off the origin: their near-vertical bisector meets the
        other lines at corners that lose bits if solved in shifted
        coordinates.  The second gives two corners 2.2e-9 apart, under the
        8e-9 merge tolerance, on either side of a multiple of it."""
        xmin, ymin, xmax, ymax = domain
        scale = max(xmax - xmin, ymax - ymin)
        rng = np.random.default_rng(seed)
        pts = rng.uniform([xmin, ymin], [xmax, ymax], size=(n, 2))

        def hug_side(i, axis, end):
            gap = 1e-10 * scale * rng.uniform()
            pts[i, axis] = domain[axis] + gap if end == 0 else domain[axis + 2] - gap

        for i in range(min(hug, n)):
            hug_side(i, rng.integers(2), rng.integers(2))
        for i, c in enumerate(rng.permutation(4)[:min(corners, max(n - hug, 0))]):
            hug_side(hug + i, 0, c & 1)
            hug_side(hug + i, 1, c >> 1)
        mesh = clipped_mesh(pts, domain)
        self.assert_cells_match(mesh, pts, domain)
        self.assert_valid(mesh, domain)

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_lattice_corners_merge(self, domain):
        """A 4 x 4 lattice meets four cells at each inner corner, where
        cocircular seeds give one vertex of valence 4."""
        pts = lattice(4, domain)
        mesh = clipped_mesh(pts, domain)
        self.assert_cells_match(mesh, pts, domain)
        self.assert_valid(mesh, domain)
        assert (mesh.ncells, mesh.nvertices) == (16, 25)
        boundary = np.zeros(mesh.nvertices, dtype=bool)
        boundary[mesh.edge_verts[mesh.on_boundary]] = True
        valence = np.bincount(mesh.edge_verts.ravel(), minlength=mesh.nvertices)
        assert valence[~boundary].tolist() == [4] * 9

    @pytest.mark.parametrize("count", [25, 100, 400, 1600])
    def test_shipped_ladder_is_valid(self, count):
        """The meshes of the shipped ladders: seed 3, level j seeded 3 + 101 j."""
        j = [25, 100, 400, 1600].index(count)
        self.assert_valid(generate_voronoi(count, lloyd_iters=5, seed=3 + 101 * j),
                          DOMAINS[0])

    def test_coincident_seeds_are_jittered(self):
        """Two seeds drawn at one point are moved apart, with a warning, and
        the mesh still has a cell per seed."""
        pts = np.random.default_rng(5).uniform(size=(12, 2))
        pts[7] = pts[2]
        with planted_seeds(pts), pytest.warns(UserWarning, match="coincident seeds; re-jittering"):
            mesh = generate_voronoi(12, lloyd_iters=3, seed=5)
        assert mesh.ncells == 12
        self.assert_valid(mesh, DOMAINS[0])


class TestRefine:
    def test_refined_area_preserved(self):
        mesh = generate_voronoi(10, seed=4)
        fine = refine(mesh, [0, 3, 5])
        assert fine.areas.sum() == pytest.approx(mesh.areas.sum(), rel=1e-12)

    def test_marked_cells_split(self):
        mesh = generate_voronoi(10, seed=4)
        fine = refine(mesh, [2])
        assert fine.ncells > mesh.ncells

    def test_marks_in_any_order_and_repeated(self):
        """Marks refine as their sorted distinct set, and the smallest mark
        out of range is named."""
        mesh = generate_voronoi(10, seed=4)
        a, b = refine(mesh, [5, 0, 3, 5, 0]), refine(mesh, [0, 3, 5])
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.cell_verts, b.cell_verts)
        assert refine(mesh, []).ncells == mesh.ncells
        with pytest.raises(MeshError, match="marked cell -2 out of range"):
            refine(mesh, [3, 10, -2, -2])
        with pytest.raises(MeshError, match="marked cell 10 out of range"):
            refine(mesh, [10, 3, 10])

    def test_uniform_refine_quadruples_quads(self):
        mesh = generate_structured(2, 2)
        fine = uniform_refine(mesh)
        assert fine.ncells == 16

    def test_hanging_vertices_are_pi_angles(self):
        """Neighbours of refined cells absorb split points as collinear vertices."""
        mesh = generate_structured(2, 2)
        fine = refine(mesh, [0])
        # every cell polygon still closes and areas stay positive
        assert np.all(fine.areas > 0)
        assert fine.areas.sum() == pytest.approx(1.0, rel=1e-12)

    def test_boundary_labels_inherited(self):
        lab = region_labeler([((-0.1, -0.1, 1.1, 1e-9), BoundaryLabel.SIMPLY_SUPPORTED)])
        mesh = generate_structured(2, 2, labeler=lab)
        fine = uniform_refine(mesh)
        for e in np.flatnonzero(fine.on_boundary):
            v0, v1 = fine.edge_verts[e]
            mid = 0.5 * (fine.vertices[v0] + fine.vertices[v1])
            expect = lab(mid)
            assert LABELS[fine.edge_label[e]] is expect


def write_native_json(mesh, path):
    """The mesh in the native-json format, one boundary entry per edge."""
    bnd = np.flatnonzero(mesh.on_boundary)
    path.write_text(json.dumps({
        "vertices": mesh.vertices.tolist(),
        "cells": [c.tolist() for c in mesh.cells],
        "boundary": [{"edges": [pair], "label": LABELS[code].value}
                     for pair, code in zip(mesh.edge_verts[bnd].tolist(),
                                           mesh.edge_label[bnd].tolist())]}))


class TestIO:
    def test_save_load_roundtrip(self, tmp_path):
        mesh = generate_voronoi(8, seed=5)
        path = tmp_path / "mesh.json"
        write_native_json(mesh, path)
        back = load_mesh(str(path))
        assert back.ncells == mesh.ncells
        assert np.allclose(back.vertices, mesh.vertices)
        assert back.areas.sum() == pytest.approx(mesh.areas.sum())
        def boundary_labels(m):
            return sorted((min(v0, v1), max(v0, v1), LABELS[c].value)
                          for (v0, v1), c in zip(m.edge_verts[m.on_boundary].tolist(),
                                                 m.edge_label[m.on_boundary].tolist()))

        assert boundary_labels(mesh) == boundary_labels(back)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": [[0, 0], [1, 0]], "cells": [[0, 1]]}))
        with pytest.raises((MeshError, ValueError, KeyError)):
            load_mesh(str(path))


# two unit squares side by side whose shared side lists its two points
# twice (ids 1, 2 and 6, 7), one square with a vertex no cell names, and
# one whose cell names a vertex the file does not have
SPLIT_SQUARES = {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1], [1, 0], [1, 1]],
                 "cells": [[0, 1, 2, 3], [6, 4, 5, 7]]}
STRAY_VERTEX = {"vertices": [[0, 0], [1, 0], [1, 1], [0.5, 2], [0, 1]],
                "cells": [[0, 1, 2, 4]]}
MISSING_VERTEX = {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "cells": [[0, 1, 2, 4]]}


class TestVertexFaults:
    """A file whose vertices would make a mesh of a different problem
    fails to load, naming the vertices as the file numbers them."""

    @pytest.mark.parametrize("body, message", [
        (SPLIT_SQUARES, r"vertices 1 and 6 coincide at \[1.0, 0.0\]"),
        (STRAY_VERTEX, "vertex 3 is not a vertex of any cell"),
        (MISSING_VERTEX, "cell 0 references a vertex out of range")],
        ids=["coincident", "unused", "out-of-range"])
    def test_native_json(self, tmp_path, body, message):
        path = tmp_path / "mesh.json"
        path.write_text(json.dumps(body))
        with pytest.raises(MeshError, match=message):
            load_mesh(str(path))

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_tolerance_follows_the_extent(self, tmp_path, scale):
        """Points closer than 1e-12 of the mesh extent are one point, at
        any scale; a gap of 1e-9 of it is two."""
        path = tmp_path / "mesh.json"
        for gap in (1e-13, 1e-9):
            verts = SPLIT_SQUARES["vertices"][:6] + [[1 + gap, 0], [1 + gap, 1]]
            path.write_text(json.dumps({"vertices": (scale * np.array(verts)).tolist(),
                                        "cells": SPLIT_SQUARES["cells"]}))
            if gap < 1e-12:
                with pytest.raises(MeshError, match="vertices 1 and 6 coincide"):
                    load_mesh(str(path))
            else:
                assert load_mesh(str(path)).ncells == 2

    def test_generated_meshes_load_back(self, tmp_path):
        path = tmp_path / "mesh.json"
        for mesh in (generate_voronoi(30, seed=2), generate_lshape(2),
                     refine(generate_structured(3, 3), [4])):
            write_native_json(mesh, path)
            assert load_mesh(str(path)).nvertices == mesh.nvertices

    def test_non_finite_vertex(self, tmp_path):
        body = {"vertices": [[0, 0], [1, 0], [1, 1], [0.5, float("nan")], [0, 1]],
                "cells": [[0, 1, 2, 3, 4]]}
        path = tmp_path / "mesh.json"
        path.write_text(json.dumps(body))
        with pytest.raises(MeshError, match="vertex 3 has a coordinate that is not finite"):
            load_mesh(str(path))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 200), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-6, 1.0, 1e6]), on_lattice=st.booleans(),
       planted=st.lists(st.tuples(st.integers(0, 199), st.integers(0, 199),
                                  st.sampled_from([0.0, 0.5, 2.0])), max_size=6),
       chains=st.integers(0, 2), straddles=st.integers(0, 3))
def test_merge_close_matches_brute_force(n, seed, scale, on_lattice, planted,
                                         chains, straddles):
    """The close-point merge gives the groups of the all-pairs graph of
    points at most tol apart, numbered by first appearance, with pairs
    planted at 0, 0.5 and 2 times the tolerance, chains of three points
    0.6 of it apart (one group, though the ends are 1.2 apart) and pairs
    0.3 of it apart across a bucket edge in x, in y or in both; lattice
    points share coordinates and points."""
    rng = np.random.default_rng(seed)
    if on_lattice:
        pts = rng.integers(0, 8, size=(n, 2)) * (scale / 7)
    else:
        pts = rng.uniform(0.0, scale, size=(n, 2))
    tol = 1e-12 * scale
    for i, j, factor in planted:
        if i < n and j < n and i != j:
            angle = rng.uniform(0, 2 * np.pi)
            pts[j] = pts[i] + factor * tol * np.array([np.cos(angle), np.sin(angle)])
    assume(np.ptp(pts, axis=0).max() > 0)
    tol = 1e-12 * np.ptp(pts, axis=0).max()
    joined = []
    for _ in range(chains):
        angle = rng.uniform(0, 2 * np.pi)
        step = 0.6 * tol * np.array([np.cos(angle), np.sin(angle)])
        joined.append(len(pts) + np.arange(3))
        pts = np.vstack([pts, pts[rng.integers(n)] + np.outer([0, 1, 2], step)])
    tol = 1e-12 * np.ptp(pts, axis=0).max()
    for _ in range(straddles):
        # 0.15 of the tolerance below a bucket edge, and past it in x, y or both
        near = pts.min(axis=0) + tol * (rng.integers(1, 1000, size=2) + 0.85)
        across = near + 0.3 * tol * np.array([[1, 0], [0, 1], [1, 1]])[rng.integers(3)]
        joined.append(len(pts) + np.arange(2))
        pts = np.vstack([pts, near, across])
    m = len(pts)
    i, j = np.triu_indices(m, 1)
    close = np.hypot(*(pts[i] - pts[j]).T) <= tol
    ncomp, comp = connected_components(
        coo_matrix((np.ones(close.sum()), (i[close], j[close])), shape=(m, m)), directed=False)
    lowest = np.full(ncomp, m)
    np.minimum.at(lowest, comp, np.arange(m))
    head = np.unique(lowest)
    ids, got = _merge_close(pts, tol)
    assert got.tolist() == head.tolist()
    assert ids.tolist() == np.searchsorted(head, lowest[comp]).tolist()
    for group in joined:
        assert len(set(ids[group].tolist())) == 1


class TestBoundaryEntries:
    """A native-json boundary entry must name boundary edges of the mesh
    and a known label; otherwise loading fails and names the entry."""

    @staticmethod
    def load(tmp_path, *entries):
        path = tmp_path / "square.json"
        path.write_text(json.dumps({
            "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "cells": [[0, 1, 2, 3]],
            "boundary": [{"edges": [[0, 1]], "label": "clamped"}, *entries]}))
        return load_mesh(str(path))

    def test_vertex_that_does_not_exist(self, tmp_path):
        with pytest.raises(MeshError, match=r"boundary entry 1: edge \[0, 7\] is not a "
                                            "boundary edge"):
            self.load(tmp_path, {"edges": [[0, 7]], "label": "simply_supported"})

    def test_pair_that_is_no_edge(self, tmp_path):
        with pytest.raises(MeshError, match=r"boundary entry 1: edge \[2, 0\] is not a "
                                            "boundary edge"):
            self.load(tmp_path, {"edges": [[1, 2], [2, 0]], "label": "clamped"})

    def test_interior_edge(self, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({
            "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "cells": [[0, 1, 2], [0, 2, 3]],
            "boundary": [{"edges": [[0, 2]], "label": "clamped"}]}))
        with pytest.raises(MeshError, match=r"boundary entry 0: edge \[0, 2\] is not a "
                                            "boundary edge"):
            load_mesh(str(path))

    def test_unknown_label(self, tmp_path):
        with pytest.raises(MeshError, match="boundary entry 1: label 'free' is not one of"):
            self.load(tmp_path, {"edges": [[1, 2]], "label": "free"})

    def test_missing_label(self, tmp_path):
        with pytest.raises(MeshError, match="boundary entry 1: label None is not one of"):
            self.load(tmp_path, {"edges": [[1, 2]]})

    def test_entry_that_is_a_list(self, tmp_path):
        with pytest.raises(MeshError, match=r"boundary entry 1: expected an object"):
            self.load(tmp_path, ["clamped"])

    def test_boundary_that_is_an_object(self, tmp_path):
        path = tmp_path / "square.json"
        path.write_text(json.dumps({
            "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "cells": [[0, 1, 2, 3]],
            "boundary": {"edges": [[0, 1]], "label": "clamped"}}))
        with pytest.raises(MeshError, match="boundary: expected a list of entries"):
            load_mesh(str(path))

    def test_edge_of_three_vertices(self, tmp_path):
        with pytest.raises(MeshError, match=r"boundary entry 1: edge \[1, 2, 3\] is not a "
                                            "pair of integer vertex ids"):
            self.load(tmp_path, {"edges": [[1, 2, 3]], "label": "clamped"})

    def test_string_vertex_id(self, tmp_path):
        with pytest.raises(MeshError, match=r"boundary entry 1: edge \[1, '2'\] is not a "
                                            "pair of integer vertex ids"):
            self.load(tmp_path, {"edges": [[1, "2"]], "label": "clamped"})

    def test_edges_that_are_no_list(self, tmp_path):
        with pytest.raises(MeshError, match="boundary entry 1: 'edges' must be a list"):
            self.load(tmp_path, {"edges": 12, "label": "clamped"})

    def test_region_of_three_numbers(self, tmp_path):
        with pytest.raises(MeshError, match=r"boundary entry 1: region \[0, 0, 1\] is not "
                                            r"\[xmin, ymin, xmax, ymax\]"):
            self.load(tmp_path, {"region": [0, 0, 1], "label": "clamped"})

    def test_entry_without_edges_or_region(self, tmp_path):
        with pytest.raises(MeshError, match="boundary entry 1: needs 'edges' or 'region'"):
            self.load(tmp_path, {"label": "clamped"})

    def test_label_precedence(self, tmp_path):
        """An edge takes its `edges` entry, else the last region holding its
        midpoint, else the caller's labeler, else clamped."""
        path = tmp_path / "square.json"
        path.write_text(json.dumps({
            "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "cells": [[0, 1, 2, 3]],
            "boundary": [{"edges": [[0, 1]], "label": "clamped"},
                         {"region": [-1, -1, 2, 0.1], "label": "simply_supported"},
                         {"region": [0.9, -1, 2, 2], "label": "simply_supported"},
                         {"region": [-1, 0.9, 2, 2], "label": "simply_supported"},
                         {"region": [0.9, 0.4, 1.1, 0.6], "label": "clamped"}]}))

        def labels(mesh):
            """First letters of the labels of the bottom, right, top and left side."""
            bnd = np.flatnonzero(mesh.on_boundary)
            mid = np.rint(2 * mesh.edge_mid[bnd]).astype(int).tolist()
            side = {(1, 0): 0, (2, 1): 1, (1, 2): 2, (0, 1): 3}
            out = [None] * 4
            for m, code in zip(mid, mesh.edge_label[bnd]):
                out[side[tuple(m)]] = LABELS[code].value[0]
            return "".join(out)

        assert labels(load_mesh(str(path))) == "ccsc"
        assert labels(load_mesh(str(path), labeler=lambda mid: BoundaryLabel.SIMPLY_SUPPORTED)) \
            == "ccss"

    def test_region_entry_labels_edges(self, tmp_path):
        mesh = self.load(tmp_path, {"region": [0.9, 0, 1.1, 1], "label": "simply_supported"})
        bnd = np.flatnonzero(mesh.on_boundary)
        right = mesh.vertices[mesh.edge_verts[bnd]].mean(axis=1)[:, 0] > 0.9
        simply = [LABELS[c] is BoundaryLabel.SIMPLY_SUPPORTED for c in mesh.edge_label[bnd]]
        assert simply == right.tolist()


def test_side_structure_merges_collinear_edges():
    verts = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mesh = build_mesh(verts, [[0, 1, 2, 3, 4]])
    corners = corner_mask(mesh.cell_coords(0))
    # four sides: vertex 1 lies inside the bottom one, which holds two edges
    assert corners.tolist() == [True, False, True, True, True]


def test_h_is_max_diameter():
    mesh = generate_voronoi(15, seed=6)
    assert mesh.h == pytest.approx(mesh.diameters.max())


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_refine_property_area_and_labels(seed):
    rng = np.random.default_rng(seed)
    mesh = generate_voronoi(8, seed=seed % 1000, lloyd_iters=2)
    marked = list(rng.choice(mesh.ncells, size=3, replace=False))
    fine = refine(mesh, marked)
    assert fine.areas.sum() == pytest.approx(mesh.areas.sum(), rel=1e-10)
    assert np.all(fine.areas > 0)
    assert fine.ncells >= mesh.ncells + len(marked)
