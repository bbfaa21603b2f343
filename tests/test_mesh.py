import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platevem.mesh import (LABELS, BoundaryLabel, MeshError, all_clamped, build_mesh,
                           generate_lshape, generate_structured,
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

    def test_text_file_index_out_of_range(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("4 1\n0 0\n1 0\n1 1\n0 1\n4 1 2 3 5\n")
        with pytest.raises(MeshError, match="cell 0 references a vertex out of range"):
            load_mesh(str(path), fmt="vertex-cell-text", index_base=1)


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
        lambda: generate_structured(5, 4, perturb=0.3, seed=2),
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
        mesh = generate_structured(5, 5, perturb=0.3, seed=7)
        on_boundary = np.isclose(mesh.vertices, 0.0) | np.isclose(mesh.vertices, 1.0)
        boundary_vertices = set(mesh.edge_verts[mesh.on_boundary].ravel().tolist())
        for v in boundary_vertices:
            assert on_boundary[v].any()

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
        lab = region_labeler([((-0.1, -0.1, 1.1, 0.0 + 1e-9), BoundaryLabel.SIMPLY_SUPPORTED)],
                             default=BoundaryLabel.CLAMPED)
        mesh = generate_structured(2, 2, labeler=lab)
        labels = {LABELS[c] for c in mesh.edge_label[mesh.on_boundary]}
        assert BoundaryLabel.SIMPLY_SUPPORTED in labels
        assert BoundaryLabel.CLAMPED in labels


class TestRefine:
    def test_refined_area_preserved(self):
        mesh = generate_voronoi(10, seed=4)
        fine = refine(mesh, [0, 3, 5])
        assert fine.areas.sum() == pytest.approx(mesh.areas.sum(), rel=1e-12)

    def test_marked_cells_split(self):
        mesh = generate_voronoi(10, seed=4)
        fine = refine(mesh, [2])
        assert fine.ncells > mesh.ncells

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
        lab = region_labeler([((-0.1, -0.1, 1.1, 1e-9), BoundaryLabel.SIMPLY_SUPPORTED)],
                             default=BoundaryLabel.CLAMPED)
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
# twice (ids 1, 2 and 6, 7), and one square with a vertex no cell names
SPLIT_SQUARES = {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1], [1, 0], [1, 1]],
                 "cells": [[0, 1, 2, 3], [6, 4, 5, 7]]}
STRAY_VERTEX = {"vertices": [[0, 0], [1, 0], [1, 1], [0.5, 2], [0, 1]],
                "cells": [[0, 1, 2, 4]]}


def vertex_cell_text(body: dict, base: int) -> str:
    lines = [f"{len(body['vertices'])} {len(body['cells'])}"]
    lines += [f"{x} {y}" for x, y in body["vertices"]]
    lines += [" ".join(map(str, [len(c)] + [v + base for v in c])) for c in body["cells"]]
    return "\n".join(lines) + "\n"


class TestVertexFaults:
    """A file whose vertices would make a mesh of a different problem
    fails to load, naming the vertices as the file numbers them."""

    @pytest.mark.parametrize("body, message", [
        (SPLIT_SQUARES, r"vertices 1 and 6 coincide at \[1.0, 0.0\]"),
        (STRAY_VERTEX, "vertex 3 is not a vertex of any cell")],
        ids=["coincident", "unused"])
    def test_native_json(self, tmp_path, body, message):
        path = tmp_path / "mesh.json"
        path.write_text(json.dumps(body))
        with pytest.raises(MeshError, match=message):
            load_mesh(str(path))

    @pytest.mark.parametrize("body, message", [
        (SPLIT_SQUARES, r"vertices 2 and 7 coincide"),
        (STRAY_VERTEX, "vertex 4 is not a vertex of any cell")],
        ids=["coincident", "unused"])
    def test_vertex_cell_text(self, tmp_path, body, message):
        path = tmp_path / "mesh.txt"
        path.write_text(vertex_cell_text(body, 1))
        with pytest.raises(MeshError, match=message):
            load_mesh(str(path), fmt="vertex-cell-text", index_base=1)

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

    def test_region_entry_labels_edges(self, tmp_path):
        mesh = self.load(tmp_path, {"region": [0.9, 0, 1.1, 1], "label": "simply_supported"})
        bnd = np.flatnonzero(mesh.on_boundary)
        right = mesh.vertices[mesh.edge_verts[bnd]].mean(axis=1)[:, 0] > 0.9
        simply = [LABELS[c] is BoundaryLabel.SIMPLY_SUPPORTED for c in mesh.edge_label[bnd]]
        assert simply == right.tolist()


def test_side_structure_merges_collinear_edges():
    verts = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mesh = build_mesh(verts, [[0, 1, 2, 3, 4]])
    side = mesh.side_structure(0)
    assert side.nsides == 4   # bottom side holds two collinear edges


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
