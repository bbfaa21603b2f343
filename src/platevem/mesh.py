"""Polygonal meshes: construction, file I/O, generation, and refinement.

A mesh is a flat vertex table plus counterclockwise cells.  Edges are
derived with a fixed global orientation: the canonical direction of an
edge is the traversal direction of its *left* cell (the one with the
lower id when shared), and the canonical normal points to the right of
that direction, i.e. out of the left cell.  All degree-of-freedom
definitions downstream refer to this canonical frame so that shared
quantities are single valued.

Vertices interior to a straight run of element boundary (pi-angle
vertices, produced by local refinement) are ordinary mesh vertices; the
side structure of each polygon groups its collinear edge runs so that
spaces which need them can tell corners from hanging nodes.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .quadrature import polygon_area_centroid


class BoundaryLabel(Enum):
    CLAMPED = "clamped"
    SIMPLY_SUPPORTED = "simply_supported"


class MeshError(Exception):
    """Raised for malformed mesh input (self-intersection, bad indices, ...)."""


Labeler = Callable[[np.ndarray], BoundaryLabel]

# Turn (or sine of the angle) between adjacent edges below which a vertex
# counts as a straight, pi-angle vertex rather than a corner.
ANGLE_TOL = 1e-8


def all_clamped(_midpoint: np.ndarray) -> BoundaryLabel:
    return BoundaryLabel.CLAMPED


def region_labeler(regions: Sequence[tuple[tuple[float, float, float, float], BoundaryLabel]],
                   default: BoundaryLabel = BoundaryLabel.CLAMPED) -> Labeler:
    """Label boundary edges whose midpoint falls in an (xmin, ymin, xmax, ymax) box.

    Later entries win; edges matching no box get the default label.
    """

    def labeler(mid: np.ndarray) -> BoundaryLabel:
        out = default
        for (xmin, ymin, xmax, ymax), label in regions:
            if xmin <= mid[0] <= xmax and ymin <= mid[1] <= ymax:
                out = label
        return out

    return labeler


@dataclass(frozen=True)
class Edge:
    v0: int
    v1: int
    left: int
    right: int | None          # None on the boundary
    label: BoundaryLabel | None
    length: float
    tangent: np.ndarray        # canonical unit direction v0 -> v1
    normal: np.ndarray         # rotated -90 deg: out of the left cell
    midpoint: np.ndarray

    @property
    def is_boundary(self) -> bool:
        return self.right is None


@dataclass(frozen=True)
class SideStructure:
    """Corner/side decomposition of one polygon boundary.

    corners holds local vertex positions of the true corners; side j starts
    at local edge index side_start[j] and contains side_extra[j] additional
    collinear edges beyond the first, so edge counts sum to the number of
    polygon vertices.
    """

    corners: tuple[int, ...]
    side_start: tuple[int, ...]
    side_extra: tuple[int, ...]

    @property
    def nsides(self) -> int:
        return len(self.side_start)

    def side_edges(self, j: int, nverts: int) -> list[int]:
        start = self.side_start[j]
        return [(start + i) % nverts for i in range(self.side_extra[j] + 1)]


@dataclass
class PolygonalMesh:
    vertices: np.ndarray                  # (nv, 2)
    cells: list[list[int]]                # CCW vertex ids per cell
    edges: list[Edge] = field(default_factory=list)
    cell_edges: list[list[tuple[int, int]]] = field(default_factory=list)  # (edge id, +-1)
    areas: np.ndarray = field(default_factory=lambda: np.zeros(0))
    centroids: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    diameters: np.ndarray = field(default_factory=lambda: np.zeros(0))
    vertex_char_length: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def ncells(self) -> int:
        return len(self.cells)

    @property
    def nvertices(self) -> int:
        return len(self.vertices)

    @property
    def nedges(self) -> int:
        return len(self.edges)

    @property
    def h(self) -> float:
        return float(self.diameters.max())

    def cell_coords(self, c: int) -> np.ndarray:
        return self.vertices[self.cells[c]]

    def boundary_edges(self) -> list[int]:
        return [i for i, e in enumerate(self.edges) if e.is_boundary]

    def side_structure(self, c: int) -> SideStructure:
        return side_structure(self.cell_coords(c))


def _polygon_diameter(coords: np.ndarray) -> float:
    diff = coords[:, None, :] - coords[None, :, :]
    return float(np.sqrt((diff ** 2).sum(-1)).max())


def _segments_intersect(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _check_simple(coords: np.ndarray, cell_id: int) -> None:
    n = len(coords)
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_intersect(coords[i], coords[(i + 1) % n],
                                   coords[j], coords[(j + 1) % n]):
                raise MeshError(f"cell {cell_id} is self-intersecting")


def build_mesh(vertices: np.ndarray, cells: Sequence[Sequence[int]],
               labeler: Labeler | None = None,
               edge_labels: dict[tuple[int, int], BoundaryLabel] | None = None) -> PolygonalMesh:
    """Assemble derived mesh data from raw vertices/cells.

    Cells are re-oriented CCW with a warning if needed.  Boundary labels
    come from explicit per-edge entries (keyed by the sorted vertex pair)
    when given, otherwise from the labeler applied to edge midpoints; the
    default labels everything clamped.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    cells = [list(map(int, c)) for c in cells]
    if labeler is None:
        labeler = all_clamped

    areas = np.zeros(len(cells))
    centroids = np.zeros((len(cells), 2))
    diameters = np.zeros(len(cells))
    for c, cell in enumerate(cells):
        if len(cell) < 3:
            raise MeshError(f"cell {c} has fewer than 3 vertices")
        if len(set(cell)) != len(cell):
            raise MeshError(f"cell {c} repeats a vertex")
        if any(v < 0 or v >= len(vertices) for v in cell):
            raise MeshError(f"cell {c} references a vertex out of range")
        coords = vertices[cell]
        area, centroid = polygon_area_centroid(coords)
        if area < 0:
            warnings.warn(f"cell {c} was clockwise; reversing", stacklevel=2)
            cell.reverse()
            cells[c] = cell
            coords = vertices[cell]
            area, centroid = polygon_area_centroid(coords)
        _check_simple(coords, c)
        areas[c] = area
        centroids[c] = centroid
        diameters[c] = _polygon_diameter(coords)

    # canonical edges: first traversal wins the orientation
    edge_index: dict[tuple[int, int], int] = {}
    records: list[dict] = []
    cell_edges: list[list[tuple[int, int]]] = []
    for c, cell in enumerate(cells):
        entry = []
        n = len(cell)
        for i in range(n):
            a, b = cell[i], cell[(i + 1) % n]
            key = (min(a, b), max(a, b))
            if key not in edge_index:
                edge_index[key] = len(records)
                records.append({"v0": a, "v1": b, "left": c, "right": None})
                entry.append((edge_index[key], +1))
            else:
                rec = records[edge_index[key]]
                if rec["right"] is not None:
                    raise MeshError(f"edge {key} is shared by more than two cells")
                if (rec["v0"], rec["v1"]) == (a, b):
                    raise MeshError(
                        f"cells {rec['left']} and {c} traverse edge {key} in the same "
                        "direction; orientations are inconsistent")
                rec["right"] = c
                entry.append((edge_index[key], -1))
        cell_edges.append(entry)

    edges: list[Edge] = []
    for rec in records:
        p0, p1 = vertices[rec["v0"]], vertices[rec["v1"]]
        length = float(np.hypot(*(p1 - p0)))
        if length <= 0.0:
            raise MeshError(f"zero-length edge {(rec['v0'], rec['v1'])}")
        tangent = (p1 - p0) / length
        normal = np.array([tangent[1], -tangent[0]])
        mid = 0.5 * (p0 + p1)
        label = None
        if rec["right"] is None:
            key = (min(rec["v0"], rec["v1"]), max(rec["v0"], rec["v1"]))
            if edge_labels is not None and key in edge_labels:
                label = edge_labels[key]
            else:
                label = labeler(mid)
        edges.append(Edge(rec["v0"], rec["v1"], rec["left"], rec["right"],
                          label, length, tangent, normal, mid))

    # characteristic vertex length: mean diameter of incident cells
    counts = np.zeros(len(vertices))
    acc = np.zeros(len(vertices))
    for c, cell in enumerate(cells):
        for v in cell:
            counts[v] += 1
            acc[v] += diameters[c]
    used = counts > 0
    char = np.zeros(len(vertices))
    char[used] = acc[used] / counts[used]

    return PolygonalMesh(vertices, cells, edges, cell_edges,
                         areas, centroids, diameters, char)


def side_structure(coords: np.ndarray) -> SideStructure:
    """Group the boundary of one CCW polygon into maximal collinear runs.

    A vertex is a corner when the turn between its adjacent edges exceeds
    ANGLE_TOL; collinear (pi-angle) vertices fall inside a side.  Fewer
    than 3 corners means the polygon is degenerate.
    """
    n = len(coords)
    corners = []
    for i in range(n):
        prev_d = coords[i] - coords[i - 1]
        next_d = coords[(i + 1) % n] - coords[i]
        turn = math.atan2(prev_d[0] * next_d[1] - prev_d[1] * next_d[0],
                          prev_d[0] * next_d[0] + prev_d[1] * next_d[1])
        if abs(turn) > ANGLE_TOL:
            corners.append(i)
    if len(corners) < 3:
        raise MeshError("polygon has fewer than 3 corners")
    side_start = []
    side_extra = []
    for j, c in enumerate(corners):
        nxt = corners[(j + 1) % len(corners)]
        extra = (nxt - c) % n - 1
        side_start.append(c)
        side_extra.append(extra)
    return SideStructure(tuple(corners), tuple(side_start), tuple(side_extra))


# ---------------------------------------------------------------------------
# generation


def generate_structured(nx: int, ny: int,
                        domain: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
                        perturb: float = 0.0, seed: int = 0,
                        labeler: Labeler | None = None) -> PolygonalMesh:
    """nx x ny quadrilateral grid; interior vertices jittered by perturb * min cell size."""
    xmin, ymin, xmax, ymax = domain
    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    if perturb > 0.0:
        rng = np.random.default_rng(seed)
        hmin = min((xmax - xmin) / nx, (ymax - ymin) / ny)
        jitter = rng.uniform(-1.0, 1.0, size=verts.shape) * perturb * hmin
        interior = np.ones(len(verts), dtype=bool)
        for i in range(nx + 1):
            for j in range(ny + 1):
                if i in (0, nx) or j in (0, ny):
                    interior[i * (ny + 1) + j] = False
        verts[interior] += jitter[interior]
    cells = []
    for i in range(nx):
        for j in range(ny):
            v00 = i * (ny + 1) + j
            v10 = (i + 1) * (ny + 1) + j
            cells.append([v00, v10, v10 + 1, v00 + 1])
    return build_mesh(verts, cells, labeler=labeler)


def generate_lshape(n: int, labeler: Labeler | None = None) -> PolygonalMesh:
    """Structured mesh of (-1,1)^2 minus the fourth quadrant, n x n per block."""
    h = 1.0 / n
    verts: list[tuple[float, float]] = []
    index: dict[tuple[int, int], int] = {}

    def vid(i: int, j: int) -> int:
        if (i, j) not in index:
            index[(i, j)] = len(verts)
            verts.append((-1.0 + i * h, -1.0 + j * h))
        return index[(i, j)]

    cells = []
    for i in range(2 * n):
        for j in range(2 * n):
            if i >= n and j < n:   # removed quadrant [0,1) x [-1,0)
                continue
            cells.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return build_mesh(np.array(verts), cells, labeler=labeler)


def _clip_to_box(regions: list[np.ndarray]) -> list[np.ndarray]:
    return regions


def generate_voronoi(n_seeds: int,
                     domain: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
                     lloyd_iters: int = 100, seed: int = 0,
                     labeler: Labeler | None = None) -> PolygonalMesh:
    """Centroidal Voronoi mesh of a rectangle.

    Seeds are drawn uniformly, smoothed with the requested number of Lloyd
    sweeps, and the final diagram is clipped exactly to the rectangle by
    mirroring all seeds across the four sides, so boundary cells close on
    the box without any half-plane bookkeeping.
    """
    from scipy.spatial import Voronoi

    xmin, ymin, xmax, ymax = domain
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(xmin, xmax, n_seeds),
                           rng.uniform(ymin, ymax, n_seeds)])
    scale = max(xmax - xmin, ymax - ymin)
    for _ in range(64):
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff ** 2).sum(-1)) + np.eye(n_seeds) * scale
        if dist.min() > 1e-12 * scale:
            break
        warnings.warn("coincident seeds; re-jittering", stacklevel=2)
        pts += rng.uniform(-1e-6, 1e-6, size=pts.shape) * scale

    def mirrored(p: np.ndarray) -> np.ndarray:
        left = p.copy();  left[:, 0] = 2 * xmin - p[:, 0]
        right = p.copy(); right[:, 0] = 2 * xmax - p[:, 0]
        low = p.copy();   low[:, 1] = 2 * ymin - p[:, 1]
        up = p.copy();    up[:, 1] = 2 * ymax - p[:, 1]
        return np.vstack([p, left, right, low, up])

    def diagram_cells(p: np.ndarray) -> list[np.ndarray]:
        if len(p) == 1:
            box = np.array([[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]])
            return [box]
        vor = Voronoi(mirrored(p))
        polys = []
        for i in range(len(p)):
            region = vor.regions[vor.point_region[i]]
            assert -1 not in region, "mirrored diagram should be bounded"
            poly = vor.vertices[region]
            area, _ = polygon_area_centroid(poly)
            if area < 0:
                poly = poly[::-1]
            polys.append(poly)
        return polys

    for _ in range(lloyd_iters):
        polys = diagram_cells(pts)
        pts = np.array([polygon_area_centroid(poly)[1] for poly in polys])
    polys = diagram_cells(pts)

    # merge coincident diagram vertices (degenerate configurations produce
    # duplicates) and snap onto the box sides
    tol = 1e-9 * scale
    verts: list[np.ndarray] = []
    cells = []
    lookup: dict[tuple[int, int], int] = {}

    def vert_id(p: np.ndarray) -> int:
        q = p.copy()
        for axis, (lo, hi) in enumerate([(xmin, xmax), (ymin, ymax)]):
            if abs(q[axis] - lo) < tol:
                q[axis] = lo
            if abs(q[axis] - hi) < tol:
                q[axis] = hi
        key = (int(round(q[0] / tol)), int(round(q[1] / tol)))
        if key not in lookup:
            lookup[key] = len(verts)
            verts.append(q)
        return lookup[key]

    for poly in polys:
        ids = [vert_id(p) for p in poly]
        cell = [ids[i] for i in range(len(ids)) if ids[i] != ids[i - 1]]
        if len(cell) >= 3:
            cells.append(cell)
    return build_mesh(np.array(verts), cells, labeler=labeler)


# ---------------------------------------------------------------------------
# refinement


def refine(mesh: PolygonalMesh, marked: Sequence[int]) -> PolygonalMesh:
    """Split every marked polygon into quadrilaterals around its centroid.

    Each marked N-gon becomes N quads (vertex, following edge midpoint,
    centroid, preceding edge midpoint).  Unmarked neighbors sharing a split
    edge keep their shape but gain the midpoint as a pi-angle vertex, so no
    closure pass is needed.  Boundary labels are inherited by the halves of
    split boundary edges.
    """
    marked_set = set(int(m) for m in marked)
    for m in marked_set:
        if m < 0 or m >= mesh.ncells:
            raise MeshError(f"marked cell {m} out of range")

    verts = [v for v in mesh.vertices]
    edge_mid: dict[int, int] = {}

    split_edges = set()
    for c in sorted(marked_set):
        for eid, _ in mesh.cell_edges[c]:
            split_edges.add(eid)
    for eid in sorted(split_edges):
        e = mesh.edges[eid]
        edge_mid[eid] = len(verts)
        verts.append(e.midpoint.copy())

    cell_center: dict[int, int] = {}
    for c in sorted(marked_set):
        cell_center[c] = len(verts)
        verts.append(mesh.centroids[c].copy())

    new_cells: list[list[int]] = []
    for c, cell in enumerate(mesh.cells):
        entry = mesh.cell_edges[c]
        n = len(cell)
        if c in marked_set:
            mids = [edge_mid[eid] for eid, _ in entry]
            ctr = cell_center[c]
            for i in range(n):
                new_cells.append([cell[i], mids[i], ctr, mids[i - 1]])
        else:
            out: list[int] = []
            for i in range(n):
                out.append(cell[i])
                eid, _ = entry[i]
                if eid in edge_mid:
                    out.append(edge_mid[eid])
            new_cells.append(out)

    # carry boundary labels onto (possibly split) boundary edges
    labels: dict[tuple[int, int], BoundaryLabel] = {}
    for eid, e in enumerate(mesh.edges):
        if not e.is_boundary:
            continue
        if eid in edge_mid:
            m = edge_mid[eid]
            labels[(min(e.v0, m), max(e.v0, m))] = e.label
            labels[(min(e.v1, m), max(e.v1, m))] = e.label
        else:
            labels[(min(e.v0, e.v1), max(e.v0, e.v1))] = e.label

    return build_mesh(np.array(verts), new_cells, edge_labels=labels)


def uniform_refine(mesh: PolygonalMesh) -> PolygonalMesh:
    return refine(mesh, list(range(mesh.ncells)))


# ---------------------------------------------------------------------------
# file I/O


def save_mesh(mesh: PolygonalMesh, path: str) -> None:
    body = {
        "vertices": mesh.vertices.tolist(),
        "cells": [list(c) for c in mesh.cells],
        "boundary": [
            {"edges": [[e.v0, e.v1]], "label": e.label.value}
            for e in mesh.edges if e.is_boundary
        ],
    }
    with open(path, "w") as fh:
        json.dump(body, fh)


def load_mesh(path: str, fmt: str = "native-json",
              labeler: Labeler | None = None, index_base: int = 0) -> PolygonalMesh:
    """Read a mesh file.

    native-json: {"vertices": [[x, y], ...], "cells": [[i, ...], ...],
    "boundary": [entry, ...]} where an entry labels either explicit edges
    ({"edges": [[v0, v1], ...], "label": ...}) or a midpoint region
    ({"region": [xmin, ymin, xmax, ymax], "label": ...}).

    vertex-cell-text: 'nv nc' header, nv lines 'x y', nc lines
    'n i1 ... in' with indices offset by index_base; labels come from the
    labeler argument.
    """
    if fmt == "native-json":
        with open(path) as fh:
            body = json.load(fh)
        try:
            vertices = np.asarray(body["vertices"], dtype=np.float64)
            cells = [list(map(int, c)) for c in body["cells"]]
        except (KeyError, TypeError, ValueError) as err:
            raise MeshError(f"malformed mesh file {path}: {err}") from None
        edge_labels: dict[tuple[int, int], BoundaryLabel] = {}
        regions = []
        for entry in body.get("boundary", []):
            label = BoundaryLabel(entry["label"])
            if "edges" in entry:
                for v0, v1 in entry["edges"]:
                    edge_labels[(min(v0, v1), max(v0, v1))] = label
            elif "region" in entry:
                regions.append((tuple(entry["region"]), label))
            else:
                raise MeshError("boundary entry needs 'edges' or 'region'")
        lab = labeler
        if regions and lab is None:
            lab = region_labeler(regions)
        return build_mesh(vertices, cells, labeler=lab,
                          edge_labels=edge_labels or None)
    if fmt == "vertex-cell-text":
        with open(path) as fh:
            rows = [ln.strip() for ln in fh if ln.strip() and not ln.strip().startswith("#")]
        try:
            nv, nc = map(int, rows[0].split())
            vertices = np.array([[float(t) for t in rows[1 + i].split()[:2]]
                                 for i in range(nv)])
            cells = []
            for i in range(nc):
                toks = rows[1 + nv + i].split()
                n = int(toks[0])
                cells.append([int(t) - index_base for t in toks[1:1 + n]])
        except (IndexError, ValueError) as err:
            raise MeshError(f"malformed mesh file {path}: {err}") from None
        for c, cell in enumerate(cells):
            if any(v < 0 or v >= nv for v in cell):
                raise MeshError(f"cell {c} references a vertex out of range")
        return build_mesh(vertices, cells, labeler=labeler)
    raise ValueError(f"unknown mesh format {fmt!r}")


# ---------------------------------------------------------------------------
# quality


def quality_report(mesh: PolygonalMesh, flag_ratio: float = 0.05) -> dict:
    """Shape-regularity report: star-shapedness and edge/diameter ratios."""
    star = np.ones(mesh.ncells, dtype=bool)
    min_ratio = np.zeros(mesh.ncells)
    for c in range(mesh.ncells):
        coords = mesh.cell_coords(c)
        ctr = mesh.centroids[c]
        n = len(coords)
        ok = True
        for i in range(n):
            a, b = coords[i], coords[(i + 1) % n]
            jac = (a[0] - ctr[0]) * (b[1] - ctr[1]) - (b[0] - ctr[0]) * (a[1] - ctr[1])
            if jac <= 0:
                ok = False
        star[c] = ok
        lens = [mesh.edges[eid].length for eid, _ in mesh.cell_edges[c]]
        min_ratio[c] = min(lens) / mesh.diameters[c]
    flagged = np.nonzero(min_ratio < flag_ratio)[0]
    return {"star_shaped": star, "min_edge_ratio": min_ratio,
            "flagged": flagged, "h": mesh.h}
