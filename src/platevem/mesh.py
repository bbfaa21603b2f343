"""Polygonal meshes: construction, file input, generation, and refinement.

A mesh is a vertex table plus flat arrays (the node/elem layout with
auxiliary edge arrays).  Cell c owns the slots cell_ptr[c]:cell_ptr[c+1]:
``cell_verts`` holds its counterclockwise vertex ids, and ``cell_edge``,
``cell_sign`` say that local edge j, from local vertex j to j+1, is that
global edge traversed along (+1) or against (-1) its canonical direction.
Edges carry ``edge_verts`` (canonical start, end), ``edge_cells`` (left,
right; -1 on the boundary), an ``edge_label`` code (INTERIOR, CLAMPED,
SIMPLY_SUPPORTED) and their length, unit tangent, normal and midpoint.

Edges are numbered in order of first traversal, cell by cell.  The
canonical direction of an edge is the traversal direction of its *left*
cell (the one with the lower id when shared), and the canonical normal
points to the right of that direction, i.e. out of the left cell.  All
degree-of-freedom definitions downstream refer to this canonical frame
so that shared quantities are single valued.  Geometry is computed one
vertex count at a time, as (m, n) blocks of slots, with the arithmetic
of a one-cell computation.

Vertices interior to a straight run of element boundary (pi-angle
vertices, produced by local refinement) are ordinary mesh vertices;
``corner_mask`` tells corners from these hanging nodes.
"""

from __future__ import annotations

import json
import operator
import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from .quadrature import fan_is_star, polygon_area_centroid


class BoundaryLabel(Enum):
    CLAMPED = "clamped"
    SIMPLY_SUPPORTED = "simply_supported"


# edge_label codes; LABELS maps a code back to its BoundaryLabel
INTERIOR, CLAMPED, SIMPLY_SUPPORTED = 0, 1, 2
LABELS = (None, BoundaryLabel.CLAMPED, BoundaryLabel.SIMPLY_SUPPORTED)


class MeshError(Exception):
    """Raised for malformed mesh input (self-intersection, bad indices, ...)."""


Labeler = Callable[[np.ndarray], BoundaryLabel]

# Turn (or sine of the angle) between adjacent edges below which a vertex
# counts as a straight, pi-angle vertex rather than a corner.
ANGLE_TOL = 1e-8


def all_clamped(_midpoint: np.ndarray) -> BoundaryLabel:
    return BoundaryLabel.CLAMPED


def region_labeler(regions: Sequence[tuple[tuple[float, float, float, float], BoundaryLabel]],
                   fallback: Labeler = all_clamped) -> Labeler:
    """Label boundary edges whose midpoint falls in an (xmin, ymin, xmax, ymax) box.

    Later entries win; edges matching no box get the fallback's label.
    """

    def labeler(mid: np.ndarray) -> BoundaryLabel:
        out = None
        for (xmin, ymin, xmax, ymax), label in regions:
            if xmin <= mid[0] <= xmax and ymin <= mid[1] <= ymax:
                out = label
        return fallback(mid) if out is None else out

    return labeler


def size_groups(cell_ptr: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per vertex count, ascending: the ids of the cells with that count
    and the (m, n) block of their slots."""
    sizes = np.diff(cell_ptr)
    for n in np.flatnonzero(np.bincount(sizes)):
        cells = np.flatnonzero(sizes == n)
        yield cells, cell_ptr[cells, None] + np.arange(n)


@dataclass
class PolygonalMesh:
    vertices: np.ndarray        # (nv, 2)
    cell_ptr: np.ndarray        # (ncells + 1,) slot offsets
    cell_verts: np.ndarray      # (nslots,) CCW vertex ids, cell after cell
    cell_edge: np.ndarray       # (nslots,) edge from this slot's vertex to the next
    cell_sign: np.ndarray       # (nslots,) +1 along the canonical direction, else -1
    edge_verts: np.ndarray      # (nedges, 2) canonical start and end
    edge_cells: np.ndarray      # (nedges, 2) left and right cell, right -1 on the boundary
    edge_label: np.ndarray      # (nedges,) INTERIOR, CLAMPED or SIMPLY_SUPPORTED
    edge_length: np.ndarray     # (nedges,)
    edge_tangent: np.ndarray    # (nedges, 2) canonical unit direction
    edge_normal: np.ndarray     # (nedges, 2) rotated -90 deg: out of the left cell
    edge_mid: np.ndarray        # (nedges, 2)
    areas: np.ndarray
    centroids: np.ndarray
    diameters: np.ndarray
    vertex_char_length: np.ndarray   # mean diameter of the incident cells

    @property
    def ncells(self) -> int:
        return len(self.cell_ptr) - 1

    @property
    def nvertices(self) -> int:
        return len(self.vertices)

    @property
    def nedges(self) -> int:
        return len(self.edge_verts)

    @property
    def h(self) -> float:
        return float(self.diameters.max())

    @property
    def on_boundary(self) -> np.ndarray:
        """(nedges,) whether each edge has no right cell."""
        return self.edge_cells[:, 1] < 0

    @property
    def cells(self) -> list[np.ndarray]:
        """Vertex ids of each cell, split from cell_verts on every call."""
        return np.split(self.cell_verts, self.cell_ptr[1:-1])

    def cell_coords(self, c: int) -> np.ndarray:
        return self.vertices[self.cell_verts[self.cell_ptr[c]:self.cell_ptr[c + 1]]]


def _self_intersecting(coords: np.ndarray) -> np.ndarray:
    """Whether two non-adjacent edges of each polygon (m, n, 2) cross."""
    n = coords.shape[1]
    i, j = np.triu_indices(n, 2)
    keep = ~((i == 0) & (j == n - 1))
    i, j = i[keep], j[keep]
    a, b = coords[:, i], coords[:, (i + 1) % n]
    c, d = coords[:, j], coords[:, (j + 1) % n]

    def orient(p, q, r):
        return ((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
                - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0]))

    cross = ((orient(c, d, a) > 0) != (orient(c, d, b) > 0)) \
        & ((orient(a, b, c) > 0) != (orient(a, b, d) > 0))
    return cross.any(axis=1)


def _zero_area(coords: np.ndarray) -> np.ndarray:
    """Whether each polygon (m, n, 2) has the zero shoelace area that
    polygon_area_centroid rejects."""
    x, y = coords[..., 0], coords[..., 1]
    cross = x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y
    return np.abs(0.5 * np.sum(cross, axis=-1)) < 1e-300


def _first(mask: np.ndarray, ids: np.ndarray) -> int | None:
    """ids at the first entry where mask holds, or None."""
    hit = np.flatnonzero(mask)
    return int(ids[hit[0]]) if hit.size else None


def _first_use(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids 0, 1, ... of the distinct keys in order of first occurrence, per
    entry, and the entry of each id's first occurrence."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]


def _merge_close(points: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Ids 0, 1, ... in order of first appearance, per point (n, 2), of the
    groups that chains of pairs at most tol apart join, and each group's
    first point.  Equal points join first; the rest are hashed to tol-sized
    buckets keyed x + iy (exact below 2**53) and compared within a bucket
    and with the four adjacent ones after it, meeting every pair within tol."""
    ids, head = _first_use(np.ascontiguousarray(points).view(np.complex128)[:, 0])
    p = points[head]
    key = np.floor((p - p.min(axis=0)) / tol) @ np.array([1, 1j])
    order = np.argsort(key, kind="stable")
    near = key + np.array([[0], [1j], [1 - 1j], [1], [1 + 1j]])
    lo = np.searchsorted(key[order], near).ravel()
    n = np.searchsorted(key[order], near, side="right").ravel() - lo
    a = np.repeat(np.tile(np.arange(len(p)), 5), n)
    b = order[np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())]
    hit = (a != b) & (np.hypot(*(p[a] - p[b]).T) <= tol)
    i, j = np.r_[a[hit], b[hit]], np.r_[b[hit], a[hit]]
    label = np.arange(len(p))
    while (label[i] != label[j]).any():     # pass the lower label on
        np.minimum.at(label, i, label[j])
        label = label[label]
    group, first = _first_use(label)
    return group[ids], head[first]


def build_mesh(vertices: np.ndarray, cells: Sequence[Sequence[int]],
               labeler: Labeler | None = None,
               edge_labels: dict[tuple[int, int], BoundaryLabel] | None = None) -> PolygonalMesh:
    """Assemble derived mesh data from raw vertices/cells.

    Cells are re-oriented CCW with a warning if needed.  Boundary labels
    come from explicit per-edge entries (keyed by the sorted vertex pair)
    when given, otherwise from the labeler applied to edge midpoints; the
    default labels everything clamped.
    """
    sizes = [len(c) for c in cells]
    cell_verts = np.fromiter(chain.from_iterable(cells), dtype=np.int64, count=sum(sizes))
    cell_ptr = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    return _build(np.asarray(vertices, dtype=np.float64), cell_ptr, cell_verts,
                  labeler, edge_labels)


def _build(vertices: np.ndarray, cell_ptr: np.ndarray, cell_verts: np.ndarray,
           labeler: Labeler | None,
           edge_labels: dict[tuple[int, int], BoundaryLabel] | None) -> PolygonalMesh:
    """build_mesh on cells given as slot offsets and flat vertex ids."""
    nv = len(vertices)
    sizes = np.diff(cell_ptr)
    ncells, nslots = len(sizes), len(cell_verts)
    cell_of = np.repeat(np.arange(ncells), sizes)
    if (c := _first(sizes < 3, np.arange(ncells))) is not None:
        raise MeshError(f"cell {c} has fewer than 3 vertices")
    by_vertex = np.lexsort((cell_verts, cell_of))
    repeat = (np.diff(cell_of[by_vertex]) == 0) & (np.diff(cell_verts[by_vertex]) == 0)
    if (c := _first(repeat, cell_of[by_vertex])) is not None:
        raise MeshError(f"cell {c} repeats a vertex")
    if (c := _first((cell_verts < 0) | (cell_verts >= nv), cell_of)) is not None:
        raise MeshError(f"cell {c} references a vertex out of range")

    cell_verts = cell_verts.copy()
    areas = np.zeros(ncells)
    centroids = np.zeros((ncells, 2))
    diameters = np.zeros(ncells)
    flipped = np.zeros(ncells, dtype=bool)
    for cells, slots in size_groups(cell_ptr):
        coords = vertices[cell_verts[slots]]
        if (c := _first(_zero_area(coords), cells)) is not None:
            raise MeshError(f"cell {c} has zero area")
        area, centroid = polygon_area_centroid(coords)
        cw = area < 0
        if cw.any():
            flipped[cells[cw]] = True
            cell_verts[slots[cw]] = cell_verts[slots[cw, ::-1]]
            coords[cw] = coords[cw, ::-1]
            area[cw], centroid[cw] = polygon_area_centroid(coords[cw])
        if (c := _first(_self_intersecting(coords), cells)) is not None:
            raise MeshError(f"cell {c} is self-intersecting")
        areas[cells] = area
        centroids[cells] = centroid
        diff = coords[:, :, None, :] - coords[:, None, :, :]
        diameters[cells] = np.sqrt((diff ** 2).sum(-1)).max(axis=(1, 2))
    for c in np.flatnonzero(flipped):
        warnings.warn(f"cell {c} was clockwise; reversing", stacklevel=3)

    # canonical edges: numbered and oriented by their first traversal
    slot = np.arange(nslots)
    nxt = np.where(slot + 1 == cell_ptr[cell_of + 1], cell_ptr[cell_of], slot + 1)
    a, b = cell_verts, cell_verts[nxt]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    cell_edge, head = _first_use(lo * nv + hi)      # head: first traversal
    if (s := _first(np.bincount(cell_edge)[cell_edge] > 2, slot)) is not None:
        raise MeshError(f"edge {(int(lo[s]), int(hi[s]))} is shared by more than two cells")
    forward = head[cell_edge] == slot
    edge_verts = np.column_stack([a[head], b[head]])
    edge_cells = np.column_stack([cell_of[head], np.full(len(head), -1)])
    again = ~forward
    edge_cells[cell_edge[again], 1] = cell_of[again]
    if (s := _first(a[again] == edge_verts[cell_edge[again], 0], slot[again])) is not None:
        raise MeshError(
            f"cells {edge_cells[cell_edge[s], 0]} and {cell_of[s]} traverse edge "
            f"{(int(lo[s]), int(hi[s]))} in the same direction; orientations are inconsistent")

    p0, p1 = vertices[edge_verts[:, 0]], vertices[edge_verts[:, 1]]
    d = p1 - p0
    length = np.hypot(d[:, 0], d[:, 1])
    if (e := _first(length <= 0.0, np.arange(len(length)))) is not None:
        raise MeshError(f"zero-length edge {(int(edge_verts[e, 0]), int(edge_verts[e, 1]))}")
    tangent = d / length[:, None]
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])
    mid = 0.5 * (p0 + p1)

    label = np.zeros(len(head), dtype=np.int8)
    labeler = all_clamped if labeler is None else labeler
    for e in np.flatnonzero(edge_cells[:, 1] < 0):
        key = (int(lo[head[e]]), int(hi[head[e]]))
        lab = edge_labels[key] if edge_labels and key in edge_labels else labeler(mid[e])
        if not isinstance(lab, BoundaryLabel):
            raise MeshError(f"boundary edge {key} has no label (got {lab!r})")
        label[e] = LABELS.index(lab)

    counts = np.bincount(cell_verts, minlength=nv)
    acc = np.bincount(cell_verts, weights=diameters[cell_of], minlength=nv)
    used = counts > 0
    char = np.zeros(nv)
    char[used] = acc[used] / counts[used]

    return PolygonalMesh(vertices, cell_ptr, cell_verts, cell_edge,
                         np.where(forward, 1, -1), edge_verts, edge_cells, label,
                         length, tangent, normal, mid, areas, centroids, diameters, char)


def corner_mask(coords: np.ndarray) -> np.ndarray:
    """Whether each vertex of CCW polygons (..., n, 2) is a corner: the
    turn between its adjacent edges exceeds ANGLE_TOL."""
    prev_d = coords - np.roll(coords, 1, axis=-2)
    next_d = np.roll(coords, -1, axis=-2) - coords
    turn = np.arctan2(prev_d[..., 0] * next_d[..., 1] - prev_d[..., 1] * next_d[..., 0],
                      prev_d[..., 0] * next_d[..., 0] + prev_d[..., 1] * next_d[..., 1])
    return np.abs(turn) > ANGLE_TOL


# ---------------------------------------------------------------------------
# generation


def generate_structured(nx: int, ny: int, labeler: Labeler | None = None) -> PolygonalMesh:
    """nx x ny quadrilateral grid of the unit square."""
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    v00 = (np.arange(nx)[:, None] * (ny + 1) + np.arange(ny)).ravel()
    cells = np.column_stack([v00, v00 + ny + 1, v00 + ny + 2, v00 + 1])
    return _build(verts, 4 * np.arange(nx * ny + 1), cells.ravel(), labeler, None)


def generate_lshape(n: int, labeler: Labeler | None = None) -> PolygonalMesh:
    """Structured mesh of (-1,1)^2 minus the fourth quadrant, n x n per block."""
    i, j = np.meshgrid(np.arange(2 * n), np.arange(2 * n), indexing="ij")
    keep = ~((i >= n) & (j < n))          # removed quadrant [0,1) x [-1,0)
    i, j = i[keep], j[keep]
    # grid corners of each cell; vertices numbered in order of first use
    grid = np.column_stack([i, j, i + 1, j, i + 1, j + 1, i, j + 1]).reshape(-1, 2)
    ids, head = _first_use(grid[:, 0] * (2 * n + 1) + grid[:, 1])
    return _build(-1.0 + grid[head] * (1.0 / n), 4 * np.arange(len(i) + 1), ids,
                  labeler, None)


_M32, _M64, _M128 = 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class Pcg64:
    """The stream of ``numpy.random.default_rng(seed)`` in Python ints:
    ``uniform(low, high, size)`` returns its ``uniform(low, high, size)``
    bit for bit, without loading ``numpy.random``.

    The seed's 32-bit words are hashed into a pool of four and expanded
    into the 128-bit state and increment as numpy's SeedSequence does.
    Each draw is one step of O'Neill's PCG XSL-RR 128/64 generator; the
    top 53 bits of its output make a double in [0, 1)."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        mult = 0x43B0D7E5       # the constants of numpy's bit_generator.pyx

        def hashmix(v: int) -> int:
            nonlocal mult
            v = (v ^ mult) * (mult := mult * 0x931E8875 & _M32) & _M32
            return v ^ v >> 16

        def mix(x: int, y: int) -> int:
            v = 0xCA01F9DD * x - 0x4973F715 * y & _M32
            return v ^ v >> 16

        pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
        for i in range(4):
            for j in range(4):
                if i != j:
                    pool[j] = mix(pool[j], hashmix(pool[i]))
        for w in words[4:]:
            for j in range(4):
                pool[j] = mix(pool[j], hashmix(w))
        mult, state = 0x8B51F9DD, 0
        for i in range(8):
            v = (pool[i % 4] ^ mult) * (mult := mult * 0x58F38DED & _M32) & _M32
            state |= (v ^ v >> 16) << 32 * i
        w0, w1, w2, w3 = (state >> 64 * i & _M64 for i in range(4))
        self.inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        self.state = ((w0 << 64 | w1) + self.inc) * _PCG_MULT + self.inc & _M128

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """Doubles low + (high - low) * u, filling the shape size in C order."""
        s, inc, span = self.state, self.inc, high - low
        out = []
        for _ in range(int(np.prod(size))):
            s = s * _PCG_MULT + inc & _M128
            x, r = (s >> 64 ^ s) & _M64, s >> 122
            x = (x >> r | x << 64 - r) & _M64
            out.append(low + span * ((x >> 11) * 2.0 ** -53))
        self.state = s
        return np.array(out).reshape(size)


# Half-width, in buckets of about one seed each, of the first window of
# neighbour candidates around a Voronoi seed.
VORONOI_WINDOW = 2


def _clip(cells: np.ndarray, count: np.ndarray, p: np.ndarray, q: np.ndarray,
          j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Sutherland-Hodgman step on convex CCW polygons (m, M, 3) of
    count corners each (x, y and the line of the edge the corner starts),
    padded with copies of their first or last corner: keep the side of the
    bisector of seeds p and q (m, 2) that holds p; its edges are named j.
    The output is padded with its first corner."""
    d = q - p
    s = (cells[..., :2] @ d[:, :, None])[..., 0] - 0.5 * ((p + q) * d).sum(axis=1)[:, None]
    s1 = np.roll(s, -1, axis=1)
    inside = s <= 0
    cross = inside != (s1 <= 0)         # never between copies of a corner
    t = np.divide(s, s - s1, out=np.zeros_like(s), where=cross)
    xi = cells + t[..., None] * (np.roll(cells, -1, axis=1) - cells)
    xi[..., 2] = np.where(inside, j[:, None], cells[..., 2])   # on the way out: the bisector
    # each corner gives itself if kept, then the crossing on its edge
    emit = np.stack([inside & (np.arange(cells.shape[1]) < count[:, None]), cross], axis=2)
    size = emit.sum(axis=(1, 2))
    r, k, e = np.nonzero(emit)
    out = np.empty((len(cells), width := max(size.max(), cells.shape[1]), 3))
    out[r, np.arange(len(r)) - (np.cumsum(size) - size)[r]] = np.stack([cells, xi], 2)[r, k, e]
    return np.where(np.arange(width)[:, None] < size[:, None, None], out, out[:, :1]), size


def _voronoi_cells(pts: np.ndarray, domain: tuple[float, float, float, float]):
    """Voronoi cells of the seeds pts (n, 2) within the box: CCW corners
    (n, M, 3) as x, y and the line of the edge each starts (the other
    seed's id on a bisector; -1 to -4 on the bottom, right, top and left
    side), padded with copies of the first or last corner; the corner
    counts; and each seed's distance to its nearest other seed.

    Each cell starts as the box and is cut by the bisectors of its
    neighbours, nearest first, until the next is farther than twice the
    cell's radius about its seed, past which no bisector can cut it.  They
    come from a window of buckets around the seed, doubled while the cell
    reaches past it."""
    xmin, ymin, xmax, ymax = domain
    n = len(pts)
    box = np.array([[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]], dtype=float)
    extent = box[2] - box[0]
    shape = np.ceil(extent / np.sqrt(extent.prod() / n)).astype(np.int64)
    width = extent / shape
    ij = np.clip(np.floor((pts - box[0]) / width).astype(np.int64), 0, shape - 1)
    bucket = ij[:, 0] * shape[1] + ij[:, 1]
    order = np.argsort(bucket, kind="stable")
    rank = np.arange(n) - np.searchsorted(bucket[order], bucket[order])
    table = np.full((shape.prod(), rank.max() + 1), -1)
    table[bucket[order], rank] = order

    cells = np.broadcast_to(np.column_stack([box, [-1, -2, -3, -4]]), (n, 4, 3)).copy()
    count = np.full(n, 4)
    r2 = ((box - pts[:, None]) ** 2).sum(axis=2).max(axis=1)
    nearest = np.full(n, np.inf)
    seen = np.zeros((2, n, 2), dtype=np.int64)     # bucket range of the last window
    todo, w = np.arange(n), VORONOI_WINDOW
    while todo.size:
        # 2w + 1 buckets a side around the seed's, shifted into the grid,
        # less the last window, whose seeds have cut already
        span = np.minimum(2 * w + 1, shape)
        lo = np.clip(ij[todo] - w, 0, shape - span)
        bx, by = (lo[:, a, None] + np.arange(span[a]) for a in (0, 1))
        cand = table[bx[:, :, None] * shape[1] + by[:, None, :]]
        d2 = ((pts[cand] - pts[todo, None, None, None]) ** 2).sum(axis=4)
        old = ((bx >= seen[0, todo, :1]) & (bx < seen[1, todo, :1]))[:, :, None, None] \
            & ((by >= seen[0, todo, 1:]) & (by < seen[1, todo, 1:]))[:, None, :, None]
        d2[(cand < 0) | (cand == todo[:, None, None, None]) | old] = np.inf
        by_dist = np.argsort(d2.reshape(len(todo), -1), axis=1)
        cand = np.take_along_axis(cand.reshape(len(todo), -1), by_dist, axis=1).T.copy()
        d2 = np.take_along_axis(d2.reshape(len(todo), -1), by_dist, axis=1).T.copy()
        nearest[todo] = np.minimum(nearest[todo], np.sqrt(d2[0]))
        for t in range(len(d2)):
            near = d2[t] <= 4.0 * r2[todo]
            if not near.any():
                break
            alive = todo[near]
            cut, count[alive] = _clip(cells[alive], count[alive], pts[alive],
                                      pts[cand[t, near]], cand[t, near])
            if (grow := cut.shape[1] - cells.shape[1]) > 0:     # copies of the last corner
                cells = np.pad(cells, ((0, 0), (0, grow), (0, 0)), "edge")
            cells[alive] = cut
            r2[alive] = ((cut[..., :2] - pts[alive, None]) ** 2).sum(axis=2).max(axis=1)
        # done where the window holds every seed within twice the radius
        reach = np.minimum(np.where(lo > 0, pts[todo] - box[0] - lo * width, np.inf),
                           np.where(lo + span < shape, box[0] + (lo + span) * width - pts[todo],
                                    np.inf)).min(axis=1)
        seen[:, todo] = lo, lo + span
        todo, w = todo[4.0 * r2[todo] >= reach ** 2], 2 * w
    return cells, count, nearest


def generate_voronoi(n_seeds: int,
                     domain: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
                     lloyd_iters: int = 100, seed: int = 0,
                     labeler: Labeler | None = None) -> PolygonalMesh:
    """Centroidal Voronoi mesh of a rectangle.

    Seeds are drawn uniformly and smoothed with the requested number of
    Lloyd sweeps (as PolyMesher does): each cuts every cell out of the box
    by its neighbours' bisectors (``_voronoi_cells``) and moves its seed to
    its centroid.  Each final corner is recomputed from the seeds and sides
    through it, so every cell at the corner holds the same bits; three
    seeds meet where the bisectors from the one at the widest angle of
    their triangle cross, the best-conditioned pair.  ``_merge_close``
    joins corners within 1e-9 of the box size, as load_mesh does at 1e-12.
    """
    xmin, ymin, xmax, ymax = domain
    rng = Pcg64(seed)
    pts = np.column_stack([rng.uniform(xmin, xmax, n_seeds),
                           rng.uniform(ymin, ymax, n_seeds)])
    scale = max(xmax - xmin, ymax - ymin)
    cells, count, nearest = _voronoi_cells(pts, domain)
    for _ in range(64):
        if not (nearest <= 1e-12 * scale).any():
            break
        warnings.warn("coincident seeds; re-jittering", stacklevel=2)
        pts += rng.uniform(-1e-6, 1e-6, size=pts.shape) * scale
        cells, count, nearest = _voronoi_cells(pts, domain)
    for _ in range(lloyd_iters):
        pts = polygon_area_centroid(cells[..., :2])[1]
        cells, count, _ = _voronoi_cells(pts, domain)
    cell = np.repeat(np.arange(n_seeds), count)
    ptr = np.concatenate([[0], np.cumsum(count)])
    slot = np.arange(len(cell))
    prev = np.where(slot == ptr[cell], ptr[cell + 1] - 1, slot - 1)
    line = cells[np.arange(cells.shape[1]) < count[:, None]][:, 2].astype(np.int64)
    key = np.sort(np.column_stack([line[prev], line, cell]), axis=1)    # sides first
    tri = key[:, 0] >= 0
    far = ((pts[key[tri][:, [1, 2, 0]]] - pts[key[tri][:, [2, 0, 1]]]) ** 2).sum(axis=2)
    key[tri] = np.take_along_axis(key[tri], (far.argmax(1)[:, None] + [0, 1, 2]) % 3, 1)
    i, j, k = key.T
    # two lines through each corner: side a, or else the bisector of seeds a and b,
    # in the seeds' own coordinates (shifting them to the box origin rounds them)
    a = np.concatenate([np.where(i < 0, j, i), i])
    b = np.concatenate([np.where(i < 0, k, j), k])
    normal = np.where(a[:, None] < 0, np.eye(2)[a % 2], pts[b] - pts[np.maximum(a, 0)])
    offset = np.where(a < 0, np.array([ymin, xmax, ymax, xmin], dtype=float)[(-a - 1) % 4],
                      0.5 * (normal * (pts[np.maximum(a, 0)] + pts[b])).sum(axis=1))
    corners = np.linalg.solve(np.stack(np.split(normal, 2), axis=1),
                              np.stack(np.split(offset, 2), axis=1)[..., None])[..., 0]
    # snap corners onto the box sides and merge those within tol (cocircular
    # seeds give several); vertices are numbered in order of first appearance
    tol = 1e-9 * scale
    for axis, (lo, hi) in enumerate([(xmin, xmax), (ymin, ymax)]):
        col = corners[:, axis]
        col[np.abs(col - lo) < tol] = lo
        col[np.abs(col - hi) < tol] = hi
    ids, head = _merge_close(corners, tol)
    # drop repeats of the previous vertex within each cell, then cells
    # left with fewer than 3 vertices
    keep = ids != ids[prev]
    sizes = np.bincount(cell[keep], minlength=n_seeds)
    keep &= sizes[cell] >= 3
    sizes = sizes[sizes >= 3]
    return _build(corners[head], np.concatenate([[0], np.cumsum(sizes)]),
                  ids[keep], labeler, None)


# ---------------------------------------------------------------------------
# refinement


def refine(mesh: PolygonalMesh, marked: Sequence[int]) -> PolygonalMesh:
    """Split every marked polygon into quadrilaterals around its centroid.

    Each marked N-gon becomes N quads (vertex, following edge midpoint,
    centroid, preceding edge midpoint).  Unmarked neighbors sharing a split
    edge keep their shape but gain the midpoint as a pi-angle vertex, so no
    closure pass is needed.  Boundary labels are inherited by the halves of
    split boundary edges.  New vertices follow the old ones: split edge
    midpoints by edge id, then marked cell centroids by cell id.
    """
    marked = np.sort(np.asarray(marked, dtype=np.int64))
    marked = marked[np.diff(marked, prepend=marked[:1] - 1) != 0]
    if (m := _first((marked < 0) | (marked >= mesh.ncells), marked)) is not None:
        raise MeshError(f"marked cell {m} out of range")

    nv = mesh.nvertices
    ptr, edge = mesh.cell_ptr, mesh.cell_edge
    cell_of = np.repeat(np.arange(mesh.ncells), np.diff(ptr))
    is_marked = np.zeros(mesh.ncells, dtype=bool)
    is_marked[marked] = True
    in_marked = is_marked[cell_of]
    split = np.zeros(mesh.nedges, dtype=bool)
    split[edge[in_marked]] = True
    split_ids = np.flatnonzero(split)
    mid_id = np.full(mesh.nedges, -1)
    mid_id[split_ids] = nv + np.arange(len(split_ids))
    center_id = np.full(mesh.ncells, -1)
    center_id[marked] = nv + len(split_ids) + np.arange(len(marked))
    verts = np.concatenate([mesh.vertices, mesh.edge_mid[split_ids], mesh.centroids[marked]])

    # every slot writes its vertex, then the rest of its quad in a marked
    # cell, or the midpoint of its edge when that edge is split
    slot = np.arange(len(edge))
    prev = np.where(slot == ptr[cell_of], ptr[cell_of + 1] - 1, slot - 1)
    width = np.where(in_marked, 4, 1 + split[edge])
    start = np.cumsum(width) - width
    out = np.empty(width.sum(), dtype=np.int64)
    out[start] = mesh.cell_verts
    q = start[in_marked]
    out[q + 1] = mid_id[edge[in_marked]]
    out[q + 2] = center_id[cell_of[in_marked]]
    out[q + 3] = mid_id[edge[prev[in_marked]]]
    hang = ~in_marked & split[edge]
    out[start[hang] + 1] = mid_id[edge[hang]]
    new_ptr = np.append(start[in_marked | (slot == ptr[cell_of])], len(out))

    # carry boundary labels onto (possibly split) boundary edges
    bnd = np.flatnonzero(mesh.on_boundary)
    v0, v1 = mesh.edge_verts[bnd].T
    m, code = mid_id[bnd], mesh.edge_label[bnd]
    halved = m >= 0
    pairs = np.concatenate([np.column_stack([v0, np.where(halved, m, v1)]),
                            np.column_stack([v1, m])[halved]])
    codes = np.concatenate([code, code[halved]])
    pairs.sort(axis=1)
    labels = {(a, b): LABELS[c] for (a, b), c in zip(pairs.tolist(), codes.tolist())}
    return _build(verts, new_ptr, out, None, labels)


def uniform_refine(mesh: PolygonalMesh) -> PolygonalMesh:
    return refine(mesh, np.arange(mesh.ncells))


# ---------------------------------------------------------------------------
# file input


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def load_mesh(path: str, labeler: Labeler | None = None) -> PolygonalMesh:
    """Read a mesh file: {"vertices": [[x, y], ...], "cells": [[i, ...], ...],
    "boundary": [entry, ...]}, where an entry labels either explicit edges
    ({"edges": [[v0, v1], ...], "label": ...}) or the edges whose midpoint
    lies in a box ({"region": [xmin, ymin, xmax, ymax], "label": ...}).

    A boundary edge takes the label of its `edges` entry, else of the last
    `region` that holds its midpoint, else of the labeler (clamped if
    none).  A malformed entry, an unknown label or a pair that is no
    boundary edge of the mesh raises MeshError naming the entry; so does a
    vertex that is no [x, y] pair of finite numbers, a cell id that is no
    integer, a vertex no cell uses, or two vertices at one point (joined by
    ``_merge_close`` at 1e-12 of the mesh extent), which would split the
    cells that meet there.
    """
    with open(path) as fh:
        body = json.load(fh)
    vertices, cells = (body.get(key) if isinstance(body, dict) else None
                       for key in ("vertices", "cells"))
    for key, rows in (("vertices", vertices), ("cells", cells)):
        if not (isinstance(rows, list) and rows):
            raise MeshError(f"{key}: expected a non-empty list, got {rows!r}")
    for v, xy in enumerate(vertices):
        if not (isinstance(xy, list) and len(xy) == 2
                and all(_is_int(x) or isinstance(x, float) for x in xy)):
            raise MeshError(f"vertex {v}: {xy!r} is not an [x, y] pair of numbers")
    for c, ids in enumerate(cells):
        if not (isinstance(ids, list) and all(map(_is_int, ids))):
            raise MeshError(f"cell {c}: {ids!r} is not a list of integer vertex ids")
    edge_labels: dict[tuple[int, int], BoundaryLabel] = {}
    named: dict[tuple[int, int], tuple[int, list]] = {}   # entry and pair as given
    regions = []
    names = [lab.value for lab in BoundaryLabel]
    entries = body.get("boundary", [])
    if not isinstance(entries, list):
        raise MeshError(f"boundary: expected a list of entries, got {entries!r}")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise MeshError(f"boundary entry {i}: expected an object, got {entry!r}")
        if entry.get("label") not in names:
            raise MeshError(f"boundary entry {i}: label {entry.get('label')!r} "
                            f"is not one of {names}")
        label = BoundaryLabel(entry["label"])
        if "edges" in entry:
            pairs = entry["edges"]
            if not isinstance(pairs, list):
                raise MeshError(f"boundary entry {i}: 'edges' must be a list of "
                                f"vertex pairs, got {pairs!r}")
            for pair in pairs:
                if not (isinstance(pair, list) and len(pair) == 2
                        and all(_is_int(v) for v in pair)):
                    raise MeshError(f"boundary entry {i}: edge {pair!r} is not a "
                                    "pair of integer vertex ids")
                v0, v1 = pair
                key = (min(v0, v1), max(v0, v1))
                edge_labels[key] = label
                named.setdefault(key, (i, pair))
        elif "region" in entry:
            box = entry["region"]
            if not (isinstance(box, list) and len(box) == 4
                    and all(_is_int(v) or isinstance(v, float) for v in box)):
                raise MeshError(f"boundary entry {i}: region {box!r} is not "
                                "[xmin, ymin, xmax, ymax]")
            regions.append((tuple(box), label))
        else:
            raise MeshError(f"boundary entry {i}: needs 'edges' or 'region'")
    mesh = build_mesh(vertices, cells, labeler=region_labeler(regions, labeler or all_clamped),
                      edge_labels=edge_labels or None)
    unused = np.flatnonzero(np.bincount(mesh.cell_verts, minlength=mesh.nvertices) == 0)
    if unused.size:
        raise MeshError(f"vertex {unused[0]} is not a vertex of any cell")
    if (v := _first(~np.isfinite(mesh.vertices).all(1), np.arange(mesh.nvertices))) is not None:
        raise MeshError(f"vertex {v} has a coordinate that is not finite")
    ids, head = _merge_close(mesh.vertices, 1e-12 * np.ptp(mesh.vertices, axis=0).max())
    if len(head) < mesh.nvertices:      # the first vertex to repeat an earlier one
        j = np.flatnonzero(head[ids] != np.arange(mesh.nvertices))[0]
        i = head[ids[j]]
        raise MeshError(f"vertices {i} and {j} coincide at {mesh.vertices[i].tolist()}")
    boundary = set(map(tuple, np.sort(mesh.edge_verts[mesh.on_boundary], axis=1).tolist()))
    for key, (i, pair) in named.items():
        if key not in boundary:
            raise MeshError(f"boundary entry {i}: edge {pair} is not a boundary "
                            "edge of the mesh")
    return mesh


# ---------------------------------------------------------------------------
# quality


# Shortest-edge to diameter ratio below which quality_report flags a cell.
FLAG_RATIO = 0.05


def quality_report(mesh: PolygonalMesh) -> dict:
    """Shape-regularity report: star-shapedness and edge/diameter ratios."""
    star = np.ones(mesh.ncells, dtype=bool)
    for cells, slots in size_groups(mesh.cell_ptr):
        star[cells] = fan_is_star(mesh.vertices[mesh.cell_verts[slots]],
                                  mesh.centroids[cells])
    min_ratio = np.minimum.reduceat(mesh.edge_length[mesh.cell_edge],
                                    mesh.cell_ptr[:-1]) / mesh.diameters
    flagged = np.nonzero(min_ratio < FLAG_RATIO)[0]
    return {"star_shaped": star, "min_edge_ratio": min_ratio,
            "flagged": flagged, "h": mesh.h}
