"""Scaled monomial tables and quadrature on edges, triangles, and polygons.

All polynomial spaces on an element K use the scaled monomial basis

    m_a(x) = ((x - x_K) / h_K)^a,   |a| <= degree,

ordered graded-lexicographically: (0,0), (1,0), (0,1), (2,0), (1,1), ...
The same scaling convention is used on edges with the midpoint as center
and the edge length as diameter, so the 1D coordinate lives in [-1/2, 1/2].
Bases of different degrees on the same element are nested prefixes of each
other, which the projector code relies on throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def poly_dim(degree: int) -> int:
    """Dimension of the space of 2D polynomials of total degree <= degree."""
    if degree < 0:
        return 0
    return (degree + 1) * (degree + 2) // 2


@lru_cache(maxsize=None)
def monomial_exponents(degree: int) -> np.ndarray:
    """Exponent pairs of the graded-lex monomial basis, shape (dim, 2)."""
    exps = [(d - j, j) for d in range(degree + 1) for j in range(d + 1)]
    out = np.array(exps, dtype=np.int64).reshape(-1, 2)
    out.setflags(write=False)
    return out


def _falling(n: np.ndarray, k: int) -> np.ndarray:
    """Falling factorial n (n-1) ... (n-k+1), elementwise."""
    out = np.ones_like(n, dtype=np.float64)
    for i in range(k):
        out = out * (n - i)
    return out


@lru_cache(maxsize=None)
def _deriv_tables(degree: int, dx: int, dy: int):
    """Reduced exponents and factorial weights of d^(dx,dy) m_a, precomputed."""
    exps = monomial_exponents(degree)
    ax = exps[:, 0] - dx
    ay = exps[:, 1] - dy
    coef = _falling(exps[:, 0], dx) * _falling(exps[:, 1], dy)
    valid = (ax >= 0) & (ay >= 0)
    ax = np.where(valid, ax, 0)
    ay = np.where(valid, ay, 0)
    coef = np.where(valid, coef, 0.0)
    for arr in (ax, ay, coef):
        arr.setflags(write=False)
    return ax, ay, coef


@dataclass(frozen=True)
class PowerTable:
    """Powers s^0 .. s^degree of the scaled coordinates s = (x - x_K) / h_K
    at one point set.  Every scaled monomial table and every derivative
    table at those points is a gather of two powers times a weight, so a
    caller that needs several derivatives forms the powers once.
    """

    px: np.ndarray  # (..., npts, degree + 1): s_x^0 .. s_x^degree
    py: np.ndarray  # (..., npts, degree + 1): s_y^0 .. s_y^degree
    h: np.ndarray   # (..., 1, 1): the diameters

    @classmethod
    def at(cls, pts: np.ndarray, center: np.ndarray, diameter, degree: int) -> PowerTable:
        """Powers by repeated multiplication.  pts has shape (..., npts, 2);
        center (..., 2) and diameter (...) give one element per leading
        index, so stacked elements evaluate at once."""
        h = np.asarray(diameter, dtype=np.float64)[..., None, None]
        s = np.moveaxis((pts - np.asarray(center)[..., None, :]) / h, -1, 0)
        powers = np.empty((*s.shape, degree + 1))
        powers[..., 0] = 1.0
        for j in range(1, degree + 1):
            np.multiply(powers[..., j - 1], s, out=powers[..., j])
        return cls(*powers, h)

    @classmethod
    def of_values(cls, values: np.ndarray, diameter, degree: int) -> PowerTable:
        """The powers held in a value table of this degree: its columns
        (a, 0) and (0, a) are s_x^a and s_y^a times exactly 1."""
        a = np.arange(degree + 1)
        first = a * (a + 1) // 2
        return cls(values[..., first], values[..., first + a],
                   np.asarray(diameter, dtype=np.float64)[..., None, None])

    def gather(self, deriv: tuple[int, int] = (0, 0)) -> np.ndarray:
        """d^deriv of the scaled monomials, shape (..., npts, dim).

        Derivatives of a scaled monomial stay in the family:
        d_x m_(a,b) = (a / h_K) m_(a-1,b), so the table is exact.
        """
        dx, dy = deriv
        ax, ay, coef = _deriv_tables(self.px.shape[-1] - 1, dx, dy)
        # in place: the gathered py columns are the one temporary of this size
        out = self.px[..., ax]
        out *= self.py[..., ay]
        out *= coef / self.h ** (dx + dy)
        return out


def pointwise(fn, pts: np.ndarray) -> np.ndarray:
    """fn, which maps (n, 2) points to (n, ...) values, at stacked points
    (..., n, 2)."""
    vals = np.asarray(fn(pts.reshape(-1, 2)))
    return vals.reshape(*pts.shape[:-1], *vals.shape[1:])


@lru_cache(maxsize=None)
def unit_deriv_matrix(deriv: tuple[int, int], degree_in: int) -> np.ndarray:
    """Coefficient map M_degree_in -> M_(degree_in - |deriv|) of d^deriv at
    unit diameter; divide by h^|deriv| for diameter h."""
    dx, dy = deriv
    deg_out = degree_in - dx - dy
    exps_in = monomial_exponents(degree_in)
    out = np.zeros((poly_dim(deg_out), poly_dim(degree_in)))
    if deg_out >= 0:
        index_out = {(int(a), int(b)): i
                     for i, (a, b) in enumerate(monomial_exponents(deg_out))}
        coef = _falling(exps_in[:, 0], dx) * _falling(exps_in[:, 1], dy)
        for j, (a, b) in enumerate(exps_in):
            ra, rb = int(a) - dx, int(b) - dy
            if ra >= 0 and rb >= 0:
                out[index_out[(ra, rb)], j] = coef[j]
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# quadrature rules


@lru_cache(maxsize=None)
def gauss_01(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]; exact to degree 2 npts - 1."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return (x + 1.0) / 2.0, w / 2.0


def edge_rule(p0: np.ndarray, p1: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule along the segments p0 -> p1 (..., 2), exact for degree <= order:
    points (..., n, 2) and weights (..., n)."""
    t, w = gauss_01(max(1, (order + 2) // 2))
    p0 = np.asarray(p0, dtype=np.float64)[..., None, :]
    d = np.asarray(p1, dtype=np.float64)[..., None, :] - p0
    return p0 + t[:, None] * d, w * np.hypot(d[..., 0], d[..., 1])


@lru_cache(maxsize=None)
def edge_monomial_integrals(max_power: int) -> np.ndarray:
    """I_m = int_{-1/2}^{1/2} s^m ds for m = 0..max_power."""
    m = np.arange(max_power + 1)
    vals = np.where(m % 2 == 0, 0.5 ** m / (m + 1.0), 0.0)
    return vals


@lru_cache(maxsize=None)
def triangle_rule_reference(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed-square Gauss rule on the triangle (0,0), (1,0), (0,1).

    The Duffy map x = a, y = b (1 - a) turns a degree-p integrand into a
    polynomial of degree p+1 in a (Jacobian included) and p in b, so the
    tensor rule below is exact for total degree <= order.
    """
    na = max(1, (order + 3) // 2)
    nb = max(1, (order + 2) // 2)
    a, wa = gauss_01(na)
    b, wb = gauss_01(nb)
    A, B = np.meshgrid(a, b, indexing="ij")
    WA, WB = np.meshgrid(wa, wb, indexing="ij")
    x = A.ravel()
    y = (B * (1.0 - A)).ravel()
    w = (WA * WB * (1.0 - A)).ravel()
    pts = np.column_stack([x, y])
    pts.setflags(write=False)
    w.setflags(write=False)
    return pts, w


def map_triangles(tris: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference rule laid on triangles (..., T, 3, 2).

    Returns points (..., T * n, 2) and weights (..., T * n), triangle by
    triangle.
    """
    ref_pts, ref_w = triangle_rule_reference(order)
    v0, v1, v2 = tris[..., 0, None, :], tris[..., 1, None, :], tris[..., 2, None, :]
    jac = ((v1[..., 0] - v0[..., 0]) * (v2[..., 1] - v0[..., 1])
           - (v2[..., 0] - v0[..., 0]) * (v1[..., 1] - v0[..., 1]))
    pts = v0 + ref_pts[:, 0, None] * (v1 - v0) + ref_pts[:, 1, None] * (v2 - v0)
    w = ref_w * jac
    return (pts.reshape(*tris.shape[:-3], -1, 2), w.reshape(*tris.shape[:-3], -1))


def polygon_area_centroid(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed areas (...) and area centroids (..., 2) of simple polygons
    (..., n, 2) (shoelace).  Each polygon's sums run along its own row, so
    a stack gives the same bits as one polygon at a time."""
    x = coords[..., 0]
    y = coords[..., 1]
    xn = np.roll(x, -1, axis=-1)
    yn = np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross, axis=-1)
    if np.any(np.abs(area) < 1e-300):
        raise ValueError("degenerate polygon with zero area")
    cx = np.sum((x + xn) * cross, axis=-1) / (6.0 * area)
    cy = np.sum((y + yn) * cross, axis=-1) / (6.0 * area)
    return area, np.stack([cx, cy], axis=-1)


def _earclip(coords: np.ndarray) -> list[np.ndarray]:
    """Triangulate a simple CCW polygon by ear clipping (small n only)."""
    idx = list(range(len(coords)))
    tris = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 10000:
            raise ValueError("ear clipping failed; polygon may self-intersect")
        n = len(idx)
        clipped = False
        for pos in range(n):
            i0, i1, i2 = idx[pos - 1], idx[pos], idx[(pos + 1) % n]
            a, b, c = coords[i0], coords[i1], coords[i2]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cross <= 0.0:
                continue
            # no remaining vertex may sit inside the candidate ear
            ear_ok = True
            for j in idx:
                if j in (i0, i1, i2):
                    continue
                p = coords[j]
                d0 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
                d1 = (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])
                d2 = (a[0] - c[0]) * (p[1] - c[1]) - (a[1] - c[1]) * (p[0] - c[0])
                if d0 >= 0 and d1 >= 0 and d2 >= 0:
                    ear_ok = False
                    break
            if ear_ok:
                tris.append(np.array([a, b, c]))
                idx.pop(pos)
                clipped = True
                break
        if not clipped:
            raise ValueError("ear clipping failed; polygon may self-intersect")
    tris.append(coords[idx])
    return tris


def fan_is_star(coords: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """Whether every triangle of the centroid fan has positive area, for
    polygons (..., n, 2) with centroids (..., 2)."""
    a = coords - centroid[..., None, :]
    b = np.roll(a, -1, axis=-2)
    return (a[..., 0] * b[..., 1] - b[..., 0] * a[..., 1] > 0.0).all(axis=-1)


def polygon_triangles(coords: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """Triangles (..., T, 3, 2) of simple polygons (..., n, 2): the fan from
    the area centroid when it has positive area for every polygon, else
    ear clipping."""
    if fan_is_star(coords, centroid).all():
        return np.stack([np.broadcast_to(centroid[..., None, :], coords.shape), coords,
                         np.roll(coords, -1, axis=-2)], axis=-2)
    n = coords.shape[-2]
    tris = [np.stack(_earclip(c)) for c in coords.reshape(-1, n, 2)]
    return np.stack(tris).reshape(*coords.shape[:-2], n - 2, 3, 2)


def subdivide_triangles(tris: np.ndarray, times: int) -> np.ndarray:
    """Split triangles (..., T, 3, 2) 4^times-fold through edge midpoints,
    giving (..., 4^times T, 3, 2), children of one triangle adjacent."""
    for _ in range(times):
        v0, v1, v2 = tris[..., 0, :], tris[..., 1, :], tris[..., 2, :]
        m01, m12, m20 = 0.5 * (v0 + v1), 0.5 * (v1 + v2), 0.5 * (v2 + v0)
        tris = np.stack([np.stack([v0, m01, m20], axis=-2),
                         np.stack([m01, v1, m12], axis=-2),
                         np.stack([m20, m12, v2], axis=-2),
                         np.stack([m01, m12, m20], axis=-2)], axis=-3)
        tris = tris.reshape(*tris.shape[:-4], -1, 3, 2)
    return tris

