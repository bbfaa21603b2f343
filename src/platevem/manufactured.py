"""Manufactured solution cases, the error report, and convergence-rate tables.

Each case packages exact fields, loads derived from the strong form

    u + bilap(u) + alpha lap(p) = f
    beta p - alpha lap(u) - gamma lap(p) = g,

boundary labeling, and the boundary data needed when the exact solution
does not satisfy the homogeneous natural conditions (bending moment on
simply supported edges, combined flux on pressure-Neumann edges).

An ``ErrorReport`` holds the errors against the projected discrete
solution, which ``estimator.measure`` computes together with the
estimator: broken H2 seminorm of u - pd(u_h), broken H1 seminorm of
p - pg(p_h), their L2 counterparts, and the parameter-weighted combined
norm

    ||(v, q)||^2 = ||v||^2 + |v|_2^2 + beta ||q||^2 + gamma |q|_1^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import numpy.polynomial.polynomial as npoly

from .assembly import ModelParams
from .mesh import BoundaryLabel, PolygonalMesh, all_clamped
from .spaces import pressure_is_dirichlet


# A data callable: maps points (..., 2) to values (...) or (..., c).
Pointwise = Callable[[np.ndarray], np.ndarray]

# Distance within which a mesh vertex sits at a case's singular point.
SINGULAR_TOL = 1e-10
# Distance from a coordinate axis within which an edge midpoint lies on it.
AXIS_TOL = 1e-12


@dataclass
class ManufacturedCase:
    name: str
    params: ModelParams
    labeler: Callable
    pressure_dirichlet_on_clamped: bool
    u: Pointwise
    grad_u: Pointwise                # (..., 2)
    hess_u: Pointwise                # (..., 3): xx, xy, yy
    p: Pointwise
    grad_p: Pointwise
    f: Pointwise
    g: Pointwise
    singular_points: tuple[tuple[float, float], ...] = ()

    def bending_moment_data(self, pts: np.ndarray, normal: np.ndarray) -> np.ndarray:
        """d_nn(u) at points (..., 2) for unit normals (..., 2) that
        broadcast against them."""
        H = self.hess_u(pts)
        nx, ny = normal[..., 0], normal[..., 1]
        return H[..., 0] * nx * nx + 2.0 * H[..., 1] * nx * ny + H[..., 2] * ny * ny

    def pressure_flux_data(self, pts: np.ndarray, normal: np.ndarray) -> np.ndarray:
        """gamma d_n(p) + alpha d_n(u), shaped as bending_moment_data."""
        gp = (self.grad_p(pts) * normal).sum(-1)
        gu = (self.grad_u(pts) * normal).sum(-1)
        return self.params.gamma * gp + self.params.alpha * gu

    def pressure_dirichlet_edges(self, mesh: PolygonalMesh) -> np.ndarray:
        """(nedges,) whether each edge carries the case's Dirichlet pressure."""
        return pressure_is_dirichlet(mesh, self.pressure_dirichlet_on_clamped)

    def singular_cells(self, mesh: PolygonalMesh) -> frozenset[int]:
        """Cells with a vertex within SINGULAR_TOL of a singular point."""
        if not self.singular_points:
            return frozenset()
        pts = np.asarray(self.singular_points)
        d = np.linalg.norm(mesh.vertices[:, None, :] - pts[None, :, :], axis=2)
        near = d.min(axis=1) < SINGULAR_TOL
        cell_of = np.repeat(np.arange(mesh.ncells), np.diff(mesh.cell_ptr))
        return frozenset(cell_of[near[mesh.cell_verts]].tolist())


# ---------------------------------------------------------------------------
# case constructors


def smooth_square_labeler(edge_mid: np.ndarray) -> BoundaryLabel:
    """Clamped on the two coordinate axes, simply supported elsewhere."""
    if edge_mid[0] < AXIS_TOL or edge_mid[1] < AXIS_TOL:
        return BoundaryLabel.CLAMPED
    return BoundaryLabel.SIMPLY_SUPPORTED


def _sin2_factors(t: np.ndarray) -> tuple[np.ndarray, ...]:
    """S(t) = sin^2(pi t) and its derivatives S', S'' and S''''."""
    pi = np.pi
    s2, c2 = np.sin(2.0 * pi * t), np.cos(2.0 * pi * t)
    return np.sin(pi * t) ** 2, pi * s2, 2.0 * pi ** 2 * c2, -8.0 * pi ** 4 * c2


def smooth_case(params: ModelParams | None = None) -> ManufacturedCase:
    """Trigonometric solution on the unit square with mixed boundary parts.

    u = S(x) S(y) with S(t) = sin^2(pi t) and p = cos(pi x y); every
    closure is a closed-form derivative of these two fields.
    """
    params = params if params is not None else ModelParams(1.0, 1.0, 1.0)
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    pi = np.pi

    def factors(pts):
        return _sin2_factors(pts[..., 0]), _sin2_factors(pts[..., 1])

    def u(pts):
        (sx, *_), (sy, *_) = factors(pts)
        return sx * sy

    def grad_u(pts):
        (sx, dx, *_), (sy, dy, *_) = factors(pts)
        return np.stack([dx * sy, sx * dy], axis=-1)

    def hess_u(pts):
        (sx, dx, ddx, _), (sy, dy, ddy, _) = factors(pts)
        return np.stack([ddx * sy, dx * dy, sx * ddy], axis=-1)

    def p(pts):
        return np.cos(pi * pts[..., 0] * pts[..., 1])

    def grad_p(pts):
        x, y = pts[..., 0], pts[..., 1]
        s = -pi * np.sin(pi * x * y)
        return np.stack([s * y, s * x], axis=-1)

    def lap_p(pts):
        x, y = pts[..., 0], pts[..., 1]
        return -pi ** 2 * (x * x + y * y) * np.cos(pi * x * y)

    def f(pts):
        (sx, _, ddx, d4x), (sy, _, ddy, d4y) = factors(pts)
        bilap_u = d4x * sy + 2.0 * ddx * ddy + sx * d4y
        return sx * sy + bilap_u + alpha * lap_p(pts)

    def g(pts):
        (sx, _, ddx, _), (sy, _, ddy, _) = factors(pts)
        lap_u = ddx * sy + sx * ddy
        return beta * p(pts) - alpha * lap_u - gamma * lap_p(pts)

    return ManufacturedCase(
        name="smooth", params=params, labeler=smooth_square_labeler,
        pressure_dirichlet_on_clamped=False,
        u=u, grad_u=grad_u, hess_u=hess_u, p=p, grad_p=grad_p, f=f, g=g)


def _deriv(C: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Coefficients of the (dx, dy) derivative of sum C[i, j] x^i y^j,
    zero-padded to the shape of C."""
    D = npoly.polyder(npoly.polyder(C, dx, axis=0), dy, axis=1)
    out = np.zeros_like(C)
    out[:D.shape[0], :D.shape[1]] = D
    return out


def _polyval(*coeffs: np.ndarray) -> Pointwise:
    """Closure evaluating one coefficient array at points (..., 2), or
    several stacked on a last axis."""
    def value(pts: np.ndarray) -> np.ndarray:
        vals = [npoly.polyval2d(pts[..., 0], pts[..., 1], C) for C in coeffs]
        return vals[0] if len(vals) == 1 else np.stack(vals, axis=-1)
    return value


def polynomial_case(k: int, l: int, params: ModelParams | None = None,
                    seed: int = 7) -> ManufacturedCase:
    """Dense random polynomials of exactly the discrete degrees.

    Both fields carry every monomial up to degree k respectively l, so a
    scheme only passes when all dof classes and all data terms are exact.
    The coefficients are quarter-integers, so their derivatives are exact
    in floating point.
    """
    params = params if params is not None else ModelParams(1.0, 1.0, 1.0)
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    rng = np.random.default_rng(seed)
    n = max(k, l) + 1

    def poly(deg):
        C = np.zeros((n, n))        # C[i, j] multiplies x^i y^j
        for d in range(deg + 1):
            for ix in range(d, -1, -1):
                C[ix, d - ix] = int(rng.integers(-9, 10)) / 4
        return C

    def lap(C):
        return _deriv(C, 2, 0) + _deriv(C, 0, 2)

    U, Q = poly(k), poly(l)
    return ManufacturedCase(
        name=f"poly-k{k}-l{l}", params=params, labeler=all_clamped,
        pressure_dirichlet_on_clamped=True,
        u=_polyval(U),
        grad_u=_polyval(_deriv(U, 1, 0), _deriv(U, 0, 1)),
        hess_u=_polyval(_deriv(U, 2, 0), _deriv(U, 1, 1), _deriv(U, 0, 2)),
        p=_polyval(Q),
        grad_p=_polyval(_deriv(Q, 1, 0), _deriv(Q, 0, 1)),
        f=_polyval(U + lap(lap(U)) + alpha * lap(Q)),
        g=_polyval(beta * Q - alpha * lap(U) - gamma * lap(Q)))


def lshape_case(params: ModelParams | None = None) -> ManufacturedCase:
    """Corner-singular harmonic pair on the L-shaped domain.

    u = r^(5/3) sin(5 theta / 3) and p = r^(2/3) sin(2 theta / 3) with the
    angle measured from the positive x axis; both are harmonic, so the
    loads collapse to f = u and g = beta p.  The deflection is clamped and
    the pressure is Dirichlet on the whole boundary.
    """
    params = params if params is not None else ModelParams(1.0, 1.0, 1.0)
    a = 5.0 / 3.0
    c = 2.0 / 3.0

    def polar(pts):
        r = np.hypot(pts[..., 0], pts[..., 1])
        th = np.arctan2(pts[..., 1], pts[..., 0])
        th = np.where(th < 0.0, th + 2.0 * np.pi, th)
        return r, th

    def rpow(r, e):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(r > 0.0, r ** e, 0.0)
        return out

    def u(pts):
        r, th = polar(pts)
        return r ** a * np.sin(a * th)

    def grad_u(pts):
        r, th = polar(pts)
        s = a * rpow(r, a - 1.0)
        return np.stack([s * np.sin((a - 1.0) * th), s * np.cos((a - 1.0) * th)], axis=-1)

    def hess_u(pts):
        r, th = polar(pts)
        s = a * (a - 1.0) * rpow(r, a - 2.0)
        return np.stack([s * np.sin((a - 2.0) * th), s * np.cos((a - 2.0) * th),
                         -s * np.sin((a - 2.0) * th)], axis=-1)

    def p(pts):
        r, th = polar(pts)
        return r ** c * np.sin(c * th)

    def grad_p(pts):
        r, th = polar(pts)
        s = c * rpow(r, c - 1.0)
        return np.stack([s * np.sin((c - 1.0) * th), s * np.cos((c - 1.0) * th)], axis=-1)

    beta = params.beta
    return ManufacturedCase(
        name="lshape", params=params, labeler=all_clamped,
        pressure_dirichlet_on_clamped=True,
        u=u, grad_u=grad_u, hess_u=hess_u, p=p, grad_p=grad_p,
        f=u, g=lambda pts: beta * p(pts),
        singular_points=((0.0, 0.0),))


_CASES = {"smooth": smooth_case, "lshape": lshape_case}


def known_case(name: str) -> bool:
    """Whether get_case accepts name: a named case or "poly"."""
    return name in _CASES or name == "poly"


def get_case(name: str, params: ModelParams | None = None, k: int = 2,
             l: int = 1) -> ManufacturedCase:
    if not known_case(name):
        raise KeyError(f"unknown case {name!r}; have {sorted(_CASES) + ['poly']}")
    if name in _CASES:
        return _CASES[name](params)
    return polynomial_case(k, l, params)


# ---------------------------------------------------------------------------
# error report


@dataclass
class ErrorReport:
    err_u_h2: float
    err_p_h1: float
    err_u_l2: float
    err_p_l2: float
    energy: float
    osc_f: float
    osc_g: float
    cell_energy2: np.ndarray = field(repr=False)


# ---------------------------------------------------------------------------
# rate tables


def rates_against(hs, errs) -> list[float | None]:
    """Rate printed on row i compares levels i and i+1; the last row gets None."""
    out: list[float | None] = []
    for i in range(len(hs) - 1):
        out.append(math.log(errs[i + 1] / errs[i]) / math.log(hs[i + 1] / hs[i]))
    out.append(None)
    return out


def rate_table(hs, columns: dict[str, list[float]]) -> list[dict[str, object]]:
    """Rows of h, then err/rate pairs per named column, rates per rates_against."""
    rows: list[dict[str, object]] = []
    rate_cols = {name: rates_against(hs, vals) for name, vals in columns.items()}
    for i, h in enumerate(hs):
        row: dict[str, object] = {"h": h}
        for name, vals in columns.items():
            row[name] = vals[i]
            r = rate_cols[name][i]
            row[f"rate({name})"] = "*" if r is None else r
        rows.append(row)
    return rows

