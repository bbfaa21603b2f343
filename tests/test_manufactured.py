import functools
import math

import numpy as np
import pytest
import sympy as sp
from _elements import solve_patch

from platevem.assembly import ModelParams
from platevem.manufactured import (get_case, lshape_case, polynomial_case,
                                   rate_table, rates_against, smooth_case)
from platevem.mesh import generate_lshape
from platevem.projectors import CellGroup, cell_groups
from platevem.runner import fit_loglog_slope
from platevem.spaces import Family


def sample_points(rng, n=40, positive=False):
    pts = rng.uniform(0.05, 0.95, size=(n, 2))
    if positive:
        pts[:, 0] = np.abs(pts[:, 0])
    return pts


class TestStrongFormConsistency:
    """Rebuild the smooth case symbolically from scratch and confirm the
    packaged loads satisfy the strong equations

        f = u + Lap^2 u + alpha Lap p
        g = beta p - alpha Lap u - gamma Lap p.
    """

    def test_smooth_loads(self, rng):
        params = ModelParams(0.7, 2.3, 1.6)
        case = smooth_case(params)
        x, y = sp.symbols("x y")
        u = sp.sin(sp.pi * x) ** 2 * sp.sin(sp.pi * y) ** 2
        p = sp.cos(sp.pi * x * y)
        lap = lambda e: sp.diff(e, x, 2) + sp.diff(e, y, 2)
        f = u + lap(lap(u)) + params.alpha * lap(p)
        g = params.beta * p - params.alpha * lap(u) - params.gamma * lap(p)
        fl = sp.lambdify((x, y), f, "numpy")
        gl = sp.lambdify((x, y), g, "numpy")
        pts = sample_points(rng)
        assert np.abs(case.f(pts) - fl(pts[:, 0], pts[:, 1])).max() < 1e-11
        assert np.abs(case.g(pts) - gl(pts[:, 0], pts[:, 1])).max() < 1e-11

    def test_smooth_fields(self, rng):
        case = smooth_case()
        pts = sample_points(rng)
        x, y = pts[:, 0], pts[:, 1]
        u = np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2
        p = np.cos(np.pi * x * y)
        assert np.abs(case.u(pts) - u).max() < 1e-13
        assert np.abs(case.p(pts) - p).max() < 1e-13

    def test_polynomial_loads_by_finite_differences(self, rng):
        """Degree <= 3 deflection has constant-free biharmonic term and the
        5-point Laplacian is exact on quadratics, so wide-stencil finite
        differences check the load closures to near machine precision."""
        params = ModelParams(1.1, 1.7, 0.9)
        case = polynomial_case(3, 2, params, seed=4)
        pts = sample_points(rng, n=25)
        h = 0.03

        def lap_fd(fn, pts):
            e1 = np.array([h, 0.0])
            e2 = np.array([0.0, h])
            return (fn(pts + e1) + fn(pts - e1) + fn(pts + e2) + fn(pts - e2)
                    - 4.0 * fn(pts)) / h**2

        lap_u = lap_fd(case.u, pts)
        bilap_u = lap_fd(lambda q: lap_fd(case.u, q), pts)
        lap_p = lap_fd(case.p, pts)
        f = case.u(pts) + bilap_u + params.alpha * lap_p
        g = params.beta * case.p(pts) - params.alpha * lap_u \
            - params.gamma * lap_p
        assert np.abs(case.f(pts) - f).max() < 1e-7
        assert np.abs(case.g(pts) - g).max() < 1e-7


X, Y = sp.symbols("x y")


def sympy_polynomial(rng, deg):
    """Dense polynomial with quarter-integer coefficients, drawn in the
    order polynomial_case draws them."""
    e = sp.Integer(0)
    for d in range(deg + 1):
        for ix in range(d, -1, -1):
            e += sp.Rational(int(rng.integers(-9, 10)), 4) * X ** ix * Y ** (d - ix)
    return e


@functools.lru_cache(maxsize=None)
def sympy_fields(name, k):
    """Lambdified u, p and their derivatives, differentiated symbolically."""
    if name == "smooth":
        u = sp.sin(sp.pi * X) ** 2 * sp.sin(sp.pi * Y) ** 2
        p = sp.cos(sp.pi * X * Y)
    else:
        rng = np.random.default_rng(7)
        u = sympy_polynomial(rng, k)
        p = sympy_polynomial(rng, k - 1)
    lap = lambda e: sp.diff(e, X, 2) + sp.diff(e, Y, 2)
    exprs = {"u": u, "ux": sp.diff(u, X), "uy": sp.diff(u, Y),
             "uxx": sp.diff(u, X, 2), "uxy": sp.diff(u, X, Y), "uyy": sp.diff(u, Y, 2),
             "lap_u": lap(u), "bilap_u": lap(lap(u)),
             "p": p, "px": sp.diff(p, X), "py": sp.diff(p, Y), "lap_p": lap(p)}
    return {key: sp.lambdify((X, Y), e, "numpy") for key, e in exprs.items()}


class TestClosuresMatchSympy:
    """Every closure of the smooth and polynomial cases equals the symbolic
    derivation of the strong form, relative to the field's magnitude."""

    @pytest.mark.parametrize("params", [(1.0, 1.0, 1.0), (1e-6, 1e6, 1e6),
                                        (0.7, 2.3, 1.6)])
    @pytest.mark.parametrize("name, k", [("smooth", 2), ("poly", 2), ("poly", 3),
                                         ("poly", 4)])
    def test_seven_closures(self, name, k, params, rng):
        alpha, beta, gamma = params
        case = get_case(name, params=ModelParams(*params), k=k, l=k - 1)
        pts = np.vstack([rng.uniform(0.0, 1.0, size=(200, 2)),
                         [[0, 0], [1, 0], [1, 1], [0, 1]]])
        fn = sympy_fields(name, k)
        ev = {key: np.broadcast_to(f(pts[:, 0], pts[:, 1]), len(pts))
              for key, f in fn.items()}
        expected = {
            "u": ev["u"],
            "grad_u": np.column_stack([ev["ux"], ev["uy"]]),
            "hess_u": np.column_stack([ev["uxx"], ev["uxy"], ev["uyy"]]),
            "p": ev["p"],
            "grad_p": np.column_stack([ev["px"], ev["py"]]),
            "f": ev["u"] + ev["bilap_u"] + alpha * ev["lap_p"],
            "g": beta * ev["p"] - alpha * ev["lap_u"] - gamma * ev["lap_p"],
        }
        for attr, want in expected.items():
            got = getattr(case, attr)(pts)
            assert got.shape == want.shape, attr
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() < 1e-11 * scale, attr


class TestDerivativeClosures:
    @pytest.mark.parametrize("name", ["smooth", "poly"])
    def test_grad_and_hess_match_fd(self, name, rng):
        case = get_case(name, k=3, l=2)
        pts = sample_points(rng, n=30)
        h = 1e-5
        e1 = np.array([h, 0.0])
        e2 = np.array([0.0, h])
        gx = (case.u(pts + e1) - case.u(pts - e1)) / (2 * h)
        gy = (case.u(pts + e2) - case.u(pts - e2)) / (2 * h)
        G = case.grad_u(pts)
        assert np.abs(G[:, 0] - gx).max() < 1e-6
        assert np.abs(G[:, 1] - gy).max() < 1e-6
        H = case.hess_u(pts)
        hxx = (case.u(pts + e1) - 2 * case.u(pts) + case.u(pts - e1)) / h**2
        hyy = (case.u(pts + e2) - 2 * case.u(pts) + case.u(pts - e2)) / h**2
        hxy = (case.u(pts + e1 + e2) - case.u(pts + e1 - e2)
               - case.u(pts - e1 + e2) + case.u(pts - e1 - e2)) / (4 * h**2)
        assert np.abs(H[:, 0] - hxx).max() < 2e-4
        assert np.abs(H[:, 1] - hxy).max() < 2e-4
        assert np.abs(H[:, 2] - hyy).max() < 2e-4

        gp = case.grad_p(pts)
        px = (case.p(pts + e1) - case.p(pts - e1)) / (2 * h)
        py = (case.p(pts + e2) - case.p(pts - e2)) / (2 * h)
        assert np.abs(gp[:, 0] - px).max() < 1e-6
        assert np.abs(gp[:, 1] - py).max() < 1e-6

    def test_boundary_data_closures(self, rng):
        case = smooth_case(ModelParams(0.8, 1.5, 2.0))
        t = rng.uniform(0.1, 0.9, size=12)
        pts = np.column_stack([np.ones_like(t), t])   # right edge x = 1
        normal = np.array([1.0, 0.0])
        h = 1e-4
        e1 = np.array([h, 0.0])
        dnn = (case.u(pts + e1) - 2 * case.u(pts) + case.u(pts - e1)) / h**2
        assert np.abs(case.bending_moment_data(pts, normal) - dnn).max() < 1e-5
        dn_p = (case.p(pts + e1) - case.p(pts - e1)) / (2 * h)
        dn_u = (case.u(pts + e1) - case.u(pts - e1)) / (2 * h)
        flux = case.params.gamma * dn_p + case.params.alpha * dn_u
        assert np.abs(case.pressure_flux_data(pts, normal) - flux).max() < 1e-6


class TestLshapeCase:
    def test_fields_are_harmonic(self, rng):
        case = lshape_case()
        pts = rng.uniform(0.3, 0.9, size=(20, 2))   # away from the corner
        h = 1e-4
        e1 = np.array([h, 0.0])
        e2 = np.array([0.0, h])
        for fn in (case.u, case.p):
            lap = (fn(pts + e1) + fn(pts - e1) + fn(pts + e2) + fn(pts - e2)
                   - 4.0 * fn(pts)) / h**2
            assert np.abs(lap).max() < 1e-4

    def test_loads_collapse(self, rng):
        case = lshape_case(ModelParams(1.0, 3.5, 1.0))
        pts = rng.uniform(0.2, 0.9, size=(15, 2))
        assert np.abs(case.f(pts) - case.u(pts)).max() < 1e-14
        assert np.abs(case.g(pts) - 3.5 * case.p(pts)).max() < 1e-14

    def test_singular_cells_touch_corner(self):
        case = lshape_case()
        mesh = generate_lshape(3, labeler=case.labeler)
        cells = case.singular_cells(mesh)
        assert cells
        for c in cells:
            d = np.linalg.norm(mesh.cell_coords(c), axis=1)
            assert d.min() < 1e-10
        assert case.singular_points == ((0.0, 0.0),)

    def test_pressure_dirichlet_everywhere(self):
        assert lshape_case().pressure_dirichlet_on_clamped is True


class TestStackedPoints:
    """Every field maps points (..., 2) to values (...) or (..., c): on a
    group's data rule (ncells, nq, 2) and on its edge points, each gives
    bit for bit what it gives on the same points flattened to (n, 2)."""

    FIELDS = ("u", "grad_u", "hess_u", "p", "grad_p", "f", "g")

    @staticmethod
    def flat(fn, pts, *normals):
        """fn on pts (and normals broadcast against them) flattened to (n, 2),
        reshaped back to the leading axes of pts."""
        vals = fn(pts.reshape(-1, 2),
                  *(np.broadcast_to(n, pts.shape).reshape(-1, 2) for n in normals))
        return vals.reshape(*pts.shape[:-1], *vals.shape[1:])

    @pytest.mark.parametrize("name, k", [("smooth", 2), ("lshape", 2),
                                         ("poly", 2), ("poly", 3), ("poly", 4)])
    def test_fields_on_stacked_points(self, voronoi25, name, k):
        case = get_case(name, k=k, l=k - 1)
        mesh = generate_lshape(2, labeler=case.labeler) if name == "lshape" else voronoi25
        groups = cell_groups(mesh, Family.CONFORMING, case.singular_cells(mesh))
        assert any(sub for _, sub in groups) == (name == "lshape")
        for cells, sub in groups:
            cg = CellGroup(mesh, cells, k, sub)
            # the data rule with one edge normal per cell, the edge points
            # with the normal of each edge
            for pts, normal in ((cg.data_rule()[0], cg.normal[:, :1]),
                                (cg.edge_pts, cg.normal[..., None, :])):
                for field in self.FIELDS:
                    fn = getattr(case, field)
                    assert np.array_equal(fn(pts), self.flat(fn, pts)), field
                for fn in (case.bending_moment_data, case.pressure_flux_data):
                    assert np.array_equal(fn(pts, normal), self.flat(fn, pts, normal))


class TestRateHelpers:
    def test_rates_pair_with_next_level(self):
        hs = [0.0795, 0.0390]
        errs = [1.9133, 1.0023]
        r = rates_against(hs, errs)
        assert r[-1] is None
        expected = math.log(1.0023 / 1.9133) / math.log(0.0390 / 0.0795)
        assert r[0] == pytest.approx(expected)
        assert r[0] == pytest.approx(0.908, abs=5e-3)

    def test_rate_table_rows(self):
        hs = [0.4, 0.2, 0.1]
        rows = rate_table(hs, {"e": [1.0, 0.25, 0.0625]})
        assert [row["h"] for row in rows] == hs
        assert rows[0]["rate(e)"] == pytest.approx(2.0)
        assert rows[1]["rate(e)"] == pytest.approx(2.0)
        assert rows[2]["rate(e)"] == "*"

    def test_slope_needs_two_points(self):
        assert fit_loglog_slope([10.0, 40.0], [1.0, 0.25]) == pytest.approx(-1.0)
        assert fit_loglog_slope([10.0, 40.0, 160.0], [9.0, 1.0, 0.25], tail=2) \
            == pytest.approx(-1.0)
        for x, tail in (([10.0], 4), ([10.0, 40.0], 1), ([], 4), ([10.0, 40.0, 160.0], 0)):
            with pytest.raises(ValueError, match="at least two points"):
                fit_loglog_slope(x, np.ones(len(x)), tail)

    def test_get_case_dispatch(self):
        assert get_case("smooth").name == "smooth"
        assert get_case("poly", k=3, l=2).name == "poly-k3-l2"
        with pytest.raises(KeyError):
            get_case("vibrating-membrane")


class TestOscillation:
    def test_vanishes_for_polynomial_data(self, voronoi25):
        """Loads that already lie in the projection spaces leave nothing
        behind: both oscillation terms are zero to quadrature precision."""
        case = polynomial_case(2, 1, ModelParams(1.0, 1.0, 1.0), seed=9)
        rep = solve_patch(case, voronoi25, Family.CONFORMING, 2, 1)
        assert rep.osc_f < 1e-10
        assert rep.osc_g < 1e-10

    def test_positive_for_trigonometric_data(self, voronoi25):
        case = smooth_case()
        rep = solve_patch(case, voronoi25, Family.CONFORMING, 2, 1)
        assert rep.osc_f > 1e-6
