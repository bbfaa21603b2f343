import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platevem.quadrature import (PowerTable, QuadratureRule, ScaledMonomialBasis,
                                 edge_monomial_integrals, edge_rule, gauss_01,
                                 monomial_exponents, monomials, poly_dim,
                                 polygon_area_centroid, polygon_rule,
                                 triangle_rule_reference)


def test_poly_dim_values():
    assert [poly_dim(d) for d in range(-2, 5)] == [0, 0, 1, 3, 6, 10, 15]


def test_monomial_exponents_graded_order():
    exps = monomial_exponents(3)
    assert exps.shape == (10, 2)
    degrees = exps.sum(axis=1)
    assert list(degrees) == sorted(degrees)
    # within a degree block the x power decreases
    assert [tuple(e) for e in exps[:6]] == [(0, 0), (1, 0), (0, 1),
                                            (2, 0), (1, 1), (0, 2)]


def test_gauss_01_exactness():
    x, w = gauss_01(4)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    for p in range(8):   # exact through degree 2n-1 = 7
        assert w @ x ** p == pytest.approx(1.0 / (p + 1), rel=1e-14)


def test_edge_rule_integrates_line_exactly():
    p0 = np.array([0.2, -0.4])
    p1 = np.array([1.1, 0.9])
    rule = edge_rule(p0, p1, order=5)
    length = np.hypot(*(p1 - p0))
    assert rule.weights.sum() == pytest.approx(length, rel=1e-14)
    # integrate f(x, y) = x^3 y^2 along the segment against substitution
    t = np.linspace(0.0, 1.0, 5001)
    seg = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    ref = np.trapezoid(seg[:, 0] ** 3 * seg[:, 1] ** 2, t) * length
    val = rule.integrate(rule.points[:, 0] ** 3 * rule.points[:, 1] ** 2)
    assert val == pytest.approx(ref, rel=1e-6)


def test_edge_monomial_integrals_match_quadrature():
    vals = edge_monomial_integrals(9)
    t, w = gauss_01(8)
    s = t - 0.5
    for m in range(10):
        assert vals[m] == pytest.approx(w @ s ** m, abs=3e-16)


def test_triangle_reference_rule():
    pts, w = triangle_rule_reference(4)
    assert w.sum() == pytest.approx(0.5, rel=1e-14)
    # int over unit triangle of x^a y^b = a! b! / (a+b+2)!
    import math
    for a in range(5):
        for b in range(5 - a):
            ref = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            assert w @ (pts[:, 0] ** a * pts[:, 1] ** b) == pytest.approx(ref, rel=1e-13)


def test_polygon_area_centroid_square():
    sq = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    area, c = polygon_area_centroid(sq)
    assert area == pytest.approx(4.0)
    assert c == pytest.approx([1.0, 1.0])


def test_polygon_area_centroid_orientation_sign():
    sq = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    area, _ = polygon_area_centroid(sq)
    assert area == pytest.approx(-1.0)


def test_polygon_rule_exact_on_pentagon():
    rng = np.random.default_rng(5)
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=5))
    coords = np.column_stack([np.cos(angles), np.sin(angles)]) * rng.uniform(0.5, 1.0, (5, 1))
    rule = polygon_rule(coords, order=6)
    area, _ = polygon_area_centroid(coords)
    assert rule.weights.sum() == pytest.approx(area, rel=1e-13)
    # check against an independent fine triangulation through vertex 0
    ref_pts, ref_w = [], []
    for i in range(1, 4):
        tri = np.array([coords[0], coords[i], coords[i + 1]])
        sub = polygon_rule(tri, order=6)
        ref_pts.append(sub.points)
        ref_w.append(sub.weights)
    ref_pts = np.vstack(ref_pts)
    ref_w = np.concatenate(ref_w)
    for a, b in [(3, 3), (6, 0), (2, 4), (0, 5)]:
        val = rule.integrate(rule.points[:, 0] ** a * rule.points[:, 1] ** b)
        ref = ref_w @ (ref_pts[:, 0] ** a * ref_pts[:, 1] ** b)
        assert val == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_polygon_rule_nonconvex_fallback():
    # an L-shaped hexagon is not star shaped from its centroid region edge
    coords = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0],
                       [1.0, 2.0], [0.0, 2.0]])
    rule = polygon_rule(coords, order=4)
    assert rule.weights.sum() == pytest.approx(3.0, rel=1e-13)
    val = rule.integrate(rule.points[:, 0])
    # int x over the L: split into [0,2]x[0,1] plus [0,1]x[1,2]
    assert val == pytest.approx(2.0 + 0.5, rel=1e-13)


def test_polygon_rule_subdivide_consistent():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.3, 0.8], [0.2, 1.1]])
    base = polygon_rule(coords, order=5)
    fine = polygon_rule(coords, order=5, subdivide=2)
    f = lambda p: p[:, 0] ** 2 * p[:, 1] ** 3
    assert fine.integrate(f(fine.points)) == pytest.approx(
        base.integrate(f(base.points)), rel=1e-13)


class TestScaledMonomialBasis:
    def setup_method(self):
        self.basis = ScaledMonomialBasis((0.3, -0.2), 1.7, 4)

    def test_partition_entries(self):
        pts = np.array([[0.3, -0.2], [1.0, 0.5]])
        vals = self.basis.eval(pts)
        assert vals.shape == (2, 15)
        assert vals[0, 0] == 1.0 and np.all(vals[0, 1:] == 0.0)

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, size=(20, 2))
        eps = 1e-6
        dx = self.basis.eval(pts, (1, 0))
        shift = pts.copy()
        shift[:, 0] += eps
        fd = (self.basis.eval(shift) - self.basis.eval(pts)) / eps
        assert np.abs(dx - fd).max() < 1e-4

    def test_second_derivative_scaling(self):
        # m_(2,0) = ((x-xc)/h)^2 so d2/dx2 = 2 / h^2 everywhere
        pts = np.array([[0.9, 0.1]])
        vals = self.basis.eval(pts, (2, 0))
        assert vals[0, 3] == pytest.approx(2.0 / 1.7 ** 2)

    def test_deriv_matrix_consistent_with_eval(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, size=(10, 2))
        coeffs = rng.normal(size=15)
        for deriv in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            M = self.basis.deriv_matrix(deriv, 4)
            direct = self.basis.eval(pts, deriv) @ coeffs
            low_deg = 4 - sum(deriv)
            via = self.basis.eval(pts)[:, :poly_dim(low_deg)] @ (M @ coeffs)
            assert np.abs(direct - via).max() < 1e-12

    def test_deriv_matrix_annihilates_low_degree(self):
        M = self.basis.deriv_matrix((3, 2), 4)
        assert M.shape == (0, 15)


def reference_monomials(pts, center, diameter, degree, deriv):
    """d^deriv of ((x - x_K) / h_K)^(a, b), one exponent pair at a time with
    the power operator and the falling factorials written out."""
    dx, dy = deriv
    h = np.asarray(diameter, dtype=np.float64)[..., None]
    s = (pts - np.asarray(center)[..., None, :]) / h[..., None]
    cols = []
    for d in range(degree + 1):
        for b in range(d + 1):
            a = d - b
            if a < dx or b < dy:
                cols.append(np.zeros(s.shape[:-1]))
            else:
                coef = math.perm(a, dx) * math.perm(b, dy)
                cols.append(coef * s[..., 0] ** (a - dx) * s[..., 1] ** (b - dy)
                            / h ** (dx + dy))
    return np.stack(cols, axis=-1)


def derivs_up_to(order):
    return [(dx, n - dx) for n in range(order + 1) for dx in range(n + 1)]


# Bound fixed from a rounding count, before any measurement: s^a by
# repeated products is within (a - 1) u, the two powers, their product and
# the weight add 3 u, and the reference's powers, products and division
# about 5 u, so degree + 8 units of roundoff u = 2^-53 cover both sides.
# Below 1e-290 both sides may round to subnormals and only the floor holds.
def assert_matches_reference(table, ref, degree):
    bound = (degree + 8) * np.finfo(np.float64).eps / 2
    assert np.all(np.abs(table - ref) <= bound * np.abs(ref) + 1e-290)


class TestPowerTableMonomials:
    """Monomial tables gathered from one power table, against the
    reference above."""

    @pytest.mark.parametrize("degree", range(9))
    def test_flat_points(self, degree):
        rng = np.random.default_rng(degree)
        pts = rng.uniform(-1.0, 2.0, size=(40, 2))
        center, h = np.array([0.4, 0.7]), 1.3
        powers = PowerTable.at(pts, center, h, degree)
        for deriv in derivs_up_to(degree + 1):
            table = powers.gather(deriv)
            assert table.shape == (40, poly_dim(degree))
            assert_matches_reference(
                table, reference_monomials(pts, center, h, degree, deriv), degree)

    @pytest.mark.parametrize("degree", range(9))
    def test_stacked_points(self, degree):
        rng = np.random.default_rng(100 + degree)
        center = rng.uniform(-3.0, 3.0, size=(7, 2))
        h = rng.uniform(0.05, 2.0, size=7)
        pts = center[:, None, :] + h[:, None, None] * rng.uniform(-1, 1, size=(7, 30, 2))
        powers = PowerTable.at(pts, center, h, degree)
        for deriv in derivs_up_to(degree + 1):
            table = powers.gather(deriv)
            assert table.shape == (7, 30, poly_dim(degree))
            assert_matches_reference(
                table, reference_monomials(pts, center, h, degree, deriv), degree)
            assert np.array_equal(table, monomials(pts, center, h, degree, deriv))

    @pytest.mark.parametrize("degree", range(9))
    def test_exact_entries(self, degree):
        rng = np.random.default_rng(200 + degree)
        center = rng.uniform(-1.0, 1.0, size=(5, 2))
        h = rng.uniform(0.1, 1.0, size=5)
        pts = rng.uniform(-2.0, 2.0, size=(5, 12, 2))
        powers = PowerTable.at(pts, center, h, degree)
        assert np.all(powers.gather()[..., 0] == 1.0)
        exps = monomial_exponents(degree)
        for dx, dy in derivs_up_to(degree + 1):
            below = (exps[:, 0] < dx) | (exps[:, 1] < dy)
            assert np.all(powers.gather((dx, dy))[..., below] == 0.0)
        at_centre = PowerTable.at(center[:, None, :], center, h, degree).gather()
        e0 = np.eye(1, poly_dim(degree))
        assert np.array_equal(at_centre, np.broadcast_to(e0, at_centre.shape))
        held = PowerTable.of_values(powers.gather(), h, degree)
        assert np.array_equal(held.px, powers.px) and np.array_equal(held.py, powers.py)


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(min_value=0, max_value=8),
       center=st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
       diameter=st.floats(1e-2, 10),
       unit_pts=st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                         min_size=1, max_size=12))
def test_power_table_monomials_random(degree, center, diameter, unit_pts):
    """Random centre, diameter and points within a diameter of the centre."""
    center = np.array(center)
    pts = center + diameter * np.array(unit_pts)
    powers = PowerTable.at(pts, center, diameter, degree)
    for deriv in derivs_up_to(degree + 1):
        assert_matches_reference(
            powers.gather(deriv),
            reference_monomials(pts, center, diameter, degree, deriv), degree)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=10 ** 6))
def test_polygon_rule_positive_weights_convex(nverts, seed):
    """Fanning a convex polygon from its centroid gives positive weights."""
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=nverts))
    if np.min(np.diff(angles)) < 1e-2:
        angles = np.linspace(0, 2 * np.pi, nverts, endpoint=False)
    coords = np.column_stack([np.cos(angles), np.sin(angles)])
    rule = polygon_rule(coords, order=3)
    assert np.all(rule.weights > 0)
    area, _ = polygon_area_centroid(coords)
    assert rule.weights.sum() == pytest.approx(area, rel=1e-12)


def test_quadrature_rule_integrate_matrix_values():
    rule = QuadratureRule(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.25, 0.75]))
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = rule.integrate(vals)
    assert out == pytest.approx([0.25 + 2.25, 0.5 + 3.0])
