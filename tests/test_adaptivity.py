import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platevem.adaptivity import (AdaptiveTrace, MarkingConfig, adaptive_loop,
                                 dorfler_mark)
from platevem.manufactured import get_case
from platevem.mesh import generate_lshape
from platevem.runner import spaces_for
from platevem.spaces import Family


class TestDorflerMarking:
    def test_hand_example(self):
        # contributions 4, 3, 2, 1; theta = 0.5 wants >= 5, so {4, 3}
        assert dorfler_mark([4.0, 3.0, 2.0, 1.0], 0.5) == [0, 1]

    def test_uniform_contributions_take_exact_fraction(self):
        marked = dorfler_mark(np.ones(10), 0.5)
        assert marked == list(range(5))
        assert dorfler_mark(np.ones(10), 0.45) == list(range(5))

    def test_theta_one_marks_everything(self):
        assert dorfler_mark([1.0, 5.0, 2.0], 1.0) == [0, 1, 2]

    def test_tiny_theta_marks_largest_only(self):
        assert dorfler_mark([1.0, 5.0, 2.0], 1e-6) == [1]

    def test_ties_break_by_cell_id(self):
        assert dorfler_mark([2.0, 2.0, 2.0, 2.0], 0.5) == [0, 1]

    def test_zero_total_marks_nothing(self):
        assert dorfler_mark(np.zeros(6), 0.7) == []

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dorfler_mark([], 0.5)

    @pytest.mark.parametrize("eta2, cell", [([1.0, np.nan, 2.0], 1), ([np.inf, 1.0], 0),
                                            ([1.0, 2.0, -np.inf, np.nan], 2)])
    def test_non_finite_rejected(self, eta2, cell):
        """A failed solve's indicators raise, naming the first bad cell."""
        with pytest.raises(ValueError, match=f"estimator of cell {cell} is not finite"):
            dorfler_mark(eta2, 0.5)

    def test_minimality(self):
        rng = np.random.default_rng(3)
        eta2 = rng.uniform(0.01, 1.0, size=40)
        theta = 0.6
        marked = dorfler_mark(eta2, theta)
        total = eta2.sum()
        assert eta2[marked].sum() >= theta * total * (1 - 1e-10)
        # dropping the weakest marked cell must fall below the target
        weakest = min(marked, key=lambda c: eta2[c])
        rest = [c for c in marked if c != weakest]
        assert eta2[rest].sum() < theta * total

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=60),
           st.floats(0.01, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, vals, theta):
        eta2 = np.array(vals)
        marked = dorfler_mark(eta2, theta)
        assert marked == sorted(set(marked))
        assert all(0 <= c < eta2.size for c in marked)
        total = eta2.sum()
        if total > 0:
            assert eta2[marked].sum() >= theta * total * (1 - 1e-9)
        else:
            assert marked == []


class TestMarkingConfig:
    def test_validate(self):
        MarkingConfig(theta=0.3, max_levels=5).validate()
        MarkingConfig(theta=1.0).validate()
        with pytest.raises(ValueError):
            MarkingConfig(theta=0.0).validate()
        with pytest.raises(ValueError):
            MarkingConfig(theta=1.5).validate()
        with pytest.raises(ValueError):
            MarkingConfig(max_levels=0).validate()


@pytest.fixture(scope="module")
def lshape_traces():
    case = get_case("lshape")
    mesh = generate_lshape(2, labeler=case.labeler)
    space_u, space_p = spaces_for(Family.NONCONFORMING, 2, 1)
    adaptive = adaptive_loop(case, mesh, space_u, space_p,
                             MarkingConfig(theta=0.5, max_levels=5),
                             keep_meshes=True)
    uniform = adaptive_loop(case, mesh, space_u, space_p,
                            MarkingConfig(theta=1.0, max_levels=3))
    return adaptive, uniform


class TestAdaptiveLoop:

    def test_trace_grows_and_improves(self, lshape_traces):
        adaptive, _ = lshape_traces
        tr: AdaptiveTrace = adaptive
        assert len(tr.levels) == 5
        assert list(tr.ndofs) == sorted(tr.ndofs)
        assert tr.etas[-1] < tr.etas[0]
        assert tr.levels[-1].n_marked == 0    # final level never refines
        assert all(lv.n_marked > 0 for lv in tr.levels[:-1])

    def test_theta_one_is_uniform(self, lshape_traces):
        _, uniform = lshape_traces
        ncells = [lv.ncells for lv in uniform.levels]
        # quadrilateral cells quadruple under full marking
        assert ncells[1] == 4 * ncells[0]
        assert ncells[2] == 4 * ncells[1]

    def test_adaptive_concentrates_near_corner(self, lshape_traces):
        adaptive, _ = lshape_traces
        first = adaptive.meshes[0]
        last = adaptive.meshes[-1]

        def min_cell_diam(mesh):
            best = np.inf
            for c in range(mesh.ncells):
                coords = mesh.cell_coords(c)
                if np.linalg.norm(coords, axis=1).min() < 0.3:
                    d = np.ptp(coords, axis=0).max()
                    best = min(best, d)
            return best

        # cells near the re-entrant corner shrink much faster than the far
        # field: four uniform levels would drive h to h0/16
        assert min_cell_diam(last) < 0.3 * min_cell_diam(first)
        assert last.h >= first.h / 4

    def test_eta_tol_stops_early(self):
        case = get_case("lshape")
        mesh = generate_lshape(2, labeler=case.labeler)
        space_u, space_p = spaces_for(Family.NONCONFORMING, 2, 1)
        tr = adaptive_loop(case, mesh, space_u, space_p,
                           MarkingConfig(theta=0.5, max_levels=8,
                                         eta_tol=1e9))
        assert len(tr.levels) == 1
        assert tr.levels[0].n_marked == 0
