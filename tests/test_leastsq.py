import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from uwbcal.errors import SingularUpdate
from uwbcal.geometry import Point2
from uwbcal.leastsq import (MAX_ITERATIONS, levenberg_marquardt,
                            objective_and_gradient)
from uwbcal.multilateration import (CONVERGED, NOT_CONVERGED, SINGULAR,
                                    _equations, _residuals, solve_fixes,
                                    tag_residuals)


def quadratic_bowl(target):
    def fun(x):
        return x - target, np.eye(len(target))
    return fun


class TestLevenbergMarquardt:
    def test_converges_on_linear_problem(self):
        target = np.array([3.0, -2.0])
        res = levenberg_marquardt(quadratic_bowl(target), np.zeros(2))
        assert res.converged
        assert res.x == pytest.approx(target, abs=1e-8)

    def test_zero_gradient_start_returns_immediately(self):
        target = np.array([1.0, 2.0])
        res = levenberg_marquardt(quadratic_bowl(target), target.copy())
        assert res.converged
        assert res.iterations == 0
        assert res.objective == 0.0

    def test_objective_never_increases(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 3))
        b = rng.normal(size=8)

        objectives = []

        def fun(x):
            r = np.tanh(a @ x) - b
            jac = a * (1.0 / np.cosh(a @ x) ** 2)[:, None]
            objectives.append(float(r @ r))
            return r, jac

        res = levenberg_marquardt(fun, np.zeros(3))
        # accepted iterates form a non-increasing objective sequence
        assert res.objective <= objectives[0]

    def test_iteration_cap_flags_not_converged(self):
        target = np.array([100.0, -50.0])
        res = levenberg_marquardt(quadratic_bowl(target), np.zeros(2),
                                  max_iterations=1)
        assert not res.converged
        assert res.iterations == 1

    def test_singular_update_raises(self):
        def fun(x):
            return np.array([np.nan]), np.array([[np.nan]])

        with pytest.raises(SingularUpdate):
            levenberg_marquardt(fun, np.array([1.0]))


coordinate = st.floats(min_value=-20.0, max_value=20.0)


@st.composite
def tag_fixes(draw):
    """A non-collinear layout of 3-6 anchors, noisy positive ranges to a tag
    and a start near it."""
    n = draw(st.integers(min_value=3, max_value=6))
    anchors = draw(st.lists(st.tuples(coordinate, coordinate),
                            min_size=n, max_size=n))
    spread = np.linalg.svd(np.subtract(anchors, np.mean(anchors, axis=0)),
                           compute_uv=False)
    assume(spread[-1] >= 1.0)  # at least ~1 m off the best-fit line
    tag = np.array(draw(st.tuples(coordinate, coordinate)))
    noise = draw(st.lists(st.floats(min_value=-0.3, max_value=0.3),
                          min_size=n, max_size=n))
    ranges = [max(0.05, float(np.hypot(*(tag - a))) + e)
              for a, e in zip(anchors, noise)]
    offset = draw(st.tuples(st.floats(min_value=-2.0, max_value=2.0),
                            st.floats(min_value=-2.0, max_value=2.0)))
    return anchors, ranges, tag + offset


def fit_from(anchors, ranges, x0, max_iterations=MAX_ITERATIONS):
    """One problem through the tag kernel, from the start ``x0``."""
    x, y = np.array(anchors, dtype=float).T
    return solve_fixes(x[None], y[None], [ranges], start=[tuple(x0)],
                       max_iterations=max_iterations)


def point_normal_equations(terms, x, y):
    """The kernel's f, g0, g1, h00, h01, h11 for one problem at (x, y);
    ``terms`` holds one (anchor x, anchor y, range) triple per residual."""
    problems = np.array(terms, dtype=float).T[:, None]
    f, at_xy = _residuals(np.array([x]), np.array([y]), problems)
    rows = _equations(*at_xy)
    assert rows[0] == f
    return rows[:6, 0].tolist()


class TestFitPoint:
    """The damped least-squares iteration of the tag kernel
    (``multilateration.solve_fixes``), held to the array kernel."""

    @settings(deadline=None)
    @given(tag_fixes())
    # twin minima mirrored about x = y, at equal objectives: the tag kernel
    # stops at (1.98228, 2.01764), the array kernel at (2.01764, 1.98228)
    @example(([(0.0, 0.0), (0.0, 0.0), (0.0, 2.0), (2.0, 0.0), (2.0, 2.0)],
              [8 ** 0.5, 8 ** 0.5, 2.0, 2.0, 0.05], np.array([2.0, 3.0])))
    # two local minima on the short range's circle: the tag kernel stops at
    # objective 7.39164e-4, the array kernel at 7.36812e-4
    @example(([(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (2.0, 0.0), (2.0, 2.0)],
              [8 ** 0.5, 8 ** 0.5, 8 ** 0.5, 2.0, 0.05],
              np.array([2.0, 3.0])))
    def test_matches_array_kernel(self, problem):
        anchors, ranges, x0 = problem
        fun = tag_residuals([Point2(*a) for a in anchors], ranges)
        ref = levenberg_marquardt(fun, x0.copy())
        res = fit_from(anchors, ranges, x0)
        x, objective = res.position[0], res.objective[0]
        converged = res.status[0] == CONVERGED
        # The array kernel takes Gauss-Newton steps and the tag kernel
        # Newton steps where the objective is convex, so the tag kernel
        # converges wherever the array kernel converges clear of the cap
        # (and also where it crawls into it, see
        # test_start_on_an_anchor_converges).
        if ref.converged and ref.iterations < MAX_ITERATIONS - 10:
            assert converged
        # The tag kernel stops at a minimum: the array kernel started there
        # neither moves it nor lowers its objective.
        if converged:
            polished = levenberg_marquardt(fun, x.copy())
            assert float(np.hypot(*(polished.x - x))) <= 1e-6
            assert objective <= polished.objective * (1 + 1e-9) + 1e-12
        # Where both stop at the same point, the tag kernel's objective is no
        # higher. From the same start the two may also stop at different
        # local minima, either of them the lower one.
        if float(np.hypot(*(x - ref.x))) <= 1e-6:
            assert objective <= ref.objective * (1 + 1e-9) + 1e-12

    def test_start_on_an_anchor_converges(self):
        # The range to anchor 0 is short against the others, so the residuals
        # stay large at the optimum and Gauss-Newton converges only linearly:
        # the array kernel stops at the cap, objective 1.24472e-3.
        anchors, ranges = [(0.0, 0.0), (0.0, 2.0), (2.0, 0.0)], [0.05, 2.0, 2.0]
        fun = tag_residuals([Point2(*a) for a in anchors], ranges)
        ref = levenberg_marquardt(fun, np.zeros(2))
        assert not ref.converged and ref.iterations == MAX_ITERATIONS
        res = fit_from(anchors, ranges, (0.0, 0.0))
        assert res.status[0] == CONVERGED
        _, grad = objective_and_gradient(fun, res.position[0])
        assert float(np.abs(grad).max()) <= 1e-9
        assert res.objective[0] < ref.objective

    def test_indefinite_curvature_takes_the_gauss_newton_step(self):
        # Near the midpoint of two anchors 4 m apart, ranged at 3 m each, the
        # objective falls away from the baseline (both residuals are about -1
        # and shrink as the point leaves it): the Hessian is indefinite, so
        # the step matrix must be J^T J.
        terms = [(0.0, 0.0, 3.0), (4.0, 0.0, 3.0)]
        f, g0, g1, h00, h01, h11 = point_normal_equations(terms, 2.0, 0.1)
        dx, dy = 2.0, 0.1
        d = math.hypot(dx, dy)
        jtj = 2 * (dx / d) ** 2, 0.0, 2 * (dy / d) ** 2
        assert (h00, h01, h11) == pytest.approx(jtj, abs=1e-15)
        assert f == pytest.approx(2 * (d - 3.0) ** 2)

    def test_convex_point_takes_the_newton_step(self):
        # At a fit with residuals r_i the matrix is J^T J plus the sum of
        # r_i/d_i (I - u_i u_i^T).
        terms = [(0.0, 0.0, 5.5), (8.0, 0.0, 5.2), (0.0, 9.0, 5.9)]
        x, y = 3.0, 4.0
        h = np.zeros((2, 2))
        for ax, ay, t in terms:
            v = np.array([x - ax, y - ay])
            d = float(np.hypot(*v))
            u = v / d
            h += np.outer(u, u) + (d - t) / d * (np.eye(2) - np.outer(u, u))
        assert np.linalg.eigvalsh(h).min() > 0.0
        _, _, _, h00, h01, h11 = point_normal_equations(terms, x, y)
        assert [h00, h01, h11] == pytest.approx([h[0, 0], h[0, 1], h[1, 1]],
                                                abs=1e-12)

    def test_exact_ranges_recover_the_point(self):
        anchors = [(0.0, 0.0), (9.0, 0.0), (16.0, 3.0), (2.0, 19.0)]
        tag = np.array([7.0, 8.0])
        ranges = [float(np.hypot(*(tag - a))) for a in anchors]
        res = fit_from(anchors, ranges, (5.0, 5.0))
        assert res.status[0] == CONVERGED
        assert res.position[0] == pytest.approx(tag, abs=1e-8)

    def test_zero_gradient_start_returns_immediately(self):
        anchors = [(0.0, 0.0), (6.0, 0.0), (3.0, 6.0)]
        ranges = [float(np.hypot(3.0 - x, 2.0 - y)) for x, y in anchors]
        res = fit_from(anchors, ranges, (3.0, 2.0))
        assert res.status[0] == CONVERGED
        assert res.iterations[0] == 0
        assert res.objective[0] <= 1e-28
        assert res.position[0].tolist() == [3.0, 2.0]

    def test_iteration_cap_flags_not_converged(self):
        anchors = [(0.0, 0.0), (60.0, 0.0), (30.0, 60.0)]
        ranges = [float(np.hypot(100.0 - x, -50.0 - y)) for x, y in anchors]
        res = fit_from(anchors, ranges, (0.0, 1.0), max_iterations=1)
        assert res.status[0] == NOT_CONVERGED
        assert res.iterations[0] == 1

    def test_singular_update_raises(self):
        res = fit_from([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
                        [math.nan, 1.0, 1.0], (0.5, 0.5))
        assert res.status[0] == SINGULAR
        with pytest.raises(SingularUpdate):
            raise res.error(0)
