import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from uwbcal.autocalib import DistanceStatsMatrix, calibrate
from uwbcal.errors import NotConverged, SingularUpdate
from uwbcal.leastsq import (COINCIDENT_EPS, MAX_ITERATIONS, failure,
                            levenberg_marquardt, levenberg_marquardt_batch,
                            range_residuals)
from uwbcal.multilateration import (CONVERGED, NOT_CONVERGED, SINGULAR,
                                    _anchor_sum, _equations, _residuals,
                                    solve_fixes)
from uwbcal.ranging import RangingModel
from uwbcal.sim import DEFAULT_ANCHOR_LAYOUT
from oracles import objective_and_gradient, tag_residuals


def quadratic_bowl(target):
    def fun(x):
        return x - target, np.eye(len(target)), np.abs(x)
    return fun


class TestRangeResiduals:
    def test_nudges_a_coincident_offset_in_place(self):
        # the tag kernel's (P, N) offsets
        dx = np.array([[3.0, 0.0, -6.0], [1e-13, 5.0, 0.0]])
        dy = np.array([[4.0, 0.0, 8.0], [-1e-13, 12.0, -1.0]])
        r, dist = range_residuals(dx, dy, np.full((2, 3), 5.0))
        assert dx.tolist() == [[3.0, COINCIDENT_EPS, -6.0],
                               [COINCIDENT_EPS, 5.0, 0.0]]
        assert dy.tolist() == [[4.0, 0.0, 8.0], [0.0, 12.0, -1.0]]
        assert dist.tolist() == [[5.0, COINCIDENT_EPS, 10.0],
                                 [COINCIDENT_EPS, 13.0, 1.0]]
        assert r.tolist() == (dist - 5.0).tolist()

    def test_nudges_strided_columns_in_place(self):
        # the anchor network's (m, 2) differences, passed as column views
        diff = np.array([[3.0, 4.0], [0.0, 0.0], [-6.0, 8.0]])
        r, dist = range_residuals(diff[:, 0], diff[:, 1],
                                  np.array([5.0, 1.0, 9.0]))
        assert diff.tolist() == [[3.0, 4.0], [COINCIDENT_EPS, 0.0],
                                 [-6.0, 8.0]]
        assert dist.tolist() == [5.0, COINCIDENT_EPS, 10.0]
        assert r.tolist() == [0.0, COINCIDENT_EPS - 1.0, 1.0]


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
            return r, jac, np.abs(np.tanh(a @ x))

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
            return np.array([np.nan]), np.array([[np.nan]]), np.ones(1)

        with pytest.raises(SingularUpdate):
            levenberg_marquardt(fun, np.array([1.0]))

    @pytest.mark.parametrize("step", [[np.nan, 1.0], [1.0, np.nan],
                                      [-np.inf, 1.0], [1.0, np.inf]])
    def test_non_finite_step_grows_damping_to_singular_update(
            self, monkeypatch, step):
        # a finite problem whose solve returns a NaN or infinite entry: each
        # try grows the damping tenfold without evaluating a trial point
        damping, evaluations = [], []

        def solve(a, b):
            damping.append(a[0, 0] - 1.0)
            assert a[0, 1] == a[1, 0] == 0.0 and a[1, 1] - 1.0 == damping[-1]
            return np.array(step)

        def fun(x):
            evaluations.append(x.copy())
            return x - 1.0, np.eye(2), np.abs(x)

        monkeypatch.setattr(np.linalg, "solve", solve)
        with pytest.raises(SingularUpdate):
            levenberg_marquardt(fun, np.zeros(2))
        assert len(evaluations) == 1
        assert damping == pytest.approx([1e-3 * 10.0 ** k for k in range(18)],
                                        rel=1e-9)

    def test_an_infinite_objective_ends_at_the_damping_limit(self):
        # residuals near 1e160 whose squares overflow at every iterate: the
        # float floor overflows too, but no step is taken at it, so every
        # kernel rejects every step until the damping passes DAMPING_MAX
        def fun(x):
            r = np.array([1e160 + x[0], 1e160 - x[0] + 1e150])
            return r, np.array([[1.0], [-1.0]]), np.abs(r)

        with np.errstate(over="ignore"):
            ref = levenberg_marquardt(fun, np.zeros(1))
            batch = levenberg_marquardt_batch(batched([fun]), np.zeros((1, 1)))
        assert (ref.converged, ref.iterations, ref.objective) == \
            (False, 18, math.inf)
        assert (batch.status[0], batch.iterations[0], batch.objective[0]) == \
            (NOT_CONVERGED, 18, math.inf)
        # the tag kernel: ranges of 1e160 to three anchors
        tag = fit_from([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], [1e160] * 3,
                       (1.0, 1.0))
        assert (tag.status[0], tag.iterations[0], tag.objective[0]) == \
            (NOT_CONVERGED, 18, math.inf)


class TestFailure:
    @pytest.mark.parametrize("status,noun,iterations,cap,error,message", [
        (SINGULAR, "refinement", 7, 100, SingularUpdate,
         "normal equations unsolvable at maximum damping"),
        (SINGULAR, "tag fix", 100, 100, SingularUpdate,
         "normal equations unsolvable at maximum damping"),
        (NOT_CONVERGED, "refinement", 100, 100, NotConverged,
         "refinement stopped after 100 iterations"),
        (NOT_CONVERGED, "tag fix", 18, 100, NotConverged,
         "tag fix stopped after 18 iterations at the damping limit (1e+14)"),
        (NOT_CONVERGED, "refinement", 3, 3, NotConverged,
         "refinement stopped after 3 iterations"),
    ])
    def test_each_status_has_one_message(self, status, noun, iterations, cap,
                                         error, message):
        # the texts every kernel's callers raise, byte for byte
        result = object()
        got = failure(status, noun, iterations, cap, result)
        assert type(got) is error
        assert str(got) == message
        if error is NotConverged:
            assert got.result is result

    def test_a_converged_status_is_no_error(self):
        assert failure(CONVERGED, "refinement", 5, 100, object()) is None


def tanh_problems(rng, k):
    """K scalar residual functions r = tanh(A x) - b of 8 residuals and 3
    unknowns, the last one NaN everywhere, and their starts. J is
    column-major, as the anchor network's is, so that J^T is C-contiguous
    and J^T J one BLAS call alike in both kernels."""
    funs = []
    for _ in range(k - 1):
        a, b = rng.normal(size=(8, 3)), rng.uniform(-0.7, 0.7, 8)

        def fun(x, a=a, b=b):
            r = np.tanh(a @ x) - b
            return (r, np.asfortranarray(a * (1.0 / np.cosh(a @ x) ** 2)
                                         [:, None]),
                    np.abs(np.tanh(a @ x)))
        funs.append(fun)
    funs.append(lambda x: (np.full(8, np.nan), np.full((8, 3), np.nan),
                           np.ones(8)))
    return funs, rng.normal(size=(k, 3))


def batched(funs):
    """The batch kernel's residual function over scalar ones."""
    def fun(x, live):
        r, jac, dist = zip(*(funs[k](row) for k, row in zip(live, x)))
        return (np.array(r), np.array(jac).transpose(0, 2, 1),
                np.array(dist))
    return fun


class TestLevenbergMarquardtBatch:
    @pytest.mark.parametrize("cap", [MAX_ITERATIONS, 3])
    def test_matches_the_scalar_kernel_problem_by_problem(self, cap):
        # the same iterations, stop, iterate and objective, bit for bit:
        # both kernels form every product, dot product and solve as one
        # BLAS or LAPACK call per problem on the same layouts
        funs, x0 = tanh_problems(np.random.default_rng(cap), 12)
        batch = levenberg_marquardt_batch(batched(funs), x0, cap)
        # the NaN problem ends SINGULAR after 18 rejected steps; a cap of 3
        # stops problems short
        assert set(batch.status) == {CONVERGED, SINGULAR} if cap > 18 \
            else NOT_CONVERGED in batch.status
        for k, fun in enumerate(funs):
            if batch.status[k] == SINGULAR:
                with pytest.raises(SingularUpdate):
                    levenberg_marquardt(fun, x0[k], cap)
                continue
            ref = levenberg_marquardt(fun, x0[k], cap)
            assert batch.iterations[k] == ref.iterations
            assert (batch.status[k] == CONVERGED) == ref.converged
            assert batch.x[k].tobytes() == ref.x.tobytes()
            assert batch.objective[k].tobytes() == \
                np.float64(ref.objective).tobytes()

    def test_a_result_does_not_depend_on_the_batch(self):
        rng = np.random.default_rng(6)
        funs, x0 = tanh_problems(rng, 6)

        def rows(indices, cap=MAX_ITERATIONS):
            b = levenberg_marquardt_batch(batched([funs[k] for k in indices]),
                                          x0[indices], cap)
            return [(b.x[p].tobytes(), b.objective[p].tobytes(),
                     int(b.iterations[p]), int(b.status[p]))
                    for p in range(len(indices))]

        for cap in (MAX_ITERATIONS, 3):
            alone = [rows([k], cap)[0] for k in range(6)]
            order = rng.permutation(6)
            assert rows(range(6), cap) == alone
            assert rows(order, cap) == [alone[k] for k in order]
            assert rows([0, 1], cap) + rows([2, 3, 4, 5], cap) == alone


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
    problems = np.array(terms, dtype=float).T[:, :, None]
    at_xy = _residuals(np.array([[x, y]]), problems)
    r = at_xy[-1]
    # one row x, y, f, phi, g0, g1, h00, h01, h11
    row, = _equations(*at_xy)
    assert row[2] == _anchor_sum(r * r)[0]
    return row[[2, 4, 5, 6, 7, 8]].tolist()


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
        fun = tag_residuals([tuple(a) for a in anchors], ranges)
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
        fun = tag_residuals([tuple(a) for a in anchors], ranges)
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


def scaled_iterations(scale):
    """Iterations of a bootstrap and a warm calibration of the 5-anchor
    default layout and of a 3-tag batch inside it, all in units ``scale``
    times larger: every distance and range with the same relative noise of
    1e-3, and the warm prior the same layout offset by the same amounts."""
    layout = np.array([tuple(p) for p in DEFAULT_ANCHOR_LAYOUT])
    tags = np.array([(9.0, 10.0), (12.0, 14.0), (6.0, 16.0)])
    rng = np.random.default_rng(0)
    noise = 1.0 + 1e-3 * rng.standard_normal((5, 5))
    prior = (layout + rng.normal(0.0, 0.3, layout.shape)) * scale
    tag_noise = 1.0 + 1e-3 * rng.standard_normal((3, 5))
    truth = layout * scale
    d = DistanceStatsMatrix(5)
    for i, j in itertools.permutations(range(5), 2):
        d.set_pair(i, j, float(np.hypot(*(truth[i] - truth[j])) * noise[i, j]),
                   0.0, 1)
    model = RangingModel.identity()
    boot = calibrate(d, model)
    warm = calibrate(d, model, prior=prior.tolist())
    ranges = np.hypot(*(tags[:, None] * scale - truth).transpose(2, 0, 1))
    batch = solve_fixes(np.tile(truth[:, 0], (3, 1)),
                        np.tile(truth[:, 1], (3, 1)), ranges * tag_noise)
    assert (batch.status == CONVERGED).all()
    return [boot.iterations, warm.iterations, *batch.iterations.tolist()]


@pytest.mark.parametrize("scale", [1e3, 1e5, 1e7, 1e9])
def test_iterations_do_not_grow_with_the_scale(scale):
    # Both kernels stop where a step's predicted reduction falls within the
    # float floor of the objective, which scales with the problem, so the
    # same problem in larger units takes as many iterations, give or take
    # one; an absolute step tolerance in meters made them crawl at 1e5 m
    # and beyond.
    unit = scaled_iterations(1.0)
    assert all(its <= ref + 1
               for its, ref in zip(scaled_iterations(scale), unit)), \
        (scaled_iterations(scale), unit)
