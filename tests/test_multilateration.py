
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from uwbcal.errors import CollinearAnchors, NotConverged, SingularUpdate
from uwbcal.geometry import Point2, distance
from uwbcal.leastsq import objective_and_gradient
from uwbcal.multilateration import (COLLINEAR, CONVERGED, NOT_CONVERGED,
                                    SINGULAR, linear_initial_guess,
                                    locate_tag, solve_fixes, tag_residuals)
from conftest import GOLDEN_FRAME, GOLDEN_TAG_FRAME, GOLDEN_TAG_RANGES


def ranges_from(anchors, tag):
    return [distance(tag, a) for a in anchors]


def linear_system(anchors, ranges):
    """The array form of the linearized system, as numpy states it."""
    a = np.array([(p.x, p.y) for p in anchors])
    r = np.asarray(ranges)
    lhs = 2.0 * (a[1:] - a[0])
    rhs = (r[0] ** 2 - r[1:] ** 2
           + (a[1:] ** 2).sum(axis=1) - (a[0] ** 2).sum())
    return lhs, rhs


coordinate = st.floats(min_value=-30.0, max_value=30.0)
points = st.builds(Point2, coordinate, coordinate)
noisy_ranges = st.lists(st.floats(min_value=0.05, max_value=60.0),
                        min_size=6, max_size=6)


class TestLinearInitialGuess:
    def test_exact_at_zero_noise(self):
        anchors = [Point2(0, 0), Point2(9, 0), Point2(16, 3)]
        tag = Point2(7, 8)
        guess = linear_initial_guess(anchors, ranges_from(anchors, tag))
        assert guess.x == pytest.approx(7.0, abs=1e-9)
        assert guess.y == pytest.approx(8.0, abs=1e-9)

    def test_tag_at_anchor(self):
        anchors = GOLDEN_FRAME[:4]
        tag = anchors[2]
        # zero range to anchor 2 is not allowed; offset epsilon instead
        near = Point2(tag.x + 1e-9, tag.y)
        guess = linear_initial_guess(anchors, ranges_from(anchors, near))
        assert distance(guess, tag) <= 1e-6

    def test_collinear_raises(self):
        anchors = [Point2(0, 0), Point2(5, 0), Point2(10, 0)]
        with pytest.raises(CollinearAnchors):
            linear_initial_guess(anchors, [1.0, 4.0, 9.0])

    def test_nearly_collinear_raises(self):
        anchors = [Point2(0, 0), Point2(5, 1e-9), Point2(10, 0)]
        with pytest.raises(CollinearAnchors):
            linear_initial_guess(anchors, [1.0, 4.0, 9.0])

    @settings(deadline=None)
    @given(st.lists(points, min_size=3, max_size=6), noisy_ranges)
    def test_matches_numpy_lstsq(self, anchors, ranges):
        ranges = ranges[:len(anchors)]
        lhs, rhs = linear_system(anchors, ranges)
        singular = np.linalg.svd(lhs, compute_uv=False)
        assume(singular[0] < 1e6 * singular[-1])  # condition below 1e6
        expected, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        guess = linear_initial_guess(anchors, ranges)
        err = float(np.hypot(guess.x - expected[0], guess.y - expected[1]))
        assert err <= 1e-9 * max(1.0, float(np.hypot(*expected)))

    @settings(deadline=None)
    @given(st.integers(min_value=3, max_value=6),
           st.floats(min_value=0.0, max_value=2 * np.pi),
           st.lists(st.floats(min_value=-20.0, max_value=20.0),
                    min_size=6, max_size=6, unique=True),
           st.floats(min_value=-15.0, max_value=0.0),
           noisy_ranges)
    def test_collinear_decision_matches_numpy(self, n, angle, along,
                                              log_offset, ranges):
        # n anchors on a line through the origin, the last lifted off it
        c, s = math.cos(angle), math.sin(angle)
        anchors = [Point2(c * t, s * t) for t in along[:n]]
        lift = 10.0 ** log_offset
        anchors[-1] = anchors[-1] + Point2(-s * lift, c * lift)
        ranges = ranges[:n]
        lhs, _ = linear_system(anchors, ranges)
        s_max, s_min = np.linalg.svd(lhs, compute_uv=False)[[0, -1]]
        collinear = s_max > 1e9 * s_min  # condition above 1e9
        assume(collinear or s_max < 1e7 * s_min)
        if collinear:
            with pytest.raises(CollinearAnchors):
                linear_initial_guess(anchors, ranges)
        else:
            linear_initial_guess(anchors, ranges)

    def test_overflowing_squares_raise_no_overflow_error(self):
        # the squares overflow to inf (float ** would raise OverflowError);
        # Point2 then refuses the non-finite solution
        anchors = [Point2(0, 0), Point2(1e200, 0), Point2(0, 1e200)]
        with pytest.raises(ValueError, match="non-finite"):
            linear_initial_guess(anchors, [1e200, 1e200, 1e200])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            linear_initial_guess([Point2(0, 0), Point2(1, 0)], [1.0, 1.0])
        with pytest.raises(ValueError):
            linear_initial_guess([Point2(0, 0), Point2(1, 0), Point2(0, 1)],
                                 [1.0, 1.0])
        with pytest.raises(ValueError):
            linear_initial_guess([Point2(0, 0), Point2(1, 0), Point2(0, 1)],
                                 [1.0, -1.0, 1.0])


class TestLocateTag:
    def test_golden_layout_fix(self):
        fix = locate_tag(GOLDEN_FRAME, GOLDEN_TAG_RANGES)
        assert distance(fix.position, GOLDEN_TAG_FRAME) <= 1e-6
        assert fix.rms_residual <= 1e-9
        assert fix.n_anchors_used == 5

    def test_three_anchor_centroid(self):
        anchors = [Point2(0, 0), Point2(6, 0), Point2(3, 6)]
        centroid = Point2(3, 2)
        fix = locate_tag(anchors, ranges_from(anchors, centroid))
        assert distance(fix.position, centroid) <= 1e-9

    def test_exact_guess_is_returned_unchanged(self):
        anchors = GOLDEN_FRAME[:4]
        tag = Point2(7, 8)
        fix = locate_tag(anchors, ranges_from(anchors, tag), guess=tag)
        assert fix.position == tag  # zero gradient at the start: no step taken
        assert fix.rms_residual == 0.0

    def test_generate_and_recover(self):
        rng = np.random.default_rng(9)
        recovered = 0
        for _ in range(50):
            anchors = [Point2(0, 0), Point2(rng.uniform(5, 12), 0),
                       Point2(rng.uniform(2, 10), rng.uniform(4, 12)),
                       Point2(rng.uniform(-6, 2), rng.uniform(3, 10))]
            tag = Point2(rng.uniform(0, 6), rng.uniform(1, 6))
            if min(ranges_from(anchors, tag)) < 0.2:
                continue
            fix = locate_tag(anchors, ranges_from(anchors, tag))
            assert distance(fix.position, tag) <= 1e-6
            recovered += 1
        assert recovered >= 40

    def test_fourth_anchor_never_hurts_at_zero_noise(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            anchors = [Point2(0, 0), Point2(rng.uniform(5, 10), 0),
                       Point2(rng.uniform(2, 9), rng.uniform(4, 10)),
                       Point2(rng.uniform(-5, 1), rng.uniform(2, 9))]
            tag = Point2(rng.uniform(0.5, 5), rng.uniform(1, 5))
            if min(ranges_from(anchors, tag)) < 0.2:
                continue
            err3 = distance(locate_tag(anchors[:3],
                                       ranges_from(anchors[:3], tag)).position,
                            tag)
            err4 = distance(locate_tag(anchors,
                                       ranges_from(anchors, tag)).position,
                            tag)
            assert err4 <= err3 + 1e-9

    def test_objective_never_above_guess(self):
        rng = np.random.default_rng(31)
        anchors = GOLDEN_FRAME[:4]
        for _ in range(20):
            tag = Point2(rng.uniform(1, 12), rng.uniform(1, 12))
            ranges = [r + rng.normal(0, 0.1)
                      for r in ranges_from(anchors, tag)]
            if min(ranges) <= 0.05:
                continue
            guess = tag + Point2(*rng.normal(0, 1.0, 2))
            fun = tag_residuals(anchors, ranges)
            g_guess, _ = objective_and_gradient(
                fun, np.array([guess.x, guess.y]))
            fix = locate_tag(anchors, ranges, guess=guess)
            g_fix, _ = objective_and_gradient(
                fun, np.array([fix.position.x, fix.position.y]))
            assert g_fix <= g_guess + 1e-12

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(14)
        anchors = GOLDEN_FRAME
        for _ in range(20):
            ranges = [max(0.1, r + rng.normal(0, 0.2))
                      for r in ranges_from(anchors, Point2(6, 7))]
            p = np.array([rng.uniform(0, 14), rng.uniform(0, 14)])
            fun = tag_residuals(anchors, ranges)
            _, grad = objective_and_gradient(fun, p)
            h = 1e-6
            num = np.zeros(2)
            for k in range(2):
                up, down = p.copy(), p.copy()
                up[k] += h
                down[k] -= h
                num[k] = (objective_and_gradient(fun, up)[0]
                          - objective_and_gradient(fun, down)[0]) / (2 * h)
            scale = max(float(np.abs(num).max()), 1e-12)
            assert float(np.abs(grad - num).max()) / scale < 1e-5


def random_problems(rng, p, n):
    """``p`` noisy fixes against ``n`` anchors, ``(p, n)`` arrays, with
    every status among them: problem 1 has collinear anchors, problem 2 a
    NaN range, problem 3 a tag on anchor 0 (range 1e-6)."""
    ax, ay = rng.uniform(0.0, 20.0, (2, p, n))
    tag = rng.uniform(4.0, 16.0, (p, 2, 1))
    ranges = np.hypot(tag[:, 0] - ax, tag[:, 1] - ay)
    ranges = np.abs(ranges + rng.normal(0.0, 0.06, (p, n))) + 0.01
    ay[1] = 3.0 + 0.5 * ax[1]
    ranges[2, -1] = math.nan
    ax[3, 0], ay[3, 0] = tag[3, :, 0]
    ranges[3, 0] = 1e-6
    return ax, ay, ranges


def rows(batch, order=None):
    """Every result of a batch, as bytes per problem (NaN-exact)."""
    fields = (batch.position, batch.objective, batch.iterations,
              batch.status, batch.condition)
    return [b"".join(f[k].tobytes() for f in fields)
            for k in (range(len(batch.status)) if order is None else order)]


class TestSolveFixes:
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 64])
    def test_a_result_does_not_depend_on_the_batch(self, n):
        rng = np.random.default_rng(n)
        ax, ay, ranges = random_problems(rng, 40, n)
        starts = rng.uniform(0.0, 20.0, (40, 2))
        starts[4] = ax[4, 1], ay[4, 1]  # a start on an anchor
        for start in (None, starts):
            whole = rows(solve_fixes(ax, ay, ranges, start))
            statuses = {CONVERGED, SINGULAR} | (
                {COLLINEAR} if start is None else set())
            assert statuses <= set(solve_fixes(ax, ay, ranges, start).status)
            alone = [rows(solve_fixes(ax[k:k + 1], ay[k:k + 1],
                                      ranges[k:k + 1],
                                      None if start is None
                                      else start[k:k + 1]))[0]
                     for k in range(40)]
            assert alone == whole
            order = rng.permutation(40)
            shuffled = solve_fixes(ax[order], ay[order], ranges[order],
                                   None if start is None else start[order])
            assert rows(shuffled, np.argsort(order)) == whole
            for part in np.split(order, [3, 10, 11, 29]):
                got = rows(solve_fixes(ax[part], ay[part], ranges[part],
                                       None if start is None
                                       else start[part]))
                assert got == [whole[k] for k in part]

    def test_locate_tag_is_the_kernel_on_one_problem(self):
        rng = np.random.default_rng(7)
        ax, ay, ranges = random_problems(rng, 12, 4)
        batch = solve_fixes(ax, ay, ranges)
        for k in (0, *range(4, 12)):
            fix = locate_tag(list(zip(ax[k], ay[k])), list(ranges[k]))
            assert tuple(fix.position) == tuple(batch.position[k])
            assert fix.rms_residual == math.sqrt(batch.objective[k] / 4)

    def test_statuses_map_to_the_errors_locate_tag_raises(self):
        rng = np.random.default_rng(8)
        ax, ay, ranges = random_problems(rng, 6, 4)
        batch = solve_fixes(ax, ay, ranges)
        assert batch.status[:3].tolist() == [CONVERGED, COLLINEAR, SINGULAR]
        assert batch.error(0) is None
        collinear, singular = batch.error(1), batch.error(2)
        assert isinstance(collinear, CollinearAnchors)
        assert str(collinear) == ("anchor layout is (near-)collinear, "
                                  f"condition {batch.condition[1]:.3g}")
        assert batch.condition[1] > 1e8
        assert isinstance(singular, SingularUpdate)
        for k, error in ((1, collinear), (2, singular)):
            with pytest.raises(type(error), match=re.escape(str(error))):
                locate_tag(list(zip(ax[k], ay[k])), list(ranges[k]))
        capped = solve_fixes(ax, ay, ranges, max_iterations=1)
        assert capped.status[0] == NOT_CONVERGED
        assert capped.iterations[0] == 1
        not_converged = capped.error(0, result="best fix")
        assert isinstance(not_converged, NotConverged)
        assert str(not_converged) == "tag fix stopped after 1 iterations"
        assert not_converged.result == "best fix"
