
import numpy as np
import pytest

from uwbcal.errors import CollinearAnchors
from uwbcal.geometry import Point2, distance
from uwbcal.leastsq import objective_and_gradient
from uwbcal.multilateration import (linear_initial_guess, locate_tag,
                                    tag_residuals)
from conftest import GOLDEN_FRAME, GOLDEN_TAG_FRAME, GOLDEN_TAG_RANGES


def ranges_from(anchors, tag):
    return [distance(tag, a) for a in anchors]


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
