import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (GOLDEN_FRAME, GOLDEN_TAG_RANGES, GOLDEN_TAG_WORLD,
                      GOLDEN_WORLD, offset, result_repr)
from oracles import translation_errors
from uwbcal.autocalib import calibrate
from uwbcal.errors import DegenerateGeometry
from uwbcal.geometry import distance, rotation_error, wrap_angle
from uwbcal.multilateration import locate_tag
from uwbcal.protocol import run_calibration_round
from uwbcal.ranging import reference_model

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
points = st.tuples(coords, coords)


class TestDistance:
    def test_identity_case(self):
        assert distance((0, 0), (0, 0)) == 0.0

    def test_axis_aligned(self):
        assert distance((2, 3), (11, 3)) == 9.0

    def test_general(self):
        # 7-8 offset: sqrt(49 + 64)
        assert distance((2, 3), (9, 11)) == pytest.approx(
            math.sqrt(113), rel=1e-15)
        assert distance((2, 3), (9, 11)) == pytest.approx(
            10.630146, abs=1e-6)

    @given(points, points)
    def test_non_negative_and_symmetric(self, p, q):
        assert distance(p, q) >= 0.0
        assert distance(p, q) == distance(q, p)

    @given(points)
    def test_identity_of_indiscernibles(self, p):
        assert distance(p, p) == 0.0

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        slack = 1e-9 * (1.0 + distance(a, b) + distance(b, c))
        assert distance(a, c) <= distance(a, b) + distance(b, c) + slack


class TestRotationError:
    def test_on_axis_exact_zero(self):
        assert rotation_error((9.0, 0.0)) == 0.0

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_zero_for_any_positive_baseline(self, d):
        assert rotation_error((d, 0.0)) == 0.0

    def test_small_angle(self):
        assert rotation_error((9.0, 0.09)) == pytest.approx(
            math.atan2(0.09, 9.0))
        assert rotation_error((9.0, 0.09)) == pytest.approx(
            0.0099995, abs=1e-6)

    def test_quarter_turn(self):
        assert rotation_error((0.0, 5.0)) == pytest.approx(math.pi / 2)

    def test_origin_raises(self):
        with pytest.raises(DegenerateGeometry):
            rotation_error((0.0, 0.0))

    def test_range_is_half_open(self):
        assert rotation_error((-1.0, 0.0)) == pytest.approx(math.pi)
        assert -math.pi < rotation_error((-1.0, -1e-12)) <= math.pi


class TestWrapAngle:
    @given(st.floats(min_value=-50, max_value=50))
    def test_wraps_into_half_open_interval(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        # same angle modulo 2*pi
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)


class TestTranslationErrors:
    def test_exact_estimates_give_zero(self, golden_frame, golden_world):
        errors = translation_errors(golden_frame, golden_world,
                                    golden_world[0])
        assert errors == [0.0] * 5

    def test_three_four_five(self):
        errors = translation_errors([(0.3, 0.4)], [(10, 10)],
                                    (10, 10))
        assert errors[0] == pytest.approx(0.5)

    def test_invariant_under_world_translation(self, golden_frame,
                                               golden_world):
        shift = (-123.4, 56.7)
        est = [offset(p, 0.05, -0.02) for p in golden_frame]
        base = translation_errors(est, golden_world, golden_world[0])
        moved = translation_errors(est, [offset(p, *shift)
                                         for p in golden_world],
                                   offset(golden_world[0], *shift))
        assert base == pytest.approx(moved, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            translation_errors([(0, 0)], [], (0, 0))
        with pytest.raises(ValueError):
            translation_errors([], [], (0, 0))


# The same points as lists, tuples and ndarray.tolist() rows.
POINT_FORMS = {
    "list": lambda pts: [list(p) for p in pts],
    "tuple": lambda pts: [tuple(p) for p in pts],
    "tolist": lambda pts: np.array([tuple(p) for p in pts]).tolist(),
}
PRIOR = [(p[0] + 0.1 * (-1) ** i, p[1] - 0.05 * i)
         for i, p in enumerate(GOLDEN_WORLD)]


def _round(form):
    return run_calibration_round(5, 5, form(GOLDEN_WORLD), reference_model(),
                                 np.random.default_rng(3))


def _round_stats(form):
    stats, latency = _round(form)
    return stats._mean.tolist(), stats._std.tolist(), latency


CALLEES = {
    "distance": lambda form: [distance(*form([p, GOLDEN_TAG_WORLD]))
                              for p in GOLDEN_WORLD],
    "translation_errors": lambda form: translation_errors(
        form(PRIOR), form(GOLDEN_WORLD), form(GOLDEN_WORLD)[1]),
    "locate_tag": lambda form: (
        locate_tag(form(GOLDEN_FRAME), GOLDEN_TAG_RANGES),
        locate_tag(form(GOLDEN_FRAME), GOLDEN_TAG_RANGES,
                   guess=form([(6.5, 8.5)])[0])),
    "run_calibration_round": _round_stats,
    "calibrate_prior": lambda form: result_repr(calibrate(
        _round(form)[0], reference_model(), prior=form(PRIOR))),
}


@pytest.mark.parametrize("callee", sorted(CALLEES))
def test_any_xy_pairs_give_identical_results(callee):
    results = {name: repr(CALLEES[callee](form))
               for name, form in POINT_FORMS.items()}
    assert len(set(results.values())) == 1, results
