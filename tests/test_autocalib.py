import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uwbcal.autocalib import (CalibrationResult, DistanceStatsMatrix,
                              PairStats, _free_columns, _residual_layout,
                              calibrate, initial_placement, load_distance_csv,
                              refine_lse, solve_networks, solve_rounds)
from uwbcal.errors import (CsvFormatError, DegenerateGeometry, NotConverged,
                           SingularUpdate, UwbCalError)
from uwbcal.geometry import distance, rotation_error
from uwbcal.leastsq import (DAMPING_MAX, MAX_ITERATIONS, LeastSquaresResult,
                            levenberg_marquardt)
from uwbcal.multilateration import locate_tag
from uwbcal.protocol import run_calibration_round
from uwbcal.ranging import RangingModel, reference_model
from uwbcal.sim import DEFAULT_ANCHOR_LAYOUT
from conftest import (GOLDEN_FRAME, dense_network_residuals, exact_matrix,
                      offset, result_repr, rotated, sym_mean, unordered_pairs)
from oracles import (missing_pairs, network_residuals,
                     objective_and_gradient, save_distance_csv)


def free_vector(positions):
    """The free coordinates of ``positions`` in the bootstrap gauge: all
    but anchor 0's and anchor 1's y."""
    flat = [c for p in positions[1:] for c in p]
    del flat[1]
    return np.array(flat)


def in_gauge(points):
    """``points`` with anchor 1 moved onto the x-axis."""
    points = list(points)
    points[1] = (points[1][0], 0.0)
    return points


def fd_gradient(fun, x, h=1e-6):
    grad = np.zeros_like(x)
    for k in range(len(x)):
        up, down = x.copy(), x.copy()
        up[k] += h
        down[k] -= h
        grad[k] = (fun(up) - fun(down)) / (2 * h)
    return grad


class TestDistanceStatsMatrix:
    def test_directed_entries_and_symmetrization(self):
        m = DistanceStatsMatrix(3)
        m.set_pair(0, 1, 10.0, 0.2, 1)
        m.set_pair(1, 0, 11.0, 0.4, 3)
        m.set_pair(0, 2, 5.0, 0.0, 2)
        m.set_pair(1, 2, 6.0, 0.0, 2)
        # count-weighted: (1*10 + 3*11) / 4
        pairs, targets = m.sym_table()
        assert pairs == ((0, 1), (0, 2), (1, 2))
        assert targets[0] == pytest.approx(10.75)
        assert sym_mean(m, 0, 1) == sym_mean(m, 1, 0) == targets[0]
        assert m.pair(0, 1).count + m.pair(1, 0).count == 4
        assert m.pair(2, 0) is None
        assert missing_pairs(m) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            DistanceStatsMatrix(2)
        m = DistanceStatsMatrix(3)
        with pytest.raises(ValueError):
            m.set_pair(0, 0, 1.0, 0.0, 1)
        with pytest.raises(ValueError):
            m.set_pair(0, 1, -1.0, 0.0, 1)
        with pytest.raises(ValueError):
            m.set_pair(0, 1, 1.0, 0.0, 0)

    @pytest.mark.parametrize("i,j,mean,std,count,named", [
        ([0, 1, 2], [1, 2, 2], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], 1, "(2,2)"),
        ([0, 1, 3], [1, 2, 0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], 1, "(3,0)"),
        ([0, 1, 2], [1, 2, 0], [1.0, 0.0, -1.0], [0.0, 0.0, 0.0], 1, "(1,2)"),
        ([0, 1, 2], [1, 2, 0], [1.0, 1.0, 1.0], [0.0, 0.0, -0.1], 1, "(2,0)"),
        ([0, 1, 2], [1, 2, 0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], 0, "(0,1)"),
    ])
    def test_set_pair_names_the_first_bad_pair(self, i, j, mean, std, count,
                                               named):
        # a block stored pair by pair stops at its first bad pair, named in
        # the error, and the pairs before it are kept
        m = DistanceStatsMatrix(3)
        block = list(zip(i, j, mean, std))
        with pytest.raises(ValueError, match=re.escape(named)):
            for args in block:
                m.set_pair(*args, count)
        first_bad = next(k for k, (a, b, *_) in enumerate(block)
                         if f"({a},{b})" == named)
        for a, b, value, spread in block[:first_bad]:
            assert m.pair(a, b) == PairStats(value, spread, count)

    def test_sym_table_corrects_each_measured_direction(self):
        model = RangingModel(slope=2.0, intercept=1.0, noise_std=0.0,
                             n_samples=2)
        m = DistanceStatsMatrix(3)
        m.set_pair(0, 1, 21.0, 0.5, 4)
        m.set_pair(0, 2, 11.0, 0.0, 1)
        m.set_pair(1, 2, 7.0, 0.0, 1)
        # (m - 1) / 2 per direction; (1,0) is unmeasured and weighs nothing
        assert m.sym_table(model) == (((0, 1), (0, 2), (1, 2)),
                                      [10.0, 5.0, 3.0])
        assert m.sym_table() == (((0, 1), (0, 2), (1, 2)), [21.0, 11.0, 7.0])
        assert m.pair(0, 1) == PairStats(21.0, 0.5, 4)
        assert m.pair(1, 0) is None
        # (21 - 1) / 5e-324 overflows to inf; the unmeasured (1,0) would
        # correct to -inf, and 0 * -inf is NaN, had it not been set to 0
        model = RangingModel(slope=math.ulp(0.0), intercept=1.0,
                             noise_std=0.0, n_samples=2)
        m = DistanceStatsMatrix(3)
        m.set_pair(0, 1, 21.0, 0.5, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert m.sym_table(model) == (((0, 1),), [math.inf])


class TestInitialPlacement:
    def test_golden_layout(self):
        placed = initial_placement(exact_matrix(GOLDEN_FRAME))
        for got, want in zip(placed, GOLDEN_FRAME):
            assert got[0] == pytest.approx(want[0], abs=1e-9)
            assert got[1] == pytest.approx(want[1], abs=1e-9)

    def test_equilateral(self):
        s = 7.0
        triangle = [(0, 0), (s, 0), (s / 2, s * math.sqrt(3) / 2)]
        placed = initial_placement(exact_matrix(triangle))
        assert placed[2][0] == pytest.approx(s / 2)
        assert placed[2][1] == pytest.approx(s * math.sqrt(3) / 2)

    def test_collinear_table_gives_a_collinear_start(self):
        # exact, or with d02 read 1 ppb long so that no triangle fits, the
        # second eigenvalue is zero to rounding or clamped at 0: anchor 2
        # lies on the axis to within the square root of rounding
        d = 6.0
        m = exact_matrix([(0, 0), (d, 0), (2 * d, 0)])
        for _ in range(2):
            placed = initial_placement(m)
            assert placed[2][0] == pytest.approx(2 * d)
            assert abs(placed[2][1]) <= 1e-7 * d
            m.set_pair(0, 2, 2 * d * (1 + 1e-9), 0.0, 10 ** 6)

    def test_inconsistent_distances_give_a_start(self):
        # no triangle has these sides; the start is a plane layout all the
        # same
        m = exact_matrix(GOLDEN_FRAME[:3])
        m.set_pair(0, 2, 100.0, 0.0, 10 ** 6)  # overwhelms the (2,0) entry
        m.set_pair(1, 2, 1.0, 0.0, 10 ** 6)
        placed = initial_placement(m)
        assert all(map(math.isfinite, itertools.chain(*placed)))
        assert placed[1][0] > 0.0 and placed[2][1] >= 0.0

    def test_mirror_layout_keeps_the_gauge(self):
        # anchor 3 lies below the line from anchor 0 to anchor 1; only
        # anchor 2 is held at y >= 0
        world = [(2, 3), (11, 3), (18, 6), (12, -9)]
        frame = [(x - 2.0, y - 3.0) for x, y in world]
        result = calibrate(exact_matrix(world), RangingModel.identity())
        assert result.positions[2][1] >= 0.0
        for got, want in zip(result.positions, frame):
            assert distance(got, want) <= 1e-12

    @pytest.mark.parametrize("model, pair, target", [
        (RangingModel(1.0, 6.0, 0.0, 2), (1, 2), "-1.0"),
        (RangingModel(1e-310, 1000.0, 0.0, 2), (0, 1), "-inf"),
    ], ids=["non_positive", "non_finite"])
    def test_an_unusable_distance_names_its_pair(self, model, pair, target):
        # corrected, pair (1,2)'s 5 m reads -1 m; through a slope of
        # 1e-310 every reading corrects to -inf
        m = exact_matrix([(0, 0), (9, 0), (12, 4)])
        i, j = pair
        with pytest.raises(DegenerateGeometry, match=re.escape(
                f"anchor {j}: pair ({i},{j}) has distance {target}, which "
                f"is not positive and finite")) as err:
            calibrate(m, model)
        assert err.value.anchor_id == j

    def test_a_start_that_overflows_names_its_anchor(self):
        # finite distances near the float limit whose start lands beyond it
        big = 1.7e308
        m = DistanceStatsMatrix(4)
        for (i, j), t in zip(itertools.combinations(range(4), 2),
                             [big, big / 9 * 2, big, big, big / 9 * 2,
                              big / 9 * 2]):
            m.set_pair(i, j, t, 0.0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateGeometry,
                               match="^anchor 1: the start overflows") as err:
                initial_placement(m)
        assert err.value.anchor_id == 1

    @pytest.mark.parametrize("lacking, anchor", [
        ((0, 1), 1), ((0, 2), 2), ((1, 2), 2), ((1, 3), 3)])
    def test_an_unmeasured_reference_pair_names_its_anchor(self, lacking,
                                                           anchor):
        m = DistanceStatsMatrix(4)
        for i, j in itertools.permutations(range(4), 2):
            if {i, j} != set(lacking):
                m.set_pair(i, j, distance(GOLDEN_FRAME[i], GOLDEN_FRAME[j]),
                           0.0, 1)
        message = (rf"^anchor {anchor}: pair \({lacking[0]},{lacking[1]}\) "
                   rf"was not measured$")
        for bootstrap in (initial_placement,
                          lambda d: calibrate(d, RangingModel.identity())):
            with pytest.raises(DegenerateGeometry, match=message) as err:
                bootstrap(m)
            assert err.value.anchor_id == anchor


class TestRefineLse:
    def test_exact_start_is_fixed_point(self):
        m = exact_matrix(GOLDEN_FRAME)
        result = refine_lse(list(GOLDEN_FRAME), m)
        assert result.converged
        assert result.iterations <= 1
        assert result.rms_residual == pytest.approx(0.0, abs=1e-9)
        for got, want in zip(result.positions, GOLDEN_FRAME):
            assert distance(got, want) <= 1e-9

    def test_recovers_from_perturbed_start(self):
        # with the axis gauge fixed the minimum is unique: exact recovery
        m = exact_matrix(GOLDEN_FRAME)
        start = in_gauge([GOLDEN_FRAME[0]] + [offset(p, 0.2, 0.2)
                                              for p in GOLDEN_FRAME[1:]])
        result = refine_lse(start, m)
        assert result.converged
        for got, want in zip(result.positions, GOLDEN_FRAME):
            assert distance(got, want) <= 1e-6

    @pytest.mark.parametrize("start, message", [
        ([(0.0, 0.0), (9.0, 0.5), (16.0, 3.0), (13.0, 17.0), (2.0, 19.0)],
         "initial[1] must lie on the x-axis"),
        ([(0.5, 0.0), (9.0, 0.0), (16.0, 3.0), (13.0, 17.0), (2.0, 19.0)],
         "initial[0] must be the origin")], ids=["anchor_1", "anchor_0"])
    def test_a_start_outside_the_gauge_raises_value_error(self, start,
                                                          message):
        with pytest.raises(ValueError, match=re.escape(message)):
            refine_lse(start, exact_matrix(GOLDEN_FRAME))

    def test_noisy_three_anchor_matches_grid_search(self):
        rng = np.random.default_rng(12)
        truth = [(0, 0), (4, 0), (1.5, 3)]
        m = DistanceStatsMatrix(3)
        for i in range(3):
            for j in range(3):
                if i != j:
                    noisy = distance(truth[i], truth[j]) + rng.normal(0, 0.03)
                    m.set_pair(i, j, noisy, 0.03, 5)
        result = refine_lse(list(truth), m)

        def objective(positions):
            total = 0.0
            for i, j in ((0, 1), (0, 2), (1, 2)):
                total += (distance(positions[i], positions[j])
                          - sym_mean(m, i, j)) ** 2
            return total

        best = objective(result.positions)
        # 1 mm brute-force grid over the 4 free coordinates around the answer
        offsets = [k * 1e-3 for k in range(-5, 6)]
        for da in itertools.product(offsets, repeat=4):
            candidate = [truth[0],
                         (result.positions[1][0] + da[0],
                          result.positions[1][1] + da[1]),
                         (result.positions[2][0] + da[2],
                          result.positions[2][1] + da[3])]
            assert objective(candidate) >= best - 1e-12

    def test_objective_never_increases(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            truth = [(0, 0), (rng.uniform(4, 10), 0),
                     (rng.uniform(1, 8), rng.uniform(2, 8)),
                     (rng.uniform(-2, 4), rng.uniform(3, 9))]
            m = DistanceStatsMatrix(4)
            for i in range(4):
                for j in range(4):
                    if i != j:
                        m.set_pair(i, j, max(
                            0.05, distance(truth[i], truth[j])
                            + rng.normal(0, 0.05)), 0.05, 5)
            start = in_gauge([truth[0]] + [offset(p, *rng.normal(0, 0.3, 2))
                                           for p in truth[1:]])
            fun = network_residuals(m)
            f_start, _ = objective_and_gradient(fun, free_vector(start))
            result = refine_lse(start, m)
            f_end, _ = objective_and_gradient(fun,
                                              free_vector(result.positions))
            assert f_end <= f_start + 1e-12

    def test_gauge_first_anchor_pinned_exactly(self):
        m = exact_matrix(GOLDEN_FRAME)
        start = in_gauge([GOLDEN_FRAME[0]] + [offset(p, 0.1, -0.1)
                                              for p in GOLDEN_FRAME[1:]])
        result = refine_lse(start, m)
        assert tuple(result.positions[0]) == (0.0, 0.0)
        assert result.positions[1][1] == 0.0

    def test_no_measured_pair_leaves_the_start(self):
        # no pairs, no residuals: the start is the minimum, at rms 0
        start = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        result = refine_lse(start, DistanceStatsMatrix(3))
        assert result.positions.tolist() == [list(p) for p in start]
        assert (result.rms_residual, result.iterations, result.converged) \
            == (0.0, 0, True)

    def test_positions_are_read_only(self):
        result = refine_lse(list(GOLDEN_FRAME), exact_matrix(GOLDEN_FRAME))
        assert result.positions.shape == (5, 2)
        with pytest.raises(ValueError, match="read-only"):
            result.positions[1, 0] = 0.0

    def test_not_converged_carries_best_result(self, monkeypatch):
        import uwbcal.autocalib as autocalib

        real = autocalib.levenberg_marquardt

        def capped(fun, x0, max_iterations):
            return real(fun, x0, max_iterations=1)

        monkeypatch.setattr(autocalib, "levenberg_marquardt", capped)
        m = exact_matrix(GOLDEN_FRAME)
        start = in_gauge([GOLDEN_FRAME[0]] + [offset(p, 0.5, 0.5)
                                              for p in GOLDEN_FRAME[1:]])
        with pytest.raises(NotConverged) as err:
            refine_lse(start, m)
        assert isinstance(err.value.result, CalibrationResult)
        assert not err.value.result.converged

    @pytest.mark.parametrize("iterations, message", [
        (MAX_ITERATIONS, f"refinement stopped after {MAX_ITERATIONS} "
                         f"iterations"),
        (18, "refinement stopped after 18 iterations at the damping limit "
             "(1e+14)"),
        (MAX_ITERATIONS - 1, f"refinement stopped after {MAX_ITERATIONS - 1}"
                             f" iterations at the damping limit (1e+14)")])
    def test_not_converged_names_what_stopped_it(self, monkeypatch,
                                                 iterations, message):
        # levenberg_marquardt stops unconverged at the iteration cap, or
        # earlier when a rejected step takes the damping past DAMPING_MAX
        import uwbcal.autocalib as autocalib

        def stopped(fun, x0, max_iterations):
            return LeastSquaresResult(np.array(x0, dtype=float), 1.0,
                                      iterations, False, 1.0)

        monkeypatch.setattr(autocalib, "levenberg_marquardt", stopped)
        m = exact_matrix(GOLDEN_FRAME)
        with pytest.raises(NotConverged) as err:
            refine_lse(list(GOLDEN_FRAME), m)
        assert str(err.value) == message
        assert err.value.result.iterations == iterations

    def test_a_tag_fix_names_the_damping_limit_alike(self):
        # ranges of 1e200 m square to inf: every step is rejected, and the
        # damping passes DAMPING_MAX after 18 iterations, short of the cap
        with pytest.raises(NotConverged) as err:
            locate_tag(GOLDEN_FRAME[:4], [1e200] * 4, guess=(0.0, 0.0))
        assert str(err.value) == ("tag fix stopped after 18 iterations at "
                                  "the damping limit (1e+14)")
        assert err.value.result.position == (0.0, 0.0)


class TestObjective:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = rng.integers(3, 6)
            truth = [(0, 0)] + [tuple(rng.uniform(-10, 10, 2).tolist())
                                for _ in range(n - 1)]
            m = DistanceStatsMatrix(n)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        m.set_pair(i, j, max(
                            0.1, distance(truth[i], truth[j])
                            + rng.normal(0, 0.1)), 0.1, 3)
            x = free_vector(truth) + rng.normal(0, 0.5, 2 * n - 3)
            fun = network_residuals(m)
            _, grad = objective_and_gradient(fun, x)
            num = fd_gradient(lambda v: objective_and_gradient(fun, v)[0], x)
            scale = max(float(np.abs(num).max()), 1e-12)
            assert float(np.abs(grad - num).max()) / scale < 1e-5

    def test_rotation_invariance(self):
        # the turns that keep anchor 1 on the x-axis: a half turn and the
        # mirror in that axis
        rng = np.random.default_rng(23)
        m = exact_matrix(GOLDEN_FRAME)
        for _ in range(5):
            base = [offset(p, *rng.normal(0, 0.3, 2)) for p in GOLDEN_FRAME]
            base[0] = (0, 0)
            fun = network_residuals(m)
            f_base, _ = objective_and_gradient(fun, free_vector(base))
            for turned in ([(-x, -y) for x, y in base],
                           [(x, -y) for x, y in base]):
                f_rot, _ = objective_and_gradient(fun, free_vector(turned))
                assert f_rot == pytest.approx(f_base, rel=1e-9, abs=1e-12)


class TestCalibrate:
    def test_bias_distorted_distances_recovered(self):
        model = reference_model()
        m = exact_matrix(GOLDEN_FRAME,
                         transform=lambda d: model.slope * d + model.intercept)
        result = calibrate(m, model)
        for got, want in zip(result.positions, GOLDEN_FRAME):
            assert distance(got, want) <= 1e-6
        # first calibration keeps the anchor-1 axis rule exactly
        assert result.positions[1][1] == 0.0
        assert result.positions[1][0] > 0.0

    @pytest.mark.parametrize("prior", [None, list(GOLDEN_FRAME)])
    def test_one_table_per_call(self, monkeypatch, prior):
        # the bootstrap and the refinement read the same corrected table
        import uwbcal.autocalib as autocalib

        calls, sym_means = [], autocalib._sym_means

        def counted(count, mean, model):
            calls.append(model)
            return sym_means(count, mean, model)

        monkeypatch.setattr(autocalib, "_sym_means", counted)
        model = RangingModel.identity()
        calibrate(exact_matrix(GOLDEN_FRAME), model, prior=prior)
        assert calls == [model]

    def test_prior_equal_to_truth_is_unchanged(self):
        m = exact_matrix(GOLDEN_FRAME)
        result = calibrate(m, RangingModel.identity(),
                           prior=list(GOLDEN_FRAME))
        for got, want in zip(result.positions, GOLDEN_FRAME):
            assert distance(got, want) <= 1e-9

    def test_prior_translation_is_removed(self):
        m = exact_matrix(GOLDEN_FRAME)
        shifted = [offset(p, 3.0, -2.0) for p in GOLDEN_FRAME]
        result = calibrate(m, RangingModel.identity(), prior=shifted)
        assert tuple(result.positions[0]) == (0.0, 0.0)
        for got, want in zip(result.positions, GOLDEN_FRAME):
            assert distance(got, want) <= 1e-9

    def test_rotated_prior_keeps_rotation(self):
        angle = 0.01
        m = exact_matrix(GOLDEN_FRAME)
        prior = [rotated(p, angle) for p in GOLDEN_FRAME]
        result = calibrate(m, RangingModel.identity(), prior=prior)
        assert result.rms_residual == pytest.approx(0.0, abs=1e-9)
        assert rotation_error(result.positions[1]) == pytest.approx(angle,
                                                                    abs=1e-9)
        assert result.positions[1][1] != 0.0

    def test_prior_length_checked(self):
        m = exact_matrix(GOLDEN_FRAME)
        with pytest.raises(ValueError):
            calibrate(m, RangingModel.identity(), prior=GOLDEN_FRAME[:3])

    FRAME = np.array(GOLDEN_FRAME, dtype=float)
    MALFORMED = {
        "n_by_3": np.hstack((FRAME, np.zeros((5, 1)))),
        "flat": FRAME[:, 0],
        "ragged_short_row": [[0.0, 0.0], [9.0, 0.0], [16.0], [13.0, 17.0],
                             [2.0, 19.0]],
        "ragged_long_row": [[0.0, 0.0], [9.0, 0.0, 1.0], [16.0, 3.0],
                            [13.0, 17.0], [2.0, 19.0]],
        "too_few": FRAME[:4],
        "too_many": np.vstack((FRAME, [[1.0, 1.0]])),
    }

    @pytest.mark.parametrize("form", sorted(MALFORMED))
    @pytest.mark.parametrize("entry", ["calibrate", "refine_lse"])
    def test_a_malformed_prior_or_start_raises_value_error(self, entry, form):
        m, points = exact_matrix(GOLDEN_FRAME), self.MALFORMED[form]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"expected 5 |must be 5 "):
                if entry == "calibrate":
                    calibrate(m, RangingModel.identity(), prior=points)
                else:
                    refine_lse(points, m)

    def test_triangle_side_lengths_reproduced(self):
        rng = np.random.default_rng(2)
        truth = [(0, 0), (5.5, 0), (2.0, 4.5)]
        m = exact_matrix(truth)
        result = calibrate(m, RangingModel.identity())
        for i in range(3):
            for j in range(i + 1, 3):
                assert distance(result.positions[i], result.positions[j]) == \
                    pytest.approx(distance(truth[i], truth[j]), abs=1e-9)

    def test_bootstrap_error_meets_the_cramer_rao_bound(self):
        # Pre-registered guard (seeds, k and window fixed before looking):
        # on the default 4-anchor layout, over seeds 0-399 at k = 5, the RMS
        # per-anchor error of a bootstrap calibration lies within 5% (about
        # 3 standard errors of the ratio) of the Cramer-Rao bound. The
        # bound inverts the Fisher information of one symmetrized mean per
        # pair, with unit-vector rows, sigma = noise_std / (slope sqrt(2k))
        # and the bootstrap's gauge: anchor 0 and anchor 1's y pinned.
        model, n, k = reference_model(), 4, 5
        truth = np.array([tuple(p) for p in DEFAULT_ANCHOR_LAYOUT[:n]])
        frame = truth - truth[0]  # anchor 1 already lies on +x
        squared = []
        for seed in range(400):
            stats, _ = run_calibration_round(n, k, truth.tolist(), model,
                                             np.random.default_rng(seed))
            est = np.array([tuple(p)
                            for p in calibrate(stats, model).positions])
            squared.append(((est - frame) ** 2).sum(axis=1)[1:])
        rms = math.sqrt(np.mean(squared))
        rows = []
        for i, j in itertools.combinations(range(n), 2):
            row = np.zeros((n, 2))
            row[i] = (frame[i] - frame[j]) / np.hypot(*(frame[i] - frame[j]))
            row[j] = -row[i]
            rows.append(row.ravel()[_free_columns(n)])
        sigma = model.noise_std / (model.slope * math.sqrt(2 * k))
        fisher = np.array(rows).T @ np.array(rows) / sigma ** 2
        bound = math.sqrt(np.trace(np.linalg.inv(fisher)) / (n - 1))
        assert 0.95 <= rms / bound <= 1.05, (rms, bound)


class TestDistanceCsv:
    def test_round_trip(self, tmp_path):
        m = exact_matrix(GOLDEN_FRAME)
        path = tmp_path / "distances.csv"
        save_distance_csv(m, path)
        loaded = load_distance_csv(path)
        assert loaded.n_anchors == 5
        for i, j in unordered_pairs(m):
            assert sym_mean(loaded, i, j) == pytest.approx(sym_mean(m, i, j),
                                                           rel=1e-8)

    def test_missing_pair_is_named(self, tmp_path):
        path = tmp_path / "missing.csv"
        path.write_text("i,j,mean_m,std_m,count\n"
                        "0,1,9.0,0.0,1\n1,0,9.0,0.0,1\n"
                        "0,2,5.0,0.0,1\n")
        with pytest.raises(CsvFormatError) as err:
            load_distance_csv(path)
        assert str(err.value) == "missing pair rows: (1, 2)"

    def test_missing_pairs_beyond_ten_are_counted(self, tmp_path):
        # 6 anchors: 15 pairs, 2 measured
        path = tmp_path / "missing.csv"
        path.write_text("i,j,mean_m,std_m,count\n"
                        "0,1,9.0,0.0,1\n5,0,9.0,0.0,1\n")
        with pytest.raises(CsvFormatError) as err:
            load_distance_csv(path)
        assert str(err.value) == (
            "missing pair rows: (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), "
            "(1, 4), (1, 5), (2, 3), (2, 4), (2, 5) and 3 more")

    def test_missing_pairs_are_found_before_the_matrix_is_built(
            self, tmp_path):
        # an id at the bound, 63: 2,012 of the 2,016 pairs are missing
        path = tmp_path / "far.csv"
        path.write_text("i,j,mean_m,std_m,count\n0,1,9.0,0.0,1\n"
                        "0,2,5.0,0.0,1\n1,2,5.0,0.0,1\n"
                        "0,63,5.0,0.0,1\n")
        tracemalloc.start()
        try:
            with pytest.raises(CsvFormatError,
                               match=r"\(0, 3\), .* and 2002 more$"):
                load_distance_csv(path)
            assert tracemalloc.get_traced_memory()[1] < 10 ** 6
        finally:
            tracemalloc.stop()

    def test_bad_row_is_reported_before_missing_pairs(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,mean_m,std_m,count\n0,1,9.0,0.0,1\n"
                        "0,3,5.0,0.0,0\n")
        with pytest.raises(CsvFormatError, match="line 3: pair \\(0,3\\): "
                                                 "count must be from 1"):
            load_distance_csv(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("i,j,mean_m,std_m,count\n"
                        "0,1,9.0,0.0,1\n0,1,9.1,0.0,1\n")
        with pytest.raises(CsvFormatError):
            load_distance_csv(path)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("i,j,mean,std,count\n0,1,9.0,0.0,1\n")
        with pytest.raises(CsvFormatError) as err:
            load_distance_csv(path)
        assert err.value.line == 1

    def test_too_few_anchors_rejected(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("i,j,mean_m,std_m,count\n0,1,9.0,0.0,1\n1,0,9.0,0.0,1\n")
        with pytest.raises(CsvFormatError):
            load_distance_csv(path)


def random_matrix(rng, n, one_way=0, unmeasured=0) -> DistanceStatsMatrix:
    """Noisy directed statistics of a random layout, with counts that
    differ per direction. ``one_way`` pairs keep one direction only, and
    ``unmeasured`` pairs are left out in both directions."""
    truth = rng.uniform(-15.0, 15.0, (n, 2))
    pairs = list(itertools.combinations(range(n), 2))
    order = rng.permutation(len(pairs))
    dropped = {pairs[k] for k in order[:unmeasured]}
    halved = {pairs[k] for k in order[unmeasured:unmeasured + one_way]}
    m = DistanceStatsMatrix(n)
    for i, j in pairs:
        if (i, j) in dropped:
            continue
        d = float(np.hypot(*(truth[i] - truth[j])))
        for a, b in ((i, j), (j, i))[:1 if (i, j) in halved else 2]:
            m.set_pair(a, b, d + abs(rng.normal(0.0, 0.2)) + 1e-3,
                       float(rng.uniform(0.0, 0.3)), int(rng.integers(1, 60)))
    return m


class TestPairTable:
    @pytest.mark.parametrize("one_way, unmeasured", [(0, 0), (3, 0), (2, 2)])
    def test_matches_unordered_pairs_and_sym_mean_bit_for_bit(
            self, one_way, unmeasured):
        rng = np.random.default_rng(31 + one_way + unmeasured)
        for _ in range(40):
            m = random_matrix(rng, int(rng.integers(4, 8)), one_way,
                              unmeasured)
            pairs, targets = m.sym_table()
            assert list(pairs) == unordered_pairs(m)
            assert [t.hex() for t in targets] == [
                sym_mean(m, i, j).hex() for i, j in pairs]


class TestResidualFunction:
    @pytest.mark.parametrize("one_way, unmeasured", [(0, 0), (3, 0), (2, 1)])
    def test_equals_dense_oracle(self, one_way, unmeasured):
        rng = np.random.default_rng(7 + 2 * one_way + unmeasured)
        for _ in range(30):
            n = int(rng.integers(4, 8))
            m = random_matrix(rng, n, one_way, unmeasured)
            fun = network_residuals(m)
            oracle = dense_network_residuals(m)
            for _ in range(3):
                x = rng.uniform(-15.0, 15.0, 2 * n - 3)
                (r, jac, d), (r_o, jac_o, d_o) = fun(x), oracle(x)
                assert np.array_equal(r, r_o)
                assert np.array_equal(jac, jac_o)
                assert np.array_equal(d, d_o)
                # the products the solver forms round alike
                assert np.array_equal(jac.T @ r, jac_o.T @ r_o)
                assert np.array_equal(jac.T @ jac, jac_o.T @ jac_o)

    def test_coincident_anchors_use_the_nudge(self):
        m = exact_matrix(GOLDEN_FRAME)
        x = free_vector(GOLDEN_FRAME)
        x[1:3] = (x[0], 0.0)  # anchor 2 on anchor 1
        (r, jac, d), (r_o, jac_o, d_o) = (network_residuals(m)(x),
                                          dense_network_residuals(m)(x))
        assert np.array_equal(r, r_o) and np.array_equal(jac, jac_o)
        assert np.array_equal(d, d_o)

    def test_cached_layout_rejects_writes(self):
        pairs = tuple(itertools.combinations(range(4), 2))
        for array in _residual_layout(4, pairs):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1


def oracle_start(d, model) -> list[tuple[float, float]]:
    """``calibrate``'s classical-MDS start spelled out pair by pair: the
    table from ``sym_mean`` in a double loop, then the arithmetic of
    ``autocalib._placement`` step by step, so that it rounds alike."""
    n = d.n_anchors
    table = np.zeros((n, n))
    for j in range(1, n):
        for i in range(j):
            try:
                t = sym_mean(d, i, j, model)
            except KeyError:
                raise DegenerateGeometry(
                    f"anchor {j}: pair ({i},{j}) was not measured") from None
            if not 0.0 < t < math.inf:
                raise DegenerateGeometry(
                    f"anchor {j}: pair ({i},{j}) has distance {t}, which "
                    f"is not positive and finite")
            table[i, j] = table[j, i] = t
    scale = table.max()
    centring = np.eye(n) - 1.0 / n
    eigval, eigvec = np.linalg.eigh(
        -0.5 * (centring @ ((table / scale) ** 2) @ centring))
    xy = eigvec[:, -2:] * np.sqrt(np.maximum(eigval[-2:], 0.0))
    xy = xy - xy[0]
    angle = math.atan2(xy[1, 1], xy[1, 0])
    c, s = math.cos(angle), math.sin(angle)
    flip = -1.0 if c * xy[2, 1] - s * xy[2, 0] < 0.0 else 1.0
    placed = xy @ (scale * np.array([[c, -flip * s], [s, flip * c]]))
    return [(0.0, 0.0), (float(placed[1, 0]), 0.0)] + [
        (float(placed[i, 0]), float(placed[i, 1])) for i in range(2, n)]


def oracle_onto(positions, prior) -> np.ndarray:
    """``positions`` (anchor 0 at the origin) turned about anchor 0 onto
    ``prior``, in complex numbers: the rotation that maximizes sum Re(conj(q)
    e^(i a) p) is the phase of sum conj(p) q, and the mirror image conj(p)
    fits better where |sum p q| > |sum conj(p) q|."""
    p = np.array([complex(x, y) for x, y in positions])
    q = np.array([complex(x, y) for x, y in prior]) - complex(*prior[0])
    plain, mirrored = (np.conj(p) * q).sum(), (p * q).sum()
    if abs(mirrored) > abs(plain):
        p, plain = np.conj(p), mirrored
    turned = p * np.exp(1j * np.angle(plain))
    return np.column_stack((turned.real, turned.imag))


def oracle_calibrate(d, model, prior=None) -> CalibrationResult:
    """``calibrate`` spelled out pair by pair: the MDS start on
    ``sym_mean``'s corrected means, ``levenberg_marquardt`` on the dense
    oracle residuals with anchor 0 and anchor 1's y pinned, and with a
    prior the result turned onto it by :func:`oracle_onto`."""
    n = d.n_anchors
    free_cols = np.arange(2, 2 * n)
    free_cols = free_cols[free_cols != 3]
    flat = np.array([c for p in oracle_start(d, model) for c in p])
    lsq = levenberg_marquardt(dense_network_residuals(d, model),
                              flat[free_cols])
    flat = np.zeros(2 * n)
    flat[free_cols] = lsq.x
    positions = flat.reshape(n, 2)
    if prior is not None:
        positions = oracle_onto(positions, prior)
    n_pairs = len(unordered_pairs(d))
    result = CalibrationResult(
        positions=positions,
        rms_residual=math.sqrt(lsq.objective / n_pairs),
        iterations=lsq.iterations, converged=lsq.converged)
    if not lsq.converged:
        message = f"refinement stopped after {lsq.iterations} iterations"
        if lsq.iterations < MAX_ITERATIONS:
            message += f" at the damping limit ({DAMPING_MAX:g})"
        raise NotConverged(message, result)
    return result


def close_outcomes(calibration, oracle, *args, **kwargs) -> bool:
    """Whether two calibrations end alike: the same error type and message,
    or results with the same iterations and convergence, positions within
    1e-6 m and rms residuals within 1e-9 m."""
    ends = []
    for run in (calibration, oracle):
        try:
            ends.append((None, run(*args, **kwargs)))
        except NotConverged as exc:
            ends.append((str(exc), exc.result))
        except UwbCalError as exc:
            ends.append((f"{type(exc).__name__}({exc})", None))
    (text, a), (oracle_text, b) = ends
    if text != oracle_text or (a is None) != (b is None):
        return False
    return a is None or (
        a.iterations == b.iterations and a.converged == b.converged
        and np.abs(np.asarray(a.positions) - b.positions).max() <= 1e-6
        and abs(a.rms_residual - b.rms_residual) <= 1e-9)


def outcome(calibration, *args, **kwargs) -> str:
    try:
        return result_repr(calibration(*args, **kwargs))
    except NotConverged as exc:
        return f"NotConverged({exc}, {result_repr(exc.result)})"
    except UwbCalError as exc:
        return f"{type(exc).__name__}({exc})"


def best_result(stats, model, prior) -> CalibrationResult:
    """``calibrate``'s result, or the best iterate of a NotConverged."""
    try:
        return calibrate(stats, model, prior=prior)
    except NotConverged as exc:
        return exc.result


def positions_bytes(stats, model, prior) -> bytes:
    """The bytes of ``calibrate``'s positions, or of the best iterate of a
    NotConverged; empty for another typed error."""
    try:
        return calibrate(stats, model, prior=prior).positions.tobytes()
    except NotConverged as exc:
        return exc.result.positions.tobytes()
    except UwbCalError:
        return b""


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# pair offsets near 1e308 overflow to inf
OVERFLOWING_PRIOR = [(0, 0), (1e308, 0), (-1e308, 1e308), (1e308, 1e308),
                     (0, -1e308)]


class TestCalibrateOracle:
    def test_bootstrap_and_warm_equal_lm_on_dense_residuals(self):
        # calibrate against an oracle spelled out pair by pair: without a
        # prior, to the bit; with one, the same iterations and stop and
        # positions that agree to rounding, since the oracle fits the prior
        # in complex numbers
        rng = np.random.default_rng(2024)
        model = reference_model()
        for _ in range(200):
            n = int(rng.integers(3, 7))
            truth = rng.uniform(-15.0, 15.0, (n, 2))
            stats, _ = run_calibration_round(
                n, int(rng.integers(1, 11)), truth.tolist(), model, rng)
            assert outcome(calibrate, stats, model) == \
                outcome(oracle_calibrate, stats, model)
            # a drifted, rotated, mirrored and translated prior
            prior = (truth + rng.normal(0.0, 0.5, truth.shape)) @ \
                np.array([[0.99, 0.14], [-0.14, 0.99]]) + 3.0
            for turned in (prior, prior * [1.0, -1.0]):
                assert close_outcomes(calibrate, oracle_calibrate, stats,
                                      model, prior=turned.tolist())

    def test_priors_that_differ_by_a_rotation_give_results_that_do(self):
        # the prior sets only the frame: turn it about its anchor 0, and
        # the result turns with it, to rounding
        rng = np.random.default_rng(23)
        model = reference_model()
        for _ in range(50):
            n = int(rng.integers(3, 7))
            truth = rng.uniform(-15.0, 15.0, (n, 2))
            stats, _ = run_calibration_round(n, 5, truth.tolist(), model,
                                             rng)
            prior = truth + rng.normal(0.0, 0.3, truth.shape)
            angle = rng.uniform(-math.pi, math.pi)
            turn = np.array([[math.cos(angle), math.sin(angle)],
                             [-math.sin(angle), math.cos(angle)]])
            turned = prior[0] + (prior - prior[0]) @ turn
            a, b = (best_result(stats, model, p) for p in (prior, turned))
            assert np.abs(a.positions @ turn - b.positions).max() <= 1e-12 \
                * np.abs(a.positions).max()
            assert (a.rms_residual, a.iterations) == \
                (b.rms_residual, b.iterations)

    def test_the_prior_does_not_set_the_start(self):
        # a prior turned by a half turn, or mirrored, gives the same shape
        m = exact_matrix(GOLDEN_FRAME)
        plain = calibrate(m, RangingModel.identity(), prior=GOLDEN_FRAME)
        for prior in ([(-x, -y) for x, y in GOLDEN_FRAME],
                      [(x, -y) for x, y in GOLDEN_FRAME]):
            result = calibrate(m, RangingModel.identity(), prior=prior)
            assert (result.iterations, result.rms_residual) == \
                (plain.iterations, plain.rms_residual)
            for got, want in zip(result.positions, prior):
                assert distance(got, want) <= 1e-9

    def test_array_tuple_and_list_priors_give_identical_results(self):
        # the rounds and priors of the test above, the prior given as an
        # (N, 2) array, as (x, y) tuples and as lists
        rng = np.random.default_rng(2024)
        model = reference_model()
        for _ in range(200):
            n = int(rng.integers(3, 7))
            truth = rng.uniform(-15.0, 15.0, (n, 2))
            stats, _ = run_calibration_round(
                n, int(rng.integers(1, 11)), truth.tolist(), model, rng)
            prior = (truth + rng.normal(0.0, 0.5, truth.shape)) @ \
                np.array([[0.99, 0.14], [-0.14, 0.99]]) + 3.0
            forms = (prior, list(map(tuple, prior.tolist())), prior.tolist())
            assert len({(outcome(calibrate, stats, model, prior=form),
                         positions_bytes(stats, model, form))
                        for form in forms}) == 1

    # a finite prior ends in a result or a typed error; only one whose
    # offset from anchor 0 overflows has no finite start
    @settings(deadline=None, max_examples=150)
    @given(st.lists(st.tuples(FINITE, FINITE), min_size=5, max_size=5))
    @example(OVERFLOWING_PRIOR)
    def test_any_finite_prior_ends_in_a_result(self, prior):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = calibrate(exact_matrix(GOLDEN_FRAME),
                                   RangingModel.identity(), prior=prior)
            except (NotConverged, SingularUpdate):
                return
            except ValueError:
                with np.errstate(over="ignore"):
                    offsets = np.array(prior) - prior[0]
                assert not np.isfinite(offsets).all()
                return
        assert isinstance(result, CalibrationResult)

    def test_a_prior_near_the_float_limit_sets_the_frame_quietly(self):
        # the prior's pair offsets near 1e308 would overflow, but the fit
        # onto the prior forms none of them
        prior = OVERFLOWING_PRIOR
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = calibrate(exact_matrix(GOLDEN_FRAME),
                               RangingModel.identity(), prior=prior)
        assert result.converged and np.isfinite(result.positions).all()
        for i, j in itertools.combinations(range(5), 2):
            assert distance(result.positions[i], result.positions[j]) == \
                pytest.approx(distance(GOLDEN_FRAME[i], GOLDEN_FRAME[j]),
                              abs=1e-9)

    @pytest.mark.parametrize("prior", [
        [(-1e308, 0), (1e308, 0), (16, 3), (13, 17), (2, 19)],
        [(0, 0), (math.inf, 0), (16, 3), (13, 17), (2, 19)],
        [(0, 0), (9, 0), (16, math.nan), (13, 17), (2, 19)]],
        ids=["offset_overflows", "inf", "nan"])
    def test_a_prior_without_finite_offsets_raises_value_error(self, prior):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^prior offsets from "
                                                 "anchor 0 must be finite$"):
                calibrate(exact_matrix(GOLDEN_FRAME), RangingModel.identity(),
                          prior=prior)


def noisy_rounds(rng, n, k=6):
    """K rounds of n anchors at random layouts, k = 5 readings a pair."""
    model = reference_model()
    return [run_calibration_round(n, 5, rng.uniform(-15.0, 15.0, (n, 2))
                                  .tolist(), model, rng)[0]
            for _ in range(k)]


class TestSolveNetworks:
    @pytest.mark.parametrize("cap", [MAX_ITERATIONS, 2])
    @pytest.mark.parametrize("n", [3, 4, 5, 9])
    def test_a_result_does_not_depend_on_the_batch(self, monkeypatch, n,
                                                   cap):
        import uwbcal.autocalib as autocalib

        monkeypatch.setattr(autocalib, "MAX_ITERATIONS", cap)
        rng = np.random.default_rng(40 + n)
        model = reference_model()
        rounds = noisy_rounds(rng, n)
        pairs = rounds[0].sym_table(model)[0]
        targets = [d.sym_table(model)[1] for d in rounds]

        def rows(indices):
            batch = solve_networks(n, pairs, [targets[k] for k in indices])
            return [(batch.positions[p].tobytes(),
                     batch.rms_residual[p].tobytes(),
                     int(batch.iterations[p]), int(batch.status[p]))
                    for p in range(len(indices))]

        alone = [rows([k])[0] for k in range(6)]
        order = rng.permutation(6).tolist()
        assert rows(range(6)) == alone
        assert rows(order) == [alone[k] for k in order]
        assert rows([0, 1, 2]) + rows([3, 4, 5]) == alone

    def test_equals_levenberg_marquardt_bit_for_bit(self):
        # the batched kernel against refine_lse, which solves a batch of
        # one by levenberg_marquardt, from the same MDS start in the same
        # gauge: every product, dot product and solve is the same BLAS or
        # LAPACK call per problem
        rng = np.random.default_rng(2024)
        model = reference_model()
        by_n = {}
        for _ in range(300):
            n = int(rng.integers(3, 10))
            stats, _ = run_calibration_round(
                n, int(rng.integers(1, 11)),
                rng.uniform(-15.0, 15.0, (n, 2)).tolist(), model, rng)
            by_n.setdefault(n, []).append(stats)
        for n, rounds in by_n.items():
            # one batch per anchor count, of 35 to 51 rounds
            assert len(rounds) >= 2
            solved = solve_networks(n, rounds[0].sym_table()[0],
                                    [d.sym_table()[1] for d in rounds])
            for k, stats in enumerate(rounds):
                assert outcome(calibrate, stats, None,
                               solved=solved.outcome(k)) == \
                    outcome(refine_lse, initial_placement(stats), stats)

    @pytest.mark.parametrize("cap", [MAX_ITERATIONS, 2])
    def test_a_solved_round_calibrates_as_the_round_alone(self, monkeypatch,
                                                          cap):
        # through `solved`, calibrate reads neither the round nor the model
        import uwbcal.autocalib as autocalib

        monkeypatch.setattr(autocalib, "MAX_ITERATIONS", cap)
        rng = np.random.default_rng(7)
        model = reference_model()
        rounds = noisy_rounds(rng, 4)
        solved = solve_rounds(rounds, model)
        for d, entry in zip(rounds, solved):
            for prior in (None, rng.uniform(-15.0, 15.0, (4, 2))):
                assert outcome(calibrate, d, model, prior=prior) == \
                    outcome(calibrate, d, None, prior=prior, solved=entry)

    @pytest.mark.parametrize("lacking", [None, (0, 1), (1, 3)],
                             ids=["non_positive", "unmeasured_0_1",
                                  "unmeasured_1_3"])
    def test_a_failed_start_fails_its_round_alone(self, lacking):
        # round 1 has a pair that corrects below zero, or one it did not
        # measure: the other rounds are solved in the batch as each would
        # be alone, and round 1's entry is the error its calibration raises
        if lacking is None:
            model = RangingModel(1.0, 6.0, 0.0, 2)
            rounds = [exact_matrix(GOLDEN_FRAME, lambda d: d + 6.0)
                      for _ in range(3)]
            rounds[1] = exact_matrix([(0, 0), (9, 0), (12, 4)]
                                     + [(20, 20), (5, 30)])
            message = ("anchor 2: pair (1,2) has distance -1.0, which is not "
                       "positive and finite")
        else:
            model = reference_model()
            rounds = noisy_rounds(np.random.default_rng(8), 4, k=3)
            rounds[1] = DistanceStatsMatrix(4)
            for i, j in itertools.permutations(range(4), 2):
                if {i, j} != set(lacking):
                    rounds[1].set_pair(i, j, distance(GOLDEN_FRAME[i],
                                                      GOLDEN_FRAME[j]),
                                       0.0, 1)
            i, j = lacking
            message = f"anchor {j}: pair ({i},{j}) was not measured"
        solved = solve_rounds(rounds, model)
        for k, (d, entry) in enumerate(zip(rounds, solved)):
            assert isinstance(entry, DegenerateGeometry) == (k == 1)
            assert outcome(calibrate, d, None, solved=entry) == \
                outcome(calibrate, d, model)
        with pytest.raises(DegenerateGeometry) as err:
            calibrate(rounds[1], model)
        assert str(solved[1]) == str(err.value) == message
        assert solved[1].anchor_id == err.value.anchor_id
        assert type(solved[1].anchor_id) is int
