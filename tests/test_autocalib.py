import itertools
import math
import re

import numpy as np
import pytest

from uwbcal.autocalib import (CalibrationResult, DistanceStatsMatrix,
                              calibrate, initial_placement, load_distance_csv,
                              objective_and_gradient, refine_lse,
                              save_distance_csv)
from uwbcal.errors import (CsvFormatError, DegenerateGeometry, NotConverged)
from uwbcal.geometry import Point2, distance, rotation_error
from uwbcal.ranging import RangingModel, reference_model
from conftest import GOLDEN_FRAME, exact_matrix


def free_vector(positions, fix_a1_axis=False):
    flat = [c for p in positions[1:] for c in (p.x, p.y)]
    if fix_a1_axis:
        del flat[1]
    return np.array(flat)


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
        assert m.sym_mean(0, 1) == pytest.approx(10.75)
        assert m.sym_mean(1, 0) == pytest.approx(10.75)
        assert m.sym_count(0, 1) == 4
        # count-weighted RMS of stds: sqrt((1*.04 + 3*.16)/4)
        assert m.sym_std(0, 1) == pytest.approx(math.sqrt(0.13))
        assert m.pair(2, 0) is None
        assert m.unordered_pairs() == [(0, 1), (0, 2), (1, 2)]
        assert m.missing_pairs() == []

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

    def test_set_pairs_matches_set_pair_loop(self):
        i, j = np.array([0, 1, 2, 1]), np.array([1, 2, 0, 0])
        mean = np.array([9.0, 8.0, 7.0, 6.0])
        std = np.array([0.1, 0.0, 0.2, 0.3])
        bulk, loop = DistanceStatsMatrix(3), DistanceStatsMatrix(3)
        bulk.set_pairs(i, j, mean, std, 5)
        for args in zip(i.tolist(), j.tolist(), mean.tolist(), std.tolist()):
            loop.set_pair(*args, 5)
        assert bulk.equal_stats(loop)
        assert bulk.missing_pairs() == [] and loop.missing_pairs() == []

    @pytest.mark.parametrize("i,j,mean,std,count,named", [
        ([0, 1, 2], [1, 2, 2], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], 1, "(2,2)"),
        ([0, 1, 3], [1, 2, 0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], 1, "(3,0)"),
        ([0, 1, 2], [1, 2, 0], [1.0, 0.0, -1.0], [0.0, 0.0, 0.0], 1, "(1,2)"),
        ([0, 1, 2], [1, 2, 0], [1.0, 1.0, 1.0], [0.0, 0.0, -0.1], 1, "(2,0)"),
        ([0, 1, 2], [1, 2, 0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], 0, "(0,1)"),
    ])
    def test_set_pairs_names_first_bad_pair(self, i, j, mean, std, count,
                                            named):
        m = DistanceStatsMatrix(3)
        with pytest.raises(ValueError, match=re.escape(named)):
            m.set_pairs(np.array(i), np.array(j), np.array(mean),
                        np.array(std), count)

    def test_corrected_applies_affine_map(self):
        model = RangingModel(slope=2.0, intercept=1.0, noise_std=0.0,
                             n_samples=2)
        m = DistanceStatsMatrix(3)
        m.set_pair(0, 1, 21.0, 0.5, 4)
        m.set_pair(0, 2, 11.0, 0.0, 1)
        m.set_pair(1, 2, 7.0, 0.0, 1)
        c = m.corrected(model)
        assert c.pair(0, 1).mean == pytest.approx(10.0)
        assert c.pair(0, 1).std == pytest.approx(0.25)
        assert c.pair(0, 1).count == 4
        assert c.pair(1, 0) is None


class TestInitialPlacement:
    def test_golden_layout(self):
        placed = initial_placement(exact_matrix(GOLDEN_FRAME))
        for got, want in zip(placed, GOLDEN_FRAME):
            assert got.x == pytest.approx(want.x, abs=1e-9)
            assert got.y == pytest.approx(want.y, abs=1e-9)

    def test_equilateral(self):
        s = 7.0
        triangle = [Point2(0, 0), Point2(s, 0), Point2(s / 2, s * math.sqrt(3) / 2)]
        placed = initial_placement(exact_matrix(triangle))
        assert placed[2].x == pytest.approx(s / 2)
        assert placed[2].y == pytest.approx(s * math.sqrt(3) / 2)

    def test_collinear_clamps_to_axis(self):
        d = 6.0
        line = [Point2(0, 0), Point2(d, 0), Point2(2 * d, 0)]
        placed = initial_placement(exact_matrix(line))
        assert placed[2].x == pytest.approx(2 * d)
        assert placed[2].y == 0.0

    def test_inconsistent_distances_name_the_anchor(self):
        m = exact_matrix(GOLDEN_FRAME[:3])
        m.set_pair(0, 2, 100.0, 0.0, 10 ** 6)  # overwhelms the (2,0) entry
        m.set_pair(1, 2, 1.0, 0.0, 10 ** 6)
        with pytest.raises(DegenerateGeometry) as err:
            initial_placement(m)
        assert err.value.anchor_id == 2


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
        start = [GOLDEN_FRAME[0]] + [p + Point2(0.2, 0.2)
                                     for p in GOLDEN_FRAME[1:]]
        result = refine_lse(start, m, fix_a1_axis=True)
        assert result.converged
        for got, want in zip(result.positions, GOLDEN_FRAME):
            assert distance(got, want) <= 1e-6

    def test_free_gauge_recovers_shape_up_to_rotation(self):
        # without the axis rule the perturbation's rotation component
        # survives, but every pairwise distance is still reproduced
        m = exact_matrix(GOLDEN_FRAME)
        start = [GOLDEN_FRAME[0]] + [p + Point2(0.2, 0.2)
                                     for p in GOLDEN_FRAME[1:]]
        result = refine_lse(start, m)
        assert result.rms_residual <= 1e-9
        for i in range(5):
            for j in range(i + 1, 5):
                assert distance(result.positions[i], result.positions[j]) == \
                    pytest.approx(distance(GOLDEN_FRAME[i], GOLDEN_FRAME[j]),
                                  abs=1e-8)

    def test_noisy_three_anchor_matches_grid_search(self):
        rng = np.random.default_rng(12)
        truth = [Point2(0, 0), Point2(4, 0), Point2(1.5, 3)]
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
                          - m.sym_mean(i, j)) ** 2
            return total

        best = objective(result.positions)
        # 1 mm brute-force grid over the 4 free coordinates around the answer
        offsets = [k * 1e-3 for k in range(-5, 6)]
        for da in itertools.product(offsets, repeat=4):
            candidate = [truth[0],
                         Point2(result.positions[1].x + da[0],
                                result.positions[1].y + da[1]),
                         Point2(result.positions[2].x + da[2],
                                result.positions[2].y + da[3])]
            assert objective(candidate) >= best - 1e-12

    def test_objective_never_increases(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            truth = [Point2(0, 0), Point2(rng.uniform(4, 10), 0),
                     Point2(rng.uniform(1, 8), rng.uniform(2, 8)),
                     Point2(rng.uniform(-2, 4), rng.uniform(3, 9))]
            m = DistanceStatsMatrix(4)
            for i in range(4):
                for j in range(4):
                    if i != j:
                        m.set_pair(i, j, max(
                            0.05, distance(truth[i], truth[j])
                            + rng.normal(0, 0.05)), 0.05, 5)
            start = [truth[0]] + [p + Point2(*rng.normal(0, 0.3, 2))
                                  for p in truth[1:]]
            f_start, _ = objective_and_gradient(m, free_vector(start))
            result = refine_lse(start, m)
            f_end, _ = objective_and_gradient(m, free_vector(result.positions))
            assert f_end <= f_start + 1e-12

    def test_gauge_first_anchor_pinned_exactly(self):
        m = exact_matrix(GOLDEN_FRAME)
        start = [GOLDEN_FRAME[0]] + [p + Point2(0.1, -0.1)
                                     for p in GOLDEN_FRAME[1:]]
        result = refine_lse(start, m)
        assert result.positions[0] == Point2(0.0, 0.0)

    def test_not_converged_carries_best_result(self, monkeypatch):
        import uwbcal.autocalib as autocalib

        real = autocalib.levenberg_marquardt

        def capped(fun, x0):
            return real(fun, x0, max_iterations=1)

        monkeypatch.setattr(autocalib, "levenberg_marquardt", capped)
        m = exact_matrix(GOLDEN_FRAME)
        start = [GOLDEN_FRAME[0]] + [p + Point2(0.5, 0.5)
                                     for p in GOLDEN_FRAME[1:]]
        with pytest.raises(NotConverged) as err:
            refine_lse(start, m)
        assert isinstance(err.value.result, CalibrationResult)
        assert not err.value.result.converged

    def test_weighted_equals_unweighted_at_uniform_std(self):
        m = exact_matrix(GOLDEN_FRAME)
        start = [GOLDEN_FRAME[0]] + [p + Point2(0.2, -0.1)
                                     for p in GOLDEN_FRAME[1:]]
        plain = refine_lse(start, m, fix_a1_axis=True)
        weighted = refine_lse(start, m, weighted=True, fix_a1_axis=True)
        for a, b in zip(plain.positions, weighted.positions):
            assert distance(a, b) <= 1e-6


class TestObjective:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = rng.integers(3, 6)
            truth = [Point2(0, 0)] + [Point2(*rng.uniform(-10, 10, 2))
                                      for _ in range(n - 1)]
            m = DistanceStatsMatrix(n)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        m.set_pair(i, j, max(
                            0.1, distance(truth[i], truth[j])
                            + rng.normal(0, 0.1)), 0.1, 3)
            x = free_vector(truth) + rng.normal(0, 0.5, 2 * (n - 1))
            _, grad = objective_and_gradient(m, x)
            num = fd_gradient(lambda v: objective_and_gradient(m, v)[0], x)
            scale = max(float(np.abs(num).max()), 1e-12)
            assert float(np.abs(grad - num).max()) / scale < 1e-5

    def test_rotation_invariance(self):
        rng = np.random.default_rng(23)
        m = exact_matrix(GOLDEN_FRAME)
        base = [p + Point2(*rng.normal(0, 0.3, 2)) for p in GOLDEN_FRAME]
        base[0] = Point2(0, 0)
        f_base, _ = objective_and_gradient(m, free_vector(base))
        for angle in rng.uniform(-math.pi, math.pi, 5):
            rotated = [p.rotated(angle) for p in base]
            f_rot, _ = objective_and_gradient(m, free_vector(rotated))
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
        assert result.positions[1].y == 0.0
        assert result.positions[1].x > 0.0

    def test_prior_equal_to_truth_is_unchanged(self):
        m = exact_matrix(GOLDEN_FRAME)
        result = calibrate(m, RangingModel.identity(),
                           prior=list(GOLDEN_FRAME))
        for got, want in zip(result.positions, GOLDEN_FRAME):
            assert distance(got, want) <= 1e-9

    def test_prior_translation_is_removed(self):
        m = exact_matrix(GOLDEN_FRAME)
        shifted = [p + Point2(3.0, -2.0) for p in GOLDEN_FRAME]
        result = calibrate(m, RangingModel.identity(), prior=shifted)
        assert result.positions[0] == Point2(0.0, 0.0)
        for got, want in zip(result.positions, GOLDEN_FRAME):
            assert distance(got, want) <= 1e-9

    def test_rotated_prior_keeps_rotation(self):
        angle = 0.01
        m = exact_matrix(GOLDEN_FRAME)
        rotated = [p.rotated(angle) for p in GOLDEN_FRAME]
        result = calibrate(m, RangingModel.identity(), prior=rotated)
        assert result.rms_residual == pytest.approx(0.0, abs=1e-9)
        assert rotation_error(result.positions[1]) == pytest.approx(angle,
                                                                    abs=1e-9)
        assert result.positions[1].y != 0.0

    def test_prior_length_checked(self):
        m = exact_matrix(GOLDEN_FRAME)
        with pytest.raises(ValueError):
            calibrate(m, RangingModel.identity(), prior=GOLDEN_FRAME[:3])

    def test_triangle_side_lengths_reproduced(self):
        rng = np.random.default_rng(2)
        truth = [Point2(0, 0), Point2(5.5, 0), Point2(2.0, 4.5)]
        m = exact_matrix(truth)
        result = calibrate(m, RangingModel.identity())
        for i in range(3):
            for j in range(i + 1, 3):
                assert distance(result.positions[i], result.positions[j]) == \
                    pytest.approx(distance(truth[i], truth[j]), abs=1e-9)


class TestDistanceCsv:
    def test_round_trip(self, tmp_path):
        m = exact_matrix(GOLDEN_FRAME)
        path = tmp_path / "distances.csv"
        save_distance_csv(m, path)
        loaded = load_distance_csv(path)
        assert loaded.n_anchors == 5
        for i, j in m.unordered_pairs():
            assert loaded.sym_mean(i, j) == pytest.approx(m.sym_mean(i, j),
                                                          rel=1e-8)

    def test_missing_pair_is_named(self, tmp_path):
        path = tmp_path / "missing.csv"
        path.write_text("i,j,mean_m,std_m,count\n"
                        "0,1,9.0,0.0,1\n1,0,9.0,0.0,1\n"
                        "0,2,5.0,0.0,1\n")
        with pytest.raises(CsvFormatError) as err:
            load_distance_csv(path)
        assert "(1, 2)" in str(err.value)

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
