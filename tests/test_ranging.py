import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uwbcal.errors import (ConfigError, CsvFormatError, DegenerateFit,
                           InsufficientData, InvalidTiming)
from uwbcal.ranging import (SPEED_OF_LIGHT, RangingModel, RangingSample,
                            correct_measurement, fit_model,
                            load_reference_samples, load_samples,
                            reference_model, simulate_measurement)
from oracles import TwrTimings, save_samples, ss_twr_distance

C = SPEED_OF_LIGHT


class TestTimings:
    def test_zero_flight_allowed(self):
        t = TwrTimings(t_round=1e-3, t_reply=1e-3)
        assert ss_twr_distance(t) == 0.0

    def test_round_before_reply_rejected(self):
        with pytest.raises(InvalidTiming):
            TwrTimings(t_round=1e-3, t_reply=2e-3)

    def test_negative_reply_rejected(self):
        with pytest.raises(InvalidTiming):
            TwrTimings(t_round=1e-3, t_reply=-1e-6)

    def test_half_second_pair_rejected(self):
        with pytest.raises(InvalidTiming):
            TwrTimings(t_round=1e-3, t_reply=0.0, t_round2=1e-3)


class TestSsTwr:
    def test_unit_inversion(self):
        assert ss_twr_distance(TwrTimings(2.0 / C, 0.0)) == 1.0

    def test_ten_meter_flight(self):
        t = TwrTimings(t_round=1e-3 + 66.71282e-9, t_reply=1e-3)
        assert ss_twr_distance(t) == pytest.approx(10.0, abs=1e-5)
        # direct inversion of d = c*dt/2 for d = 10 m
        assert ss_twr_distance(TwrTimings(20.0 / C, 0.0)) == pytest.approx(
            10.0, rel=1e-15)

    @given(st.floats(min_value=0, max_value=1e-6),
           st.floats(min_value=0, max_value=1e-3))
    def test_linear_in_net_round_trip(self, dt, reply):
        d = ss_twr_distance(TwrTimings(reply + dt, reply))
        d2 = ss_twr_distance(TwrTimings(reply + 2 * dt, reply))
        assert d2 == pytest.approx(2 * d, rel=1e-9, abs=1e-9)


class TestFitModel:
    def test_exact_identity_line(self):
        samples = [RangingSample(d, d) for d in (1.0, 2.0, 5.0, 9.0)]
        m = fit_model(samples)
        assert m.slope == pytest.approx(1.0, rel=1e-12)
        assert m.intercept == pytest.approx(0.0, abs=1e-12)
        assert m.noise_std == pytest.approx(0.0, abs=1e-12)

    def test_recovers_known_line(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(0.5, 30, 25)
        samples = [RangingSample(x, 1.37 * x + 0.21) for x in xs]
        m = fit_model(samples)
        assert m.slope == pytest.approx(1.37, rel=1e-12)
        assert m.intercept == pytest.approx(0.21, rel=1e-9)

    def test_residuals_sum_to_zero(self):
        rng = np.random.default_rng(4)
        samples = [RangingSample(x, 1.1 * x + 0.3 + rng.normal(0, 0.05))
                   for x in rng.uniform(1, 20, 30)]
        m = fit_model(samples)
        resid = [s.measured_distance - (m.slope * s.true_distance + m.intercept)
                 for s in samples]
        assert sum(resid) == pytest.approx(0.0, abs=1e-9)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            fit_model([RangingSample(1.0, 1.1)])

    def test_degenerate_fit(self):
        with pytest.raises(DegenerateFit):
            fit_model([RangingSample(2.0, 2.1), RangingSample(2.0, 2.3)])

    @pytest.mark.parametrize("true, measured, message", [
        (1e160, 1.1e160, "the least-squares sums overflow"),
        (1.0, 1.7e307, "the least-squares sums overflow"),
        (1e-300, 1.1e-300, "sum of squared deviations underflows to 0"),
    ])
    def test_sums_out_of_float_range_fail_without_a_warning(
            self, true, measured, message):
        # distinct distances, so not "all samples share the same distance"
        samples = [RangingSample(k * true, k * measured)
                   for k in range(1, 11)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateFit, match=message):
                fit_model(samples)

    def test_reference_sweep_fit(self):
        samples = load_reference_samples()
        assert len(samples) == 40
        m = fit_model(samples)
        # independent oracle: numpy polyfit (SVD-based) on the same data
        xs = np.array([s.true_distance for s in samples])
        ys = np.array([s.measured_distance for s in samples])
        slope_ref, intercept_ref = np.polyfit(xs, ys, 1)
        assert m.slope == pytest.approx(slope_ref, rel=1e-10)
        assert m.intercept == pytest.approx(intercept_ref, rel=1e-10)
        resid = ys - (slope_ref * xs + intercept_ref)
        noise_ref = math.sqrt(float(resid @ resid) / (len(xs) - 2))
        assert m.noise_std == pytest.approx(noise_ref, rel=1e-10)
        # frozen values computed with the oracle above
        assert m.slope == pytest.approx(1.008627111, abs=1e-8)
        assert m.intercept == pytest.approx(0.361133156, abs=1e-8)
        assert m.noise_std == pytest.approx(0.058461523, abs=1e-8)
        assert 0.04 < m.noise_std < 0.08

    def test_reference_model_is_the_fit_of_the_packaged_sweep(self):
        # fitted once per process and shared: the model is frozen
        assert reference_model() == fit_model(load_reference_samples())
        assert reference_model() is reference_model()

    def test_reference_model_bits(self):
        # every simulation draws through these values
        m = reference_model()
        assert (m.slope.hex(), m.intercept.hex(), m.noise_std.hex()) == (
            "0x1.023562e73b378p+0", "0x1.71cce3dafd6a0p-2",
            "0x1.deeab331803eep-5")


class TestSimulateAndCorrect:
    def test_zero_noise_line_value(self):
        m = reference_model()
        rng = np.random.default_rng(0)
        noiseless = RangingModel(m.slope, m.intercept, 0.0, m.n_samples)
        got = simulate_measurement(10.0, noiseless, rng)
        assert got == pytest.approx(m.slope * 10.0 + m.intercept, rel=1e-15)
        assert got == pytest.approx(10.4474456, abs=1e-3)

    def test_identity_model_is_identity(self):
        rng = np.random.default_rng(0)
        assert simulate_measurement(7.25, RangingModel.identity(), rng) == 7.25

    def test_law_of_large_numbers(self):
        m = reference_model()
        rng = np.random.default_rng(11)
        draws = [simulate_measurement(5.0, m, rng) for _ in range(10_000)]
        predicted = m.slope * 5.0 + m.intercept
        assert abs(np.mean(draws) - predicted) < 3 * m.noise_std / 100

    def test_noise_level_does_not_shift_draw_order(self):
        m = reference_model()
        quiet = RangingModel(m.slope, m.intercept, 0.0, m.n_samples)
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        simulate_measurement(5.0, m, rng_a)
        simulate_measurement(5.0, quiet, rng_b)
        assert rng_a.standard_normal() == rng_b.standard_normal()

    @given(st.floats(min_value=0.1, max_value=100),
           st.floats(min_value=0.5, max_value=2.0),
           st.floats(min_value=-0.5, max_value=2.0))
    def test_correct_inverts_simulate_at_zero_noise(self, d, slope, intercept):
        m = RangingModel(slope, intercept, 0.0, 2)
        rng = np.random.default_rng(0)
        assert correct_measurement(simulate_measurement(d, m, rng), m) == \
            pytest.approx(d, rel=1e-12)

    def test_corrects_reference_line_point(self):
        m = reference_model()
        assert correct_measurement(10.4474456, m) == pytest.approx(10.0,
                                                                   abs=1e-3)

    def test_identity_correction(self):
        assert correct_measurement(3.14, RangingModel.identity()) == 3.14

    def test_non_positive_distance_rejected(self):
        with pytest.raises(ValueError):
            simulate_measurement(0.0, RangingModel.identity(),
                                 np.random.default_rng(0))

    @pytest.mark.parametrize("fields", [None, (1.0, 0.0, 0.0, 2),
                                        (0.97, -0.25, 1.5, 40),
                                        (3.0e-7, 1.0e6, 2.0e5, 3)])
    def test_array_maps_equal_the_scalar_functions_bit_for_bit(self, fields):
        model = reference_model() if fields is None else RangingModel(*fields)
        true_d = np.random.default_rng(7).uniform(0.01, 1e4, 1000)
        z = np.random.default_rng(8).standard_normal(1000)
        rng = np.random.default_rng(8)  # the same draws, one at a time
        scalar = [simulate_measurement(d, model, rng) for d in true_d.tolist()]
        measured = model.measure(true_d, z)
        assert measured.tobytes() == np.array(scalar).tobytes()
        assert model.correct(measured).tobytes() == np.array(
            [correct_measurement(m, model) for m in scalar]).tobytes()


class TestModelValidation:
    def test_bad_fields(self):
        with pytest.raises(ValueError):
            RangingModel(slope=0.0, intercept=0.0, noise_std=0.0, n_samples=2)
        with pytest.raises(ValueError):
            RangingModel(slope=1.0, intercept=0.0, noise_std=-0.1, n_samples=2)
        with pytest.raises(ValueError):
            RangingModel(slope=1.0, intercept=0.0, noise_std=0.0, n_samples=1)

    def test_dict_round_trip(self):
        m = reference_model()
        assert RangingModel.from_dict(m.to_dict()) == m

    @pytest.mark.parametrize("change, named", [
        ({"slope": True}, "ranging.slope"),
        ({"intercept_m": "0.3"}, "ranging.intercept_m"),
        ({"noise_std_m": math.inf}, "ranging.noise_std_m"),
        ({"n_samples": 2.5}, "ranging.n_samples"),
        ({"n_samples": None}, "ranging.n_samples: missing"),
        ({"extra": 1}, "ranging.extra: unknown key"),
    ])
    def test_from_dict_names_the_bad_key(self, change, named):
        d = {**reference_model().to_dict(), **change}
        with pytest.raises(ConfigError, match=re.escape(named)):
            RangingModel.from_dict({k: v for k, v in d.items()
                                    if v is not None})

    def test_from_dict_needs_an_object(self):
        with pytest.raises(ConfigError, match="ranging: not an object"):
            RangingModel.from_dict([1.0, 0.0, 0.0, 2])

    def test_from_dict_takes_integral_sample_counts(self):
        d = {**reference_model().to_dict(), "n_samples": 40.0}
        assert RangingModel.from_dict(d) == reference_model()

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            RangingSample(0.0, 1.0)
        with pytest.raises(ValueError):
            RangingSample(1.0, -1.0)


class TestSampleCsv:
    def test_round_trip(self, tmp_path):
        samples = [RangingSample(1.5, 1.8), RangingSample(2.5, 2.9)]
        path = tmp_path / "samples.csv"
        save_samples(samples, path)
        assert load_samples(path) == samples

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(CsvFormatError) as err:
            load_samples(path)
        assert err.value.line == 1

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("true_m,measured_m\n1.0,1.2\nx,2\n")
        with pytest.raises(CsvFormatError) as err:
            load_samples(path)
        assert err.value.line == 3
