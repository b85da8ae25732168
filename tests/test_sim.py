import csv
import dataclasses
import io
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import uwbcal.sim as sim
from conftest import apply_drift, fix_tag, step_motion
from uwbcal.autocalib import calibrate
from uwbcal.errors import (ConfigError, CsvFormatError,
                           EmptyTrace, NotConverged, SingularUpdate,
                           finite_number, integer)
from uwbcal.geometry import Point2, translation_errors, wrap_angle
from uwbcal.leastsq import MAX_ITERATIONS
from uwbcal.multilateration import SINGULAR
from uwbcal.protocol import run_calibration_round
from uwbcal.ranging import RangingModel
from uwbcal.sim import (DEFAULT_ANCHOR_LAYOUT, MOTION_BLOCK, SCALAR_KEYS,
                        TRACE_HEADER, MotionParams, MotionTable,
                        ScenarioConfig, SimulationTrace, TraceRecord, Trigger,
                        point_in_anchor_hull, read_trace_records,
                        resolve_config, run_scenario, summarize,
                        write_trace_csv)

NOISELESS = RangingModel(1.0, 0.0, 0.0, 2)


def xy(points):
    return np.array([tuple(p) for p in points], dtype=float)


def step(cfg, rng, anchors=None):
    """One oracle step_motion from cfg's initial positions (or ``anchors``,
    no tags); returns the new (true_xy, est_xy)."""
    if anchors is None:
        anchors = cfg.initial_anchor_positions + cfg.initial_tag_positions
    true_xy = xy(anchors)
    return step_motion(true_xy, true_xy[:cfg.n_anchors].copy(),
                       *cfg.motion.arrays(), rng)


class TestConfig:
    def test_defaults_resolve(self):
        cfg = resolve_config(ScenarioConfig())
        assert cfg.n_anchors == 4
        assert cfg.initial_anchor_positions == DEFAULT_ANCHOR_LAYOUT[:4]
        assert len(cfg.initial_tag_positions) == 3
        assert len(cfg.motion.anchors) == 4
        assert len(cfg.motion.tags) == 3
        assert cfg.ranging is not None
        for tag in cfg.initial_tag_positions:
            assert point_in_anchor_hull(tag,
                                        list(cfg.initial_anchor_positions))

    def test_dict_round_trip(self):
        cfg = resolve_config(ScenarioConfig(seed=7))
        again = ScenarioConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict({"n_anchors": 4, "bogus": 1})
        assert "bogus" in str(err.value)

    def test_all_violations_reported_at_once(self):
        cfg = ScenarioConfig(n_anchors=2, n_steps=0, drift_bound=-1.0)
        with pytest.raises(ConfigError) as err:
            resolve_config(cfg)
        text = str(err.value)
        assert "n_anchors" in text and "n_steps" in text
        assert "drift_bound" in text

    def test_tags_must_start_inside_hull(self):
        cfg = ScenarioConfig(initial_tag_positions=(
            Point2(100, 100), Point2(9, 11), Point2(7, 6)))
        with pytest.raises(ConfigError) as err:
            resolve_config(cfg)
        assert "initial_tag_positions[0]" in str(err.value)

    def test_coincident_anchors_rejected(self):
        cfg = ScenarioConfig(n_anchors=4, n_tags=0, initial_anchor_positions=(
            Point2(0, 0), Point2(8, 0), Point2(8, 8), Point2(8, 0)))
        with pytest.raises(ConfigError) as err:
            resolve_config(cfg)
        assert "initial_anchor_positions[3]" in str(err.value)
        assert "initial_anchor_positions[1]" in str(err.value)

    def test_motion_lengths_checked(self):
        motion = MotionTable(anchors=(MotionParams(0.0, 0.1, 0.0),),
                             tags=())
        with pytest.raises(ConfigError):
            resolve_config(ScenarioConfig(motion=motion, n_tags=0))

    def test_trigger_parsing(self):
        assert Trigger.parse("periodic") == Trigger("periodic")
        assert Trigger.parse("threshold:0.25") == Trigger("threshold", 0.25)
        with pytest.raises(ValueError):
            Trigger.parse("sometimes")
        with pytest.raises(ValueError):
            Trigger("threshold", -1.0)
        for bound in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                Trigger("threshold", bound)

    def test_explicit_anchor_count_needed_beyond_defaults(self):
        with pytest.raises(ConfigError) as err:
            resolve_config(ScenarioConfig(n_anchors=6))
        assert "initial_anchor_positions" in str(err.value)

    def test_scalar_bounds_are_inclusive(self):
        ring = tuple(Point2(40.0 * math.cos(2 * math.pi * i / 64),
                            40.0 * math.sin(2 * math.pi * i / 64))
                     for i in range(64))
        for key, _, low, high in SCALAR_KEYS:
            for value in (low, high):
                if value == math.inf:
                    continue
                cfg = ScenarioConfig(**{key: value})
                if key == "n_anchors":
                    # the default tags of 3 default anchors leave their hull
                    cfg = dataclasses.replace(
                        cfg, n_tags=0, initial_anchor_positions=ring[:value])
                resolve_config(cfg)
            if high < math.inf:
                above = high * 2 if isinstance(high, float) else high + 1
                with pytest.raises(ConfigError) as err:
                    resolve_config(ScenarioConfig(**{key: above}))
                assert err.value.violations == [f"{key}: need <= {high}"]

    def test_readme_key_table_matches_the_schema(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split(
            "### Scenario files\n", 1)[1]
        table = section[section.index("| key |"):].split("\n\n", 1)[0]
        rows = [line.strip("| ").split(" | ")
                for line in table.splitlines()[2:]]
        assert [key for key, *_ in rows] == [
            f"`{f.name}`" for f in dataclasses.fields(ScenarioConfig)]
        cells = {key.strip("`"): (default, values)
                 for key, default, values, _ in rows}
        kinds = {"integer": (integer, math.inf),
                 "finite number": (finite_number, sys.float_info.max)}
        for key, parse, low, high in SCALAR_KEYS:
            default, values = cells[key]
            field_default = getattr(ScenarioConfig(), key)
            assert json.loads(default) == field_default
            assert type(json.loads(default)) is type(field_default)
            # "<kind> <low> … <high>", or "<kind> ≥ <low>" when the kind
            # alone bounds it from above
            m = re.fullmatch(r"(integer|finite number) "
                             r"(?:≥ (\d+)|(\d+) … (\d+))", values)
            assert m, values
            kind, top = kinds[m[1]]
            assert (kind, int(m[2] or m[3]), int(m[4]) if m[4] else top) \
                == (parse, low, high), key


class TestMotion:
    @staticmethod
    def still_anchors(speed):
        return dataclasses.replace(
            resolve_config(ScenarioConfig(n_tags=0)),
            motion=MotionTable(anchors=tuple(MotionParams(0.0, speed, 0.0)
                                             for _ in range(4)), tags=()),
            n_tags=0)

    def test_stationary_when_speed_and_noise_zero(self):
        cfg = self.still_anchors(0.0)
        new_true, _ = step(cfg, np.random.default_rng(0))
        assert np.array_equal(new_true, xy(DEFAULT_ANCHOR_LAYOUT[:4]))

    def test_constant_heading_advance(self):
        cfg = self.still_anchors(0.1)
        new_true, _ = step(cfg, np.random.default_rng(0))
        for before, after in zip(DEFAULT_ANCHOR_LAYOUT[:4], new_true):
            assert after[0] == pytest.approx(before.x + 0.1)
            assert after[1] == pytest.approx(before.y)

    def test_estimates_track_executed_motion(self):
        cfg = resolve_config(ScenarioConfig(seed=3, n_tags=0))
        new_true, new_est = step(cfg, np.random.default_rng(3))
        assert np.array_equal(new_true, new_est)

    def test_seeded_motion_reproducible(self):
        cfg = resolve_config(ScenarioConfig(seed=5))
        a = step(cfg, np.random.default_rng(11))
        b = step(cfg, np.random.default_rng(11))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert a[0].shape == (4 + 3, 2)

    def test_one_draw_per_node_in_node_order(self):
        # row k moves by speed*(cos, sin)(direction) + gaussian_std * z_k,
        # anchors then tags, z the step's single (N+T, 2) normal draw
        cfg = resolve_config(ScenarioConfig(seed=5))
        new_true, _ = step(cfg, np.random.default_rng(11))
        z = np.random.default_rng(11).standard_normal((4 + 3, 2)).tolist()
        nodes = cfg.motion.anchors + cfg.motion.tags
        start = cfg.initial_anchor_positions + cfg.initial_tag_positions
        for p, m, (zx, zy), row in zip(start, nodes, z, new_true.tolist()):
            assert row == [
                p.x + (m.speed * math.cos(m.direction) + m.gaussian_std * zx),
                p.y + (m.speed * math.sin(m.direction) + m.gaussian_std * zy)]


class TestDrift:
    def test_zero_bound_tracks_truth(self):
        est = xy(resolve_config(ScenarioConfig()).initial_anchor_positions)
        new = apply_drift(est, 0.0, np.random.default_rng(0))
        assert np.array_equal(new, est)

    def test_seeded_drift_reproducible(self):
        est = xy(resolve_config(ScenarioConfig()).initial_anchor_positions)
        a = apply_drift(est, 0.1, np.random.default_rng(9))
        b = apply_drift(est, 0.1, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_ten_step_accumulation_matches_uniform_sum(self):
        # per coordinate: a 10-term Uniform(-0.1, 0.1) sum,
        # std = sqrt(10) * 0.2 / sqrt(12)
        cfg = resolve_config(ScenarioConfig())
        start = xy(cfg.initial_anchor_positions)
        offsets = []
        for run in range(10_000):
            rng = np.random.default_rng(run)
            est = start
            for _ in range(10):
                est = apply_drift(est, cfg.drift_bound, rng)
            offsets.append(est[1, 0] - cfg.initial_anchor_positions[1].x)
        expected = math.sqrt(10) * 0.2 / math.sqrt(12)
        assert expected == pytest.approx(0.18257, abs=1e-5)
        assert np.std(offsets) == pytest.approx(expected, abs=0.005)
        assert np.mean(offsets) == pytest.approx(0.0, abs=0.01)


class TestRunScenario:
    def test_zero_noise_zero_drift_is_error_free(self):
        cfg = ScenarioConfig(seed=1, drift_bound=0.0, ranging=NOISELESS,
                             n_steps=30)
        trace = run_scenario(cfg)
        for record in trace.records:
            assert max(record.anchor_errors) <= 1e-6
            assert max(record.tag_errors) <= 1e-6
            assert abs(record.rotation_error) <= 1e-6

    def test_calibrations_flagged_on_schedule(self):
        trace = run_scenario(ScenarioConfig(seed=0))
        assert [r.step for r in trace.records if r.calibrated] == \
            [10, 20, 30, 40, 50]

    def test_anchor_zero_error_is_identically_zero(self):
        trace = run_scenario(ScenarioConfig(seed=2, n_steps=25))
        for record in trace.records:
            assert record.anchor_errors[0] == 0.0

    def test_deterministic_records(self):
        cfg = ScenarioConfig(seed=123, n_steps=25)
        assert run_scenario(cfg).records == run_scenario(cfg).records

    def test_single_seed_sawtooth(self):
        trace = run_scenario(ScenarioConfig(seed=0))
        by_step = {r.step: r for r in trace.records}
        drops = [np.mean(by_step[s].anchor_errors[1:])
                 < np.mean(by_step[s - 1].anchor_errors[1:])
                 for s in (10, 20, 30, 40, 50)]
        assert sum(drops) >= 4

    def test_threshold_trigger_calibrates_on_error(self):
        cfg = ScenarioConfig(seed=4, trigger=Trigger("threshold", 0.15))
        trace = run_scenario(cfg)
        n_cal = sum(1 for r in trace.records if r.calibrated)
        assert n_cal > 5  # fires far more often than the periodic default

    def test_bias_correction_toggle(self):
        # isolate the bias: no drift, no ranging noise
        from uwbcal.ranging import reference_model
        ref = reference_model()
        quiet = RangingModel(ref.slope, ref.intercept, 0.0, 2)
        cfg = ScenarioConfig(seed=6, n_steps=20, drift_bound=0.0,
                             ranging=quiet)
        corrected = run_scenario(cfg)
        biased = run_scenario(cfg, bias_correction=False)

        def medians(trace):
            anchors = [e for r in trace.records for e in r.anchor_errors[1:]]
            tags = [e for r in trace.records for e in r.tag_errors]
            return np.median(anchors), np.median(tags)

        anchors_ok, tags_ok = medians(corrected)
        assert anchors_ok < 1e-6 and tags_ok < 1e-6
        anchors_bad, tags_bad = medians(biased)
        # uncorrected line inflates the reconstructed geometry; the tag fix
        # partially self-compensates but stays far above the corrected run
        assert anchors_bad > 0.3
        assert tags_bad > 0.05

    def test_rows_cover_every_node_and_step(self):
        cfg = ScenarioConfig(seed=7, n_steps=12)
        trace = run_scenario(cfg)
        for field in ("true_positions", "est_positions"):
            assert sum(len(getattr(r, field)) for r in trace.records) == \
                12 * (4 + 3)

    def test_row_errors_consistent_with_positions(self):
        trace = run_scenario(ScenarioConfig(seed=9, n_steps=10))
        for r in trace.records:
            for (tx, ty), est, err in zip(r.true_positions, r.est_positions,
                                          r.anchor_errors + r.tag_errors):
                if est is not None:
                    ex, ey = est
                    assert err == pytest.approx(math.hypot(ex - tx, ey - ty),
                                                abs=1e-12)

    def test_negative_seed_rejected_as_config_error(self):
        with pytest.raises(ConfigError) as err:
            run_scenario(ScenarioConfig(seed=-1))
        assert "seed" in str(err.value)

    def test_singular_tag_update_is_a_diagnostic(self, monkeypatch):
        # NaN ranges leave the third fix's damped system unsolvable
        real = sim.solve_fixes

        def third_fix_singular(anchor_x, anchor_y, ranges):
            ranges = np.array(ranges)
            ranges[2] = math.nan
            batch = real(anchor_x, anchor_y, ranges)
            assert batch.status.tolist().count(SINGULAR) == 1
            return batch

        monkeypatch.setattr(sim, "solve_fixes", third_fix_singular)
        trace = run_scenario(ScenarioConfig(seed=3, n_steps=4))
        assert len(trace.records) == 4
        assert math.isnan(trace.records[0].tag_errors[2])
        assert trace.records[0].est_positions[4 + 2] is None
        assert sum(math.isnan(e) for r in trace.records
                   for e in r.tag_errors) == 1
        assert trace.diagnostics == [
            "step 0: tag 2 fix failed: normal equations unsolvable at "
            "maximum damping"]

    def test_singular_warm_calibration_is_a_diagnostic(self, monkeypatch):
        real = sim.calibrate

        def warm_singular(stats, model, prior=None):
            if prior is not None:
                raise SingularUpdate("forced singular update")
            return real(stats, model, prior=prior)

        monkeypatch.setattr(sim, "calibrate", warm_singular)
        cfg = ScenarioConfig(seed=3, n_tags=0, n_steps=7,
                             calibration_period=3)
        trace = run_scenario(cfg)
        assert trace.diagnostics == [
            f"step {t}: calibration failed: forced singular update"
            for t in (3, 6)]
        assert not any(r.calibrated for r in trace.records)
        # the estimates carry on as if no round had run
        monkeypatch.undo()
        uncalibrated = run_scenario(dataclasses.replace(
            cfg, calibration_period=cfg.n_steps))
        assert repr(trace.records) == repr(uncalibrated.records)

    @pytest.mark.parametrize("seed, step", [(1, 3), (3, 0), (5, 1)])
    def test_overflowing_drift_warns_nothing_and_names_the_step(self, seed,
                                                                step):
        # warm calibrations fail with a singular update on the way (seeds 1
        # and 5); at seeds 3 and 5 an anchor error overflows first
        cfg = ScenarioConfig(n_anchors=4, n_tags=1, n_steps=5,
                             calibration_period=1, k_measurements=1,
                             drift_bound=1e308, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"step {step}: node "
                                                  f"positions overflowed"):
                run_scenario(cfg)

    def test_tag_on_anchor_is_a_failed_fix(self):
        still = MotionParams(0.0, 0.0, 0.0)
        cfg = ScenarioConfig(
            n_anchors=3, n_tags=1, n_steps=3, drift_bound=0.0,
            initial_anchor_positions=(Point2(2, 3), Point2(11, 3),
                                      Point2(6, 12)),
            initial_tag_positions=(Point2(2, 3),),
            motion=MotionTable(anchors=(still,) * 3, tags=(still,)))
        trace = run_scenario(cfg)
        for r in trace.records:
            assert math.isnan(r.tag_errors[0])
            assert r.est_positions[3] is None
        assert trace.diagnostics == [
            f"step {t}: tag 0 coincides with anchor 0 and cannot range it"
            for t in range(3)]

    def test_anchors_meeting_at_a_calibration_is_a_config_error(self):
        still = MotionParams(0.0, 0.0, 0.0)
        cfg = ScenarioConfig(
            n_anchors=3, n_tags=0, n_steps=12, drift_bound=0.0,
            initial_anchor_positions=(Point2(0, 0), Point2(11, 0),
                                      Point2(5, 8)),
            motion=MotionTable(anchors=(MotionParams(0.0, 1.0, 0.0), still,
                                        still), tags=()))
        with pytest.raises(ConfigError, match="step 10: anchors 0 and 1"):
            run_scenario(cfg)
        # meeting between calibrations leaves the run intact
        run_scenario(dataclasses.replace(cfg, n_steps=11,
                                         calibration_period=20))

    def test_overflowing_positions_are_a_config_error(self):
        with pytest.raises(ConfigError, match=r"step \d+: node positions"):
            run_scenario(ScenarioConfig(drift_bound=1e308))

    def test_tagless_scenario_runs(self):
        trace = run_scenario(ScenarioConfig(seed=4, n_tags=0, n_steps=15))
        assert all(r.tag_errors == () for r in trace.records)
        assert summarize(trace).tag_translation is None

    def test_five_anchor_default_layout(self):
        trace = run_scenario(ScenarioConfig(seed=5, n_anchors=5, n_steps=15))
        assert all(len(r.anchor_errors) == 5 for r in trace.records)
        assert trace.config["initial_anchor_positions"][4] == [4.0, 22.0]

    def test_three_anchor_default_layout(self):
        # the first three survey anchors span a thin hull; a default tag
        # whose offset across the anchor-0-to-centroid segment leaves it
        # sits on the segment instead
        trace = run_scenario(ScenarioConfig.from_dict({"n_anchors": 3}))
        assert len(trace.records) == 55
        anchors = [Point2(*p)
                   for p in trace.config["initial_anchor_positions"]]
        tags = trace.config["initial_tag_positions"]
        assert len(tags) == 3
        assert all(point_in_anchor_hull(Point2(*t), anchors) for t in tags)
        many = resolve_config(ScenarioConfig(n_anchors=3, n_tags=64))
        assert all(point_in_anchor_hull(t, anchors)
                   for t in many.initial_tag_positions)

    def test_three_anchor_tag_fixes_stop_clear_of_the_cap(self):
        # Gauss-Newton steps crawled into the iteration cap on 235 of these
        # 3,300 fixes; only the step-40 collinear fixes of seed 0 may fail
        capped = f"stopped after {MAX_ITERATIONS} iterations"
        failed = []
        for seed in range(20):
            trace = run_scenario(ScenarioConfig.from_dict(
                {"n_anchors": 3, "seed": seed}))
            assert not [d for d in trace.diagnostics if capped in d]
            failed += [(seed, r.step) for r in trace.records
                       for e in r.tag_errors if math.isnan(e)]
        assert failed == [(0, 40)] * 3

    def test_tag_errors_insensitive_to_calibration_timing_at_zero_drift(self):
        # tags are located fresh each step, so with no drift the calibration
        # cadence barely matters
        med = lambda t: float(np.median([e for r in t.records
                                         for e in r.tag_errors]))
        base = ScenarioConfig(seed=8, drift_bound=0.0)
        a = run_scenario(base)
        b = run_scenario(dataclasses.replace(base, calibration_period=25))
        assert abs(med(a) - med(b)) < 0.01


def run_per_step(cfg):
    """``run_scenario`` with motion and drift drawn and added one step at a
    time, and tags fixed one at a time, at their step, through the conftest
    oracles: the reference for the block loop and for the two passes."""
    seq = np.random.SeedSequence(cfg.seed).spawn(4)
    params_rng, motion_rng, drift_rng, ranging_rng = (
        np.random.default_rng(s) for s in seq)
    cfg = resolve_config(cfg, params_rng)
    model = correction = cfg.ranging
    n = cfg.n_anchors
    stats, _ = run_calibration_round(n, cfg.k_measurements,
                                     cfg.initial_anchor_positions, model,
                                     ranging_rng)
    diagnostics = []
    try:
        result = calibrate(stats, correction)
    except NotConverged as exc:
        result = exc.result
        diagnostics.append("bootstrap calibration did not converge")
    true_xy = xy(cfg.initial_anchor_positions + cfg.initial_tag_positions)
    est_xy = true_xy[0] + xy(result.positions)
    velocity, jitter = cfg.motion.arrays()
    records = []
    for t in range(cfg.n_steps):
        with np.errstate(over="ignore", invalid="ignore"):
            true_xy, est_xy = step_motion(true_xy, est_xy, velocity, jitter,
                                          motion_rng)
            est_xy = apply_drift(est_xy, cfg.drift_bound, drift_rng)
            frame_xy = est_xy - est_xy[0]
        if not (np.isfinite(true_xy).all() and np.isfinite(frame_xy).all()):
            raise ConfigError([
                f"step {t}: node positions overflowed; reduce the motion "
                f"speed or gaussian_std, or drift_bound"])
        world, frame = true_xy.tolist(), frame_xy.tolist()
        truth = world[:n]
        calibrated = False
        if sim._trigger_fires(cfg, t,
                              translation_errors(frame, truth, truth[0])):
            stats, _ = run_calibration_round(
                n, cfg.k_measurements, truth, model, ranging_rng)
            try:
                result = calibrate(stats, correction, prior=frame)
            except NotConverged as exc:
                result = exc.result
                diagnostics.append(f"step {t}: calibration did not converge")
            est_xy = est_xy[0] + xy(result.positions)
            frame = (est_xy - est_xy[0]).tolist()
            calibrated = True
        (x0, y0), (x1, y1), (fx, fy) = truth[0], truth[1], frame[1]
        rotation = wrap_angle(math.atan2(fy, fx)
                              - math.atan2(y1 - y0, x1 - x0))
        est_pos = [(x + x0, y + y0) for x, y in frame]
        tag_errors = []
        for tag_id, tag_true in enumerate(world[n:]):
            est_world, err = fix_tag(tag_true, truth, frame, model,
                                     correction, ranging_rng, diagnostics, t,
                                     tag_id)
            tag_errors.append(err)
            est_pos.append(est_world)
        records.append(TraceRecord(
            t, tuple(translation_errors(frame, truth, truth[0])),
            tuple(tag_errors), rotation, calibrated,
            tuple(map(tuple, world)), tuple(est_pos)))
    return SimulationTrace(cfg.to_dict(), records, diagnostics)


def assert_same_as_per_step(cfg):
    """``run_scenario`` gives what the per-step loop gives, to the last bit
    (``repr`` round-trips every float and shows NaN), or raises the same
    error."""
    outcomes = []
    for run in (run_scenario, run_per_step):
        try:
            outcomes.append(repr(run(cfg)))
        except ConfigError as exc:
            outcomes.append(f"ConfigError: {exc}")
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


class TestMotionBlocks:
    @pytest.mark.parametrize("n_steps", [MOTION_BLOCK - 1, MOTION_BLOCK,
                                         MOTION_BLOCK + 1])
    def test_block_edges(self, n_steps):
        assert_same_as_per_step(ScenarioConfig(seed=21, n_steps=n_steps))

    @pytest.mark.parametrize("period", [7, MOTION_BLOCK - 1, MOTION_BLOCK])
    def test_calibration_on_a_blocks_last_or_first_step(self, period):
        cfg = ScenarioConfig(seed=22, n_steps=2 * MOTION_BLOCK + 1,
                             calibration_period=period, n_tags=1)
        assert_same_as_per_step(cfg)
        # period B-1 fires on block 0's last step, period B on block 1's
        # first; period 7 restarts the estimates several times in a block
        steps = [r.step for r in run_scenario(cfg).records if r.calibrated]
        assert steps == list(range(period, 2 * MOTION_BLOCK + 1, period))

    def test_calibration_every_step(self):
        assert_same_as_per_step(ScenarioConfig(
            seed=23, n_steps=MOTION_BLOCK + 2, calibration_period=1,
            n_tags=1))

    def test_threshold_trigger(self):
        cfg = ScenarioConfig(seed=24, n_steps=2 * MOTION_BLOCK + 3,
                             trigger=Trigger("threshold", 0.15))
        assert_same_as_per_step(cfg)
        steps = [r.step for r in run_scenario(cfg).records if r.calibrated]
        assert min(steps) < MOTION_BLOCK < max(steps)

    def test_overflow_in_second_block_names_the_same_step(self):
        # anchor 0 runs off at max_float / (B + 7.5) m/step, so its x passes
        # the float range at step B + 7, in the second block; the period
        # keeps every calibration away from the huge positions
        last = MOTION_BLOCK + 7
        fast = MotionParams(0.0, sys.float_info.max / (last + 0.5), 0.0)
        still = MotionParams(0.0, 0.0, 0.0)
        cfg = ScenarioConfig(
            n_anchors=3, n_tags=0, n_steps=3 * MOTION_BLOCK,
            calibration_period=1000,
            motion=MotionTable(anchors=(fast, still, still), tags=()))
        message = assert_same_as_per_step(cfg)
        assert message.startswith(f"ConfigError: step {last}: node positions")


def fix_step(tags, truth, frame, model, correction, rng, step):
    """One step's tags through ``sim._TagFixes``: the ranges drawn, then
    the fixes made. Returns (estimate, error) per tag and the diagnostics."""
    fixes, diagnostics = sim._TagFixes(model, correction), []
    fixes.draw(step, tags, truth, frame, rng, diagnostics)
    fixes.solve(diagnostics)
    return list(zip(fixes.estimates, fixes.errors)), diagnostics


class TestFixTags:
    @pytest.mark.parametrize("noise_std", [0.0, 0.058, 4.0])
    def test_matches_per_tag_oracle(self, noise_std):
        # tag 1 sits on anchor 2 and draws nothing; at 4 m noise some
        # corrected ranges come out non-positive
        truth = [tuple(p) for p in DEFAULT_ANCHOR_LAYOUT[:4]]
        frame = [(x - 2.0 + 0.1 * i, y - 3.0 - 0.05 * i)
                 for i, (x, y) in enumerate(truth)]
        tags = [(9.0, 11.0), truth[2], (6.5, 8.25), (14.0, 15.0)]
        model = RangingModel(1.01, 0.02, noise_std, 2)
        correction = RangingModel(1.005, 0.01, noise_std, 2)
        seen = []
        for seed in range(12):
            rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
            oracle_diagnostics = []
            fixes, diagnostics = fix_step(tags, truth, frame, model,
                                          correction, rng, 7)
            oracle = [fix_tag(tag, truth, frame, model, correction,
                              oracle_rng, oracle_diagnostics, 7, tag_id)
                      for tag_id, tag in enumerate(tags)]
            assert repr(fixes) == repr(oracle)
            assert diagnostics == oracle_diagnostics
            assert rng.standard_normal() == oracle_rng.standard_normal()
            seen += diagnostics
        assert any("tag 1 coincides with anchor 2" in d for d in seen)
        assert any("non-positive corrected range" in d for d in seen) == \
            (noise_std == 4.0)

    def test_no_tags_draws_nothing(self):
        rng = np.random.default_rng(3)
        truth = [tuple(p) for p in DEFAULT_ANCHOR_LAYOUT[:3]]
        assert fix_step([], truth, truth, NOISELESS, NOISELESS, rng, 0) == \
            ([], [])
        assert rng.standard_normal() == \
            np.random.default_rng(3).standard_normal()

    def test_failed_fixes_keep_their_place_among_the_diagnostics(self):
        # at step 50 the calibration does not converge and leaves the anchor
        # frame collinear, so every tag fix of that step fails too
        cfg = ScenarioConfig.from_dict({"n_anchors": 3, "k_measurements": 1,
                                        "calibration_period": 5, "seed": 9,
                                        "n_steps": 51})
        trace = run_scenario(cfg)
        assert repr(trace) == repr(run_per_step(cfg))
        at_50 = [d for d in trace.diagnostics if d.startswith("step 50:")]
        assert at_50 == ["step 50: calibration did not converge"] + [
            f"step 50: tag {j} fix failed: anchor layout is (near-)collinear,"
            f" condition 1.08e+08" for j in range(3)]


class TestSummaries:
    def test_constant_trace_quartiles(self):
        records = [TraceRecord(step=s, anchor_errors=(0.0, 0.25, 0.25, 0.25),
                               tag_errors=(0.1,), rotation_error=0.05,
                               calibrated=False)
                   for s in range(6)]
        stats = summarize(records)
        q = stats.anchor_translation
        assert (q.min, q.q1, q.median, q.q3, q.max) == (0.25,) * 5
        assert stats.tag_translation.median == 0.1
        assert stats.rotation.median == 0.05
        assert stats.n_calibrations == 0
        assert stats.mean_anchor_error_before_calibration is None

    def test_before_after_calibration_means(self):
        records = [
            TraceRecord(0, (0.0, 0.2, 0.2), (0.1,), 0.0, False),
            TraceRecord(1, (0.0, 0.4, 0.4), (0.1,), 0.0, False),
            TraceRecord(2, (0.0, 0.1, 0.1), (0.1,), 0.0, True),
        ]
        stats = summarize(records)
        assert stats.n_calibrations == 1
        event = stats.calibration_events[0]
        assert event.step == 2
        assert event.mean_anchor_error_before == pytest.approx(0.4)
        assert event.mean_anchor_error_after == pytest.approx(0.1)

    def test_empty_trace_raises(self):
        with pytest.raises(EmptyTrace):
            summarize([])

    def test_failed_tag_fix_excluded_from_pool(self):
        records = [TraceRecord(0, (0.0, 0.2), (math.nan, 0.3), 0.0, False)]
        stats = summarize(records)
        assert stats.tag_translation.median == 0.3


class TestTraceCsv:
    def test_round_trip_preserves_summary(self, tmp_path):
        trace = run_scenario(ScenarioConfig(seed=3, n_steps=15))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        records = read_trace_records(path)
        direct = summarize(trace)
        loaded = summarize(records)
        assert loaded.anchor_translation.median == pytest.approx(
            direct.anchor_translation.median, rel=1e-6)
        assert loaded.tag_translation.median == pytest.approx(
            direct.tag_translation.median, rel=1e-6)
        assert loaded.n_calibrations == direct.n_calibrations

    def test_failed_fix_rows_read_back_as_nan(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text(
            "step,node_kind,node_id,true_x,true_y,est_x,est_y,error_m,"
            "rotation_error_rad,calibrated\n"
            "0,anchor,0,0,0,0,0,0,0.0,0\n"
            "0,anchor,1,9,0,9.1,0,0.1,0.0,0\n"
            "0,tag,0,5,5,,,,0.0,0\n"
            "0,tag,1,6,5,6.2,5,0.2,0.0,0\n")
        records = read_trace_records(path)
        assert math.isnan(records[0].tag_errors[0])
        assert records[0].tag_errors[1] == 0.2
        stats = summarize(records)
        assert stats.tag_translation.median == 0.2

    @pytest.fixture
    def failed_fix_trace(self, monkeypatch):
        """A 6-step default run whose tag fixes 2, 7, 12 and 17 of 18
        fail: their anchors are put on a line."""
        real = sim.solve_fixes

        def every_fifth_fails(anchor_x, anchor_y, ranges):
            anchor_y = np.array(anchor_y)
            anchor_y[2::5] = 0.0
            return real(anchor_x, anchor_y, ranges)

        monkeypatch.setattr(sim, "solve_fixes", every_fifth_fails)
        trace = run_scenario(ScenarioConfig(seed=11, n_steps=6))
        assert [d.split(": ", 1)[1] for d in trace.diagnostics] == \
            [f"tag {j} fix failed: anchor layout is (near-)collinear, "
             f"condition inf" for j in (2, 1, 0, 2)]
        return trace

    def test_bytes_are_those_of_csv_writer(self, tmp_path, failed_fix_trace):
        trace = failed_fix_trace
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(TRACE_HEADER)
        for r in trace.records:
            n = len(r.anchor_errors)
            for k, ((tx, ty), est, err) in enumerate(zip(
                    r.true_positions, r.est_positions,
                    r.anchor_errors + r.tag_errors)):
                fix = ["", "", ""] if est is None else \
                    ["%.9g" % est[0], "%.9g" % est[1], "%.9g" % err]
                writer.writerow([r.step, "anchor" if k < n else "tag",
                                 k if k < n else k - n, "%.9g" % tx,
                                 "%.9g" % ty, *fix, "%.9g" % r.rotation_error,
                                 int(r.calibrated)])
        data = path.read_bytes()
        assert data == expected.getvalue().encode("utf-8")
        assert data.count(b"\r\n") == 1 + 6 * (4 + 3)
        assert data.count(b",,,,") == 4  # the failed fixes' empty fields

    def test_rows_derived_from_records(self, tmp_path, failed_fix_trace):
        trace = failed_fix_trace
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        with open(path, newline="", encoding="utf-8") as f:
            header, *rows = list(csv.reader(f))
        assert header == TRACE_HEADER

        def g(v):
            return "%.9g" % v

        expected = []
        for r in trace.records:
            assert len(r.true_positions) == len(r.est_positions) == 4 + 3
            nodes = [("anchor", i) for i in range(4)] + \
                [("tag", j) for j in range(3)]
            for (kind, nid), (tx, ty), est, err in zip(
                    nodes, r.true_positions, r.est_positions,
                    r.anchor_errors + r.tag_errors):
                assert (est is None) == math.isnan(err)
                expected.append([
                    str(r.step), kind, str(nid), g(tx), g(ty),
                    "" if est is None else g(est[0]),
                    "" if est is None else g(est[1]),
                    "" if est is None else g(err),
                    g(r.rotation_error), str(int(r.calibrated))])
        assert rows == expected
        failed = [row for row in rows if row[5:8] == ["", "", ""]]
        assert len(failed) == 4  # fix calls 2, 7, 12 and 17 of 18
        assert all(row[1] == "tag" for row in failed)

    def test_steps_must_hold_the_same_anchors(self, tmp_path):
        # before/after calibration means would compare different anchors
        path = tmp_path / "trace.csv"
        path.write_text(",".join(TRACE_HEADER) + "\n"
                        "0,anchor,0,0,0,0,0,0,0.01,0\n"
                        "0,anchor,1,9,0,9.2,0,0.2,0.01,0\n"
                        "1,anchor,0,0,0,0,0,0,0.01,1\n")
        with pytest.raises(CsvFormatError,
                           match=re.escape("step 1 holds anchors [0], step 0 "
                                           "holds [0, 1]")):
            read_trace_records(path)

    def test_header_and_shape_checked(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        with pytest.raises(CsvFormatError, match=re.escape(
                f"line 1: expected header {','.join(TRACE_HEADER)!r}, "
                f"got ['nope']")):
            read_trace_records(bad)
        empty = tmp_path / "empty.csv"
        empty.write_text("step,node_kind,node_id,true_x,true_y,est_x,est_y,"
                         "error_m,rotation_error_rad,calibrated\n")
        with pytest.raises(CsvFormatError):
            read_trace_records(empty)


class TestHull:
    def test_interior_and_exterior(self):
        anchors = [Point2(0, 0), Point2(10, 0), Point2(10, 10), Point2(0, 10)]
        assert point_in_anchor_hull(Point2(5, 5), anchors)
        assert point_in_anchor_hull(Point2(0, 0), anchors)  # vertex counts
        assert not point_in_anchor_hull(Point2(11, 5), anchors)
        assert not point_in_anchor_hull(Point2(5, -0.1), anchors)

    def test_collinear_layout_has_no_interior(self):
        line = [Point2(0, 0), Point2(5, 0), Point2(10, 0)]
        assert not point_in_anchor_hull(Point2(5, 0.1), line)
