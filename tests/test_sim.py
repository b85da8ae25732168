import contextlib
import copy
import csv
import dataclasses
import io
import itertools
import json
import math
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import uwbcal.sim as sim
from conftest import apply_drift, fix_tag, step_motion
from oracles import read_trace_rows, translation_errors
from uwbcal.autocalib import calibrate
from uwbcal.errors import (ConfigError, CsvFormatError, DegenerateGeometry,
                           EmptyTrace, InvalidTiming, NotConverged,
                           SingularUpdate, finite_number, integer)
from uwbcal.geometry import wrap_angle
from uwbcal.leastsq import MAX_ITERATIONS
from uwbcal.multilateration import CONDITION_LIMIT, CONVERGED, SINGULAR
from uwbcal.protocol import run_calibration_round
from uwbcal.ranging import RANGING_KEYS, RangingModel
from uwbcal.sim import (DEFAULT_ANCHOR_LAYOUT, MAX_POSITION_M, MAX_STEP_M,
                        MOTION_KEYS, SCALAR_KEYS, TRACE_HEADER, MotionParams,
                        MotionTable, Quartiles, ScenarioConfig,
                        SimulationTrace, StepTable, TraceRecord, Trigger,
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



def still_scenario(anchors, tags, **fields):
    """A drift-free scenario in which no node moves."""
    still = MotionParams(0.0, 0.0, 0.0)
    return ScenarioConfig(
        n_anchors=len(anchors), n_tags=len(tags), drift_bound=0.0,
        initial_anchor_positions=tuple(anchors),
        initial_tag_positions=tuple(tags),
        motion=MotionTable(anchors=(still,) * len(anchors),
                           tags=(still,) * len(tags)), **fields)


def block_rounds(monkeypatch):
    """The number of rounds of each ``sim.run_calibration_rounds`` call,
    a list that the runs after this call fill."""
    counts, real = [], sim.run_calibration_rounds

    def counted(n, k, positions, model, z):
        counts.append(len(positions))
        return real(n, k, positions, model, z)

    monkeypatch.setattr(sim, "run_calibration_rounds", counted)
    return counts

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
            (100, 100), (9, 11), (7, 6)))
        with pytest.raises(ConfigError) as err:
            resolve_config(cfg)
        assert "initial_tag_positions[0]" in str(err.value)

    def test_coincident_anchors_rejected(self):
        cfg = ScenarioConfig(n_anchors=4, n_tags=0, initial_anchor_positions=(
            (0, 0), (8, 0), (8, 8), (8, 0)))
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
        ring = tuple((40.0 * math.cos(2 * math.pi * i / 64),
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
        # each key of a motion entry and of the sensor model, the others
        # keeping valid values
        for cls, rows, where, valid in [
                (MotionParams, MOTION_KEYS, "motion", (0.0, 0.0, 0.0)),
                (RangingModel, RANGING_KEYS, "ranging", (1.0, 0.0, 0.0, 2))]:
            keys = [key for key, *_ in rows]
            for k, (key, parse, low, high) in enumerate(rows):
                def at(value):
                    return dict(zip(keys, valid[:k] + (value,) + valid[k + 1:]))
                for value, away in ((low, -math.inf), (high, math.inf)):
                    if value == math.inf:
                        continue
                    assert cls.from_dict(at(value)).to_dict() == at(value)
                    step = 1 if away > 0 else -1
                    past = value + step if parse is integer \
                        else math.nextafter(value, away)
                    with pytest.raises(ValueError,
                                       match=re.escape(f"{where}.{key}: need")):
                        cls(*at(past).values())

    def test_position_bounds_are_inclusive(self):
        # anchors and tags on the square's corners, from a scenario file
        # and from library code; then each coordinate one float past its
        # bound, in each (a tag there also leaves the anchor hull)
        m = MAX_POSITION_M
        square = [[-m, -m], [m, -m], [m, m], [-m, m]]
        doc = {"n_anchors": 4, "n_tags": 4, "initial_anchor_positions": square,
               "initial_tag_positions": copy.deepcopy(square)}
        for build in (ScenarioConfig.from_dict, self.from_library):
            resolve_config(build(doc))
            for key in ("initial_anchor_positions", "initial_tag_positions"):
                for i, c in itertools.product(range(4), range(2)):
                    past = copy.deepcopy(doc)
                    value = past[key][i][c]
                    past[key][i][c] = math.nextafter(value, value * math.inf)
                    with pytest.raises(ConfigError) as err:
                        resolve_config(build(past))
                    name = f"{key}[{i}].{'xy'[c]}"
                    assert err.value.violations[:1] == [
                        f"{name}: need <= {m}" if value > 0 else
                        f"{name}: need >= {-m}, got {past[key][i][c]}"]

    @pytest.mark.parametrize("key", ["initial_anchor_positions",
                                     "initial_tag_positions"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_library_position_is_named(self, key, bad):
        # from_dict's number checks do not see a library caller's pairs
        points = {"initial_anchor_positions": list(DEFAULT_ANCHOR_LAYOUT[:4]),
                  "initial_tag_positions": [(9.0, 11.0)]}
        points[key][0] = (points[key][0][0], bad)
        cfg = ScenarioConfig(n_tags=1, **{k: tuple(v)
                                          for k, v in points.items()})
        for call in (resolve_config, run_scenario):
            with pytest.raises(ConfigError) as err:
                call(cfg)
            assert err.value.violations[0].startswith(f"{key}[0].y: need ")

    @staticmethod
    def from_library(doc):
        """``doc``'s config built without ``ScenarioConfig.from_dict``."""
        points = {key: tuple(tuple(p) for p in doc[key])
                  for key in ("initial_anchor_positions",
                              "initial_tag_positions")}
        return ScenarioConfig(n_anchors=doc["n_anchors"],
                              n_tags=doc["n_tags"], **points)

    @staticmethod
    def readme_table(header):
        """The rows of the README table under ``header``, cells unquoted."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split(
            "### Scenario files\n", 1)[1]
        table = section[section.index(header):].split("\n\n", 1)[0]
        return [[cell.strip("`") for cell in line.strip("| ").split(" | ")]
                for line in table.splitlines()[2:]]

    @staticmethod
    def row_of_range(key, cell):
        """The ``(key, parser, low, high)`` row a README range reads as:
        "<kind> <low> … <high>", "<kind> ≥ <low>", "<kind> > 0" or the kind
        alone, the kind's own range bounding what the text leaves open."""
        kinds = {"integer": (integer, math.inf),
                 "finite number": (finite_number, sys.float_info.max)}
        m = re.fullmatch(r"(integer|finite number)"
                         r"(?: ≥ (\d+)| (> 0)| (\d+) … (\d+))?", cell)
        assert m, cell
        parse, top = kinds[m[1]]
        low = int(m[2] or m[4]) if m[2] or m[4] else \
            math.ulp(0.0) if m[3] else -top
        return key, parse, low, int(m[5]) if m[5] else top

    def test_readme_key_table_matches_the_schema(self):
        rows = self.readme_table("| key |")
        assert [key for key, *_ in rows] == [
            f.name for f in dataclasses.fields(ScenarioConfig)]
        cells = {key: (default, values) for key, default, values, _ in rows}
        for key, *_ in SCALAR_KEYS:
            default, values = cells[key]
            field_default = getattr(ScenarioConfig(), key)
            assert json.loads(default) == field_default
            assert type(json.loads(default)) is type(field_default)
        assert [self.row_of_range(key, cells[key][1])
                for key, *_ in SCALAR_KEYS] == list(SCALAR_KEYS)
        for header, rows in [("| motion key |", MOTION_KEYS),
                             ("| ranging key |", RANGING_KEYS)]:
            assert [self.row_of_range(key, values) for key, values, _
                    in self.readme_table(header)] == list(rows)
        # the position keys state MAX_POSITION_M
        bound = f"≤ 1e{round(math.log10(MAX_POSITION_M))},"
        for key in ("initial_anchor_positions", "initial_tag_positions"):
            assert bound in cells[key][1]


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
            assert after[0] == pytest.approx(before[0] + 0.1)
            assert after[1] == pytest.approx(before[1])

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
                p[0] + (m.speed * math.cos(m.direction) + m.gaussian_std * zx),
                p[1] + (m.speed * math.sin(m.direction) + m.gaussian_std * zy)]

    def test_top_speed_keeps_errors_finite_over_the_longest_run(self):
        # the longest run, the farthest start, the fastest motion and the
        # largest drift at once: positions reach about 2e10 m
        m = MAX_POSITION_M
        fast = MotionParams(0.0, MAX_STEP_M, MAX_STEP_M)
        cfg = ScenarioConfig(
            n_anchors=3, n_tags=1, n_steps=10_000, drift_bound=MAX_STEP_M,
            initial_anchor_positions=((-m, -m), (m, -m),
                                      (m, m)),
            initial_tag_positions=((m, 0.0),),
            motion=MotionTable(anchors=(fast,) * 3, tags=(fast,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run_scenario(cfg)
        assert len(trace.records) == 10_000
        assert np.abs(trace.true_positions[..., 0]).max() > 1.9 * m
        assert all(math.isfinite(e) for r in trace.records
                   for e in r.anchor_errors + (r.rotation_error,))
        assert any(math.isfinite(e) for r in trace.records
                   for e in r.tag_errors)


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
            offsets.append(est[1, 0] - cfg.initial_anchor_positions[1][0])
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
        a, b = run_scenario(cfg), run_scenario(cfg)
        assert a.records == b.records
        assert np.array_equal(a.true_positions, b.true_positions)
        assert np.array_equal(a.est_positions, b.est_positions)

    def test_single_seed_sawtooth(self):
        trace = run_scenario(ScenarioConfig(seed=0))
        by_step = {r.step: r for r in trace.records}
        drops = [np.mean(by_step[s].anchor_errors[1:])
                 < np.mean(by_step[s - 1].anchor_errors[1:])
                 for s in (10, 20, 30, 40, 50)]
        assert sum(drops) >= 4

    def test_every_run_completes_at_2_m_of_ranging_noise(self):
        # the start fits every pair, so noise that breaks a triangle's
        # inequality leaves a start to refine
        from uwbcal.ranging import reference_model
        ref = reference_model()
        noisy = RangingModel(ref.slope, ref.intercept, 2.0, ref.n_samples)
        for seed in range(40):
            trace = run_scenario(ScenarioConfig(seed=seed, ranging=noisy))
            assert len(trace.records) == ScenarioConfig().n_steps

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
        assert trace.true_positions.shape == (12, 4 + 3, 2)
        assert trace.est_positions.shape == (12, 4 + 3, 2)
        assert np.isfinite(trace.true_positions).all()

    def test_row_errors_consistent_with_positions(self):
        trace = run_scenario(ScenarioConfig(seed=9, n_steps=10))
        for r, true, est in zip(trace.records, trace.true_positions.tolist(),
                                trace.est_positions.tolist()):
            for (tx, ty), (ex, ey), err in zip(true, est,
                                               r.anchor_errors + r.tag_errors):
                # a failed fix is NaN in both
                assert math.isnan(ex) == math.isnan(ey) == math.isnan(err)
                if not math.isnan(err):
                    assert err == pytest.approx(math.hypot(ex - tx, ey - ty),
                                                abs=1e-12)

    def test_negative_seed_rejected_as_config_error(self):
        with pytest.raises(ConfigError) as err:
            run_scenario(ScenarioConfig(seed=-1))
        assert "seed" in str(err.value)

    def test_seed_is_spawned_once_per_run(self, monkeypatch):
        spawned = []
        real = np.random.SeedSequence

        def counted(seed):
            spawned.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "SeedSequence", counted)
        run_scenario(ScenarioConfig(seed=4, n_steps=2))
        assert spawned == [4]

    def test_tagless_step_leaves_the_stream_alone(self, monkeypatch):
        # the only tag sits on anchor 0, so no step ranges a tag; the
        # per-step loop draws nothing for it, so every round starts where
        # the one before it ended
        rounds = block_rounds(monkeypatch)
        trace = assert_same_as_per_step(still_scenario(
            DEFAULT_ANCHOR_LAYOUT[:3], DEFAULT_ANCHOR_LAYOUT[:1],
            calibration_period=2, n_steps=5))
        assert rounds == [3]
        assert all(math.isnan(r.tag_errors[0]) for r in trace.records)

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
        assert np.isnan(trace.est_positions[0, 4 + 2]).all()
        assert np.isnan(trace.est_positions).sum() == 2
        assert sum(math.isnan(e) for r in trace.records
                   for e in r.tag_errors) == 1
        assert trace.diagnostics == [
            "step 0: tag 2 fix failed: normal equations unsolvable at "
            "maximum damping"]

    def test_singular_warm_calibration_is_a_diagnostic(self, monkeypatch):
        singular_warm_calibrations(monkeypatch)
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
        assert repr(trace.est_positions.tolist()) == \
            repr(uncalibrated.est_positions.tolist())

    def test_tag_on_anchor_is_a_failed_fix(self):
        cfg = still_scenario(((2, 3), (11, 3), (6, 12)),
                             ((2, 3),), n_steps=3)
        trace = run_scenario(cfg)
        for r in trace.records:
            assert math.isnan(r.tag_errors[0])
        assert np.isnan(trace.est_positions[:, 3]).all()
        assert trace.diagnostics == [
            f"step {t}: tag 0 coincides with anchor 0 and cannot range it"
            for t in range(3)]

    # a budget of one round a block puts step 10's round first in its block
    @pytest.mark.parametrize("budget", [None, 1])
    def test_anchors_meeting_at_a_calibration_is_a_config_error(
            self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(sim, "ROUND_BLOCK_NORMALS", budget)
        still = MotionParams(0.0, 0.0, 0.0)
        cfg = ScenarioConfig(
            n_anchors=3, n_tags=0, n_steps=12, drift_bound=0.0,
            initial_anchor_positions=((0, 0), (11, 0),
                                      (5, 8)),
            motion=MotionTable(anchors=(MotionParams(0.0, 1.0, 0.0), still,
                                        still), tags=()))
        with pytest.raises(ConfigError, match="step 10: anchors 0 and 1"):
            run_scenario(cfg)
        # meeting between calibrations leaves the run intact
        run_scenario(dataclasses.replace(cfg, n_steps=11,
                                         calibration_period=20))

    @pytest.mark.parametrize("size", [1, 64])
    @pytest.mark.parametrize("fails", ["round", "calibration"])
    def test_an_earlier_error_is_raised_before_anchors_meet(self, monkeypatch,
                                                           fails, size):
        # anchors 0 and 1 meet at step 10. A periodic run draws its rounds
        # ahead, and so meets that step before it solves any, yet when the
        # round or the calibration of step 5 fails, that error is raised,
        # as a step-by-step run raises it
        still = MotionParams(0.0, 0.0, 0.0)
        cfg = ScenarioConfig(
            n_anchors=3, n_tags=0, n_steps=12, drift_bound=0.0,
            calibration_period=5,
            initial_anchor_positions=((0, 0), (11, 0), (5, 8)),
            motion=MotionTable(anchors=(MotionParams(0.0, 1.0, 0.0), still,
                                        still), tags=()))
        with pytest.raises(ConfigError, match="step 10: anchors 0 and 1"):
            run_scenario(cfg)
        real_rounds, real_calibrate, rounds = (sim.run_calibration_rounds,
                                               sim.calibrate, [])

        def run_calibration_rounds(n, k, positions, model, z):
            # round 1 of the run, the first after the bootstrap, fails
            first = len(rounds)
            rounds.extend(positions)
            stats, latency, error = real_rounds(n, k, positions, model, z)
            if first <= 1 < len(rounds):
                return (stats[:1 - first], latency,
                        InvalidTiming("forced failure at step 5"))
            return stats, latency, error

        def calibrate(stats, model, prior=None, **solved):
            if prior is not None:
                raise DegenerateGeometry("forced failure at step 5")
            return real_calibrate(stats, model, prior, **solved)

        monkeypatch.setattr(sim, "batch_size", lambda n: size)
        if fails == "round":
            monkeypatch.setattr(sim, "run_calibration_rounds",
                                run_calibration_rounds)
        else:
            monkeypatch.setattr(sim, "calibrate", calibrate)
        with pytest.raises((InvalidTiming, DegenerateGeometry),
                           match="^forced failure at step 5$"):
            run_scenario(cfg)

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_rounds_solved_in_batches_of_any_size_give_the_same_run(
            self, monkeypatch, size):
        # 6 rounds, solved 1, 2 or 4 at a time rather than all at once
        cfg = ScenarioConfig(seed=3)
        whole = run_scenario(cfg)
        monkeypatch.setattr(sim, "batch_size", lambda n: size)
        split = run_scenario(cfg)
        assert repr((split.records, split.diagnostics)) == \
            repr((whole.records, whole.diagnostics))
        assert split.est_positions.tobytes() == whole.est_positions.tobytes()

    @pytest.mark.parametrize("shape, budget, blocks", [
        ("default_ensemble", None, [6]),
        ("default_ensemble", 150, [2, 2, 2]),
        ("default_ensemble", 1, [1] * 6),
        ("recal_dense", None, [10]),
        ("recal_dense", 2500, [2] * 5),
        ("recal_dense", 1, [1] * 10)])
    def test_rounds_drawn_in_blocks_of_any_size_give_the_same_run(
            self, monkeypatch, shape, budget, blocks):
        # a default round is 60 draws and a recal_dense one 1,000
        cfg = ScenarioConfig.from_dict(dict(BENCHMARK_SHAPES[shape], seed=3))
        whole = run_scenario(cfg)
        rounds = block_rounds(monkeypatch)
        if budget is not None:
            monkeypatch.setattr(sim, "ROUND_BLOCK_NORMALS", budget)
        split = run_scenario(cfg)
        assert rounds == blocks
        assert repr((split.records, split.diagnostics)) == \
            repr((whole.records, whole.diagnostics))
        assert split.est_positions.tobytes() == whole.est_positions.tobytes()

    def test_a_block_of_large_rounds_holds_one_round(self):
        # one round of 20 anchors at k = 1000 is 380,000 draws (3 MB), so
        # the run's 40 rounds, the bootstrap and 39 calibrations, drawn at
        # once would take about 122 MB
        angles = np.arange(20) * (2 * math.pi / 20)
        cfg = ScenarioConfig(
            n_anchors=20, n_tags=0, n_steps=40, k_measurements=1000,
            calibration_period=1, initial_anchor_positions=tuple(zip(
                (10 * np.cos(angles)).tolist(),
                (10 * np.sin(angles)).tolist())))
        tracemalloc.start()
        try:
            trace = run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.table.calibrated.sum() == 39
        assert peak < 40e6

    def test_overflowing_positions_are_a_config_error(self):
        # a drift or a start that could overflow is out of range: the run
        # draws nothing
        with pytest.raises(ConfigError, match="^drift_bound: need <= "):
            run_scenario(ScenarioConfig(drift_bound=1e308))
        far = ((1e308, 0.0),) + DEFAULT_ANCHOR_LAYOUT[1:4]
        with pytest.raises(ConfigError, match=re.escape(
                "initial_anchor_positions[0].x: need <= ")):
            run_scenario(ScenarioConfig(n_tags=0,
                                        initial_anchor_positions=far))

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
        anchors = [tuple(p)
                   for p in trace.config["initial_anchor_positions"]]
        tags = trace.config["initial_tag_positions"]
        assert len(tags) == 3
        assert all(point_in_anchor_hull(tuple(t), anchors) for t in tags)
        many = resolve_config(ScenarioConfig(n_anchors=3, n_tags=64))
        assert all(point_in_anchor_hull(t, anchors)
                   for t in many.initial_tag_positions)

    def test_three_anchor_tag_fixes_stop_clear_of_the_cap(self):
        # Gauss-Newton steps crawled into the iteration cap on 235 of these
        # 3,300 fixes; only collinear fixes may fail: those of seed 0 at
        # step 40, and those of seed 19 at step 50, whose calibration fits
        # its measured triangle with a flat one (condition 3.4e14)
        capped = f"stopped after {MAX_ITERATIONS} iterations"
        failed = []
        for seed in range(20):
            trace = run_scenario(ScenarioConfig.from_dict(
                {"n_anchors": 3, "seed": seed}))
            assert not [d for d in trace.diagnostics if capped in d]
            failed += [(seed, r.step) for r in trace.records
                       for e in r.tag_errors if math.isnan(e)]
        assert failed == [(0, 40)] * 3 + [(19, 50)] * 3

    def test_tag_errors_insensitive_to_calibration_timing_at_zero_drift(self):
        # tags are located fresh each step, so with no drift the calibration
        # cadence barely matters
        med = lambda t: float(np.median([e for r in t.records
                                         for e in r.tag_errors]))
        base = ScenarioConfig(seed=8, drift_bound=0.0)
        a = run_scenario(base)
        b = run_scenario(dataclasses.replace(base, calibration_period=25))
        assert abs(med(a) - med(b)) < 0.01


def run_per_step(cfg, bias_correction=True):
    """``run_scenario`` one step at a time: motion and drift drawn and
    added per step, the trigger tested per step, and tags fixed one at a
    time, at their step, through the conftest oracles. The reference for
    the segment loop and the whole-run arrays after it."""
    seq = np.random.SeedSequence(cfg.seed).spawn(4)
    _, motion_rng, drift_rng, ranging_rng = (
        np.random.default_rng(s) for s in seq)
    cfg = resolve_config(cfg)
    model = cfg.ranging
    correction = model if bias_correction else RangingModel.identity()
    n = cfg.n_anchors
    stats, _ = run_calibration_round(n, cfg.k_measurements,
                                     cfg.initial_anchor_positions, model,
                                     ranging_rng)
    diagnostics = []
    try:
        result = sim.calibrate(stats, correction)
    except NotConverged as exc:
        result = exc.result
        diagnostics.append("bootstrap calibration did not converge")
    true_xy = xy(cfg.initial_anchor_positions + cfg.initial_tag_positions)
    est_xy = true_xy[0] + xy(result.positions)
    velocity, jitter = cfg.motion.arrays()
    records, true_positions, est_positions = [], [], []
    for t in range(cfg.n_steps):
        true_xy, est_xy = step_motion(true_xy, est_xy, velocity, jitter,
                                      motion_rng)
        est_xy = apply_drift(est_xy, cfg.drift_bound, drift_rng)
        world, frame = true_xy.tolist(), (est_xy - est_xy[0]).tolist()
        truth = world[:n]
        calibrated = False
        if cfg.trigger.kind == "periodic":
            fires = t > 0 and t % cfg.calibration_period == 0
        else:
            fires = max(translation_errors(frame, truth, truth[0])) \
                > cfg.trigger.threshold
        if fires:
            stats, _ = run_calibration_round(
                n, cfg.k_measurements, truth, model, ranging_rng)
            try:
                result = sim.calibrate(stats, correction, prior=frame)
            except NotConverged as exc:
                result = exc.result
                diagnostics.append(f"step {t}: calibration did not converge")
            except SingularUpdate as exc:
                result = None
                diagnostics.append(f"step {t}: calibration failed: {exc}")
            if result is not None:
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
            est_pos.append((math.nan, math.nan) if est_world is None
                           else est_world)
        records.append(TraceRecord(
            t, tuple(translation_errors(frame, truth, truth[0])),
            tuple(tag_errors), rotation, calibrated))
        true_positions.append(world)
        est_positions.append(est_pos)
    return SimulationTrace(cfg.to_dict(), StepTable.of(records), diagnostics,
                           np.array(true_positions), np.array(est_positions))


def assert_same_as_per_step(cfg, bias_correction=True):
    """``run_scenario`` gives what the per-step loop gives, to the last bit
    (``repr`` round-trips every float and shows NaN), positions as well as
    records, or raises the same error. Returns its trace, or the error's
    text."""
    outcomes = []
    for run in (run_scenario, run_per_step):
        try:
            outcomes.append(run(cfg, bias_correction))
        except ConfigError as exc:
            outcomes.append(f"ConfigError: {exc}")

    def lines(outcome):
        # one record or step of positions a line, so that a failure names
        # the first step that differs instead of diffing two long strings
        if isinstance(outcome, str):
            return [outcome]
        return [repr(outcome.config), repr(outcome.diagnostics),
                *map(repr, outcome.records),
                *map(repr, zip(outcome.true_positions.tolist(),
                               outcome.est_positions.tolist()))]

    assert lines(outcomes[0]) == lines(outcomes[1])
    return outcomes[0]


def singular_warm_calibrations(monkeypatch, steps=None):
    """Make ``sim.calibrate`` raise SingularUpdate for every warm start, or
    for the warm starts in ``steps``, counted from 1 in each run."""
    real, warm = sim.calibrate, []

    def calibrate(stats, model, prior=None, **solved):
        if prior is None:
            warm.clear()  # a run's bootstrap
        else:
            warm.append(prior)
            if steps is None or len(warm) in steps:
                raise SingularUpdate("forced singular update")
        return real(stats, model, prior=prior, **solved)

    monkeypatch.setattr(sim, "calibrate", calibrate)


class TestMotionBlocks:
    """Segment edges: a run that ends before, at or after a calibration,
    segments of 1, 7, 63 and 64 steps, and a threshold trigger's
    look-ahead."""

    @pytest.mark.parametrize("n_steps", [63, 64, 65])
    def test_block_edges(self, n_steps):
        cfg = ScenarioConfig(seed=21, n_steps=n_steps, calibration_period=64)
        trace = assert_same_as_per_step(cfg)
        steps = [r.step for r in trace.records if r.calibrated]
        assert steps == ([64] if n_steps == 65 else [])

    @pytest.mark.parametrize("period", [7, 63, 64])
    def test_calibration_on_a_blocks_last_or_first_step(self, period):
        cfg = ScenarioConfig(seed=22, n_steps=129, calibration_period=period,
                             n_tags=1)
        trace = assert_same_as_per_step(cfg)
        steps = [r.step for r in trace.records if r.calibrated]
        assert steps == list(range(period, 129, period))

    def test_calibration_every_step(self):
        assert_same_as_per_step(ScenarioConfig(
            seed=23, n_steps=66, calibration_period=1, n_tags=1))

    def test_threshold_trigger(self):
        cfg = ScenarioConfig(seed=24, n_steps=131,
                             trigger=Trigger("threshold", 0.15))
        trace = assert_same_as_per_step(cfg)
        steps = [r.step for r in trace.records if r.calibrated]
        # the look-ahead meets segments of one step and longer ones
        gaps = {b - a for a, b in zip(steps, steps[1:])}
        assert 1 in gaps and max(gaps) > 2
        assert min(steps) < 64 < max(steps)


# the scenario shapes of the benchmark's three workloads
BENCHMARK_SHAPES = {
    "default_ensemble": {},
    "recal_dense": {"n_anchors": 5, "n_tags": 1, "n_steps": 10,
                    "k_measurements": 50, "calibration_period": 1},
    "long_drift": {"n_anchors": 5, "n_tags": 0, "n_steps": 500,
                   "calibration_period": 250},
}


class TestSameAsPerStep:
    @pytest.mark.parametrize("shape", BENCHMARK_SHAPES)
    def test_benchmark_shapes(self, shape):
        for seed in range(5):
            assert_same_as_per_step(ScenarioConfig.from_dict(
                dict(BENCHMARK_SHAPES[shape], seed=seed)))

    def test_threshold_trigger_that_calibrates_most_steps(self):
        cfg = ScenarioConfig(n_steps=200, trigger=Trigger("threshold", 0.3))
        trace = assert_same_as_per_step(cfg)
        assert sum(r.calibrated for r in trace.records) == 180

    def test_without_bias_correction(self):
        cfg = ScenarioConfig(seed=6, n_steps=30, calibration_period=4)
        assert_same_as_per_step(cfg, bias_correction=False)

    def test_records_are_built_only_on_access(self, tmp_path, monkeypatch):
        # simulate and summarize build no TraceRecord; the records a trace
        # builds when asked are those the per-step loop builds, bit for bit
        import uwbcal.cli as cli

        def refuse(*args):
            raise AssertionError("a TraceRecord was built")

        monkeypatch.setattr(sim, "TraceRecord", refuse)
        # 3 anchors: some tag fixes fail, and their errors are NaN
        trace = run_scenario(ScenarioConfig(n_anchors=3))
        scenario, out = tmp_path / "scenario.json", tmp_path / "out"
        scenario.write_text('{"n_anchors": 3}')
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["simulate", "--scenario", str(scenario),
                             "--out-dir", str(out)]) == 0
            assert cli.main(["summarize", "--input",
                             str(out / "trace.csv")]) == 0
        monkeypatch.undo()
        assert any(math.isnan(e) for r in trace.records for e in r.tag_errors)
        assert repr(trace.records) == \
            repr(run_per_step(ScenarioConfig(n_anchors=3)).records)

    def test_singular_warm_calibration(self, monkeypatch):
        singular_warm_calibrations(monkeypatch, steps={1, 3})
        for cfg, calibrated, failed in [
                (ScenarioConfig(seed=3, n_steps=25, calibration_period=5),
                 [10, 20], (5, 15)),
                # the trigger fires at step 0, and the window after a
                # singular warm calibration starts at the step after it
                (ScenarioConfig(seed=3, n_steps=40,
                                trigger=Trigger("threshold", 0.15)),
                 [1, *range(3, 13), *range(15, 20), 23, 26,
                  *range(29, 34), *range(36, 40)], (0, 2))]:
            trace = assert_same_as_per_step(cfg)
            assert [r.step for r in trace.records
                    if r.calibrated] == calibrated
            assert [d for d in trace.diagnostics if "calibration" in d] == [
                f"step {t}: calibration failed: forced singular update"
                for t in failed]

    @pytest.mark.parametrize("singular", [False, True])
    def test_tag_on_anchor_between_calibrations(self, monkeypatch, singular):
        if singular:
            singular_warm_calibrations(monkeypatch)
        cfg = still_scenario(DEFAULT_ANCHOR_LAYOUT[:3],
                             DEFAULT_ANCHOR_LAYOUT[:1],
                             calibration_period=2, n_steps=6)
        trace = assert_same_as_per_step(cfg)
        assert trace.diagnostics == [
            text for t in range(6) for text in
            ([f"step {t}: calibration failed: forced singular update"]
             if singular and t in (2, 4) else [])
            + [f"step {t}: tag 0 coincides with anchor 0 and cannot range it"]]


class TestFixTags:
    @pytest.mark.parametrize("raw, failed", [
        ({}, 0), ({"n_anchors": 3, "seed": 216}, 3)])
    def test_errors_are_those_of_the_placed_estimates(self, raw, failed):
        # one function places and scores every estimate, anchors and tags:
        # a failed fix is NaN in both arrays
        trace = run_scenario(ScenarioConfig.from_dict(raw))
        errors = sim._norms(trace.est_positions - trace.true_positions)
        assert errors.tobytes() == trace.table.errors.tobytes()
        nan = np.isnan(errors)
        assert nan.tolist() == np.isnan(trace.est_positions).any(
            axis=2).tolist()
        assert nan.sum() == failed == sum(
            "fix failed" in note for note in trace.diagnostics)

    @pytest.mark.parametrize("shape", ["default_ensemble", "recal_dense"])
    def test_converged_fixes_end_without_a_stall(self, monkeypatch, shape):
        # Each run's solve_fixes call, replayed with the iteration cap
        # lowered one at a time, shows where every iteration left each fix.
        # A fix stops at the first step whose predicted reduction is within
        # the float floor of its objective, so it never ends on a run of
        # rejected steps while the damping grows: at most its last
        # iteration leaves its position unchanged.
        calls, real = [], sim.solve_fixes

        def recorded(*args):
            calls.append([np.array(a) for a in args])
            return real(*args)

        monkeypatch.setattr(sim, "solve_fixes", recorded)
        for seed in range(10):
            run_scenario(ScenarioConfig.from_dict(
                dict(BENCHMARK_SHAPES[shape], seed=seed)))
        assert len(calls) == 10
        tails = []
        for args in calls:
            batch = real(*args)
            path = np.stack([real(*args, max_iterations=k).position
                             for k in range(batch.iterations.max() + 1)])
            assert np.array_equal(path[-1], batch.position)
            # still[i, p]: iteration i + 1 left fix p where it was
            still = (path[1:] == path[:-1]).all(axis=2).T.tolist()
            for p in np.flatnonzero(batch.status == CONVERGED).tolist():
                n, tail = int(batch.iterations[p]), 0
                while tail < n and still[p][n - 1 - tail]:
                    tail += 1
                tails.append(tail)
        assert len(tails) == {"default_ensemble": 1650, "recal_dense": 100}[
            shape]
        assert max(tails) <= 1, sorted(tails)[-10:]

    @pytest.mark.parametrize("noise_std", [0.0, 0.058, 4.0])
    def test_matches_per_tag_oracle(self, noise_std):
        # tag 1 sits on anchor 2 and draws nothing; at 4 m noise some
        # corrected ranges come out non-positive, while rounds of 200
        # measurements a pair, among anchors far from collinear, keep the
        # calibrations sound
        anchors = DEFAULT_ANCHOR_LAYOUT[:2] + DEFAULT_ANCHOR_LAYOUT[3:]
        tags = ((9.0, 11.0), anchors[2], (6.5, 8.25),
                (12.0, 15.0))
        model = RangingModel(1.01, 0.02, noise_std, 2)
        seen = []
        for seed in range(12):
            cfg = still_scenario(anchors, tags, ranging=model, seed=seed,
                                 k_measurements=200, calibration_period=2,
                                 n_steps=4)
            trace = assert_same_as_per_step(cfg,
                                            bias_correction=seed % 2 == 0)
            seen += trace.diagnostics
        assert any("tag 1 coincides with anchor 2" in d for d in seen)
        assert any("non-positive corrected range" in d for d in seen) == \
            (noise_std == 4.0)

    def test_no_tags_draws_nothing(self):
        # the per-step loop draws nothing between rounds without tags, and
        # with a live tag one value per anchor per step: 2 steps a round
        anchors = DEFAULT_ANCHOR_LAYOUT[:3]
        for tags in ((), ((10.0, 4.0),)):
            assert_same_as_per_step(still_scenario(
                anchors, tags, calibration_period=2, n_steps=5))

    def test_failed_fixes_keep_their_place_among_the_diagnostics(
            self, monkeypatch):
        # A thin triangle of still anchors whose ranges, not bias-corrected,
        # all read 4 um more than its slack d01 + d12 - d02 short: measured,
        # d01 + d12 falls 4 um short of d02, so the start's second
        # eigenvalue clamps and anchor 2 starts on anchor 1's axis to within
        # rounding, where J's y-columns are nearly zero. Capped at one
        # iteration, the bootstrap and the step-5 calibration stop short
        # with the frame collinear, and every tag fix fails too.
        import uwbcal.autocalib as autocalib

        monkeypatch.setattr(autocalib, "MAX_ITERATIONS", 1)
        slack = 10.0 + math.hypot(10.0, 1.0) - math.hypot(20.0, 1.0)
        cfg = still_scenario(
            [(0.0, 0.0), (10.0, 0.0), (20.0, 1.0)],
            [(12.0, 0.4), (15.0, 0.6), (18.0, 0.85)],
            ranging=RangingModel(1.0, -(slack + 4e-6), 0.0, 2),
            calibration_period=5, n_steps=6)
        trace = assert_same_as_per_step(cfg, bias_correction=False)
        assert trace.diagnostics[0] == "bootstrap calibration did not converge"
        at_5 = [d for d in trace.diagnostics if d.startswith("step 5:")]
        assert at_5[0] == "step 5: calibration did not converge"
        fixes = [d.rsplit(" ", 1) for d in at_5[1:]]
        assert [text for text, _ in fixes] == [
            f"step 5: tag {j} fix failed: anchor layout is (near-)collinear,"
            f" condition" for j in range(3)]
        assert all(float(cond) > CONDITION_LIMIT for _, cond in fixes)


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

    def test_pooled_runs_pair_each_calibration_with_its_own_run(self):
        # both runs calibrate at step 10: seed 1's event must read seed 1's
        # step 9, not seed 2's
        a, b = (run_scenario(ScenarioConfig(seed=seed)).records
                for seed in (1, 2))
        pooled = summarize(a + b)
        assert pooled.calibration_events == \
            summarize(a).calibration_events + summarize(b).calibration_events
        assert pooled.calibration_events[0].mean_anchor_error_before == \
            pytest.approx(0.1820472257676978, rel=1e-12)
        assert pooled.n_calibrations == 10

    def test_a_calibration_after_a_gap_in_steps_is_no_event(self):
        records = [TraceRecord(0, (0.0, 0.2), (), 0.0, False),
                   TraceRecord(2, (0.0, 0.1), (), 0.0, True),
                   TraceRecord(3, (0.0, 0.05), (), 0.0, True)]
        stats = summarize(records)
        assert stats.n_calibrations == 2
        assert [e.step for e in stats.calibration_events] == [3]

    def test_empty_trace_raises(self):
        with pytest.raises(EmptyTrace):
            summarize([])

    def test_failed_tag_fix_excluded_from_pool(self):
        records = [TraceRecord(0, (0.0, 0.2), (math.nan, 0.3), 0.0, False)]
        stats = summarize(records)
        assert stats.tag_translation.median == 0.3

    @settings(deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e300),
                              st.floats(-1e300, -1e-300)),
                    min_size=1, max_size=30)
           .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1,
                                          max_size=300)))
    def test_quartiles_are_those_of_np_percentile(self, values):
        # drawn from a small pool, so most lists hold duplicates
        q = Quartiles.of(values)
        expected = np.percentile(values, [0, 25, 50, 75, 100]).tolist()
        assert list(map(float.hex, (q.min, q.q1, q.median, q.q3, q.max))) \
            == list(map(float.hex, expected))

    @pytest.mark.parametrize("n_anchors", [3, 8, 9])
    def test_event_means_are_those_of_np_mean(self, n_anchors):
        # 12 events: the means over events sum 8 or more values too
        rng = np.random.default_rng(n_anchors)
        errors = rng.random((13, n_anchors)) * 10.0 ** rng.integers(
            -3, 4, (13, n_anchors))
        errors[:, 0] = 0.0
        records = [TraceRecord(t, tuple(row), (), 0.0, t > 0)
                   for t, row in enumerate(errors.tolist())]
        stats = summarize(records)
        before = [float(np.mean(r.anchor_errors[1:])) for r in records[:-1]]
        after = [float(np.mean(r.anchor_errors[1:])) for r in records[1:]]
        assert [(e.step, e.mean_anchor_error_before,
                 e.mean_anchor_error_after)
                for e in stats.calibration_events] == \
            list(zip(range(1, 13), before, after))
        assert stats.mean_anchor_error_before_calibration == \
            float(np.mean(before))
        assert stats.mean_anchor_error_after_calibration == \
            float(np.mean(after))

    @pytest.mark.parametrize("anchors, tags, rotation", [
        ((0.0, math.inf), (), 0.0),
        ((0.0, math.nan), (), 0.0),
        ((0.0, 0.2), (-math.inf,), 0.0),
        ((0.0, 0.2), (), math.nan),
    ])
    def test_non_finite_pooled_value_raises(self, anchors, tags, rotation):
        records = [TraceRecord(0, (0.0, 0.1), (0.1,) * len(tags), 0.0, False),
                   TraceRecord(1, anchors, tags, rotation, True)]
        with pytest.raises(ValueError, match="non-finite"):
            summarize(records)

    def test_steps_with_different_anchor_counts_raise(self):
        records = [TraceRecord(0, (0.0, 0.1, 0.3), (), 0.0, False),
                   TraceRecord(1, (0.0, 0.2), (), 0.0, True),
                   TraceRecord(2, (0.0, 0.2, 0.1, 0.3), (), 0.0, False)]
        with pytest.raises(ValueError, match="same number of anchors"):
            summarize(records)

    def test_steps_with_different_tag_counts_raise(self):
        records = [TraceRecord(0, (0.0, 0.1), (0.2,), 0.0, False),
                   TraceRecord(1, (0.0, 0.2), (), 0.0, True),
                   TraceRecord(2, (0.0, 0.2), (0.3, 0.1), 0.0, False)]
        with pytest.raises(ValueError, match="same number of tags"):
            StepTable.of(records)
        with pytest.raises(ValueError, match="same number of tags"):
            summarize(records)


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
        records = read_trace_records(path).records
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

    @pytest.fixture
    def long_drift_trace(self):
        """The long_drift benchmark shape: 500 steps of 5 anchors, no tags."""
        return run_scenario(ScenarioConfig.from_dict(
            dict(BENCHMARK_SHAPES["long_drift"], seed=4)))

    @pytest.fixture
    def many_scales_trace(self):
        """A hand-built 8-step trace of 4 anchors and 2 tags, at coordinates
        from 1e-3 to 1e7, whose tag fixes fail in some steps only (in two
        steps at different tags, in one at both)."""
        rng = np.random.default_rng(17)
        failed = [(), (1,), (), (0, 1), (), (0,), (0,), ()]
        scale = 10.0 ** rng.integers(-3, 7, (8, 6, 1))
        true = rng.normal(size=(8, 6, 2)) * scale
        est = true + rng.normal(size=(8, 6, 2)) * scale * 1e-3
        for t, tags in enumerate(failed):
            est[t, [4 + j for j in tags]] = math.nan
        errors = np.hypot(*np.moveaxis(est - true, 2, 0))
        table = StepTable(np.arange(8), 4, errors, rng.normal(0.0, 0.05, 8),
                          np.arange(8) % 3 == 1)
        return SimulationTrace({}, table, [], true, est)

    @pytest.fixture
    def inf_error_trace(self):
        """A converged tag fix so far out that its error overflows to inf."""
        far = (1.5e308, -1.5e308)
        error = math.dist(far, (5.0, 5.0))
        assert error == math.inf
        true = np.array([((0.0, 0.0), (9.0, 0.0), (4.0, 8.0), (5.0, 5.0),
                          (6.0, 5.0))] * 3)
        est = true.copy()
        est[:, 3:] = (5.1, 5.0), (6.15, 5.0)
        est[1, 3] = far
        errors = np.array([(0.0, 0.2, 0.3, 0.1, 0.15)] * 3)
        errors[1, 3] = error
        table = StepTable(np.arange(3), 3, errors, np.full(3, 0.01),
                          np.arange(3) == 1)
        return SimulationTrace({}, table, [], true, est)

    @pytest.fixture
    def negative_zero_error_trace(self):
        """A hand-built 3-step trace of 3 anchors and 1 tag whose anchor 0
        has the error -0.0 at step 1 and +0.0 at the others: written -0
        and 0 (many_scales_trace's anchor 0 errors are not zero)."""
        true = np.array([((0.0, 0.0), (9.0, 0.0), (4.0, 8.0), (5.0, 5.0))]
                        * 3)
        errors = np.array([(0.0, 0.2, 0.3, 0.1)] * 3)
        errors[1, 0] = -0.0
        table = StepTable(np.arange(3), 3, errors, np.full(3, 0.01),
                          np.arange(3) == 1)
        return SimulationTrace({}, table, [], true, true + 0.25)

    @pytest.fixture
    def still_trace(self):
        """A default-layout run whose nodes stand still (speed 0, jitter 0)
        and whose anchor 0 starts at x = -0.0. Its true x stays -0.0 while
        the motion adds -0.0 (heading pi, the seed's first jitter draws
        negative), and its estimate's x is +0.0."""
        still = {"direction": math.pi, "speed": 0, "gaussian_std": 0}
        trace = run_scenario(ScenarioConfig.from_dict({
            "seed": 4, "n_steps": 8,
            "initial_anchor_positions": [[-0.0, 0], [11, 3], [18, 6],
                                         [15, 20]],
            "motion": {"anchors": [still] * 4, "tags": [still] * 3}}))
        assert math.copysign(1.0, trace.true_positions[0, 0, 0]) == -1.0
        assert math.copysign(1.0, trace.est_positions[0, 0, 0]) == 1.0
        return trace

    @staticmethod
    def assert_bytes_of_csv_writer(trace, path, rows, failed):
        """``write_trace_csv`` writes ``csv.writer``'s bytes: a header,
        ``rows`` rows, and ``failed`` of them with empty fix fields."""
        write_trace_csv(trace, path)
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(TRACE_HEADER)
        for r, true, est in zip(trace.records, trace.true_positions.tolist(),
                                trace.est_positions.tolist()):
            n = len(r.anchor_errors)
            for k, ((tx, ty), (ex, ey), err) in enumerate(zip(
                    true, est, r.anchor_errors + r.tag_errors)):
                fix = ["", "", ""] if math.isnan(err) else \
                    ["%.9g" % ex, "%.9g" % ey, "%.9g" % err]
                writer.writerow([r.step, "anchor" if k < n else "tag",
                                 k if k < n else k - n, "%.9g" % tx,
                                 "%.9g" % ty, *fix, "%.9g" % r.rotation_error,
                                 int(r.calibrated)])
        data = path.read_bytes()
        assert data == expected.getvalue().encode("utf-8")
        assert data.count(b"\r\n") == 1 + rows
        assert data.count(b",,,,") == failed  # the failed fixes' fields

    def test_bytes_are_those_of_csv_writer(self, tmp_path, failed_fix_trace):
        self.assert_bytes_of_csv_writer(failed_fix_trace,
                                        tmp_path / "trace.csv",
                                        rows=6 * (4 + 3), failed=4)

    @pytest.mark.parametrize("shape, rows, failed", [
        ("long_drift_trace", 500 * 5, 0),
        ("many_scales_trace", 8 * (4 + 2), 5),
        ("inf_error_trace", 3 * 5, 0),
        # anchor 0's error is written 0 only where every step's is +0.0
        ("negative_zero_error_trace", 3 * 4, 0),
        ("still_trace", 8 * (4 + 3), 0),
    ])
    def test_bytes_of_more_shapes_are_those_of_csv_writer(
            self, tmp_path, request, shape, rows, failed):
        self.assert_bytes_of_csv_writer(request.getfixturevalue(shape),
                                        tmp_path / "trace.csv", rows, failed)

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
        assert trace.true_positions.shape == trace.est_positions.shape == \
            (6, 4 + 3, 2)
        nodes = [("anchor", i) for i in range(4)] + \
            [("tag", j) for j in range(3)]
        for r, true, est in zip(trace.records, trace.true_positions.tolist(),
                                trace.est_positions.tolist()):
            for (kind, nid), (tx, ty), (ex, ey), err in zip(
                    nodes, true, est, r.anchor_errors + r.tag_errors):
                failed = math.isnan(err)
                assert math.isnan(ex) == math.isnan(ey) == failed
                expected.append([
                    str(r.step), kind, str(nid), g(tx), g(ty),
                    "" if failed else g(ex), "" if failed else g(ey),
                    "" if failed else g(err),
                    g(r.rotation_error), str(int(r.calibrated))])
        assert rows == expected
        failed = [row for row in rows if row[5:8] == ["", "", ""]]
        assert len(failed) == 4  # fix calls 2, 7, 12 and 17 of 18
        assert all(row[1] == "tag" for row in failed)

    @pytest.mark.parametrize("row, message", [
        ("1,anchor,1,9,0,9.2,0,inf,0.01,1",
         "anchor 1: error_m must be a finite number, got 'inf'"),
        ("1,tag,0,5,5,5,5,-inf,0.01,1",
         "tag 0: error_m must be a finite number, got '-inf'"),
        ("1,tag,0,5,5,5,5,nan,0.01,1",
         "tag 0: error_m must be a finite number, got 'nan'"),
        ("1,anchor,1,9,0,,,,0.01,1",
         "anchor 1: error_m must be a finite number, got ''"),
        ("1,anchor,1,9,0,9.2,0,0.2,nan,1",
         "rotation_error_rad must be a finite number, got 'nan'"),
        ("1,anchor,1,9,0,9.2,0,0.2,-inf,1",
         "rotation_error_rad must be a finite number, got '-inf'"),
    ])
    def test_non_finite_values_name_their_line(self, tmp_path, row, message):
        # only a failed tag fix, the empty error_m of line 4, reads as NaN
        path = tmp_path / "trace.csv"
        path.write_text(",".join(TRACE_HEADER) + "\n"
                        "0,anchor,0,0,0,0,0,0,0.01,0\n"
                        "0,anchor,1,9,0,9.2,0,0.2,0.01,0\n"
                        "0,tag,0,5,5,,,,0.01,0\n"
                        "1,anchor,0,0,0,0,0,0,0.01,1\n"
                        f"{row}\n")
        with pytest.raises(CsvFormatError,
                           match=re.escape(f"line 6: {message}")):
            read_trace_records(path)

    @pytest.mark.parametrize("rows, message", [
        (["0,anchor,1,9,0,9.2,0,5.0,0.01,0"],
         "line 5: step 0: a second row for anchor 1"),
        (["0,tag,0,5,5,5,5.1,0.1,0.01,0"],
         "line 5: step 0: a second row for tag 0"),
        (["0,anchor,2,4,8,4,8.1,0.1,0.5,1"],
         "line 5: step 0: rotation_error_rad,calibrated 0.5,1 differ from "
         "the step's first row, 0.01,0"),
        (["0,anchor,2,4,8,4,8.1,0.1,0.5,0"],
         "line 5: step 0: rotation_error_rad,calibrated 0.5,0 differ from "
         "the step's first row, 0.01,0"),
        (["0,anchor,2,4,8,4,8.1,0.1,0.01,1"],
         "line 5: step 0: rotation_error_rad,calibrated 0.01,1 differ from "
         "the step's first row, 0.01,0"),
        # a row further into the step, after one that agrees
        (["0,tag,1,5,5,5,5.1,0.1,0.01,0", "0,tag,2,5,5,5,5.1,0.1,0.02,1"],
         "line 6: step 0: rotation_error_rad,calibrated 0.02,1 differ from "
         "the step's first row, 0.01,0"),
    ])
    def test_rows_of_a_step_must_agree(self, tmp_path, rows, message):
        path = tmp_path / "trace.csv"
        path.write_text("\n".join([",".join(TRACE_HEADER),
                                   "0,anchor,0,0,0,0,0,0,0.01,0",
                                   "0,anchor,1,9,0,9.2,0,0.2,0.01,0",
                                   "0,tag,0,5,5,,,,0.01,0", *rows]) + "\n")
        with pytest.raises(CsvFormatError, match=re.escape(message)):
            read_trace_records(path)

    def test_rows_of_a_step_may_interleave_and_spell_numbers_apart(
            self, tmp_path):
        # in the row-by-row oracle, which the reader is checked against; the
        # reader refuses such files (the test below)
        path = tmp_path / "trace.csv"
        path.write_text("\n".join([",".join(TRACE_HEADER),
                                   "0,anchor,0,0,0,0,0,0,0.01,0",
                                   "1,anchor,0,0,0,0,0,0,0.02,1",
                                   "0,anchor,1,9,0,9.2,0,0.2,1e-2,0",
                                   "1,anchor,1,9,0,9.3,0,0.3,0.020,1"]) + "\n")
        assert read_trace_rows(path) == [
            TraceRecord(0, (0.0, 0.2), (), 0.01, False),
            TraceRecord(1, (0.0, 0.3), (), 0.02, True)]
        with pytest.raises(CsvFormatError, match=re.escape(
                "line 4: step 0 follows step 1; steps must increase")):
            read_trace_records(path)

    def test_rows_of_a_step_must_not_interleave_or_spell_numbers_apart(
            self, tmp_path):
        # the row-by-row oracle reads each file to the records of its steps:
        # step 0 coming back after step 1 (rows of a step interleaved), and
        # a shared field spelled apart, to the same value
        path = tmp_path / "trace.csv"
        for rows, message in [
            (["1,anchor,0,0,0,0,0,0,0.02,1",
              "0,anchor,1,9,0,9.2,0,0.2,0.01,0"],
             "line 4: step 0 follows step 1; steps must increase"),
            (["0,anchor,1,9,0,9.2,0,0.2,1e-2,0"],
             "line 3: step 0: rotation_error_rad,calibrated 1e-2,0 differ "
             "from the step's first row, 0.01,0"),
            (["0,anchor,1,9,0,9.2,0,0.2,0.01,0",
              "1,anchor,0,0,0,0,0,0,0.02,1",
              "+1,anchor,1,9,0,9.3,0,0.3,0.02,1"],
             "line 5: step 1: step +1 differs from the step's first row"),
        ]:
            path.write_text("\n".join([",".join(TRACE_HEADER),
                                       "0,anchor,0,0,0,0,0,0,0.01,0",
                                       *rows]) + "\n")
            with pytest.raises(CsvFormatError, match=re.escape(message)):
                read_trace_records(path)

    @pytest.mark.parametrize("ending", ["\r\n", "\n"])
    def test_steps_beyond_int64_are_summarized(self, tmp_path, ending):
        # CRLF or LF, into the table's steps
        big = 2 ** 70
        path = tmp_path / "trace.csv"
        path.write_text(ending.join([
            ",".join(TRACE_HEADER), f"{big},anchor,0,0,0,0,0,0,0.01,0",
            f"{big},anchor,1,9,0,9.2,0,0.2,0.01,0",
            f"{big + 1},anchor,0,0,0,0,0,0,0.02,1",
            f"{big + 1},anchor,1,9,0,9.1,0,0.1,0.02,1"]) + ending,
            newline="")
        table = read_trace_records(path)
        assert [r.step for r in table.records] == [big, big + 1]
        assert summarize(table).calibration_events == (
            sim.CalibrationEvent(big + 1, 0.2, 0.1),)

    @pytest.mark.parametrize("flag", ["7", "2", "-1", "1e0", "01"])
    def test_calibrated_must_be_0_or_1(self, tmp_path, flag):
        # a 7 used to count as a calibration, and 01 as 1
        path = tmp_path / "trace.csv"
        path.write_text(",".join(TRACE_HEADER) + "\n"
                        "0,anchor,0,0,0,0,0,0,0.01,0\n"
                        "0,anchor,1,9,0,9.2,0,0.2,0.01,0\n"
                        f"1,anchor,0,0,0,0,0,0,0.01,{flag}\n"
                        f"1,anchor,1,9,0,9.1,0,0.1,0.01,{flag}\n")
        message = "invalid literal for int() with base 10: '1e0'" \
            if flag == "1e0" else f"calibrated must be 0 or 1, got '{flag}'"
        with pytest.raises(CsvFormatError,
                           match=re.escape(f"line 4: {message}")):
            read_trace_records(path)

    def test_steps_must_hold_the_same_anchors(self, tmp_path):
        # before/after calibration means would compare different anchors
        path = tmp_path / "trace.csv"
        path.write_text(",".join(TRACE_HEADER) + "\n"
                        "0,anchor,0,0,0,0,0,0,0.01,0\n"
                        "0,anchor,1,9,0,9.2,0,0.2,0.01,0\n"
                        "1,anchor,0,0,0,0,0,0,0.01,1\n")
        with pytest.raises(CsvFormatError, match=re.escape(
                "line 5: step 1 is cut short: the trace ends after 1 of its "
                "2 rows")):
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
        anchors = [(0, 0), (10, 0), (10, 10), (0, 10)]
        assert point_in_anchor_hull((5, 5), anchors)
        assert point_in_anchor_hull((0, 0), anchors)  # vertex counts
        assert not point_in_anchor_hull((11, 5), anchors)
        assert not point_in_anchor_hull((5, -0.1), anchors)

    def test_collinear_layout_has_no_interior(self):
        line = [(0, 0), (5, 0), (10, 0)]
        assert not point_in_anchor_hull((5, 0.1), line)

    @pytest.mark.parametrize("scenario", [
        {}, {"n_tags": 7},
        {"n_tags": 2, "initial_tag_positions": [[5.0, 5.0], [7.0, 8.0]]},
        # collinear anchors: the default tags fall outside the hull
        {"n_anchors": 3, "initial_anchor_positions": [[0, 0], [5, 0],
                                                      [10, 0]]}])
    def test_a_config_forms_one_hull(self, scenario, monkeypatch):
        hulls, hull = [], sim._convex_hull

        def counted(points):
            hulls.append(points)
            return hull(points)

        monkeypatch.setattr(sim, "_convex_hull", counted)
        with contextlib.suppress(ConfigError):
            sim.resolve_config(sim.ScenarioConfig.from_dict(scenario))
        assert len(hulls) == 1
