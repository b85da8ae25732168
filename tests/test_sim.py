import csv
import dataclasses
import itertools
import math

import numpy as np
import pytest

from uwbcal.errors import (CollinearAnchors, ConfigError, CsvFormatError,
                           EmptyTrace, SingularUpdate)
from uwbcal.geometry import Point2
from uwbcal.ranging import RangingModel
from uwbcal.sim import (DEFAULT_ANCHOR_LAYOUT, TRACE_HEADER, MotionParams,
                        MotionTable, ScenarioConfig, TraceRecord, Trigger,
                        WorldState, apply_drift, point_in_anchor_hull,
                        read_trace_records, resolve_config, run_scenario,
                        step_motion, summarize, write_trace_csv)

NOISELESS = RangingModel(1.0, 0.0, 0.0, 2)


def world(anchors, tags=()):
    return WorldState(true_anchor_pos=list(anchors),
                      est_anchor_pos=list(anchors), true_tag_pos=list(tags))


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


class TestMotion:
    def test_stationary_when_speed_and_noise_zero(self):
        cfg = dataclasses.replace(
            resolve_config(ScenarioConfig(n_tags=0)),
            motion=MotionTable(anchors=tuple(MotionParams(0.0, 0.0, 0.0)
                                             for _ in range(4)), tags=()),
            n_tags=0)
        state = world(DEFAULT_ANCHOR_LAYOUT[:4])
        new = step_motion(state, cfg, np.random.default_rng(0))
        assert new.true_anchor_pos == state.true_anchor_pos

    def test_constant_heading_advance(self):
        cfg = dataclasses.replace(
            resolve_config(ScenarioConfig(n_tags=0)),
            motion=MotionTable(anchors=tuple(MotionParams(0.0, 0.1, 0.0)
                                             for _ in range(4)), tags=()),
            n_tags=0)
        state = world(DEFAULT_ANCHOR_LAYOUT[:4])
        new = step_motion(state, cfg, np.random.default_rng(0))
        for before, after in zip(state.true_anchor_pos, new.true_anchor_pos):
            assert after.x == pytest.approx(before.x + 0.1)
            assert after.y == pytest.approx(before.y)

    def test_estimates_track_executed_motion(self):
        cfg = resolve_config(ScenarioConfig(seed=3, n_tags=0))
        state = world(cfg.initial_anchor_positions)
        new = step_motion(state, cfg, np.random.default_rng(3))
        for true, est in zip(new.true_anchor_pos, new.est_anchor_pos):
            assert true == est

    def test_seeded_motion_reproducible(self):
        cfg = resolve_config(ScenarioConfig(seed=5))
        state = world(cfg.initial_anchor_positions,
                      cfg.initial_tag_positions)
        a = step_motion(state, cfg, np.random.default_rng(11))
        b = step_motion(state, cfg, np.random.default_rng(11))
        assert a.true_anchor_pos == b.true_anchor_pos
        assert a.true_tag_pos == b.true_tag_pos


class TestDrift:
    def test_zero_bound_tracks_truth(self):
        cfg = dataclasses.replace(resolve_config(ScenarioConfig()),
                                  drift_bound=0.0)
        state = world(cfg.initial_anchor_positions)
        new = apply_drift(state, cfg, np.random.default_rng(0))
        assert new.est_anchor_pos == list(cfg.initial_anchor_positions)

    def test_seeded_drift_reproducible(self):
        cfg = resolve_config(ScenarioConfig())
        state = world(cfg.initial_anchor_positions)
        a = apply_drift(state, cfg, np.random.default_rng(9))
        b = apply_drift(state, cfg, np.random.default_rng(9))
        assert a.est_anchor_pos == b.est_anchor_pos

    def test_ten_step_accumulation_matches_uniform_sum(self):
        # per coordinate: a 10-term Uniform(-0.1, 0.1) sum,
        # std = sqrt(10) * 0.2 / sqrt(12)
        cfg = resolve_config(ScenarioConfig())
        offsets = []
        for run in range(10_000):
            rng = np.random.default_rng(run)
            state = world(cfg.initial_anchor_positions)
            for _ in range(10):
                state = apply_drift(state, cfg, rng)
            offsets.append(state.est_anchor_pos[1].x
                           - cfg.initial_anchor_positions[1].x)
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
        import uwbcal.sim as sim

        real, calls = sim.locate_tag, itertools.count()

        def third_call_singular(anchors, ranges):
            if next(calls) == 2:
                raise SingularUpdate("forced singular update")
            return real(anchors, ranges)

        monkeypatch.setattr(sim, "locate_tag", third_call_singular)
        trace = run_scenario(ScenarioConfig(seed=3, n_steps=4))
        assert len(trace.records) == 4
        assert math.isnan(trace.records[0].tag_errors[2])
        assert trace.records[0].est_positions[4 + 2] is None
        assert sum(math.isnan(e) for r in trace.records
                   for e in r.tag_errors) == 1
        assert trace.diagnostics == [
            "step 0: tag 2 fix failed: forced singular update"]

    def test_tagless_scenario_runs(self):
        trace = run_scenario(ScenarioConfig(seed=4, n_tags=0, n_steps=15))
        assert all(r.tag_errors == () for r in trace.records)
        assert summarize(trace).tag_translation is None

    def test_five_anchor_default_layout(self):
        trace = run_scenario(ScenarioConfig(seed=5, n_anchors=5, n_steps=15))
        assert all(len(r.anchor_errors) == 5 for r in trace.records)
        assert trace.config["initial_anchor_positions"][4] == [4.0, 22.0]

    def test_tag_errors_insensitive_to_calibration_timing_at_zero_drift(self):
        # tags are located fresh each step, so with no drift the calibration
        # cadence barely matters
        med = lambda t: float(np.median([e for r in t.records
                                         for e in r.tag_errors]))
        base = ScenarioConfig(seed=8, drift_bound=0.0)
        a = run_scenario(base)
        b = run_scenario(dataclasses.replace(base, calibration_period=25))
        assert abs(med(a) - med(b)) < 0.01


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

    def test_rows_derived_from_records(self, tmp_path, monkeypatch):
        import uwbcal.sim as sim

        real, calls = sim.locate_tag, itertools.count()

        def every_fifth_fails(anchors, ranges):
            if next(calls) % 5 == 2:
                raise CollinearAnchors("forced failure")
            return real(anchors, ranges)

        monkeypatch.setattr(sim, "locate_tag", every_fifth_fails)
        trace = run_scenario(ScenarioConfig(seed=11, n_steps=6))
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

    def test_header_and_shape_checked(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        with pytest.raises(CsvFormatError):
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
