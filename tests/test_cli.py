import contextlib
import copy
import functools
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uwbcal import cli, errors
from uwbcal.ranging import REFERENCE_SWEEP, load_reference_samples
from conftest import GOLDEN_FRAME, exact_matrix
from oracles import save_distance_csv, save_samples
from uwbcal.autocalib import CalibrationResult
from uwbcal.sim import (MAX_POSITION_M, MAX_STEP_M, SCALAR_KEYS, TRACE_HEADER,
                        ScenarioConfig, run_scenario, write_trace_csv)


def run_cli(*args):
    """``cli.main`` on ``args`` in this process, with stdout and stderr
    captured; argparse's ``SystemExit`` becomes the return code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(),
                                       err.getvalue())


def assert_contract(result):
    """The CLI's input contract: a documented exit code, and stderr lines
    that each start with ``error: `` (``note: `` on exit 0) and hold under
    1,024 bytes, with at least one on a failure, and no traceback."""
    assert result.returncode in {cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_FIT,
                                 cli.EXIT_NOT_CONVERGED, cli.EXIT_GEOMETRY}
    assert "Traceback" not in result.stderr
    *lines, rest = result.stderr.split("\n")
    assert rest == "" and (lines or result.returncode == 0), result.stderr
    prefix = "note: " if result.returncode == 0 else "error: "
    for line in lines:
        assert line.startswith(prefix), line[:200]
        # with its newline, as sys.stderr would write it
        assert len(f"{line}\n".encode("utf-8", "backslashreplace")) < 1024, \
            line[:200]


STILL = {"direction": 0.0, "speed": 0.0, "gaussian_std": 0.0}


def moving(**anchor_0) -> str:
    """A 3-anchor, tag-free scenario whose anchor-0 motion has the given
    fields replaced, as JSON text."""
    return json.dumps({"n_anchors": 3, "n_tags": 0, "n_steps": 3, "motion": {
        "anchors": [{**STILL, **anchor_0}, STILL, STILL], "tags": []}})


def ranging(**fields) -> str:
    """A scenario whose ranging object is a valid model updated by
    ``fields`` (a value of None drops that key), as JSON text."""
    model = {"slope": 1.0, "intercept_m": 0.36, "noise_std_m": 0.05,
             "n_samples": 10, **fields}
    return json.dumps({"n_steps": 3, "ranging": {
        k: v for k, v in model.items() if v is not None}})


# a sensor model whose bias correction overflows every finite reading
TINY_SLOPE = {"slope": 1e-310, "intercept_m": 1000, "noise_std_m": 1,
              "n_samples": 10}


# a calibration input, at 1e308 m for every directed pair
HUGE_CSV = "i,j,mean_m,std_m,count\n" + "".join(
    f"{pair},1e308,0,1\n" for pair in ("0,1", "1,0", "0,2", "2,0", "1,2",
                                        "2,1"))


def placed(anchors, tags=()) -> str:
    """A still scenario with the given initial positions, as JSON text."""
    return json.dumps({
        "n_anchors": len(anchors), "n_tags": len(tags), "n_steps": 3,
        "initial_anchor_positions": anchors,
        "initial_tag_positions": list(tags),
        "motion": {"anchors": [STILL] * len(anchors),
                   "tags": [STILL] * len(tags)}})


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sweep.csv"
    save_samples(load_reference_samples(), path)
    return path


@pytest.fixture(scope="module")
def golden_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "distances.csv"
    save_distance_csv(exact_matrix(GOLDEN_FRAME), path, float_format="%.17g")
    return path


class TestHelp:
    @pytest.mark.parametrize("cmd", ["fit-model", "calibrate", "simulate",
                                     "summarize"])
    def test_help_exits_zero(self, cmd):
        result = run_cli(cmd, "--help")
        assert result.returncode == 0
        assert "--" in result.stdout

    def test_top_level_help(self):
        # the one run through ``python -m uwbcal`` in its own process
        result = subprocess.run([sys.executable, "-m", "uwbcal", "--help"],
                                capture_output=True, text=True)
        assert result.returncode == 0
        assert "simulate" in result.stdout


class TestFitModel:
    def test_reference_sweep(self, sweep_csv, tmp_path):
        out = tmp_path / "model.json"
        result = run_cli("fit-model", "--input", str(sweep_csv),
                         "--output", str(out))
        assert result.returncode == 0
        model = json.loads(out.read_text())
        assert model["slope"] == pytest.approx(1.0086, abs=1e-3)
        assert model["intercept_m"] == pytest.approx(0.361, abs=1e-3)
        assert model["n_samples"] == 40
        assert "slope" in result.stdout

    def test_perfect_identity_data(self, tmp_path):
        src = tmp_path / "ident.csv"
        src.write_text("true_m,measured_m\n" +
                       "".join(f"{d},{d}\n" for d in (1, 2, 4, 8)))
        out = tmp_path / "model.json"
        assert run_cli("fit-model", "--input", str(src),
                       "--output", str(out)).returncode == 0
        model = json.loads(out.read_text())
        assert model["slope"] == pytest.approx(1.0)
        assert model["intercept_m"] == pytest.approx(0.0, abs=1e-12)

    def test_single_row_exits_3(self, tmp_path):
        src = tmp_path / "one.csv"
        src.write_text("true_m,measured_m\n5.0,5.2\n")
        result = run_cli("fit-model", "--input", str(src),
                         "--output", str(tmp_path / "m.json"))
        assert result.returncode == 3

    def test_non_positive_fitted_slope_exits_3(self, tmp_path):
        src = tmp_path / "constant.csv"
        src.write_text("true_m,measured_m\n1,1\n2,1\n3,1\n")
        result = run_cli("fit-model", "--input", str(src),
                         "--output", str(tmp_path / "m.json"))
        assert result.returncode == 3
        assert "slope" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("scale", [1e160, 1e-300])
    def test_samples_out_of_the_fits_range_exit_3(self, tmp_path, scale):
        src = tmp_path / "far.csv"
        src.write_text("true_m,measured_m\n" + "".join(
            f"{k * scale!r},{1.1 * k * scale!r}\n" for k in range(1, 11)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_cli("fit-model", "--input", str(src),
                             "--output", str(tmp_path / "m.json"))
        assert result.returncode == 3
        assert result.stderr.startswith("error: the ")
        assert "overflow" in result.stderr or "underflow" in result.stderr
        assert result.stderr.count("\n") == 1

    def test_non_finite_sample_exits_2(self, tmp_path):
        src = tmp_path / "nan.csv"
        src.write_text("true_m,measured_m\n1,1.1\n2,nan\n3,3.1\n")
        result = run_cli("fit-model", "--input", str(src),
                         "--output", str(tmp_path / "m.json"))
        assert result.returncode == 2
        assert "line 3" in result.stderr

    def test_parse_error_exits_2_with_line(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("true_m,measured_m\n1.0,1.1\noops,2\n")
        result = run_cli("fit-model", "--input", str(src),
                         "--output", str(tmp_path / "m.json"))
        assert result.returncode == 2
        assert "line 3" in result.stderr


class TestCalibrate:
    def test_golden_distances(self, golden_csv, tmp_path):
        out = tmp_path / "result.json"
        result = run_cli("calibrate", "--input", str(golden_csv),
                         "--output", str(out))
        assert result.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        expected = [(0, 0), (9, 0), (16, 3), (13, 17), (2, 19)]
        for (x, y), (ex, ey) in zip(doc["positions"], expected):
            assert math.hypot(x - ex, y - ey) <= 1e-6

    def test_equilateral_triangle(self, tmp_path):
        s = 4.0
        h = s * math.sqrt(3) / 2
        rows = ["i,j,mean_m,std_m,count"]
        for i, j in ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)):
            rows.append(f"{i},{j},{s},0,1")
        src = tmp_path / "tri.csv"
        src.write_text("\n".join(rows) + "\n")
        out = tmp_path / "result.json"
        assert run_cli("calibrate", "--input", str(src),
                       "--output", str(out)).returncode == 0
        doc = json.loads(out.read_text())
        # output files carry 9 significant digits
        assert doc["positions"][2][0] == pytest.approx(s / 2, abs=1e-7)
        assert doc["positions"][2][1] == pytest.approx(h, abs=1e-7)

    def test_missing_pair_exits_2(self, tmp_path):
        src = tmp_path / "missing.csv"
        src.write_text("i,j,mean_m,std_m,count\n0,1,9.0,0.0,1\n0,2,5.0,0.0,1\n")
        result = run_cli("calibrate", "--input", str(src),
                         "--output", str(tmp_path / "r.json"))
        assert result.returncode == 2
        assert "(1, 2)" in result.stderr

    def test_count_beyond_int64_exits_2(self, tmp_path):
        src = tmp_path / "count.csv"
        src.write_text(f"i,j,mean_m,std_m,count\n0,1,10,0.1,{10 ** 30}\n"
                       "0,2,10,0.1,5\n1,2,10,0.1,5\n")
        result = run_cli("calibrate", "--input", str(src),
                         "--output", str(tmp_path / "r.json"))
        assert result.returncode == 2
        assert result.stderr == (
            f"error: {src}: line 2: pair (0,1): count must be from 1 to "
            f"{2 ** 63 - 1}, got {10 ** 30}\n")

    @pytest.mark.parametrize("far", [64, 99999999999])
    def test_huge_anchor_id_exits_2(self, tmp_path, far):
        # ids are bounded like a scenario's n_anchors, before any
        # arithmetic on them
        src = tmp_path / "id.csv"
        src.write_text("i,j,mean_m,std_m,count\n0,1,10,0.1,5\n0,2,10,0.1,5\n"
                       f"1,2,10,0.1,5\n0,{far},10,0.1,5\n")
        result = run_cli("calibrate", "--input", str(src),
                         "--output", str(tmp_path / "r.json"))
        assert result.returncode == 2
        assert result.stderr == \
            f"error: {src}: line 5: anchor id {far}: need 0 to 63\n"

    def test_degenerate_geometry_exits_5(self, tmp_path):
        # pair (1,2)'s 0.2 m corrects to -0.16 m under the model's 0.36 m
        # intercept
        src = tmp_path / "degen.csv"
        rows = ["i,j,mean_m,std_m,count", "0,1,9.0,0.0,1", "1,0,9.0,0.0,1",
                "0,2,5.0,0.0,1", "2,0,5.0,0.0,1", "1,2,0.2,0.0,1",
                "2,1,0.2,0.0,1"]
        src.write_text("\n".join(rows) + "\n")
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(
            {"slope": 1.0, "intercept_m": 0.36, "noise_std_m": 0.05,
             "n_samples": 10}))
        result = run_cli("calibrate", "--input", str(src), "--model",
                         str(model_path), "--output", str(tmp_path / "r.json"))
        assert result.returncode == 5
        assert result.stderr == (
            "error: anchor 2: pair (1,2) has distance -0.15999999999999998, "
            "which is not positive and finite\n")

    def test_overflowing_means_exit_5(self, tmp_path):
        # both directions' 1e308 sum to inf in the symmetrized mean
        src = tmp_path / "huge.csv"
        src.write_text(HUGE_CSV)
        result = run_cli("calibrate", "--input", str(src),
                         "--output", str(tmp_path / "r.json"))
        assert result.returncode == 5
        assert result.stderr == ("error: anchor 1: pair (0,1) has distance "
                                 "inf, which is not positive and finite\n")

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_mean_exits_2(self, tmp_path, value):
        src = tmp_path / "bad.csv"
        src.write_text("i,j,mean_m,std_m,count\n" + "".join(
            f"{i},{j},{value if (i, j) == (0, 1) else 5},0,1\n"
            for i in range(3) for j in range(3) if i != j))
        result = run_cli("calibrate", "--input", str(src),
                         "--output", str(tmp_path / "r.json"))
        assert result.returncode == 2
        assert "line 2" in result.stderr

    def test_model_correction_applied(self, golden_csv, tmp_path):
        # distort the golden distances through a known line, then hand the
        # model to the CLI: output must match the undistorted case
        model = {"slope": 1.05, "intercept_m": 0.4, "noise_std_m": 0.0,
                 "n_samples": 2}
        distorted = exact_matrix(GOLDEN_FRAME,
                                 transform=lambda d: 1.05 * d + 0.4)
        src = tmp_path / "distorted.csv"
        save_distance_csv(distorted, src, float_format="%.17g")
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        out = tmp_path / "result.json"
        assert run_cli("calibrate", "--input", str(src), "--model",
                       str(model_path), "--output", str(out)).returncode == 0
        doc = json.loads(out.read_text())
        for (x, y), p in zip(doc["positions"], GOLDEN_FRAME):
            assert math.hypot(x - p[0], y - p[1]) <= 1e-6

    def test_tiny_slope_model_exits_5_without_a_warning(self, tmp_path):
        # bias correction divides by the slope: every mean and std
        # overflows, and the bootstrap rejects the infinite distances
        src = tmp_path / "tri.csv"
        src.write_text("i,j,mean_m,std_m,count\n" + "".join(
            f"{i},{j},4.0,0.1,5\n" for i in range(3) for j in range(3)
            if i != j))
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(TINY_SLOPE))
        result = run_cli("calibrate", "--input", str(src), "--model",
                         str(model_path), "--output", str(tmp_path / "r.json"))
        assert result.returncode == 5
        assert result.stderr == ("error: anchor 1: pair (0,1) has distance "
                                 "-inf, which is not positive and finite\n")

    @pytest.mark.parametrize("flag, doc, named", [
        ("--model", {"slope": True, "intercept_m": 0.36, "noise_std_m": 0.05,
                     "n_samples": 10}, "ranging.slope"),
        ("--prior", [[True, 0], [9, 0], [16, 3], [13, 17], [2, 19]],
         "positions[0]"),
        ("--prior", {"positions": [[0, 0], [9, 0, 1], [16, 3], [13, 17],
                                   [2, 19]]}, "positions[1]"),
    ], ids=["model_slope_bool", "prior_bool", "prior_three_coordinates"])
    def test_bad_model_or_prior_exits_2(self, golden_csv, tmp_path, flag,
                                        doc, named):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        result = run_cli("calibrate", "--input", str(golden_csv), flag,
                         str(path), "--output", str(tmp_path / "r.json"))
        assert result.returncode == 2
        assert named in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("doc, named", [
        ([[1e308, 0], [-1e308, 0], [0, 0], [0, 1], [2, 19]], "positions[1]"),
        ([[0, 0], [9, 0], [16, 3]], "positions: 3 entries for 5 anchors"),
        ({"prior": []}, "positions: not a list: None"),
    ], ids=["offset_overflows", "wrong_count", "no_positions_key"])
    def test_unusable_prior_exits_2(self, golden_csv, tmp_path, doc, named):
        path = tmp_path / "prior.json"
        path.write_text(json.dumps(doc))
        result = run_cli("calibrate", "--input", str(golden_csv), "--prior",
                         str(path), "--output", str(tmp_path / "r.json"))
        assert result.returncode == 2
        assert named in result.stderr
        assert "Traceback" not in result.stderr

    def test_prior_round_trips_from_result_file(self, golden_csv, tmp_path):
        first = tmp_path / "first.json"
        run_cli("calibrate", "--input", str(golden_csv),
                "--output", str(first))
        second = tmp_path / "second.json"
        result = run_cli("calibrate", "--input", str(golden_csv),
                         "--prior", str(first), "--output", str(second))
        assert result.returncode == 0
        a = json.loads(first.read_text())["positions"]
        b = json.loads(second.read_text())["positions"]
        for (ax, ay), (bx, by) in zip(a, b):
            assert math.hypot(ax - bx, ay - by) <= 1e-6


class TestSimulate:
    def test_default_scenario(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text("{}")
        out_dir = tmp_path / "out"
        result = run_cli("simulate", "--scenario", str(scenario),
                         "--out-dir", str(out_dir))
        assert result.returncode == 0
        assert (out_dir / "trace.csv").exists()
        assert (out_dir / "summary.json").exists()
        effective = json.loads((out_dir / "config.json").read_text())
        assert effective["n_steps"] == 55
        assert effective["motion"] is not None
        # echoed config on stdout matches the file
        assert json.loads(result.stdout) == effective
        trace = (out_dir / "trace.csv").read_text().splitlines()
        assert len(trace) == 1 + 55 * 7
        calibrated_steps = sorted({int(line.split(",")[0])
                                   for line in trace[1:]
                                   if line.endswith(",1")})
        assert calibrated_steps == [10, 20, 30, 40, 50]

    def test_byte_identical_reruns(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"seed": 99, "n_steps": 20}))
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert run_cli("simulate", "--scenario", str(scenario),
                           "--out-dir", str(d)).returncode == 0
        assert (dirs[0] / "trace.csv").read_bytes() == \
            (dirs[1] / "trace.csv").read_bytes()
        assert (dirs[0] / "summary.json").read_bytes() == \
            (dirs[1] / "summary.json").read_bytes()

    def test_seed_override_changes_trace(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"seed": 1, "n_steps": 15}))
        base = tmp_path / "base"
        other = tmp_path / "other"
        run_cli("simulate", "--scenario", str(scenario), "--out-dir",
                str(base))
        run_cli("simulate", "--scenario", str(scenario), "--seed", "2",
                "--out-dir", str(other))
        assert (base / "trace.csv").read_bytes() != \
            (other / "trace.csv").read_bytes()
        assert json.loads((other / "config.json").read_text())["seed"] == 2

    def test_zero_steps_exits_2(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"n_steps": 0}))
        result = run_cli("simulate", "--scenario", str(scenario),
                         "--out-dir", str(tmp_path / "out"))
        assert result.returncode == 2
        assert "n_steps" in result.stderr

    def test_unknown_key_exits_2(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"wrong": True}))
        result = run_cli("simulate", "--scenario", str(scenario),
                         "--out-dir", str(tmp_path / "out"))
        assert result.returncode == 2
        assert "wrong" in result.stderr

    @pytest.mark.parametrize("text, named", [
        ('{"ranging": {"slope": 1.0, "intercept_m": NaN, '
         '"noise_std_m": 0.05, "n_samples": 10}}', "intercept"),
        ('{"ranging": {"slope": 1.0, "intercept_m": 0.0, '
         '"noise_std_m": Infinity, "n_samples": 10}}', "noise_std"),
        ('{"drift_bound": NaN}', "drift_bound"),
        ('{"drift_bound": Infinity}', "drift_bound"),
        ('{"n_steps": 1e400}', "n_steps"),
        ('{"seed": 1e400}', "seed"),
        ('{"n_steps": 1.5}', "n_steps"),
        ('{"n_steps": true}', "n_steps"),
    ])
    def test_bad_number_exits_2(self, tmp_path, text, named):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(text)
        result = run_cli("simulate", "--scenario", str(scenario),
                         "--out-dir", str(tmp_path / "out"))
        assert result.returncode == 2
        assert named in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("text, flags, named", [
        ('{"n_steps": 12, "trigger": "threshold:nan"}', (), "trigger"),
        ('{"n_steps": 12, "trigger": "threshold:inf"}', (), "trigger"),
        ('{"n_steps": 12}', ("--trigger", "threshold:nan"), "--trigger"),
        ('{"n_steps": 12}', ("--trigger", "threshold:inf"), "--trigger"),
        ('{"n_steps": 12, "trigger": 5}', (), "trigger"),
        ('{"drift_bound": true}', (), "drift_bound"),
        ('{"drift_bound": "0.1"}', (), "drift_bound"),
        (moving(direction="1"), (), "motion.anchors[0].direction"),
        (moving(speed=True), (), "motion.anchors[0].speed"),
        (moving(speed=math.inf), (), "motion.anchors[0].speed"),
        (moving(gaussian_std=math.nan), (), "motion.anchors[0].gaussian_std"),
    ])
    def test_bad_trigger_or_float_exits_2(self, tmp_path, text, flags, named):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(text)
        result = run_cli("simulate", "--scenario", str(scenario),
                         "--out-dir", str(tmp_path / "out"), *flags)
        assert result.returncode == 2
        assert named in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("text, named", [
        # anchor 0 at the top speed is in range; the drift is not
        (json.dumps({**json.loads(moving(speed=1e6)), "drift_bound": 1e308}),
         "error: drift_bound: need <= 1000000\n"),
        (moving(gaussian_std=1e308), "gaussian_std"),
        ('{"drift_bound": 1e308}', "drift_bound"),
        (json.dumps({"n_anchors": 3, "n_tags": 0, "n_steps": 12,
                     "drift_bound": 0.0,
                     "initial_anchor_positions": [[0, 0], [11, 0], [5, 8]],
                     "motion": {"anchors": [{**STILL, "speed": 1.0}, STILL,
                                            STILL], "tags": []}}),
         "step 10: anchors 0 and 1 coincide"),
        (ranging(slope=True), "ranging.slope"),
        (ranging(n_samples=2.5), "ranging.n_samples"),
        (ranging(bogus=1.0), "ranging.bogus"),
        (ranging(n_samples=None), "ranging.n_samples"),
        ('{"ranging": [1.0, 0.36, 0.05, 10]}', "ranging: not an object"),
        (placed([[True, 0], [11, 0], [5, 8]]), "initial_anchor_positions[0]"),
        (placed([[0, 0], ["11", 0], [5, 8]]), "initial_anchor_positions[1]"),
        (placed([[0, 0], [11, 0], [5, 8]], [[5, True]]),
         "initial_tag_positions[0]"),
        (placed([[0, 0], [11, 0], [5, 8]], [["5", 3]]),
         "initial_tag_positions[0]"),
        (placed([[0, 0], [11, 0, 1], [5, 8]]), "initial_anchor_positions[1]"),
    ], ids=["speed", "gaussian_std", "drift_bound", "anchors_meet",
            "slope_bool", "n_samples_fraction", "unknown_key", "missing_key",
            "not_an_object", "anchor_bool", "anchor_string", "tag_bool",
            "tag_string", "three_coordinates"])
    def test_bad_motion_ranging_or_position_exits_2(self, tmp_path, text,
                                                    named):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(text)
        result = run_cli("simulate", "--scenario", str(scenario),
                         "--out-dir", str(tmp_path / "out"))
        assert result.returncode == 2
        assert named in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("doc, code, named", [
        ([], 2, "scenario: not an object: []"),
        (None, 2, "scenario: not an object: None"),
        ({"n_tags": 0, "ranging": {"slope": 1e308, "intercept_m": 0,
                                   "noise_std_m": 0.05, "n_samples": 10}},
         2, "non-finite timing"),
        ({"n_anchors": 3, "n_tags": 0, "n_steps": 3,
          "initial_anchor_positions": [[1e299, 0], [0, 1e299],
                                       [-1e299, -1e299]]},
         2, "error: initial_anchor_positions[0].x: need <= 10000000000\n"),
        ({"n_anchors": 4, "n_tags": 1, "n_steps": 5, "calibration_period": 1,
          "k_measurements": 1, "drift_bound": 1e308}, 2,
         "error: drift_bound: need <= 1000000\n"),
        ({"motion": 3}, 2, "motion: not an object: 3"),
        ({"n_anchors": 3, "n_tags": 0, "motion": {"anchors": 3, "tags": []}},
         2, "motion.anchors: not a list: 3"),
        (json.loads(moving(speed=-1.0)), 2,
         "error: motion.anchors[0].speed: need >= 0, got -1.0\n"),
        (json.loads(ranging(slope=-1.0)), 2,
         "error: ranging.slope: need >= 5e-324, got -1.0\n"),
        # numpy's "Maximum allowed dimension exceeded", and a request for
        # 8.73 TiB, without the bound
        ({"k_measurements": 1e308}, 2, "k_measurements: need <= "),
        ({"k_measurements": 1e11}, 2, "k_measurements: need <= "),
        # the first round's readings are finite, but their deviations from
        # the mean square to inf
        ({"n_anchors": 3, "n_tags": 0,
          "ranging": {"slope": 1.0, "intercept_m": 0.36,
                      "noise_std_m": 1e160, "n_samples": 10}}, 2,
         "error: pair (0,1): the readings are too large for a finite burst "
         "mean and std\n"),
    ], ids=["list", "null", "invalid_timing", "overflowing_anchors",
            "singular_update", "motion_number", "motion_anchors_number",
            "negative_speed", "negative_slope", "k_1e308", "k_1e11",
            "std_overflow"])
    def test_reproduced_tracebacks_exit_with_a_code(self, tmp_path, doc, code,
                                                    named):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        result = run_cli("simulate", "--scenario", str(scenario),
                         "--out-dir", str(tmp_path / "out"), "--seed", "1")
        assert result.returncode == code
        assert named in result.stderr
        assert "Traceback" not in result.stderr

    def test_tiny_slope_model_exits_5_without_a_warning(self, tmp_path):
        # the bootstrap calibration's bias correction overflows
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"ranging": TINY_SLOPE}))
        result = run_cli("simulate", "--scenario", str(scenario),
                         "--out-dir", str(tmp_path / "out"))
        assert result.returncode == 5
        assert result.stderr == ("error: anchor 1: pair (0,1) has distance "
                                 "inf, which is not positive and finite\n")

    @pytest.mark.parametrize("seed", range(8))
    def test_zero_flight_round_exits_5(self, tmp_path, seed):
        # every reading of some pair clamps to zero flight at a calibration
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "n_anchors": 3, "n_tags": 0, "n_steps": 40,
            "calibration_period": 1, "k_measurements": 1,
            "initial_anchor_positions": [[0, 0], [0.5, 0], [0, 0.5]],
            "motion": {"anchors": [STILL] * 3, "tags": []},
            "ranging": {"slope": 1.0, "intercept_m": 0.1,
                        "noise_std_m": 0.5, "n_samples": 10}}))
        result = run_cli("simulate", "--scenario", str(scenario),
                         "--out-dir", str(tmp_path / "out"),
                         "--seed", str(seed))
        assert result.returncode == 5
        assert "clamped to zero flight" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("n_anchors", [0, 1, 2])
    def test_too_few_anchors_reports_only_the_count(self, tmp_path,
                                                    n_anchors):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"n_anchors": n_anchors}))
        result = run_cli("simulate", "--scenario", str(scenario),
                         "--out-dir", str(tmp_path / "out"))
        assert result.returncode == 2
        assert result.stderr == \
            f"error: n_anchors: need >= 3, got {n_anchors}\n"

    @pytest.mark.parametrize("key, high", [
        (key, high) for key, _, _, high in SCALAR_KEYS
        if isinstance(high, int)])
    @pytest.mark.parametrize("above", [1, 1e308])
    def test_above_bound_exits_2_on_one_line(self, tmp_path, key, high,
                                             above):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({key: high + above}))
        result = run_cli("simulate", "--scenario", str(scenario),
                         "--out-dir", str(tmp_path / "out"))
        assert result.returncode == 2
        assert result.stderr == f"error: {key}: need <= {high}\n"
        assert not (tmp_path / "out").exists()

    def test_far_moving_anchor_exits_2_on_one_line(self, tmp_path):
        # below the bound, this exited 0 with anchors 1 and 2 at x = 0 at
        # step 11: the frame est - est[0] cancelled their digits
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({**json.loads(moving(speed=1e180)),
                                        "n_steps": 12}))
        result = run_cli("simulate", "--scenario", str(scenario),
                         "--out-dir", str(tmp_path / "out"))
        assert result.returncode == 2
        assert result.stderr == \
            "error: motion.anchors[0].speed: need <= 1000000\n"

    def test_tag_on_anchor_is_a_failed_fix(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(placed([[2, 3], [11, 3], [6, 12]], [[2, 3]]))
        result = run_cli("simulate", "--scenario", str(scenario),
                         "--out-dir", str(tmp_path / "out"))
        assert result.returncode == 0
        assert "note: step 0: tag 0 coincides with anchor 0" in result.stderr
        assert "Traceback" not in result.stderr

    def test_coincident_anchors_exit_2(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "n_anchors": 3, "n_tags": 0,
            "initial_anchor_positions": [[0, 0], [8, 0], [0, 0]]}))
        result = run_cli("simulate", "--scenario", str(scenario),
                         "--out-dir", str(tmp_path / "out"))
        assert result.returncode == 2
        assert "initial_anchor_positions[2]" in result.stderr
        assert "Traceback" not in result.stderr

    def test_collinear_anchors_with_default_tags_name_the_anchors(
            self, tmp_path):
        # the default tags lie outside a hull without interior; the three
        # lines this used to print named tags the scenario never gave
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "n_anchors": 3,
            "initial_anchor_positions": [[0, 0], [5, 0], [10, 0]]}))
        result = run_cli("simulate", "--scenario", str(scenario),
                         "--out-dir", str(tmp_path / "out"))
        assert result.returncode == 2
        assert result.stderr == (
            "error: initial_anchor_positions: the default tag positions "
            "fall outside the anchor convex hull, which has no interior if "
            "the anchors are collinear; give initial_tag_positions or set "
            "n_tags 0\n")

    def test_collinear_anchors_with_given_tags_name_each_tag(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "n_anchors": 3, "n_tags": 2,
            "initial_anchor_positions": [[0, 0], [5, 0], [10, 0]],
            "initial_tag_positions": [[2, 0], [4, 1]]}))
        result = run_cli("simulate", "--scenario", str(scenario),
                         "--out-dir", str(tmp_path / "out"))
        assert result.returncode == 2
        assert result.stderr == (
            "error: initial_tag_positions[0]: (2, 0) outside the anchor "
            "convex hull\n"
            "error: initial_tag_positions[1]: (4, 1) outside the anchor "
            "convex hull\n")

    def test_bootstrap_geometry_failure_exits_5(self, tmp_path):
        # anchors 0 and 2 stand 0.14 m apart: at 0.3 m of ranging noise the
        # seed-9 bootstrap round reads their pair below the intercept
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "n_anchors": 3, "n_tags": 0, "n_steps": 3, "k_measurements": 1,
            "initial_anchor_positions": [[0, 0], [10, 0], [0.1, 0.1]],
            "ranging": {"slope": 1.0, "intercept_m": 0.36,
                        "noise_std_m": 0.3, "n_samples": 10}}))
        result = run_cli("simulate", "--scenario", str(scenario),
                         "--out-dir", str(tmp_path / "out"), "--seed", "9")
        assert result.returncode == 5
        assert result.stderr.startswith("error: anchor 2: pair (0,2) has "
                                        "distance -0.09")
        assert result.stderr.count("\n") == 1

    def test_no_bias_correction_flag(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(
            {"seed": 11, "n_steps": 15, "drift_bound": 0.0,
             "ranging": {"slope": 1.0086, "intercept_m": 0.36,
                         "noise_std_m": 0.0, "n_samples": 2}}))
        corrected_dir, biased_dir = tmp_path / "c", tmp_path / "b"
        run_cli("simulate", "--scenario", str(scenario),
                "--out-dir", str(corrected_dir))
        run_cli("simulate", "--scenario", str(scenario),
                "--no-bias-correction", "--out-dir", str(biased_dir))
        med = lambda d: json.loads(
            (d / "summary.json").read_text())["anchor_translation_m"]["median"]
        assert med(corrected_dir) < 1e-6
        assert med(biased_dir) > 0.3

    def test_trigger_override(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"seed": 3, "n_steps": 25}))
        out_dir = tmp_path / "out"
        result = run_cli("simulate", "--scenario", str(scenario),
                         "--trigger", "threshold:0.1",
                         "--out-dir", str(out_dir))
        assert result.returncode == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["n_calibrations"] > 3


class TestSummarize:
    def test_summary_of_simulated_trace(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"seed": 5, "n_steps": 30}))
        out_dir = tmp_path / "out"
        run_cli("simulate", "--scenario", str(scenario), "--out-dir",
                str(out_dir))
        result = run_cli("summarize", "--input", str(out_dir / "trace.csv"))
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert set(doc) >= {"anchor_translation_m", "tag_translation_m",
                            "rotation_rad", "n_steps", "n_calibrations"}
        assert doc["n_steps"] == 30
        # stdout agrees with the summary the simulation wrote, up to the
        # 9-digit rounding baked into the trace file it was recomputed from
        written = json.loads((out_dir / "summary.json").read_text())

        def compare(a, b):
            assert type(a) is type(b) or {type(a), type(b)} <= {int, float}
            if isinstance(a, dict):
                assert a.keys() == b.keys()
                for key in a:
                    compare(a[key], b[key])
            elif isinstance(a, list):
                assert len(a) == len(b)
                for va, vb in zip(a, b):
                    compare(va, vb)
            elif isinstance(a, float):
                assert a == pytest.approx(b, rel=1e-6, abs=1e-9)
            else:
                assert a == b

        compare(doc, written)

    def test_single_record_trace_quartiles(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "step,node_kind,node_id,true_x,true_y,est_x,est_y,error_m,"
            "rotation_error_rad,calibrated\n"
            "0,anchor,0,0,0,0,0,0,0.01,0\n"
            "0,anchor,1,9,0,9.2,0,0.2,0.01,0\n"
            "0,tag,0,5,5,5,5.1,0.1,0.01,0\n")
        result = run_cli("summarize", "--input", str(path))
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        q = doc["anchor_translation_m"]
        assert [q["min"], q["q1"], q["median"], q["q3"], q["max"]] == [0.2] * 5
        assert doc["tag_translation_m"]["median"] == 0.1
        assert doc["rotation_rad"]["median"] == 0.01

    def test_empty_trace_exits_2(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("step,node_kind,node_id,true_x,true_y,est_x,est_y,"
                        "error_m,rotation_error_rad,calibrated\n")
        assert run_cli("summarize", "--input", str(path)).returncode == 2

    def test_malformed_trace_exits_2(self, tmp_path):
        path = tmp_path / "garbage.csv"
        path.write_text("not,a,trace\n1,2,3\n")
        assert run_cli("summarize", "--input", str(path)).returncode == 2

    def test_anchor_zero_only_trace_exits_2(self, tmp_path):
        # anchor 0's error is zero by construction and left out of the pool
        path = tmp_path / "a0.csv"
        path.write_text(
            "step,node_kind,node_id,true_x,true_y,est_x,est_y,error_m,"
            "rotation_error_rad,calibrated\n"
            "0,anchor,0,0,0,0,0,0,0.01,0\n")
        result = run_cli("summarize", "--input", str(path))
        assert result.returncode == 2
        assert result.stderr == (f"error: {path}: no anchor errors besides "
                                 f"anchor 0's to summarize\n")

    def test_trace_without_anchor_0_exits_2_naming_the_step(self, tmp_path):
        # summarize used to leave out anchor 1 as if it were anchor 0 and
        # report a median of 0.25 over anchors 2 and 3
        path = tmp_path / "no_a0.csv"
        path.write_text(
            "step,node_kind,node_id,true_x,true_y,est_x,est_y,error_m,"
            "rotation_error_rad,calibrated\n"
            "0,anchor,1,9,0,9.5,0,0.5,0.01,0\n"
            "0,anchor,2,4,8,4,8.2,0.2,0.01,0\n"
            "0,anchor,3,0,8,0,8.3,0.3,0.01,0\n")
        result = run_cli("summarize", "--input", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (f"error: {path}: line 2: step 0: expected "
                                 f"anchor 0, got anchor 1\n")

    def test_non_finite_error_exits_2_naming_the_line(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text(
            "step,node_kind,node_id,true_x,true_y,est_x,est_y,error_m,"
            "rotation_error_rad,calibrated\n"
            "0,anchor,0,0,0,0,0,0,0.01,0\n"
            "0,anchor,1,9,0,9.2,0,inf,0.01,0\n")
        result = run_cli("summarize", "--input", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (f"error: {path}: line 3: anchor 1: error_m "
                                 f"must be a finite number, got 'inf'\n")

    def test_second_row_for_a_node_exits_2_naming_the_line(self, tmp_path):
        # the second row used to replace anchor 1's error 0.2 with 5.0
        path = tmp_path / "twice.csv"
        path.write_text(
            "step,node_kind,node_id,true_x,true_y,est_x,est_y,error_m,"
            "rotation_error_rad,calibrated\n"
            "0,anchor,0,0,0,0,0,0,0.01,0\n"
            "0,anchor,1,9,0,9.2,0,0.2,0.01,0\n"
            "0,anchor,1,9,0,14,0,5.0,0.01,0\n")
        result = run_cli("summarize", "--input", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (f"error: {path}: line 4: step 0: a second "
                                 f"row for anchor 1\n")

    def test_rotation_unlike_the_steps_first_row_exits_2(self, tmp_path):
        # step 0 used to read rotation 0.01, ignoring the third row's 0.5
        path = tmp_path / "rotation.csv"
        path.write_text(
            "step,node_kind,node_id,true_x,true_y,est_x,est_y,error_m,"
            "rotation_error_rad,calibrated\n"
            "0,anchor,0,0,0,0,0,0,0.01,0\n"
            "0,anchor,1,9,0,9.2,0,0.2,0.01,0\n"
            "0,anchor,2,4,8,4,8.1,0.1,0.5,1\n")
        result = run_cli("summarize", "--input", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: {path}: line 4: step 0: rotation_error_rad,calibrated "
            f"0.5,1 differ from the step's first row, 0.01,0\n")

    def test_calibrated_other_than_0_or_1_exits_2(self, tmp_path):
        # step 1 used to count as a calibration event, with exit 0
        path = tmp_path / "seven.csv"
        path.write_text(
            "step,node_kind,node_id,true_x,true_y,est_x,est_y,error_m,"
            "rotation_error_rad,calibrated\n"
            "0,anchor,0,0,0,0,0,0,0.01,0\n"
            "0,anchor,1,9,0,9.2,0,0.2,0.01,0\n"
            "1,anchor,0,0,0,0,0,0,0.01,7\n"
            "1,anchor,1,9,0,9.1,0,0.1,0.01,7\n")
        result = run_cli("summarize", "--input", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (f"error: {path}: line 4: calibrated must be "
                                 f"0 or 1, got '7'\n")

    def test_steps_with_different_anchors_exit_2(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "step,node_kind,node_id,true_x,true_y,est_x,est_y,error_m,"
            "rotation_error_rad,calibrated\n"
            "0,anchor,0,0,0,0,0,0,0.01,0\n"
            "0,anchor,1,9,0,9.2,0,0.2,0.01,0\n"
            "1,anchor,0,0,0,0,0,0,0.01,1\n")
        result = run_cli("summarize", "--input", str(path))
        assert result.returncode == 2
        assert result.stderr == (f"error: {path}: line 5: step 1 is cut "
                                 f"short: the trace ends after 1 of its 2 "
                                 f"rows\n")

    def test_step_missing_a_tag_row_exits_2_naming_the_line(self, tmp_path):
        # step 0's tag 2 deleted: its other two tags used to be pooled, with
        # exit 0; the step is cut short where step 1 begins
        scenario = tmp_path / "scenario.json"
        scenario.write_text("{}")
        out_dir = tmp_path / "out"
        assert run_cli("simulate", "--scenario", str(scenario), "--out-dir",
                       str(out_dir)).returncode == 0
        lines = (out_dir / "trace.csv").read_bytes().splitlines(keepends=True)
        assert lines[7].startswith(b"0,tag,2,")
        path = tmp_path / "cut.csv"
        path.write_bytes(b"".join(lines[:7] + lines[8:]))
        result = run_cli("summarize", "--input", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (f"error: {path}: line 8: the first step is "
                                 f"cut short: it holds 6 rows, step 1 more\n")


# the header of each command's CSV input
CSV_HEADERS = {"summarize": ",".join(TRACE_HEADER),
               "fit-model": "true_m,measured_m",
               "calibrate": "i,j,mean_m,std_m,count"}


def bad_byte_deep_in(command) -> bytes:
    """A valid input for ``command`` of over 100 kB with the byte 0xff at
    offset 100,000: the long_drift trace of seed 0, or rows of ones."""
    if command == "summarize":
        with tempfile.TemporaryDirectory() as out:
            path = Path(out) / "trace.csv"
            write_trace_csv(run_scenario(ScenarioConfig(
                n_anchors=5, n_tags=0, n_steps=500, calibration_period=250)),
                path)
            data = bytearray(path.read_bytes())
    else:
        header = CSV_HEADERS[command]
        row = ",".join(["1"] * (header.count(",") + 1))
        data = bytearray("\r\n".join([header] + [row] * 20_000).encode())
    data[100_000] = 0xff
    return bytes(data)


def oversized_field(command) -> bytes:
    """``command``'s header and one row whose first number to parse is
    100,000 x's."""
    row = {"summarize": "0,anchor,0,0,0,0,0,{x},0.01,0",
           "fit-model": "{x},1", "calibrate": "0,1,{x},0.1,5"}[command]
    return f"{CSV_HEADERS[command]}\n{row.format(x='x' * 100_000)}\n".encode()


# 200 seeded random bytes (not UTF-8), a field past the csv module's
# 131072-character limit, a 100,000-character first line within it, whose
# echo is cut short, and a file whose first byte that is not UTF-8 lies
# past the text reader's first chunks: the message names its line (counted
# from the bytes before it) and its offset in the file, not in a chunk;
# last, a 100,000-character field, whose echo is cut short too
UNREADABLE_CSV = [
    (np.random.default_rng(0).bytes(200), "line 1: not UTF-8 text: can't "
                                          "decode byte 0x82 at byte offset 1: "
                                          "invalid start byte"),
    (b"x" * 200_000 + b"\n", "unreadable CSV: field larger than field limit"),
    (b"x" * 100_000 + b"\n", "line 1: expected header {header!r}, got ['x"),
    (bad_byte_deep_in, "line {line}: not UTF-8 text: can't decode byte 0xff "
                       "at byte offset 100000: invalid start byte"),
    (oversized_field, "line 2: could not convert string to float: 'xxx"),
]


@pytest.mark.parametrize("content, message", UNREADABLE_CSV)
@pytest.mark.parametrize("command", ["summarize", "fit-model", "calibrate"])
def test_unreadable_csv_exits_2_naming_the_file(tmp_path, command, content,
                                                message):
    if callable(content):
        content = content(command)
    if command == "summarize" and content.startswith(b"x"):
        # a trace's first line is its header, whatever its length
        message = "line 1: expected header {header!r}, got ['x"
    message = message.format(header=CSV_HEADERS[command],
                             line=content[:100_000].count(b"\n") + 1)
    path = tmp_path / "input.csv"
    path.write_bytes(content)
    output = [] if command == "summarize" else \
        ["--output", str(tmp_path / "out.json")]
    result = run_cli(command, "--input", str(path), *output)
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: {path}: {message}")
    assert result.stderr.count("\n") == 1
    # an echoed line is cut short
    assert len(result.stderr.encode()) < 1024


# the last row is bad; in the last three cases a quoted field spans the
# two lines before it, and the row is named by the line it starts on (a
# trace quotes no field: the quote's line is named)
@pytest.mark.parametrize("command, rows", [
    ("summarize", ["0,anchor,0,0,0,0,0,0,0.01,0",
                   "0,anchor,1,9,0,9.2,0,x,0.01,0"]),
    ("fit-model", ["1,1.1", "2,x"]),
    ("calibrate", ["0,1,5,0.1,5", "1,0,x,0.1,5"]),
    ("summarize", ['"0', '",anchor,0,0,0,0,0,0,0.01,0',
                   "0,anchor,1,9,0,9.2,0,x,0.01,0"]),
    ("fit-model", ['"1', '",1', "2,x"]),
    ("calibrate", ['"0', '",1,5,0.1,5', "1,0,x,0.1,5"]),
])
def test_a_bad_row_before_a_bad_byte_is_reported_first(tmp_path, command,
                                                       rows):
    path = tmp_path / "input.csv"
    # the bad byte is in the text reader's first chunk, with the bad row
    path.write_bytes("\n".join([CSV_HEADERS[command], *rows]).encode()
                     + b"\n\xff\n")
    output = [] if command == "summarize" else \
        ["--output", str(tmp_path / "out.json")]
    result = run_cli(command, "--input", str(path), *output)
    line = 2 if command == "summarize" and '"' in rows[0] else len(rows) + 1
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: {path}: line {line}: ")
    assert "UTF-8" not in result.stderr


HUGE = "1" + "0" * 4000  # parses as an int; its str is 4,001 characters
HUGE_INT = int(HUGE)


# messages quote a parsed integer, here of 4,001 digits, through echo
@pytest.mark.parametrize("command, rows, message", [
    ("calibrate", ["0,1,10,0.1,5", "0,2,10,0.1,5", "1,2,10,0.1,5",
                   f"0,{HUGE},10,0.1,5"], "line 5: anchor id 1000"),
    ("calibrate", [f"{HUGE},1,10,0.1,5"] * 2, "line 2: anchor id 1000"),
    ("summarize", [f"{HUGE},anchor,0,0,0,0,0,0,0.01,0",
                   f"{HUGE},anchor,1,9,0,9,0,0,0.01,0",
                   "2,anchor,0,0,0,0,0,0,0.01,0",
                   "2,anchor,1,9,0,9,0,0,0.01,0"],
     "line 4: step 2 follows step 1000"),
], ids=["huge_anchor_id", "huge_duplicate_pair", "huge_step"])
def test_a_huge_parsed_integer_exits_2_on_one_short_line(tmp_path, command,
                                                         rows, message):
    path = tmp_path / "input.csv"
    path.write_text("\n".join([CSV_HEADERS[command], *rows]) + "\n")
    output = [] if command == "summarize" else \
        ["--output", str(tmp_path / "out.json")]
    result = run_cli(command, "--input", str(path), *output)
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: {path}: {message}")
    assert result.stderr.count("\n") == 1
    assert len(result.stderr.encode()) < 1024
    assert "Traceback" not in result.stderr


class _Paths(dict):
    """``{name}`` in a command's arguments: the path of ``name`` in
    ``tmp``."""

    def __init__(self, tmp):
        super().__init__()
        self.tmp = Path(tmp)

    def __missing__(self, name):
        return str(self.tmp / name)


def cli_on(files, *args):
    """A run of ``cli.main`` on ``args`` in a new directory that holds
    ``files`` (a name's text or bytes, or a function returning them), where
    ``{name}`` in ``args`` is the path of ``name`` in that directory; as a
    function of no arguments."""
    def run():
        with tempfile.TemporaryDirectory() as tmp:
            paths = _Paths(tmp)
            for name, content in files.items():
                content = content() if callable(content) else content
                Path(paths[name]).write_bytes(
                    content.encode() if isinstance(content, str) else content)
            return run_cli(*(arg.format_map(paths) for arg in args))

    return run


# The scenarios of the contract table, with their extra flags: the default
# one; 500 steps of 5 anchors, split by a calibration at step 250; a
# threshold trigger and a period of 2, whose traces' calibrated flags change
# between steps; recal_dense (5 anchors, k = 50, a calibration every step);
# the 3-anchor default layout with its default tags, some of whose fixes
# fail and leave error_m empty; 2 m of ranging noise, whose ranges break
# triangle inequalities (the start fits all pairs); and a still, drift-free
# 3-anchor run whose tag sits on anchor 0.
SCENARIOS = {
    "default": ({}, ()),
    "long": ({"n_anchors": 5, "n_tags": 0, "n_steps": 500,
              "calibration_period": 250}, ()),
    "threshold": ({"n_steps": 200}, ("--trigger", "threshold:0.3")),
    "period_2": ({"calibration_period": 2}, ()),
    "recal": ({"n_anchors": 5, "n_tags": 1, "n_steps": 10,
               "k_measurements": 50, "calibration_period": 1}, ()),
    "three": ({"n_anchors": 3}, ()),
    "noisy": ({"ranging": {"slope": 1.0086, "intercept_m": 0.361,
                           "noise_std_m": 2.0, "n_samples": 40}},
              ("--seed", "1")),
    "on_anchor": ({"n_anchors": 3, "n_tags": 1, "n_steps": 6,
                   "calibration_period": 2, "drift_bound": 0,
                   "initial_tag_positions": [[2, 3]],
                   "motion": {"anchors": [STILL] * 3, "tags": [STILL]}},
                  ()),
}


@functools.cache
def simulated(name) -> tuple[subprocess.CompletedProcess, bytes]:
    """``simulate`` on ``SCENARIOS[name]``, and the trace it wrote."""
    doc, flags = SCENARIOS[name]
    with tempfile.TemporaryDirectory() as tmp:
        scenario, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
        scenario.write_text(json.dumps(doc))
        result = run_cli("simulate", "--scenario", str(scenario),
                         "--out-dir", str(out), *flags)
        return result, (out / "trace.csv").read_bytes()


def trace_of(name, way="as written"):
    """The trace of ``SCENARIOS[name]`` as written, in LF, or with rows 2
    and 3 (anchors 0 and 1 of step 0) swapped, as a function of no
    arguments."""
    def content():
        data = simulated(name)[1]
        if way == "LF":
            return data.replace(b"\r\n", b"\n")
        if way == "swapped":
            lines = data.splitlines(keepends=True)
            assert lines[1] != lines[2]
            lines[1:3] = lines[2:0:-1]
            return b"".join(lines)
        return data

    return content


def summarized(name) -> str:
    """What ``summarize`` prints for the trace of ``SCENARIOS[name]``."""
    return cli_on({"trace": trace_of(name)},
                  "summarize", "--input", "{trace}")().stdout


# the default 5-anchor layout scaled by 1e5 (about 2e6 m across), its
# distances rounded to whole meters, both directions at std 1 m and count 5
FAR_CSV = "i,j,mean_m,std_m,count\n" + "".join(
    f"{i},{j},{mean},1,5\n{j},{i},{mean},1,5\n" for i, j, mean in [
        (0, 1, 900000), (0, 2, 1627882), (0, 3, 2140093), (0, 4, 1910497),
        (1, 2, 761577), (1, 3, 1746425), (1, 4, 2024846), (2, 3, 1431782),
        (2, 4, 2126029), (3, 4, 1118034)])


@functools.cache
def far_calibration() -> bytes:
    """The result JSON ``calibrate`` writes for ``FAR_CSV``."""
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "far.csv", Path(tmp) / "far.json"
        src.write_text(FAR_CSV)
        assert run_cli("calibrate", "--input", str(src),
                       "--output", str(out)).returncode == 0
        return out.read_bytes()


def samples_at(scale: str) -> str:
    """Nine samples whose sums of squares overflow (1e160) or underflow
    (1e-300): ``11e160,1.51e160`` to ``91e160,9.51e160``."""
    return "true_m,measured_m\n" + "".join(
        f"{k}1{scale[1:]},{k}.51{scale[1:]}\n" for k in range(1, 10))


def simulate_on(doc, *flags):
    return cli_on({"scenario": json.dumps(doc)}, "simulate", "--scenario",
                  "{scenario}", "--out-dir", "{out}", *flags)


def summarize_on(content):
    return cli_on({"trace": content}, "summarize", "--input", "{trace}")


def matches(pattern):
    return re.compile(pattern).match


# scenarios out of range: a drift of 1e308 m per step, anchor 0 moving
# 1e200 m per step or starting 2.5e200 m out, and ranging noise of 1e160 m,
# at which the first round's pairs' burst std overflows
DRIFT_1E308 = {"n_anchors": 4, "n_tags": 1, "n_steps": 5,
               "calibration_period": 1, "k_measurements": 1,
               "drift_bound": 1e308}
SPEED_1E200 = {"n_anchors": 3, "n_tags": 0, "n_steps": 12, "motion": {
    "anchors": [{**STILL, "speed": 1e200}, STILL, STILL], "tags": []}}
START_2_5E200 = {"n_anchors": 3, "n_tags": 0, "initial_anchor_positions": [
    [2.5e200, 0], [0, 0], [0, 10]]}
NOISE_1E160 = {"n_anchors": 3, "n_tags": 0, "ranging": {
    "slope": 1.0, "intercept_m": 0.36, "noise_std_m": 1e160,
    "n_samples": 10}}
# the still run's notes, one a step in step order; none of the 3-anchor
# run's tag fixes stops at the iteration cap
SIMULATE_STDERR = {
    "on_anchor": "".join(f"note: step {step}: tag 0 coincides with anchor 0 "
                         f"and cannot range it\n" for step in range(6)),
    "three": lambda err: "stopped after 100 iterations" not in err,
}
# traces whose LF copy prints the same bytes and whose rows 2 and 3 swapped
# are refused
TWO_WAYS = ["long", "threshold", "period_2", "three", "recal"]

# The CLI's contract on whole runs: each row runs a command, then checks its
# exit code and, unless None, its stdout and stderr (a string is the whole
# text, a function a check of it); every run meets assert_contract as well,
# and a failing one prints one error line.
CONTRACT = [
    pytest.param(cli_on({}, "fit-model", "--input",
                        str(resources.files("uwbcal.data")
                            / REFERENCE_SWEEP), "--output", "{model}"),
                 0, matches("fitted 40 samples: "), "",
                 id="fit_model_packaged_sweep"),
    *(pytest.param(lambda name=name: simulated(name)[0], 0, None,
                   SIMULATE_STDERR.get(name), id=f"simulate_{name}")
      for name in SCENARIOS),
    *(pytest.param(summarize_on(trace_of(name)), 0, None, "",
                   id=f"summarize_{name}") for name in SCENARIOS),
    *(pytest.param(summarize_on(trace_of(name, "LF")), 0,
                   lambda out, name=name: out == summarized(name), "",
                   id=f"summarize_{name}_in_LF") for name in TWO_WAYS),
    *(pytest.param(summarize_on(trace_of(name, "swapped")), 2, "",
                   matches(r"error: .*: line [23]: "),
                   id=f"summarize_{name}_swapped") for name in TWO_WAYS),
    # the solver's stop rule scales with the problem
    pytest.param(cli_on({"far": FAR_CSV}, "calibrate", "--input", "{far}",
                        "--output", "{out}"),
                 0, matches(r"calibrated 5 anchors in \d iterations, "), "",
                 id="calibrate_far_in_under_10_iterations"),
    pytest.param(cli_on({"far": FAR_CSV, "prior": far_calibration},
                        "calibrate", "--input", "{far}", "--prior",
                        "{prior}", "--output", "{out}"),
                 0, None, "", id="calibrate_far_warm_from_its_result"),
    pytest.param(simulate_on(DRIFT_1E308),
                 2, "", "error: drift_bound: need <= 1000000\n",
                 id="drift_bound_1e308"),
    pytest.param(simulate_on(SPEED_1E200),
                 2, "", matches(r"error: motion\.anchors\[0\]\.speed: "
                                r"need <= "),
                 id="anchor_speed_1e200"),
    pytest.param(simulate_on(START_2_5E200),
                 2, "", matches(r"error: initial_anchor_positions\[0\]\.x: "
                                r"need <= "),
                 id="anchor_start_2.5e200"),
    pytest.param(simulate_on(NOISE_1E160),
                 2, "", matches(r"error: pair \(0,1\): the readings are "
                                r"too large"),
                 id="ranging_noise_1e160"),
    pytest.param(summarize_on(HUGE_CSV), 2, "", None,
                 id="summarize_a_calibration_input"),
    *(pytest.param(cli_on({"samples": samples_at(scale)}, "fit-model",
                          "--input", "{samples}", "--output", "{model}"),
                   3, "", None, id=f"fit_model_samples_at_{scale}")
      for scale in ("1e160", "1e-300")),
]


@pytest.mark.parametrize("run, code, stdout, stderr", CONTRACT)
def test_contract(run, code, stdout, stderr):
    result = run()
    assert_contract(result)
    assert result.returncode == code, result.stderr
    if code:
        assert result.stderr.count("\n") == 1
    for text, want in ((result.stdout, stdout), (result.stderr, stderr)):
        if isinstance(want, str):
            assert text == want
        elif want is not None:
            assert want(text), text[:1000]


class Squeezed(str):
    """Text whose repr writes a run of 100 or more of one character as
    ``'x' * 100000``, so that a failing example's report stays short."""

    def __repr__(self):
        # text, run, the run's character, text, ...
        pieces = re.split(r"((.)\2{99,})", self, flags=re.DOTALL)
        terms = [repr(piece) if k % 3 == 0 else
                 f"{pieces[k + 1]!r} * {len(piece)}"
                 for k, piece in enumerate(pieces) if k % 3 < 2 and piece]
        return " + ".join(terms) or "''"


LONG_TEXT = Squeezed("x" * 100_000)


# Any JSON value. Integers and integral floats are at most 12 or at least
# 2**64: a value that lands on a count key either keeps the simulation short
# or lies above every count bound and the seed bound, so it exits 2 before
# anything is drawn. Among them are a string of 100,000 characters, as a
# value or a key, and integers of 4,001 digits.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(max_value=12)
    | st.integers(min_value=2 ** 64)
    | st.floats().filter(lambda x: not (12 < x < 2 ** 64 and x.is_integer()))
    | st.text(max_size=8) | st.sampled_from([LONG_TEXT, HUGE_INT, -HUGE_INT]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8) | st.just(LONG_TEXT), inner,
                      max_size=3),
    max_leaves=8)


def magnitudes(top):
    """Non-negative floats spread over every decade up to ``top``."""
    return st.just(0.0) | st.floats(-3.0, math.log10(top)).map(
        lambda e: 10.0 ** e)


@st.composite
def extreme_scenarios(draw):
    """Well-formed scenarios with extreme numbers: motion, drift and
    positions up to their bounds, the sensor model over the float range."""
    n = draw(st.integers(3, 6))
    t = draw(st.integers(0, 3))
    doc = {"n_anchors": n, "n_tags": t, "n_steps": draw(st.integers(1, 12)),
           "k_measurements": draw(st.integers(1, 60)),
           "calibration_period": draw(st.integers(1, 12)),
           "seed": draw(st.integers(0, 2 ** 32)),
           "drift_bound": draw(magnitudes(MAX_STEP_M)),
           "trigger": draw(st.just("periodic") | magnitudes(1e300).filter(
               lambda b: b > 0.0).map(lambda b: f"threshold:{b!r}"))}
    if draw(st.booleans()):
        doc["ranging"] = {
            "slope": draw(magnitudes(1e308).filter(lambda s: s > 0.0)),
            "intercept_m": draw(magnitudes(1e308)) * draw(
                st.sampled_from([-1.0, 1.0])),
            "noise_std_m": draw(magnitudes(1e308)),
            "n_samples": draw(st.integers(2, 50))}
    if draw(st.booleans()):
        node = st.fixed_dictionaries({
            "direction": st.floats(-7.0, 7.0),
            "speed": magnitudes(MAX_STEP_M),
            "gaussian_std": magnitudes(MAX_STEP_M)})
        doc["motion"] = {"anchors": draw(st.lists(node, min_size=n,
                                                  max_size=n)),
                         "tags": draw(st.lists(node, min_size=t,
                                               max_size=t))}
    if draw(st.booleans()):
        # from close anchors (0.3 m, noisy against any sensor) to the
        # position bound
        scale = draw(st.floats(math.log10(0.3), math.log10(MAX_POSITION_M))
                     .map(lambda e: 10.0 ** e))
        unit = st.floats(-1.0, 1.0)
        anchors = [[draw(unit) * scale, draw(unit) * scale]
                   for _ in range(n)]
        doc["initial_anchor_positions"] = anchors
        if draw(st.booleans()):
            centre = [sum(a[0] for a in anchors) / n,
                      sum(a[1] for a in anchors) / n]
            doc["initial_tag_positions"] = [centre] * t
    return doc


@st.composite
def scenario_documents(draw):
    """Any JSON value, an extreme scenario, or one with any JSON value at
    one of its keys (top level, in ``ranging`` or in a motion entry)."""
    kind = draw(st.sampled_from(["any", "extreme", "one_key"]))
    if kind == "any":
        return draw(json_values)
    doc = draw(extreme_scenarios())
    if kind == "one_key":
        targets = [doc]
        if "ranging" in doc:
            targets.append(doc["ranging"])
        if "motion" in doc:
            targets.append(doc["motion"]["anchors"][0])
        target = draw(st.sampled_from(targets))
        key = draw(st.sampled_from(sorted(target)))
        target[key] = draw(json_values)
    return doc


# what an edit puts in a CSV field: huge and negative integers, long
# fields, quotes, and non-finite, subnormal and extreme numbers
FIELDS = st.sampled_from([
    "99999999999", str(2 ** 63), str(10 ** 30), HUGE, "-1", "-99999999999",
    "0", LONG_TEXT, "1" * 100_000, "", " 1", "1_0", '"1\n2"', '"', "nan",
    "inf", "-inf", "1e400", "5e-324", "-5e-324", "1e-300", "1e160", "1e308",
    "-1e308"]) | st.integers().map(str) | st.floats().map(repr)


@st.composite
def edited_csv(draw, text, numbers):
    """``text``, a valid CSV, with up to three edits: a row dropped,
    duplicated or swapped with another, a field replaced from ``FIELDS``,
    or the ``numbers`` columns of every row scaled by a power of ten."""
    header, *rows = text.splitlines()
    rows = [row.split(",") for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        how = draw(st.sampled_from(["field", "field", "scale", "drop",
                                    "duplicate", "swap"]))
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        if how == "field":
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(FIELDS)
        elif how == "scale":
            factor = 10.0 ** draw(st.integers(-323, 308))
            for row in rows:
                for k in numbers:
                    with contextlib.suppress(ValueError):
                        row[k] = repr(float(row[k]) * factor)
        elif how == "drop":
            del rows[i]
        elif how == "duplicate":
            rows.insert(i, list(rows[i]))
        else:
            rows[i], rows[j] = rows[j], rows[i]
    return Squeezed("\n".join([header, *map(",".join, rows)]) + "\n")


def _containers(doc):
    """Every list and object in the JSON value ``doc``, ``doc`` first."""
    if isinstance(doc, (list, dict)):
        yield doc
        for value in (doc if isinstance(doc, list) else doc.values()):
            yield from _containers(value)


# numbers an edit puts in a JSON document, besides json_values
EXTREMES = st.sampled_from([
    99999999999, 2 ** 63, 10 ** 30, -1, -99999999999, 0, 5e-324, -5e-324,
    1e-310, 1e-300, 1e160, 1e308, -1e308, math.inf, -math.inf, math.nan])


@st.composite
def edited_json(draw, doc):
    """``doc`` with up to three edits: a value anywhere in it replaced by
    an extreme number or any JSON value, or an entry of one of its lists or
    objects dropped, duplicated or swapped with another; one time in ten,
    any JSON value instead."""
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from(list(_containers(doc))))
        keys = list(range(len(target))) if isinstance(target, list) \
            else sorted(target)
        if not keys:
            continue
        key, other = draw(st.sampled_from(keys)), draw(st.sampled_from(keys))
        how = draw(st.sampled_from(["value", "value", "drop", "duplicate",
                                    "swap"]))
        if how == "value":
            target[key] = draw(EXTREMES | json_values)
        elif how == "drop":
            del target[key]
        elif how == "duplicate" and isinstance(target, list):
            target.insert(key, copy.deepcopy(target[key]))
        elif how == "duplicate":
            target[f"{key}_"] = copy.deepcopy(target[key])
        else:
            target[key], target[other] = target[other], target[key]
    return doc


def _golden_distances() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "distances.csv"
        save_distance_csv(exact_matrix(GOLDEN_FRAME), path,
                          float_format="%.17g")
        return path.read_text()


# the valid inputs the properties edit: the packaged sweep, the golden
# frame's distances, the reference sensor model and calibrate's result for
# the golden frame (or its bare positions list)
SAMPLES_CSV = (resources.files("uwbcal.data") / REFERENCE_SWEEP).read_text()
GOLDEN_DISTANCES_CSV = _golden_distances()
MODEL = {"slope": 1.0086, "intercept_m": 0.361, "noise_std_m": 0.058,
         "n_samples": 40}
PRIOR = {"positions": [list(p) for p in GOLDEN_FRAME],
         "rms_residual_m": 0.0, "iterations": 1, "converged": True}


class TestExitCodes:
    def test_every_input_error_type_has_a_code(self):
        types = [obj for obj in vars(errors).values()
                 if isinstance(obj, type)
                 and issubclass(obj, errors.UwbCalError)
                 and obj is not errors.UwbCalError]
        assert errors.ConfigError in types
        for error in types:
            codes = [code for row, code in cli.EXIT_CODES if error in row]
            assert len(codes) == (error is not errors.ProtocolViolation), error

    def test_protocol_violation_is_a_traceback(self, tmp_path, monkeypatch):
        def broken_round(cfg, bias_correction):
            raise errors.ProtocolViolation("2 concurrent initiators")

        monkeypatch.setattr(cli, "run_scenario", broken_round)
        scenario = tmp_path / "scenario.json"
        scenario.write_text("{}")
        with pytest.raises(errors.ProtocolViolation):
            run_cli("simulate", "--scenario", str(scenario),
                    "--out-dir", str(tmp_path / "out"))

    def test_not_converged_writes_the_best_iterate(self, golden_csv,
                                                   tmp_path, monkeypatch):
        best = CalibrationResult(positions=np.array(GOLDEN_FRAME),
                                 rms_residual=0.5, iterations=100,
                                 converged=False)

        def capped(matrix, model, prior=None):
            raise errors.NotConverged("stopped after 100 iterations", best)

        monkeypatch.setattr(cli, "calibrate", capped)
        out = tmp_path / "r.json"
        result = run_cli("calibrate", "--input", str(golden_csv),
                         "--output", str(out))
        assert result.returncode == 4
        assert result.stderr == "error: stopped after 100 iterations\n"
        doc = json.loads(out.read_text())
        assert doc["converged"] is False
        assert doc["positions"][1] == [9.0, 0.0]

    def test_an_overflowing_rms_residual_is_written_as_null(self, tmp_path):
        # distances near 1e160 m that no triangle fits: the residuals'
        # squares overflow at every iterate, so no step lowers the infinite
        # objective, and the refinement stops at the damping limit with an
        # infinite rms
        src = tmp_path / "huge.csv"
        src.write_text("i,j,mean_m,std_m,count\n0,1,1e160,0.1,5\n"
                       "0,2,1e160,0.1,5\n1,2,3e160,0.1,5\n")
        prior = tmp_path / "prior.json"
        prior.write_text("[[0, 0], [1, 0], [0, 1]]")
        out = tmp_path / "r.json"
        result = run_cli("calibrate", "--input", str(src), "--prior",
                         str(prior), "--output", str(out))
        assert result.returncode == 4
        assert_contract(result)
        assert result.stderr.count("\n") == 1
        assert "at the damping limit" in result.stderr
        text = out.read_text()
        assert "Infinity" not in text and "NaN" not in text
        doc = json.loads(text, parse_constant=pytest.fail)
        assert doc["rms_residual_m"] is None
        assert doc["converged"] is False

    def test_json_output_refuses_non_finite_numbers(self):
        with pytest.raises(ValueError):
            cli._dump_json({"x": math.inf})

    @settings(deadline=None)
    @given(scenario_documents())
    @example(DRIFT_1E308)
    @example({"k_measurements": 1e308})
    @example(SPEED_1E200)
    @example(START_2_5E200)
    @example(NOISE_1E160)
    @example({"ranging": TINY_SLOPE})
    # each of these used to print an error line of 100 kB or 4 kB, or one
    # broken in two
    @example(LONG_TEXT)
    @example({LONG_TEXT: 1})
    @example({"\n": None})
    @example({"n_steps": LONG_TEXT})
    @example({"n_steps": -HUGE_INT})
    @example({"ranging": LONG_TEXT})
    @example({"trigger": LONG_TEXT})
    @example({"trigger": Squeezed("threshold:" + LONG_TEXT)})
    @example({"motion": {"anchors": LONG_TEXT, "tags": []}})
    @example({"initial_anchor_positions": LONG_TEXT})
    @example({"initial_anchor_positions": [LONG_TEXT, [0, 0], [0, 1]]})
    @example({"n_anchors": HUGE_INT, "initial_anchor_positions": [[0, 0]]})
    @example({"n_tags": HUGE_INT, "initial_tag_positions": [[5, 5]]})
    @example({"n_anchors": HUGE_INT, "motion": {"anchors": [], "tags": []}})
    @example({"n_tags": HUGE_INT, "motion": {"anchors": [STILL] * 4,
                                              "tags": []}})
    def test_simulate_exits_with_a_documented_code(self, doc):
        assert_contract(simulate_on(doc)())

    @settings(deadline=None)
    @given(edited_csv(SAMPLES_CSV, numbers=(0, 1)))
    @example(oversized_field("fit-model").decode())
    @example(samples_at("1e160"))
    @example(samples_at("1e-300"))
    def test_fit_model_exits_with_a_documented_code(self, text):
        assert_contract(cli_on({"samples": text}, "fit-model", "--input",
                               "{samples}", "--output", "{model}")())

    @settings(deadline=None)
    @given(edited_csv(GOLDEN_DISTANCES_CSV, numbers=(2, 3)))
    @example(oversized_field("calibrate").decode())
    @example("i,j,mean_m,std_m,count\n0,1,10,0.1,5\n0,2,10,0.1,5\n"
             "1,2,10,0.1,5\n0,99999999999,10,0.1,5\n")
    @example(f"i,j,mean_m,std_m,count\n0,1,10,0.1,{10 ** 30}\n"
             "0,2,10,0.1,5\n1,2,10,0.1,5\n")
    @example(HUGE_CSV)
    @example(FAR_CSV)
    @example("i,j,mean_m,std_m,count\n" + "".join(
        f"{i},{j},4,0.1,5\n" for i, j in ((0, 1), (1, 0), (0, 2), (2, 0),
                                           (1, 2), (2, 1))))
    @example("i,j,mean_m,std_m,count\n0,1,1e160,0.1,5\n0,2,1e160,0.1,5\n"
             "1,2,1.5e160,0.1,5\n")
    def test_calibrate_exits_with_a_documented_code(self, text):
        assert_contract(cli_on({"pairs": text}, "calibrate", "--input",
                               "{pairs}", "--output", "{out}")())

    @settings(deadline=None)
    @given(doc=edited_json(MODEL))
    @example(doc=TINY_SLOPE)
    # each of these used to print an error line of 100 kB or 4 kB
    @example(doc={**MODEL, "slope": LONG_TEXT})
    @example(doc={**MODEL, "n_samples": LONG_TEXT})
    @example(doc={**MODEL, "n_samples": -HUGE_INT})
    def test_a_model_exits_with_a_documented_code(self, golden_csv, doc):
        assert_contract(cli_on({"model": json.dumps(doc)}, "calibrate",
                               "--input", str(golden_csv), "--model",
                               "{model}", "--output", "{out}")())

    @settings(deadline=None)
    @given(doc=edited_json(PRIOR) | edited_json(PRIOR["positions"]))
    @example(doc=[[1e308, 0], [-1e308, 0], [0, 0], [0, 1], [2, 19]])
    @example(doc=[[0, 0], [1, 0], [0, 1]])
    # each of these used to print an error line of 100 kB
    @example(doc={"positions": LONG_TEXT})
    @example(doc=[[LONG_TEXT, 0], [9, 0], [16, 3], [13, 17], [2, 19]])
    @example(doc=[[0, 0], [9, 0, LONG_TEXT], [16, 3], [13, 17], [2, 19]])
    def test_a_prior_exits_with_a_documented_code(self, golden_csv, doc):
        assert_contract(cli_on({"prior": json.dumps(doc)}, "calibrate",
                               "--input", str(golden_csv), "--prior",
                               "{prior}", "--output", "{out}")())
