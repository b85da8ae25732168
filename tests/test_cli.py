import json
import math
import subprocess
import sys

import pytest

from uwbcal.ranging import load_reference_samples, save_samples
from conftest import GOLDEN_FRAME, exact_matrix
from uwbcal.autocalib import save_distance_csv


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "uwbcal", *args],
                          capture_output=True, text=True)


def moving(**anchor_0) -> str:
    """A 3-anchor, tag-free scenario whose anchor-0 motion has the given
    fields replaced, as JSON text."""
    still = {"direction": 0.0, "speed": 0.0, "gaussian_std": 0.0}
    return json.dumps({"n_anchors": 3, "n_tags": 0, "n_steps": 3, "motion": {
        "anchors": [{**still, **anchor_0}, still, still], "tags": []}})


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
        assert run_cli("--help").returncode == 0


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

    def test_degenerate_geometry_exits_5(self, tmp_path):
        src = tmp_path / "degen.csv"
        rows = ["i,j,mean_m,std_m,count", "0,1,9.0,0.0,1", "1,0,9.0,0.0,1",
                "0,2,1.0,0.0,1", "2,0,1.0,0.0,1", "1,2,1.0,0.0,1",
                "2,1,1.0,0.0,1"]
        src.write_text("\n".join(rows) + "\n")
        result = run_cli("calibrate", "--input", str(src),
                         "--output", str(tmp_path / "r.json"))
        assert result.returncode == 5
        assert "anchor 2" in result.stderr

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
            assert math.hypot(x - p.x, y - p.y) <= 1e-6

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

    def test_bootstrap_geometry_failure_exits_5(self, tmp_path):
        # at 2 m of ranging noise the seed-1 bootstrap circles for anchor 2
        # do not intersect
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"ranging": {
            "slope": 1.0086, "intercept_m": 0.361, "noise_std_m": 2.0,
            "n_samples": 40}}))
        result = run_cli("simulate", "--scenario", str(scenario),
                         "--out-dir", str(tmp_path / "out"), "--seed", "1")
        assert result.returncode == 5
        assert "anchor 2" in result.stderr
        assert "Traceback" not in result.stderr

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
