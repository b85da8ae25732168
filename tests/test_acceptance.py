"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 6's tag-error clause is a known failure of the shipped model; see
the project README for the convention analysis behind it. It is asserted at
its stated tolerance regardless.
"""

import contextlib
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from uwbcal.autocalib import calibrate, refine_lse
from uwbcal.autocalib import DistanceStatsMatrix
from uwbcal.geometry import distance
from uwbcal.multilateration import locate_tag
from uwbcal.protocol import estimate_latency
from uwbcal.ranging import fit_model, load_reference_samples, reference_model
from uwbcal.sim import ScenarioConfig, point_in_anchor_hull, run_scenario
from conftest import GOLDEN_FRAME, GOLDEN_TAG_FRAME, GOLDEN_TAG_RANGES, \
    exact_matrix, offset
from oracles import (network_residuals, objective_and_gradient,
                     simulate_round, tag_residuals)

DEFAULT_SEEDS = range(20)


@contextlib.contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL  {description} "
              f"[{time.perf_counter() - started:.2f}s]")
        raise
    print(f"ACCEPTANCE {number} PASS  {description} "
          f"[{time.perf_counter() - started:.2f}s]")


@pytest.fixture(scope="module")
def default_traces():
    started = time.perf_counter()
    traces = [run_scenario(ScenarioConfig(seed=seed)) for seed in DEFAULT_SEEDS]
    return traces, time.perf_counter() - started


def test_criterion_1_ranging_model_reproduction():
    with criterion(1, "ranging model fit reproduces the reference line"):
        started = time.perf_counter()
        model = fit_model(load_reference_samples())
        elapsed = time.perf_counter() - started
        print(f"  slope={model.slope:.6f} (target 1.00863 +- 0.002), "
              f"intercept={model.intercept:.6f} (target 0.3611 +- 0.01)")
        assert model.n_samples == 40
        assert abs(model.slope - 1.00863) <= 0.002
        assert abs(model.intercept - 0.3611) <= 0.01
        assert elapsed < 1.0


def test_criterion_2_latency_model_exactness():
    with criterion(2, "round latency interpolation is exact at both "
                      "reference points"):
        assert estimate_latency(5) == 0.9
        assert estimate_latency(50) == 2.5


def test_criterion_3_zero_noise_oracle():
    with criterion(3, "zero-noise recovery: 100 random layouts and tags "
                      "to 1e-6 m"):
        started = time.perf_counter()
        model = reference_model()
        rng = np.random.default_rng(2024)
        layouts = 0
        while layouts < 100:
            a1x = rng.uniform(6.0, 12.0)
            anchors = [(0.0, 0.0), (a1x, 0.0),
                       (rng.uniform(-4.0, a1x + 4.0),
                        rng.uniform(3.0, 12.0)),
                       (rng.uniform(-4.0, a1x + 4.0),
                        rng.uniform(3.0, 12.0))]
            seps = [distance(p, q) for i, p in enumerate(anchors)
                    for q in anchors[i + 1:]]
            if min(seps) < 2.0:
                continue
            layouts += 1
            distorted = exact_matrix(
                anchors, transform=lambda d: model.slope * d + model.intercept)
            result = calibrate(distorted, model)
            for got, want in zip(result.positions, anchors):
                assert distance(got, want) <= 1e-6
            # one interior tag per layout, exact ranges
            while True:
                tag = (rng.uniform(-4.0, a1x + 4.0),
                       rng.uniform(0.0, 12.0))
                if point_in_anchor_hull(tag, anchors) and \
                        min(distance(tag, a) for a in anchors) > 0.3:
                    break
            fix = locate_tag(anchors, [distance(tag, a) for a in anchors])
            assert distance(fix.position, tag) <= 1e-6
        elapsed = time.perf_counter() - started
        print(f"  100 layouts + 100 tags recovered in {elapsed:.2f}s")
        assert elapsed < 10.0


def test_criterion_4_golden_case():
    with criterion(4, "golden five-anchor layout and tag fix to 1e-6 m"):
        from uwbcal.ranging import RangingModel
        result = calibrate(exact_matrix(GOLDEN_FRAME),
                           RangingModel.identity())
        for got, want in zip(result.positions, GOLDEN_FRAME):
            assert distance(got, want) <= 1e-6
        fix = locate_tag(list(result.positions), GOLDEN_TAG_RANGES)
        assert distance(fix.position, GOLDEN_TAG_FRAME) <= 1e-6


def test_criterion_5_sawtooth(default_traces):
    with criterion(5, "calibration lowers the mean anchor error in >= 90% "
                      "of events (20 seeds)"):
        started = time.perf_counter()
        traces, build_seconds = default_traces
        drops = total = 0
        for trace in traces:
            by_step = {r.step: r for r in trace.records}
            for record in trace.records:
                if record.calibrated and (record.step - 1) in by_step:
                    total += 1
                    before = np.mean(
                        by_step[record.step - 1].anchor_errors[1:])
                    after = np.mean(record.anchor_errors[1:])
                    drops += after < before
        print(f"  {drops}/{total} calibration events lowered the mean "
              f"anchor error ({drops / total:.1%})")
        assert total >= 50
        assert drops * 10 >= total * 9  # >= 90%, integer-exact
        assert build_seconds + time.perf_counter() - started < 30.0


def test_criterion_6_error_distributions(default_traces):
    with criterion(6, "pooled error distributions over 20 seeded runs "
                      "(known tag-clause failure)"):
        started = time.perf_counter()
        traces, build_seconds = default_traces
        anchors, tags, rotations = [], [], []
        for trace in traces:
            for record in trace.records:
                anchors.extend(record.anchor_errors[1:])
                tags.extend(e for e in record.tag_errors
                            if not math.isnan(e))
                rotations.append(record.rotation_error)
        anchor_median = float(np.median(anchors))
        tag_median = float(np.median(tags))
        rotation_median = float(np.median(rotations))
        print(f"  anchor median {anchor_median:.4f} m (window [0.20, 0.50]), "
              f"tag median {tag_median:.4f} m (window [0.05, 0.15]), "
              f"rotation median {rotation_median:+.5f} rad (|.| < 0.02)")
        assert build_seconds + time.perf_counter() - started < 120.0
        assert 0.20 <= anchor_median <= 0.50
        assert abs(rotation_median) < 0.02
        assert 0.05 <= tag_median <= 0.15


@pytest.mark.parametrize("n_anchors", [3, 4, 5])
@pytest.mark.parametrize("k", [1, 5, 50])
def test_criterion_7_protocol_invariants(n_anchors, k):
    with criterion(7, f"protocol round invariants (N={n_anchors}, k={k})"):
        started = time.perf_counter()
        positions = GOLDEN_FRAME[:n_anchors]
        out = simulate_round(n_anchors, k, positions, reference_model(),
                             np.random.default_rng(n_anchors * 100 + k))
        expected_polls = n_anchors * (n_anchors - 1) * k
        assert out.message_counts["Poll"] == expected_polls
        assert out.message_counts["Response"] == expected_polls
        assert out.message_counts["StatsBroadcast"] == \
            n_anchors * (n_anchors - 1)
        assert out.message_counts["TokenPass"] == n_anchors
        assert max(c for _, c in out.initiator_counts) == 1
        for kind, count in out.initiator_counts:
            if kind in ("StartCommand", "Poll"):
                assert count == 1
        for node in out.nodes[1:]:
            assert node.collected == out.nodes[0].collected
        assert len(out.nodes[0].collected) == n_anchors * (n_anchors - 1)
        assert time.perf_counter() - started < 5.0


def test_criterion_8_numerical_hygiene():
    with criterion(8, "analytic gradients match central differences; "
                      "refinement is monotone"):
        rng = np.random.default_rng(77)
        h = 1e-6

        def fd(fun, x):
            grad = np.zeros_like(x)
            for idx in range(len(x)):
                up, down = x.copy(), x.copy()
                up[idx] += h
                down[idx] -= h
                grad[idx] = (fun(up) - fun(down)) / (2 * h)
            return grad

        def random_instance():
            n = int(rng.integers(3, 6))
            truth = [(0, 0)] + [tuple(rng.uniform(-8, 8, 2).tolist())
                                for _ in range(n - 1)]
            matrix = DistanceStatsMatrix(n)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        matrix.set_pair(i, j, max(
                            0.1, distance(truth[i], truth[j])
                            + rng.normal(0, 0.1)), 0.1, 3)
            return truth, matrix

        for _ in range(50):  # anchor-network objective
            truth, matrix = random_instance()
            n = matrix.n_anchors
            # the free coordinates: all but anchor 0's and anchor 1's y
            x = np.delete([c for p in truth[1:] for c in p], 1)
            x += rng.normal(0, 0.5, x.size)
            fun = network_residuals(matrix)
            _, grad = objective_and_gradient(fun, x)
            num = fd(lambda v: objective_and_gradient(fun, v)[0], x)
            scale = max(float(np.abs(num).max()), 1e-12)
            assert float(np.abs(grad - num).max()) / scale < 1e-5

        anchors = GOLDEN_FRAME[:4]
        for _ in range(50):  # tag-fix objective
            ranges = [max(0.1, distance((6, 7), a) + rng.normal(0, 0.2))
                      for a in anchors]
            p = rng.uniform(0, 14, 2)
            fun = tag_residuals(anchors, ranges)
            _, grad = objective_and_gradient(fun, p)
            num = fd(lambda v: objective_and_gradient(fun, v)[0], p)
            scale = max(float(np.abs(num).max()), 1e-12)
            assert float(np.abs(grad - num).max()) / scale < 1e-5

        for _ in range(20):  # monotone refinement
            truth, matrix = random_instance()
            start = [truth[0]] + [offset(p, *rng.normal(0, 0.3, 2))
                                  for p in truth[1:]]
            start[1] = (start[1][0], 0.0)  # anchor 1 on the x-axis
            x0 = np.delete([c for p in start[1:] for c in p], 1)
            fun = network_residuals(matrix)
            f_start, _ = objective_and_gradient(fun, x0)
            result = refine_lse(start, matrix)
            x1 = np.delete([c for p in result.positions[1:] for c in p], 1)
            f_end, _ = objective_and_gradient(fun, x1)
            assert f_end <= f_start + 1e-12


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical simulate invocations produce byte-identical "
                      "traces"):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"seed": 404}))
        outputs = []
        for name in ("first", "second"):
            out_dir = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "uwbcal", "simulate",
                 "--scenario", str(scenario), "--out-dir", str(out_dir)],
                capture_output=True, text=True)
            assert proc.returncode == 0
            outputs.append((out_dir / "trace.csv").read_bytes())
        assert outputs[0] == outputs[1]
