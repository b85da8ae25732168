
import numpy as np
import pytest

from uwbcal.errors import InvalidTiming, ProtocolViolation
from uwbcal.geometry import Point2, distance
from uwbcal.protocol import (DEFAULT_LATENCY_MODEL, LatencyModel, Mode, Poll,
                             Response, StartCommand, StatsBroadcast,
                             TokenPass, estimate_latency, handle_event,
                             make_node, run_calibration_round, simulate_round,
                             write_event_trace)
from uwbcal.ranging import RangingModel, TwrTimings, reference_model
from conftest import GOLDEN_FRAME

SQUARE = [Point2(0, 0), Point2(8, 0), Point2(8, 8), Point2(0, 8)]


def noiseless(model):
    return RangingModel(model.slope, model.intercept, 0.0, model.n_samples)


class TestHandleEvent:
    def test_start_command_makes_initiator(self):
        node = make_node(0, 4, 3)
        node, out = handle_event(node, StartCommand(target=0), 0.0)
        assert node.mode is Mode.INITIATOR
        assert node.pending_target == 1
        assert out == [Poll(sender=0, target=1)]

    def test_targets_follow_id_order(self):
        node = make_node(2, 4, 1)
        node, out = handle_event(node, TokenPass(sender=1, target=2), 0.0)
        assert node.mode is Mode.INITIATOR
        assert out == [Poll(sender=2, target=3)]
        assert node.remaining_targets == (0, 1)

    def test_poll_gets_exactly_one_response(self):
        node = make_node(1, 4, 3)
        node, out = handle_event(node, Poll(sender=0, target=1), 0.0)
        assert node.mode is Mode.RESPONDER
        assert len(out) == 1
        assert isinstance(out[0], Response)

    def test_poll_while_initiator_is_violation(self):
        node = make_node(0, 4, 3)
        node, _ = handle_event(node, StartCommand(target=0), 0.0)
        with pytest.raises(ProtocolViolation):
            handle_event(node, Poll(sender=2, target=0), 0.0)

    def test_start_while_busy_is_violation(self):
        node = make_node(0, 4, 3)
        node, _ = handle_event(node, StartCommand(target=0), 0.0)
        with pytest.raises(ProtocolViolation):
            handle_event(node, StartCommand(target=0), 0.0)

    def test_response_without_timings_is_violation(self):
        node = make_node(0, 4, 1)
        node, _ = handle_event(node, StartCommand(target=0), 0.0)
        with pytest.raises(ProtocolViolation):
            handle_event(node, Response(sender=1, target=0, timings=None), 0.0)

    def test_unexpected_responder_is_violation(self):
        node = make_node(0, 4, 1)
        node, _ = handle_event(node, StartCommand(target=0), 0.0)
        timings = TwrTimings(t_round=1e-3, t_reply=1e-3)
        with pytest.raises(ProtocolViolation):
            handle_event(node, Response(sender=3, target=0, timings=timings),
                         0.0)

    def test_misaddressed_messages_rejected(self):
        node = make_node(1, 4, 1)
        with pytest.raises(ProtocolViolation):
            handle_event(node, Poll(sender=0, target=2), 0.0)
        with pytest.raises(ProtocolViolation):
            handle_event(node, TokenPass(sender=0, target=2), 0.0)


class TestRound:
    @pytest.mark.parametrize("n,k", [(3, 1), (3, 5), (4, 3), (5, 2)])
    def test_message_counts_match_closed_forms(self, n, k):
        rng = np.random.default_rng(0)
        positions = SQUARE[:n] if n <= 4 else GOLDEN_FRAME[:n]
        out = simulate_round(n, k, positions, reference_model(), rng)
        assert out.message_counts["Poll"] == n * (n - 1) * k
        assert out.message_counts["Response"] == n * (n - 1) * k
        assert out.message_counts["StatsBroadcast"] == n * (n - 1)
        assert out.message_counts["TokenPass"] == n
        assert out.message_counts["StartCommand"] == 1

    def test_single_initiator_throughout(self):
        rng = np.random.default_rng(1)
        out = simulate_round(4, 5, SQUARE, reference_model(), rng)
        # never two initiators; exactly one whenever a poll is delivered;
        # zero only while the token (or the handoff broadcast) is in flight
        assert max(count for _, count in out.initiator_counts) == 1
        for kind, count in out.initiator_counts:
            if kind in ("StartCommand", "Poll"):
                assert count == 1
            if count == 0:
                assert kind in ("Response", "StatsBroadcast", "TokenPass")

    def test_round_reaches_quiescence(self):
        rng = np.random.default_rng(2)
        out = simulate_round(5, 2, GOLDEN_FRAME, reference_model(), rng)
        assert out.nodes[0].mode is Mode.IDLE
        assert all(n.mode is Mode.RESPONDER for n in out.nodes[1:])

    def test_every_node_holds_identical_stats(self):
        rng = np.random.default_rng(3)
        out = simulate_round(4, 4, SQUARE, reference_model(), rng)
        for node in out.nodes[1:]:
            assert node.collected == out.nodes[0].collected
        assert len(out.nodes[0].collected) == 4 * 3

    def test_zero_noise_means_match_bias_line(self):
        model = noiseless(reference_model())
        rng = np.random.default_rng(4)
        stats, _ = run_calibration_round(4, 3, SQUARE, model, rng)
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                true_d = distance(SQUARE[i], SQUARE[j])
                pair = stats.pair(i, j)
                assert pair.count == 3
                assert pair.mean == pytest.approx(
                    model.slope * true_d + model.intercept, abs=1e-9)
                assert pair.std == 0.0

    def test_zero_noise_directed_symmetry(self):
        model = noiseless(reference_model())
        rng = np.random.default_rng(5)
        stats, _ = run_calibration_round(4, 2, SQUARE, model, rng)
        for i in range(4):
            for j in range(i + 1, 4):
                assert stats.pair(i, j).mean == pytest.approx(
                    stats.pair(j, i).mean, abs=1e-9)

    def test_single_measurement_has_zero_std(self):
        rng = np.random.default_rng(6)
        stats, _ = run_calibration_round(3, 1, SQUARE[:3], reference_model(),
                                         rng)
        assert stats.pair(0, 1).std == 0.0
        assert stats.pair(0, 1).count == 1

    def test_deterministic_per_seed(self):
        a, _ = run_calibration_round(4, 5, SQUARE, reference_model(),
                                     np.random.default_rng(42))
        b, _ = run_calibration_round(4, 5, SQUARE, reference_model(),
                                     np.random.default_rng(42))
        assert a.equal_stats(b)

    def test_round_latency_reported(self):
        rng = np.random.default_rng(7)
        _, latency = run_calibration_round(4, 5, SQUARE, reference_model(),
                                           rng)
        assert latency == 0.9

    def test_trace_spans_the_modeled_latency(self, tmp_path):
        rng = np.random.default_rng(8)
        out = simulate_round(3, 2, SQUARE[:3], reference_model(), rng)
        times = [row[0] for row in out.trace]
        assert times == sorted(times)
        assert times[-1] < out.latency <= times[-1] + 2 * (times[1] - times[0])
        path = tmp_path / "events.csv"
        write_event_trace(out.trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,type,from,to"
        assert len(lines) == 1 + len(out.trace)


class TestFastRoundMatchesEventModel:
    """run_calibration_round must reproduce simulate_round bit for bit."""

    MODELS = {
        "reference": reference_model(),
        "identity": RangingModel.identity(),
        "noise_2m": RangingModel(reference_model().slope,
                                 reference_model().intercept, 2.0, 40),
    }

    @staticmethod
    def assert_same_round(n, k, positions, model, seed):
        oracle_rng = np.random.default_rng(seed)
        fast_rng = np.random.default_rng(seed)
        try:
            oracle = simulate_round(n, k, positions, model, oracle_rng)
        except Exception as exc:  # compared against the fast path below
            with pytest.raises(Exception) as fast:
                run_calibration_round(n, k, positions, model, fast_rng)
            assert type(fast.value) is type(exc)
            return False
        stats, latency = run_calibration_round(n, k, positions, model,
                                               fast_rng)
        assert stats.equal_stats(oracle.stats)
        assert latency == oracle.latency
        assert fast_rng.bit_generator.state == oracle_rng.bit_generator.state
        return True

    # k = 129 crosses numpy's 128-element pairwise-summation block
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("k", [1, 5, 50, 129])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_random_layouts(self, n, k, model):
        for seed in range(20):
            layout = np.random.default_rng(10_000 + seed).uniform(-15, 15,
                                                                  (n, 2))
            positions = [Point2(x, y) for x, y in layout]
            self.assert_same_round(n, k, positions, self.MODELS[model], seed)

    @pytest.mark.parametrize("positions,error", [
        ([Point2(0, 0), Point2(0, 0), Point2(5, 0)], ValueError),
        ([Point2(1e308, 0), Point2(-1e308, 0), Point2(0, 0)], InvalidTiming),
        # the overflowing pair (0, 1) is ranged before the coincident (2, 3)
        ([Point2(1e308, 0), Point2(-1e308, 0), Point2(0, 0), Point2(0, 0)],
         InvalidTiming),
        ([Point2(0, 0), Point2(0, 0), Point2(1e308, 0), Point2(-1e308, 0)],
         ValueError),
    ])
    def test_failures_match(self, positions, error):
        n = len(positions)
        with pytest.raises(error):
            simulate_round(n, 3, positions, reference_model(),
                           np.random.default_rng(0))
        assert not self.assert_same_round(n, 3, positions, reference_model(), 0)

    def test_argument_checks(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            run_calibration_round(4, 5, SQUARE[:3], reference_model(), rng)
        with pytest.raises(ValueError):
            run_calibration_round(2, 5, SQUARE[:2], reference_model(), rng)
        with pytest.raises(ValueError):
            run_calibration_round(4, 0, SQUARE, reference_model(), rng)


class TestLatencyModel:
    def test_reference_points_exact(self):
        assert estimate_latency(5) == 0.9
        assert estimate_latency(50) == 2.5

    def test_midpoint_interpolation(self):
        assert DEFAULT_LATENCY_MODEL.estimate(27.5) == pytest.approx(
            1.7, rel=1e-12)

    def test_components(self):
        assert DEFAULT_LATENCY_MODEL.per_measurement == pytest.approx(
            0.035556, abs=1e-6)
        assert DEFAULT_LATENCY_MODEL.base == pytest.approx(0.72222, abs=1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyModel(base=-0.1, per_measurement=0.0)
        with pytest.raises(ValueError):
            estimate_latency(0)
