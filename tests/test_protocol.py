
import numpy as np
import pytest

from uwbcal.autocalib import DistanceStatsMatrix
from uwbcal.errors import DegenerateGeometry, InvalidTiming, ProtocolViolation
from uwbcal.geometry import distance
from uwbcal.protocol import (_round_layout, estimate_latency,
                             run_calibration_round)
from uwbcal.ranging import RangingModel, reference_model
from conftest import GOLDEN_FRAME, equal_stats
from oracles import (Mode, Poll, Response, StartCommand, TokenPass,
                     TwrTimings, handle_event, make_node, simulate_round)

SQUARE = [(0, 0), (8, 0), (8, 8), (0, 8)]


def noiseless(model):
    return RangingModel(model.slope, model.intercept, 0.0, model.n_samples)


class TestHandleEvent:
    def test_start_command_makes_initiator(self):
        node = make_node(0, 4, 3)
        node, out = handle_event(node, StartCommand(target=0))
        assert node.mode is Mode.INITIATOR
        assert node.pending_target == 1
        assert out == [Poll(sender=0, target=1)]

    def test_targets_follow_id_order(self):
        node = make_node(2, 4, 1)
        node, out = handle_event(node, TokenPass(sender=1, target=2))
        assert node.mode is Mode.INITIATOR
        assert out == [Poll(sender=2, target=3)]
        assert node.remaining_targets == (0, 1)

    def test_poll_gets_exactly_one_response(self):
        node = make_node(1, 4, 3)
        node, out = handle_event(node, Poll(sender=0, target=1))
        assert node.mode is Mode.RESPONDER
        assert len(out) == 1
        assert isinstance(out[0], Response)

    def test_poll_while_initiator_is_violation(self):
        node = make_node(0, 4, 3)
        node, _ = handle_event(node, StartCommand(target=0))
        with pytest.raises(ProtocolViolation):
            handle_event(node, Poll(sender=2, target=0))

    def test_start_while_busy_is_violation(self):
        node = make_node(0, 4, 3)
        node, _ = handle_event(node, StartCommand(target=0))
        with pytest.raises(ProtocolViolation):
            handle_event(node, StartCommand(target=0))

    def test_response_without_timings_is_violation(self):
        node = make_node(0, 4, 1)
        node, _ = handle_event(node, StartCommand(target=0))
        with pytest.raises(ProtocolViolation):
            handle_event(node, Response(sender=1, target=0, timings=None))

    def test_unexpected_responder_is_violation(self):
        node = make_node(0, 4, 1)
        node, _ = handle_event(node, StartCommand(target=0))
        timings = TwrTimings(t_round=1e-3, t_reply=1e-3)
        with pytest.raises(ProtocolViolation):
            handle_event(node, Response(sender=3, target=0, timings=timings))

    def test_misaddressed_messages_rejected(self):
        node = make_node(1, 4, 1)
        with pytest.raises(ProtocolViolation):
            handle_event(node, Poll(sender=0, target=2))
        with pytest.raises(ProtocolViolation):
            handle_event(node, TokenPass(sender=0, target=2))


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
        assert equal_stats(a, b)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_cached_layout_is_the_message_order_and_read_only(self, n):
        rows, cols, pairs, pair_of_row = _round_layout(n)
        directed = [(i, j) for i in range(n)
                    for j in ((i + off) % n for off in range(1, n))]
        assert list(zip(rows.tolist(), cols.tolist())) == directed
        assert [pairs[u] for u in pair_of_row.tolist()] == [
            (min(i, j), max(i, j)) for i, j in directed]
        for array in (rows, cols, pair_of_row):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    @pytest.mark.parametrize("n", [3, 5, 64])
    def test_round_stores_what_set_pairs_stores(self, n, monkeypatch):
        # the round skips set_pair's checks, which its own imply; the
        # matrix must hold what set_pair makes of the same block, pair by
        # pair
        blocks, store = [], DistanceStatsMatrix._store

        def kept(stats, *block):
            blocks.append(block)
            store(stats, *block)

        monkeypatch.setattr(DistanceStatsMatrix, "_store", kept)
        layout = np.random.default_rng(n).uniform(-15.0, 15.0, (n, 2))
        stats, _ = run_calibration_round(n, 5, layout.tolist(),
                                         reference_model(),
                                         np.random.default_rng(0))
        assert len(blocks) == 1
        checked = DistanceStatsMatrix(n)
        rows, cols, means, stds, count = blocks[0]
        for args in zip(rows.tolist(), cols.tolist(), means.tolist(),
                        stds.tolist()):
            checked.set_pair(*args, count)
        for name in ("_mean", "_std", "_count"):
            got, want = getattr(stats, name), getattr(checked, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_round_latency_reported(self):
        rng = np.random.default_rng(7)
        _, latency = run_calibration_round(4, 5, SQUARE, reference_model(),
                                           rng)
        assert latency == 0.9

    def test_trace_spans_the_modeled_latency(self):
        rng = np.random.default_rng(8)
        out = simulate_round(3, 2, SQUARE[:3], reference_model(), rng)
        times = [row[0] for row in out.trace]
        assert times == sorted(times)
        assert times[-1] < out.latency <= times[-1] + 2 * (times[1] - times[0])


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
            assert str(fast.value) == str(exc)
            return False
        stats, latency = run_calibration_round(n, k, positions, model,
                                               fast_rng)
        assert equal_stats(stats, oracle.stats)
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
            positions = [(x, y) for x, y in layout]
            self.assert_same_round(n, k, positions, self.MODELS[model], seed)

    # one reading per pair at 0.5 m noise: at seed 4 only pair (2, 0) reads
    # zero flight; at seed 23 pairs (1, 0) and (2, 1) do, and both paths
    # must name (1, 0), the first in message order
    ZERO_FLIGHT = ([(0, 0), (0.5, 0), (0, 0.5)],
                   DegenerateGeometry, RangingModel(1.0, 0.1, 0.5, 10), 1)

    @pytest.mark.parametrize("positions,error,model,k,seed", [
        pytest.param([(0, 0), (0, 0), (5, 0)], ValueError,
                     reference_model(), 3, 0, id="positions0-ValueError"),
        pytest.param([(1e308, 0), (-1e308, 0), (0, 0)],
                     InvalidTiming, reference_model(), 3, 0,
                     id="positions1-InvalidTiming"),
        # the overflowing pair (0, 1) is ranged before the coincident (2, 3)
        pytest.param([(1e308, 0), (-1e308, 0), (0, 0),
                      (0, 0)], InvalidTiming, reference_model(), 3, 0,
                     id="positions2-InvalidTiming"),
        pytest.param([(0, 0), (0, 0), (1e308, 0),
                      (-1e308, 0)], ValueError, reference_model(), 3, 0,
                     id="positions3-ValueError"),
        pytest.param(*ZERO_FLIGHT, 4, id="zero_flight-seed4"),
        pytest.param(*ZERO_FLIGHT, 23, id="zero_flight-seed23"),
        # pair (0, 1) reads about 1.1e201 m: finite, but its deviations
        # from the mean (a few ulps) square to inf
        pytest.param([(1.1e201, 3), (11, 3), (18, 6)],
                     InvalidTiming, reference_model(), 5, 0,
                     id="std_overflow"),
        # five readings of about 5e307 m sum to inf
        pytest.param([(0, 0), (5e307, 0), (0, 1)],
                     InvalidTiming, reference_model(), 5, 0,
                     id="mean_overflow"),
    ])
    def test_failures_match(self, positions, error, model, k, seed):
        n = len(positions)
        with pytest.raises(error):
            simulate_round(n, k, positions, model, np.random.default_rng(seed))
        assert not self.assert_same_round(n, k, positions, model, seed)

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
        assert estimate_latency(27.5) == pytest.approx(1.7, rel=1e-12)

    def test_components(self):
        per_measurement = estimate_latency(50) - estimate_latency(49)
        base = estimate_latency(1) - per_measurement
        assert per_measurement == pytest.approx(0.035556, abs=1e-6)
        assert base == pytest.approx(0.72222, abs=1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_latency(0)
