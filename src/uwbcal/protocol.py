"""Token-passing inter-anchor ranging round.

One calibration round works like this: a start command (UART in the real
system) makes anchor 0 the initiator. The initiator ranges to every other
anchor in ascending id order (the counter-clockwise deployment order), one
pair at a time: k poll/response exchanges, then a broadcast of that pair's
mean/std/count to the whole network, and only then the next pair. Having
measured everyone, the initiator hands the token to the next id and becomes
a responder; the recipient repeats the cycle. When the token returns to
anchor 0 the round is over, every node holds the full statistics matrix,
and anchor 0 idles awaiting the next trigger.

``run_calibration_round`` produces what such a round measures from one
batched draw. The simulated channel is instantaneous, lossless and ordered;
radio time is accounted for by the latency model instead of per-message
delays. Response timings are synthesized from the sampled noisy distance
(dt = 2 d / c) so the full time-of-flight path is exercised end to end. The
tests hold it to a message-by-message model of the round, kept in
``tests/oracles.py``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .autocalib import DistanceStatsMatrix, _upper_pairs
from .errors import DegenerateGeometry, InvalidTiming
from .geometry import distance
# simulate_measurement is not called here; bench/tracing.py hooks this name
# for its ranging metrics until ROADMAP item 8 retires the tracer
from .ranging import SPEED_OF_LIGHT, RangingModel, simulate_measurement  # noqa: F401

# Measured round latencies of the reference firmware, 0.9 s at 5 measurements
# per pair and 2.5 s at 50; estimate_latency is the line through them.
_LATENCY_K_LO, _LATENCY_S_LO = 5, 0.9
_LATENCY_K_HI, _LATENCY_S_HI = 50, 2.5
_PER_MEAS = (_LATENCY_S_HI - _LATENCY_S_LO) / (_LATENCY_K_HI - _LATENCY_K_LO)
_LATENCY_BASE = _LATENCY_S_LO - _LATENCY_K_LO * _PER_MEAS

# Responder processing delay baked into synthesized timings.
DEFAULT_REPLY_TIME = 200e-6  # s


def estimate_latency(k_measurements: int) -> float:
    """Expected duration of one full calibration round, in seconds."""
    if k_measurements < 1:
        raise ValueError(f"k must be >= 1, got {k_measurements}")
    return _LATENCY_BASE + _PER_MEAS * k_measurements


def _targets_from(node_id: int, n_anchors: int) -> tuple[int, ...]:
    return tuple((node_id + off) % n_anchors for off in range(1, n_anchors))


@functools.lru_cache(maxsize=16)
def _round_layout(n_anchors: int):
    """The directed pairs of a round in message order, read-only.

    Returns the initiator and target of every row, the unordered pairs
    (i < j) in ascending order, and the index of each row's pair among them.
    """
    rows = np.repeat(np.arange(n_anchors), n_anchors - 1)
    cols = np.array([j for i in range(n_anchors)
                     for j in _targets_from(i, n_anchors)])
    iu, ju, pairs = _upper_pairs(n_anchors)
    index = np.empty((n_anchors, n_anchors), dtype=int)
    index[iu, ju] = index[ju, iu] = np.arange(len(pairs))
    pair_of_row = index[rows, cols]
    for a in (rows, cols, pair_of_row):
        a.flags.writeable = False
    return rows, cols, pairs, pair_of_row


def run_calibration_round(n_anchors: int, k_measurements: int,
                          true_positions, ranging_model: RangingModel,
                          rng: np.random.Generator) -> tuple[DistanceStatsMatrix, float]:
    """Run one round in a single batched draw; return the stats and latency.

    Gives the same statistics, latency, generator state and first error as
    the message-level model of the round in ``tests/oracles.py``. That
    model draws one noise value per Response, initiator 0..N-1 in turn,
    each ranging its targets in :func:`_targets_from` order k times; here
    row r of one ``(N*(N-1), k)`` draw is the r-th directed pair in that
    order, and the per-message arithmetic runs element by element on the
    whole block.
    """
    if len(true_positions) != n_anchors:
        raise ValueError(
            f"{len(true_positions)} positions for {n_anchors} anchors")
    if n_anchors < 3 or k_measurements < 1:
        raise ValueError("need n_anchors >= 3 and k_measurements >= 1")
    latency = estimate_latency(k_measurements)
    rows, cols, pairs, pair_of_row = _round_layout(n_anchors)
    # the scalar distance the Response handler uses (np.hypot may differ
    # from math.hypot in the last bit), once per unordered pair: swapping
    # the points only negates the differences, which hypot ignores exactly
    true_d = np.array([distance(true_positions[j], true_positions[i])
                       for i, j in pairs]).take(pair_of_row)
    z = rng.standard_normal((len(rows), k_measurements))
    # overflow yields inf as in scalar float arithmetic, and inf - inf nan;
    # both are checked below
    with np.errstate(over="ignore", invalid="ignore"):
        measured = ranging_model.measure(true_d[:, None], z)
        # a negative reading is physically impossible; clamp to zero flight
        t_round = DEFAULT_REPLY_TIME \
            + 2.0 * np.maximum(measured, 0.0) / SPEED_OF_LIGHT
        burst = SPEED_OF_LIGHT * (t_round - DEFAULT_REPLY_TIME) / 2.0
        # the operations of np.mean and np.std(ddof=1), sharing the row sums
        means = burst.sum(axis=1) / k_measurements
        if k_measurements > 1:
            dev = burst - means[:, None]
            stds = np.sqrt((dev * dev).sum(axis=1) / (k_measurements - 1))
        else:
            stds = np.zeros(len(rows))
    # t_round >= DEFAULT_REPLY_TIME, means >= 0 and stds >= 0, or NaN, so
    # each is finite iff its max is. The message-level model stops at the
    # first bad Response or burst, so name the first bad row, and within
    # it the first check that model makes.
    if not (true_d.min() > 0.0 and math.isfinite(t_round.max())
            and math.isfinite(means.max()) and math.isfinite(stds.max())):
        bad_timing = ~np.isfinite(t_round.max(axis=1))
        bad = (true_d <= 0.0) | bad_timing \
            | ~(np.isfinite(means) & np.isfinite(stds))
        r = int(bad.argmax())
        if true_d[r] <= 0.0:
            raise ValueError(f"true distance must be positive, got {true_d[r]}")
        if bad_timing[r]:
            raise InvalidTiming("non-finite timing")
        raise _non_finite_stats(int(rows[r]), int(cols[r]))

    if not means.min() > 0.0:
        r = int((means <= 0.0).argmax())
        raise _zero_flight(int(rows[r]), int(cols[r]))
    stats = DistanceStatsMatrix(n_anchors)
    # set_pair's checks hold already: the layout holds every directed pair
    # of distinct anchors below n, so none is left unmeasured, k >= 1 was
    # checked before the draw, and the means are positive and the stds
    # finite and >= 0
    stats._store(rows, cols, means, stds, k_measurements)
    return stats, latency


def _zero_flight(i: int, j: int) -> DegenerateGeometry:
    return DegenerateGeometry(
        f"pair ({i},{j}): every reading clamped to zero flight time, so the "
        f"pair has no positive mean range")


def _non_finite_stats(i: int, j: int) -> InvalidTiming:
    return InvalidTiming(
        f"pair ({i},{j}): the readings are too large for a finite burst "
        f"mean and std")
