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
batched draw, and ``run_calibration_rounds`` what K rounds measure from
one ``(K, N*(N-1), k)`` block of draws: it runs the arithmetic once over
the block, in place, and tables the K rounds as views of stacked arrays. A
periodic simulation draws its rounds in such blocks. The simulated channel
is instantaneous, lossless and ordered; radio time is accounted for by the
latency model instead of per-message delays. Response timings are
synthesized from the sampled noisy distance (dt = 2 d / c) so the full
time-of-flight path is exercised end to end. The tests hold it to a
message-by-message model of the round, kept in ``tests/oracles.py``.
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
    order, and :func:`run_calibration_rounds` runs the per-message
    arithmetic element by element on the whole block.
    """
    if len(true_positions) != n_anchors:
        raise ValueError(
            f"{len(true_positions)} positions for {n_anchors} anchors")
    _check_round(n_anchors, k_measurements)
    z = rng.standard_normal((1, n_anchors * (n_anchors - 1), k_measurements))
    stats, latency, error = run_calibration_rounds(
        n_anchors, k_measurements, np.asarray(true_positions, float)[None],
        ranging_model, z)
    if error is not None:
        raise error
    return stats[0], latency


def _check_round(n_anchors: int, k_measurements: int) -> None:
    if n_anchors < 3 or k_measurements < 1:
        raise ValueError("need n_anchors >= 3 and k_measurements >= 1")


def run_calibration_rounds(n_anchors: int, k_measurements: int,
                           true_positions: np.ndarray,
                           ranging_model: RangingModel, z: np.ndarray):
    """Run K rounds at once from their standard normal draws ``z``.

    ``true_positions`` is ``(K, N, 2)`` and ``z`` ``(K, N*(N-1), k)``, each
    round's block laid out as :func:`run_calibration_round` draws it; the
    arithmetic runs on ``z`` in place, so it is overwritten. Returns the
    stats of the rounds before the first bad one, as views of three stacked
    ``(K', N, N)`` arrays, the latency of a round, and the error of the
    first bad round, whose index is thus ``len(stats)``, or None. Each
    round's stats, latency and error are those of
    :func:`run_calibration_round` on that round alone: every operation is
    element by element or sums one row of k, as it does on one round.
    """
    count, rows_k = len(z), n_anchors * (n_anchors - 1)
    if true_positions.shape != (count, n_anchors, 2) \
            or z.shape != (count, rows_k, k_measurements):
        raise ValueError(
            f"positions {true_positions.shape} and draws {z.shape} do not "
            f"hold the same rounds of {n_anchors} anchors, "
            f"{k_measurements} readings a pair")
    _check_round(n_anchors, k_measurements)
    latency = estimate_latency(k_measurements)
    if not count:
        return [], latency, None
    _, _, pairs, pair_of_row = _round_layout(n_anchors)
    # the scalar distance the Response handler uses (np.hypot may differ
    # from math.hypot in the last bit), once per unordered pair: swapping
    # the points only negates the differences, which hypot ignores exactly
    true_d = np.array([[distance(p[j], p[i]) for i, j in pairs]
                       for p in true_positions.tolist()]).reshape(
        count, -1).take(pair_of_row, axis=1)
    # overflow yields inf as in scalar float arithmetic, and inf - inf nan;
    # both are checked below
    with np.errstate(over="ignore", invalid="ignore"):
        # RangingModel.measure, the noise term first; a commuted sum or
        # product rounds the same
        line = ranging_model.slope * true_d + ranging_model.intercept
        z *= ranging_model.noise_std
        z += line[..., None]
        # a negative reading is physically impossible; clamp to zero flight
        np.maximum(z, 0.0, out=z)
        z *= 2.0
        z /= SPEED_OF_LIGHT
        z += DEFAULT_REPLY_TIME
        # t_round >= DEFAULT_REPLY_TIME, or NaN, so the timings are finite
        # iff the greatest is; else each row's greatest is kept to name
        # the error
        t_max = None if math.isfinite(z.max()) else z.max(axis=-1)
        z -= DEFAULT_REPLY_TIME
        z *= SPEED_OF_LIGHT
        z /= 2.0
        # the operations of np.mean and np.std(ddof=1), sharing the row sums
        means = z.sum(axis=-1) / k_measurements
        if k_measurements > 1:
            z -= means[..., None]
            z *= z
            stds = np.sqrt(z.sum(axis=-1) / (k_measurements - 1))
        else:
            stds = np.zeros_like(means)
    # means >= 0 and stds >= 0, or NaN, and a row with a non-finite timing
    # has a non-finite mean, so the block is sound iff its least distance
    # and mean are positive and its greatest mean and std finite; else the
    # first round that is not
    good = count
    if not (true_d.min() > 0.0 and means.min() > 0.0
            and math.isfinite(means.max()) and math.isfinite(stds.max())):
        sound = (true_d.min(axis=-1) > 0.0) & (means.min(axis=-1) > 0.0) \
            & np.isfinite(means.max(axis=-1)) & np.isfinite(stds.max(axis=-1))
        good = int(sound.argmin())
    # set_pair's checks hold for the rounds before the first bad one: the
    # layout holds every directed pair of distinct anchors below n, so none
    # is left unmeasured, k >= 1 was checked, and their means are positive
    # and their stds finite and >= 0
    stats = DistanceStatsMatrix._stack(
        n_anchors, _block_index(n_anchors, good), means[:good], stds[:good],
        k_measurements)
    error = None
    if good < count:
        error = _round_error(n_anchors, true_d[good],
                             None if t_max is None else t_max[good],
                             means[good], stds[good])
    return stats, latency, error


@functools.lru_cache(maxsize=64)
def _block_index(n_anchors: int, count: int) -> np.ndarray:
    """Where the rows of ``count`` rounds lie in their stacked ``(count, N,
    N)`` tables, flat and in block order, read-only."""
    rows, cols = _round_layout(n_anchors)[:2]
    index = (np.arange(count)[:, None] * n_anchors ** 2
             + rows * n_anchors + cols).ravel()
    index.flags.writeable = False
    return index


def _round_error(n_anchors: int, true_d, t_max, means,
                 stds) -> Exception:
    """The error of a bad round from its rows' true distances, greatest
    timings (None if all are finite), means and stds. The message-level
    model stops at the first bad Response or burst, so it names the first
    row that is bad in any of those, and within it the first check that
    model makes; a zero-flight mean fails only a round whose values are all
    finite."""
    rows, cols = _round_layout(n_anchors)[:2]
    timing_ok = np.full(len(true_d), True) if t_max is None \
        else np.isfinite(t_max)
    bad = (true_d <= 0.0) | ~timing_ok | ~(np.isfinite(means)
                                          & np.isfinite(stds))
    if bad.any():
        r = int(bad.argmax())
        if true_d[r] <= 0.0:
            return ValueError(
                f"true distance must be positive, got {true_d[r]}")
        if not timing_ok[r]:
            return InvalidTiming("non-finite timing")
        return _non_finite_stats(int(rows[r]), int(cols[r]))
    r = int((means <= 0.0).argmax())
    return _zero_flight(int(rows[r]), int(cols[r]))


def _zero_flight(i: int, j: int) -> DegenerateGeometry:
    return DegenerateGeometry(
        f"pair ({i},{j}): every reading clamped to zero flight time, so the "
        f"pair has no positive mean range")


def _non_finite_stats(i: int, j: int) -> InvalidTiming:
    return InvalidTiming(
        f"pair ({i},{j}): the readings are too large for a finite burst "
        f"mean and std")
