"""Token-passing inter-anchor ranging round.

``simulate_round`` models the round message by message; it serves event
traces and the protocol-invariant tests. ``run_calibration_round``, which
the simulator calls, produces the same statistics from one batched draw.

One calibration round works like this: a start command (UART in the real
system) makes anchor 0 the initiator. The initiator ranges to every other
anchor in ascending id order (the counter-clockwise deployment order), one
pair at a time: k poll/response exchanges, then a broadcast of that pair's
mean/std/count to the whole network, and only then the next pair. Having
measured everyone, the initiator hands the token to the next id and becomes
a responder; the recipient repeats the cycle. When the token returns to
anchor 0 the round is over, every node holds the full statistics matrix,
and anchor 0 idles awaiting the next trigger.

The simulated channel is instantaneous, lossless and ordered; radio time is
accounted for by the latency model instead of per-message delays. Response
timings are synthesized from the sampled noisy distance (dt = 2 d / c) so
the full time-of-flight path is exercised end to end.
"""

from __future__ import annotations

import csv
import enum
import functools
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .autocalib import DistanceStatsMatrix, PairStats
from .errors import (FLOAT_FORMAT, DegenerateGeometry, InvalidTiming,
                     ProtocolViolation)
from .geometry import distance
from .ranging import (SPEED_OF_LIGHT, RangingModel, TwrTimings,
                      simulate_measurement, ss_twr_distance)

# Measured round latencies of the reference firmware, 0.9 s at 5 measurements
# per pair and 2.5 s at 50; estimate_latency is the line through them.
_LATENCY_K_LO, _LATENCY_S_LO = 5, 0.9
_LATENCY_K_HI, _LATENCY_S_HI = 50, 2.5
_PER_MEAS = (_LATENCY_S_HI - _LATENCY_S_LO) / (_LATENCY_K_HI - _LATENCY_K_LO)
_LATENCY_BASE = _LATENCY_S_LO - _LATENCY_K_LO * _PER_MEAS

# Responder processing delay baked into synthesized timings.
DEFAULT_REPLY_TIME = 200e-6  # s


class Mode(enum.Enum):
    IDLE = "idle"
    INITIATOR = "initiator"
    RESPONDER = "responder"


@dataclass(frozen=True)
class StartCommand:
    target: int


@dataclass(frozen=True)
class Poll:
    sender: int
    target: int


@dataclass(frozen=True)
class Response:
    sender: int
    target: int
    timings: TwrTimings | None = None  # filled in by the channel


@dataclass(frozen=True)
class StatsBroadcast:
    sender: int
    pair_i: int
    pair_j: int
    mean: float
    std: float
    count: int


@dataclass(frozen=True)
class TokenPass:
    sender: int
    target: int


ProtocolMessage = StartCommand | Poll | Response | StatsBroadcast | TokenPass


def estimate_latency(k_measurements: int) -> float:
    """Expected duration of one full calibration round, in seconds."""
    if k_measurements < 1:
        raise ValueError(f"k must be >= 1, got {k_measurements}")
    return _LATENCY_BASE + _PER_MEAS * k_measurements


@dataclass(frozen=True)
class AnchorNodeState:
    """Pure per-anchor state; transitions only through handle_event."""

    id: int
    n_anchors: int
    k_measurements: int
    mode: Mode = Mode.IDLE
    pending_target: int | None = None
    remaining_targets: tuple[int, ...] = ()
    burst: tuple[float, ...] = ()
    collected: dict = None  # (i, j) -> PairStats

    def __post_init__(self):
        if self.collected is None:
            object.__setattr__(self, "collected", {})


def make_node(node_id: int, n_anchors: int, k_measurements: int) -> AnchorNodeState:
    if not 0 <= node_id < n_anchors:
        raise ValueError(f"node id {node_id} outside 0..{n_anchors - 1}")
    if n_anchors < 3 or k_measurements < 1:
        raise ValueError("need n_anchors >= 3 and k_measurements >= 1")
    return AnchorNodeState(id=node_id, n_anchors=n_anchors,
                           k_measurements=k_measurements)


def _targets_from(node_id: int, n_anchors: int) -> tuple[int, ...]:
    return tuple((node_id + off) % n_anchors for off in range(1, n_anchors))


def _become_initiator(state: AnchorNodeState):
    targets = _targets_from(state.id, state.n_anchors)
    new = replace(state, mode=Mode.INITIATOR, pending_target=targets[0],
                  remaining_targets=targets[1:], burst=())
    return new, [Poll(sender=state.id, target=targets[0])]


def _finish_burst(state: AnchorNodeState):
    """Burst complete: record + broadcast stats, then next pair or token."""
    values = np.array(state.burst)
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    target = state.pending_target
    stats = PairStats(mean=mean, std=std, count=len(values))
    collected = dict(state.collected)
    collected[(state.id, target)] = stats
    out = [StatsBroadcast(sender=state.id, pair_i=state.id, pair_j=target,
                          mean=mean, std=std, count=len(values))]
    if state.remaining_targets:
        nxt = state.remaining_targets[0]
        new = replace(state, pending_target=nxt,
                      remaining_targets=state.remaining_targets[1:],
                      burst=(), collected=collected)
        out.append(Poll(sender=state.id, target=nxt))
    else:
        successor = (state.id + 1) % state.n_anchors
        new = replace(state, mode=Mode.RESPONDER, pending_target=None,
                      burst=(), collected=collected)
        out.append(TokenPass(sender=state.id, target=successor))
    return new, out


def handle_event(
        state: AnchorNodeState,
        msg: ProtocolMessage) -> tuple[AnchorNodeState, list[ProtocolMessage]]:
    """Deterministic state transition for one delivered message."""
    if isinstance(msg, StartCommand):
        if msg.target != state.id:
            raise ProtocolViolation(
                f"node {state.id} got start command for {msg.target}")
        if state.mode is not Mode.IDLE:
            raise ProtocolViolation(
                f"node {state.id} got start command while {state.mode.value}")
        return _become_initiator(state)

    if isinstance(msg, Poll):
        if msg.target != state.id:
            raise ProtocolViolation(f"node {state.id} got poll for {msg.target}")
        if state.mode is Mode.INITIATOR:
            raise ProtocolViolation(
                f"node {state.id} polled while initiator")
        new = state if state.mode is Mode.RESPONDER else replace(
            state, mode=Mode.RESPONDER)
        return new, [Response(sender=state.id, target=msg.sender)]

    if isinstance(msg, Response):
        if msg.target != state.id:
            raise ProtocolViolation(
                f"node {state.id} got response for {msg.target}")
        if state.mode is not Mode.INITIATOR or msg.sender != state.pending_target:
            raise ProtocolViolation(
                f"node {state.id} got unexpected response from {msg.sender}")
        if msg.timings is None:
            raise ProtocolViolation("response carries no timings")
        measured = ss_twr_distance(msg.timings)
        new = replace(state, burst=state.burst + (measured,))
        if len(new.burst) < state.k_measurements:
            return new, [Poll(sender=state.id, target=msg.sender)]
        return _finish_burst(new)

    if isinstance(msg, StatsBroadcast):
        collected = dict(state.collected)
        collected[(msg.pair_i, msg.pair_j)] = PairStats(
            mean=msg.mean, std=msg.std, count=msg.count)
        return replace(state, collected=collected), []

    if isinstance(msg, TokenPass):
        if msg.target != state.id:
            raise ProtocolViolation(
                f"node {state.id} got token for {msg.target}")
        if state.mode is Mode.INITIATOR:
            raise ProtocolViolation(
                f"node {state.id} got token while initiator")
        if state.id == 0:
            # Round complete: the origin anchor idles until the next trigger.
            return replace(state, mode=Mode.IDLE, pending_target=None), []
        return _become_initiator(state)

    raise ProtocolViolation(f"unknown message {msg!r}")


@dataclass
class RoundOutcome:
    """Everything a finished round produced, for inspection and tests."""

    stats: DistanceStatsMatrix
    latency: float
    nodes: list[AnchorNodeState]
    message_counts: dict
    trace: list[tuple[float, str, int, int]]
    initiator_counts: list[tuple[str, int]]


def _message_total(n: int, k: int) -> int:
    # start + polls + responses + broadcasts + token passes
    return 1 + 2 * n * (n - 1) * k + n * (n - 1) + n


def simulate_round(n_anchors: int, k_measurements: int,
                   true_positions, ranging_model: RangingModel,
                   rng: np.random.Generator) -> RoundOutcome:
    """Run one full calibration round to quiescence.

    ``true_positions`` holds one world ``(x, y)`` pair per anchor. The
    channel delivers messages in FIFO order with a uniform spacing chosen so
    the round spans exactly the modeled latency. Each Response passing
    through the channel gets timings synthesized from one sampled noisy
    distance for its pair.
    """
    if len(true_positions) != n_anchors:
        raise ValueError(
            f"{len(true_positions)} positions for {n_anchors} anchors")
    nodes = [make_node(i, n_anchors, k_measurements) for i in range(n_anchors)]
    latency = estimate_latency(k_measurements)
    dt = latency / _message_total(n_anchors, k_measurements)

    queue: deque[ProtocolMessage] = deque([StartCommand(target=0)])
    counts: dict[str, int] = {}
    trace: list[tuple[float, str, int, int]] = []
    initiator_counts: list[tuple[str, int]] = []
    index = 0

    while queue:
        msg = queue.popleft()
        now = index * dt
        index += 1
        kind = type(msg).__name__
        counts[kind] = counts.get(kind, 0) + 1
        sender = getattr(msg, "sender", -1)
        target = getattr(msg, "target", -1)
        trace.append((now, kind, sender, target))

        if isinstance(msg, Response):
            true_d = distance(true_positions[msg.sender],
                              true_positions[msg.target])
            measured = simulate_measurement(true_d, ranging_model, rng)
            # a negative reading is physically impossible; clamp to zero flight
            t_round = DEFAULT_REPLY_TIME + 2.0 * max(measured, 0.0) / SPEED_OF_LIGHT
            msg = replace(msg, timings=TwrTimings(t_round=t_round,
                                                  t_reply=DEFAULT_REPLY_TIME))

        if isinstance(msg, StatsBroadcast):
            recipients = [i for i in range(n_anchors) if i != msg.sender]
        else:
            recipients = [msg.target]
        for rid in recipients:
            nodes[rid], outgoing = handle_event(nodes[rid], msg)
            queue.extend(outgoing)

        n_init = sum(1 for s in nodes if s.mode is Mode.INITIATOR)
        initiator_counts.append((kind, n_init))
        if n_init > 1:
            raise ProtocolViolation(f"{n_init} concurrent initiators")

    stats = DistanceStatsMatrix(n_anchors)
    # node 0 collected the pairs in message order
    for (i, j), pair in nodes[0].collected.items():
        if pair.mean <= 0.0:
            raise _zero_flight(i, j)
        stats.set_pair(i, j, pair.mean, pair.std, pair.count)
    missing = stats.missing_pairs()
    if missing:
        raise ProtocolViolation(f"round ended with unmeasured pairs {missing}")
    return RoundOutcome(stats=stats, latency=latency, nodes=nodes,
                        message_counts=counts, trace=trace,
                        initiator_counts=initiator_counts)


@functools.lru_cache(maxsize=16)
def _round_layout(n_anchors: int):
    """The directed pairs of a round in message order, read-only.

    Returns the initiator and target of every row, the unordered pairs
    (i < j) in ascending order, and the index of each row's pair among them.
    """
    rows = np.repeat(np.arange(n_anchors), n_anchors - 1)
    cols = np.array([j for i in range(n_anchors)
                     for j in _targets_from(i, n_anchors)])
    pairs = tuple((i, j) for i in range(n_anchors)
                  for j in range(i + 1, n_anchors))
    index = {pair: u for u, pair in enumerate(pairs)}
    pair_of_row = np.array([index[min(i, j), max(i, j)]
                            for i, j in zip(rows.tolist(), cols.tolist())])
    for a in (rows, cols, pair_of_row):
        a.flags.writeable = False
    return rows, cols, pairs, pair_of_row


def run_calibration_round(n_anchors: int, k_measurements: int,
                          true_positions, ranging_model: RangingModel,
                          rng: np.random.Generator) -> tuple[DistanceStatsMatrix, float]:
    """Run one round in a single batched draw; return the stats and latency.

    Gives the same statistics, latency and generator state as
    :func:`simulate_round`, which stays the message-level model. That model
    draws one noise value per Response, initiator 0..N-1 in turn, each
    ranging its targets in :func:`_targets_from` order k times; here row r
    of one ``(N*(N-1), k)`` draw is the r-th directed pair in that order, and
    the per-message arithmetic runs element by element on the whole block.
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
    # overflow yields inf as in scalar float arithmetic; checked below
    with np.errstate(over="ignore"):
        measured = (ranging_model.slope * true_d
                    + ranging_model.intercept)[:, None] \
            + ranging_model.noise_std * z
        # a negative reading is physically impossible; clamp to zero flight
        t_round = DEFAULT_REPLY_TIME \
            + 2.0 * np.maximum(measured, 0.0) / SPEED_OF_LIGHT
    # t_round >= DEFAULT_REPLY_TIME or is NaN, so it is finite iff its max
    # is. The message-level model stops at the first bad Response, so name
    # the first bad row.
    if not (true_d.min() > 0.0 and math.isfinite(t_round.max())):
        bad = (true_d <= 0.0) | ~np.isfinite(t_round.max(axis=1))
        d = true_d[bad.argmax()]
        if d <= 0.0:
            raise ValueError(f"true distance must be positive, got {d}")
        raise InvalidTiming("non-finite timing")
    burst = SPEED_OF_LIGHT * (t_round - DEFAULT_REPLY_TIME) / 2.0
    # the operations of np.mean and np.std(ddof=1), sharing the row sums
    means = burst.sum(axis=1) / k_measurements
    if k_measurements > 1:
        dev = burst - means[:, None]
        stds = np.sqrt((dev * dev).sum(axis=1) / (k_measurements - 1))
    else:
        stds = np.zeros(len(rows))

    if not means.min() > 0.0:
        r = int((means <= 0.0).argmax())
        raise _zero_flight(int(rows[r]), int(cols[r]))
    stats = DistanceStatsMatrix(n_anchors)
    stats.set_pairs(rows, cols, means, stds, k_measurements)
    missing = stats.missing_pairs()
    if missing:
        raise ProtocolViolation(f"round ended with unmeasured pairs {missing}")
    return stats, latency


def _zero_flight(i: int, j: int) -> DegenerateGeometry:
    return DegenerateGeometry(
        f"pair ({i},{j}): every reading clamped to zero flight time, so the "
        f"pair has no positive mean range")


def write_event_trace(trace: list[tuple[float, str, int, int]], path) -> None:
    """Dump a round's message trace as `time_s,type,from,to` CSV."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["time_s", "type", "from", "to"])
        for t, kind, sender, target in trace:
            writer.writerow([FLOAT_FORMAT % t, kind, sender, target])
