"""Reference forms the library's fast paths are held to, and the file
writers tests build their inputs with.

- The message-level model of a calibration round: ``handle_event``, the
  state machine of one anchor, and ``simulate_round``, which runs it to
  quiescence. It is the oracle for ``protocol.run_calibration_round``,
  which draws a whole round at once. Its Responses carry ``TwrTimings``,
  turned into distances by ``ss_twr_distance``.
- The residual functions of the anchor network and of a tag fix, and the
  objective and gradient they give, for gradient checks.
- ``translation_errors``: per-node errors after translating the estimated
  frame, which ``sim.run_scenario`` forms with ``math.hypot`` over a whole
  segment of steps.
- ``read_trace_rows``: a trace CSV read row by row through the csv
  module, in any row order. Where ``sim.read_trace_records`` accepts a
  file, its records must be this reader's.
- ``save_samples`` and ``save_distance_csv``: the CSV inputs of
  ``fit-model`` and ``calibrate``.
"""

from __future__ import annotations

import csv
import enum
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from uwbcal.autocalib import DistanceStatsMatrix, PairStats, _residuals
from uwbcal.errors import (FLOAT_FORMAT, CsvFormatError, InvalidTiming,
                           ProtocolViolation, csv_rows)
from uwbcal.geometry import distance
from uwbcal.leastsq import range_residuals
from uwbcal.multilateration import _checked
from uwbcal.protocol import (DEFAULT_REPLY_TIME, _non_finite_stats,
                             _targets_from, _zero_flight, estimate_latency)
from uwbcal.ranging import SPEED_OF_LIGHT, RangingModel, simulate_measurement
from uwbcal.sim import TRACE_HEADER, TraceRecord


@dataclass(frozen=True)
class TwrTimings:
    """Round-trip timings in seconds; the second pair is only for DS-TWR.

    ``t_round`` is the initiator's poll-to-response elapsed time and
    ``t_reply`` the responder's fixed processing delay. Zero flight time
    (``t_round == t_reply``) is allowed; a round shorter than the reply is not.
    """

    t_round: float
    t_reply: float
    t_round2: float | None = None
    t_reply2: float | None = None

    def __post_init__(self):
        self._check(self.t_round, self.t_reply)
        if (self.t_round2 is None) != (self.t_reply2 is None):
            raise InvalidTiming("second exchange needs both t_round2 and t_reply2")
        if self.t_round2 is not None:
            self._check(self.t_round2, self.t_reply2)

    @staticmethod
    def _check(t_round, t_reply):
        if not (math.isfinite(t_round) and math.isfinite(t_reply)):
            raise InvalidTiming("non-finite timing")
        if t_reply < 0.0:
            raise InvalidTiming(f"negative reply time {t_reply}")
        if t_round < t_reply:
            raise InvalidTiming(
                f"t_round={t_round} earlier than t_reply={t_reply}")


def ss_twr_distance(t: TwrTimings) -> float:
    """Single-sided TWR: half the net round trip times the speed of light."""
    return SPEED_OF_LIGHT * (t.t_round - t.t_reply) / 2.0


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


def _become_initiator(state: AnchorNodeState):
    targets = _targets_from(state.id, state.n_anchors)
    new = replace(state, mode=Mode.INITIATOR, pending_target=targets[0],
                  remaining_targets=targets[1:], burst=())
    return new, [Poll(sender=state.id, target=targets[0])]


def _finish_burst(state: AnchorNodeState):
    """Burst complete: record + broadcast stats, then next pair or token."""
    values = np.array(state.burst)
    # readings near the float limit overflow to inf, and inf - inf is nan
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(values.mean())
        std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    target = state.pending_target
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise _non_finite_stats(state.id, target)
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


def missing_pairs(d: DistanceStatsMatrix) -> list[tuple[int, int]]:
    """Every anchor pair ``(i, j)``, i < j, measured in neither direction."""
    n = d.n_anchors
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if d.pair(i, j) is None and d.pair(j, i) is None]


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
    missing = missing_pairs(stats)
    if missing:
        raise ProtocolViolation(f"round ended with unmeasured pairs {missing}")
    return RoundOutcome(stats=stats, latency=latency, nodes=nodes,
                        message_counts=counts, trace=trace,
                        initiator_counts=initiator_counts)


def network_residuals(d: DistanceStatsMatrix):
    """Residual function free -> (r, J, d) over every measured anchor pair.

    r holds d - d_ij for the distances d = |p_i - p_j| and the symmetrized
    means d_ij. ``free`` is
    the optimizer's variable vector: the flattened coordinates of anchors
    1..n-1 but anchor 1's y, the bootstrap gauge. This is the
    function ``autocalib.refine_lse`` minimizes.
    """
    pairs, targets = d.sym_table()
    return _residuals(d.n_anchors, pairs, np.array([targets]))


def tag_residuals(anchors, ranges: list[float]):
    """Residual function p -> (|p - a_i| - r_i, Jacobian, |p - a_i|) for a
    tag fix.

    The array form of the residuals ``multilateration.locate_tag`` fits,
    for ``leastsq.levenberg_marquardt`` and gradient checks.
    """
    a, r = (np.array(v, dtype=float) for v in _checked(anchors, ranges))

    def fun(p):
        diff = p[None, :] - a
        res, dist = range_residuals(diff[:, 0], diff[:, 1], r)
        return res, diff / dist[:, None], dist

    return fun


def objective_and_gradient(fun, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Objective sum(r(x)**2) and its gradient 2 J^T r for fun(x) -> (r, J,
    d)."""
    r, jac, _ = fun(np.asarray(x, dtype=float))
    return float(r @ r), 2.0 * (jac.T @ r)


def translation_errors(estimated, truth, truth_origin) -> list[float]:
    """Per-node position errors after translating the estimated frame.

    The estimated coordinates are expressed in the anchor frame; shifting
    them by ``truth_origin`` (the true world position of anchor 0) aligns
    the two frames by translation only. No rotation correction is applied;
    frame rotation is reported separately through ``rotation_error``.
    Positions are ``(x, y)`` pairs; lists of different lengths, or empty
    ones, raise ``ValueError``.
    """
    if len(estimated) != len(truth):
        raise ValueError(
            f"{len(estimated)} estimated vs {len(truth)} true positions")
    if not estimated:
        raise ValueError("empty position lists")
    ox, oy = truth_origin
    return [distance((ex + ox, ey + oy), t)
            for (ex, ey), t in zip(estimated, truth)]


def read_trace_rows(path) -> list[TraceRecord]:
    """The records of the trace CSV at ``path``, read row by row, in step
    order: a step's rows may come in any order, even between another
    step's, and spell its numbers apart.

    :class:`CsvFormatError` names the line for a number that does not
    parse or is not finite (only a tag may leave ``error_m`` empty), a
    calibrated flag other than 0 or 1, a second row for a node of a step,
    and a row whose rotation or calibrated value differs from its step's
    first row; anchor ids other than 0..N-1, or a step holding other
    anchors than the first, raise it naming the step.
    """
    # step -> (anchor errors by id, tag errors by id, rotation, calibrated),
    # the last two taken from the step's first row
    steps: dict[int, tuple[dict, dict, float, bool]] = {}
    for lineno, row in csv_rows(path, TRACE_HEADER):
        step_s, kind, node_s, _, _, _, _, err_s, rot_s, cal_s = row
        try:
            step, node_id = int(step_s), int(node_s)
            err = math.nan if err_s == "" else float(err_s)
            rot, cal = float(rot_s), int(cal_s)
        except ValueError as exc:
            raise CsvFormatError(str(exc), line=lineno) from exc
        if kind not in ("anchor", "tag"):
            raise CsvFormatError(f"unknown node_kind {kind!r}", line=lineno)
        # only a failed tag fix has no error, and every number is finite
        if not math.isfinite(err) and (err_s or kind == "anchor"):
            raise CsvFormatError(f"{kind} {node_id}: error_m must be a "
                                 f"finite number, got {err_s!r}", line=lineno)
        if not math.isfinite(rot):
            raise CsvFormatError(f"rotation_error_rad must be a finite "
                                 f"number, got {rot_s!r}", line=lineno)
        if cal not in (0, 1):
            raise CsvFormatError(f"calibrated must be 0 or 1, got {cal_s!r}",
                                 line=lineno)
        anchors, tags, first_rot, first_cal = steps.setdefault(
            step, ({}, {}, rot, cal == 1))
        if first_rot != rot or first_cal != cal:
            raise CsvFormatError(
                f"step {step}: rotation_error_rad,calibrated "
                f"{rot_s},{cal_s} differ from the step's first row, "
                f"{FLOAT_FORMAT % first_rot},{first_cal:d}", line=lineno)
        errors = anchors if kind == "anchor" else tags
        if node_id in errors:
            raise CsvFormatError(f"step {step}: a second row for {kind} "
                                 f"{node_id}", line=lineno)
        errors[node_id] = err
    if not steps:
        raise CsvFormatError("trace has no data rows")
    records = []
    first_ids = None
    for step in sorted(steps):
        anchors, tags, rot, cal = steps[step]
        ids = sorted(anchors)
        if first_ids is None:
            # summarize leaves out anchor 0 by its place, not its id
            if ids != list(range(len(ids))):
                raise CsvFormatError(f"step {step} holds anchors {ids}; "
                                     f"anchor ids must run 0..N-1")
            first_step, first_ids = step, ids
        elif ids != first_ids:
            # errors before and after a calibration compare the same anchors
            raise CsvFormatError(
                f"step {step} holds anchors {ids}, step {first_step} "
                f"holds {first_ids}; every step must hold the same anchors")
        records.append(TraceRecord(
            step, tuple(map(anchors.__getitem__, ids)),
            tuple(map(tags.__getitem__, sorted(tags))), rot, cal))
    return records


def save_samples(samples, path) -> None:
    """Write ranging samples as the `true_m,measured_m` CSV ``fit-model``
    reads, every float in full precision."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["true_m", "measured_m"])
        for s in samples:
            writer.writerow([repr(s.true_distance), repr(s.measured_distance)])


def save_distance_csv(matrix: DistanceStatsMatrix, path,
                      float_format: str = FLOAT_FORMAT) -> None:
    """Write the measured directed pairs as the `i,j,mean_m,std_m,count`
    CSV ``calibrate`` reads."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["i", "j", "mean_m", "std_m", "count"])
        for i in range(matrix.n_anchors):
            for j in range(matrix.n_anchors):
                if i == j:
                    continue
                stats = matrix.pair(i, j)
                if stats is None:
                    continue
                writer.writerow([i, j, float_format % stats.mean,
                                 float_format % stats.std, stats.count])
