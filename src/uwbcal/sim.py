"""Mobile-deployment simulation: drifting anchors, periodic recalibration,
per-step tag fixes, and the error metrics to go with them.

Every node follows a fixed heading with per-step Gaussian jitter. Anchor
position *estimates* track the true motion (odometry is assumed to read the
executed displacement) but pick up a bounded uniform error per step; that
drift is what the periodic recalibration has to clean up. Tags are located
fresh at every step from bias-corrected ranges against the *estimated*
anchor positions.

A run loops over calibrations, not steps: the paths that depend on no
decision are formed for the whole run, each pass of the loop carries the
anchor frames from one calibration to the next, and after the loop one
call of the multilateration kernel makes every tag fix of the run and one
call places and scores every anchor and tag estimate.

Errors are always reported in the anchor frame re-anchored at anchor 0's
true position: anchor 0's own translation error is zero by construction and
frame rotation is reported separately, as the angle between the estimated
and true anchor-0-to-anchor-1 baselines.

One master seed expands into four independent streams (parameter defaults,
motion noise, odometry drift, ranging noise), so toggling one noise source
leaves the other draws unchanged.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import chain, islice, repeat
from operator import lt, not_
from typing import NamedTuple, NoReturn

import numpy as np

from .autocalib import MAX_ANCHORS, batch_size, calibrate, solve_rounds
from .errors import (FLOAT_FORMAT, ConfigError, CsvFormatError, EmptyTrace,
                     NotConverged, SingularUpdate, UwbCalError, _utf8_lines,
                     echo, finite_number, integer, json_object, out_of_range,
                     parse_rows, xy_pair)
# distance and locate_tag are not called here; bench/tracing.py hooks these
# names for its geometry and multilateration metrics until ROADMAP item 8
# retires the tracer
from .geometry import distance, wrap_angle  # noqa: F401
from .multilateration import CONVERGED, locate_tag, solve_fixes  # noqa: F401
from .protocol import run_calibration_round
from .ranging import RangingModel, reference_model

# Anchor layout used when a scenario does not provide one (first n entries).
DEFAULT_ANCHOR_LAYOUT = ((2.0, 3.0), (11.0, 3.0), (18.0, 6.0), (15.0, 20.0),
                         (4.0, 22.0))

# Default motion: one shared random base heading per run with a small
# per-node spread, keeping the formation coherent over the default 55 steps.
DEFAULT_SPEED = 0.2          # m/step
DEFAULT_GAUSSIAN_STD = 0.05  # m, per coordinate per step
DEFAULT_HEADING_SPREAD = 0.15  # rad, per-node offset from the base heading

# Default tags sit on or beside the segment from anchor 0 toward the
# deployment centroid: the region where tag fixes are least sensitive to
# drift of the frame-defining anchor. A tag keeps its offset across the
# segment only where that leaves it inside the anchor hull.
TAG_ALONG_BASE = 0.2
TAG_ALONG_STEP = 0.1
TAG_ACROSS = 0.4


# MAX_STEP_M bounds a step along the heading, its jitter's std and the
# odometry drift_bound; MAX_POSITION_M bounds a configured start coordinate.
# A node starts within 1e10 m. In n_steps ≤ 10000 steps speed and drift add
# at most 2e10 m, and the jitter's σ about 1e8 m, so every position stays
# within about 3e10 m, where floats lie 4e-6 m apart. Squares there stay
# below 1e22, so no difference, norm or square in a run can overflow.
MAX_STEP_M = 1_000_000
MAX_POSITION_M = 10 ** 10

# The keys of a configured [x, y] entry and of a motion entry, one per
# field in field order: key, parser and inclusive range.
POSITION_KEYS = (
    ("x", finite_number, -MAX_POSITION_M, MAX_POSITION_M),
    ("y", finite_number, -MAX_POSITION_M, MAX_POSITION_M),
)
MOTION_KEYS = (
    ("direction", finite_number, -sys.float_info.max, sys.float_info.max),
    ("speed", finite_number, 0, MAX_STEP_M),
    ("gaussian_std", finite_number, 0, MAX_STEP_M),
)


@dataclass(frozen=True)
class MotionParams:
    """Constant-heading motion with additive Gaussian position noise."""

    direction: float
    speed: float
    gaussian_std: float

    def __post_init__(self):
        problems = out_of_range(MOTION_KEYS, vars(self).values(), "motion")
        if problems:
            raise ValueError("; ".join(problems.values()))

    def to_dict(self):
        return {key: value for (key, *_), value
                in zip(MOTION_KEYS, vars(self).values())}

    @classmethod
    def from_dict(cls, d, where: str = "motion"):
        return cls(*parse_rows(where, d, MOTION_KEYS))


@dataclass(frozen=True)
class MotionTable:
    """Per-node motion parameters for all anchors and tags."""

    anchors: tuple[MotionParams, ...]
    tags: tuple[MotionParams, ...]

    @classmethod
    def from_dict(cls, d):
        json_object("motion", d, required=("anchors", "tags"))

        def nodes(kind):
            if not isinstance(d[kind], list):
                raise ConfigError([f"motion.{kind}: not a list: "
                                   f"{echo(repr(d[kind]))}"])
            return tuple(MotionParams.from_dict(m, f"motion.{kind}[{i}]")
                         for i, m in enumerate(d[kind]))

        return cls(anchors=nodes("anchors"), tags=nodes("tags"))

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node velocity ``(speed cos, speed sin)`` rows and jitter
        ``(gaussian_std,)`` rows, anchors then tags."""
        nodes = self.anchors + self.tags
        velocity = np.array([(m.speed * math.cos(m.direction),
                              m.speed * math.sin(m.direction)) for m in nodes])
        return velocity, np.array([[m.gaussian_std] for m in nodes])


@dataclass(frozen=True)
class Trigger:
    """When to recalibrate: every `calibration_period` steps, or whenever the
    anchors' positioning error exceeds a threshold."""

    kind: str = "periodic"
    threshold: float | None = None

    def __post_init__(self):
        if self.kind not in ("periodic", "threshold"):
            raise ValueError(f"unknown trigger kind {self.kind!r}")
        if self.kind == "threshold" and not (
                self.threshold is not None and math.isfinite(self.threshold)
                and self.threshold > 0.0):
            raise ValueError(
                "threshold trigger needs a positive finite error bound")

    @classmethod
    def parse(cls, text: str) -> "Trigger":
        if text == "periodic":
            return cls("periodic")
        if text.startswith("threshold:"):
            try:
                return cls("threshold", float(text.split(":", 1)[1]))
            except ValueError as exc:
                raise ValueError(f"bad trigger {text!r}: {exc}") from exc
        raise ValueError(f"trigger must be 'periodic' or 'threshold:<m>', "
                         f"got {text!r}")

    def __str__(self):
        if self.kind == "periodic":
            return "periodic"
        return f"threshold:{FLOAT_FORMAT % self.threshold}"


def parse_trigger(key: str, value) -> Trigger:
    """``value`` through :meth:`Trigger.parse`; :class:`ConfigError` naming
    ``key`` for a value that is not a string or not a trigger."""
    try:
        if not isinstance(value, str):
            raise ValueError(f"not a string: {value!r}")
        return Trigger.parse(value)
    except ValueError as exc:
        raise ConfigError([f"{key}: {echo(exc)}"]) from exc


# The scalar scenario keys, ScenarioConfig's first fields in field order:
# key, parser, and the inclusive range resolve_config enforces. The count
# bounds keep a round's block (k·N·(N−1) draws) under 33 MB and a trace
# (n_steps·(N+T) rows) under 1.3 million rows. See MAX_STEP_M for drift.
SCALAR_KEYS = (
    ("n_anchors", integer, 3, MAX_ANCHORS),
    ("n_tags", integer, 0, 64),
    ("n_steps", integer, 1, 10_000),
    ("calibration_period", integer, 1, math.inf),
    ("drift_bound", finite_number, 0, MAX_STEP_M),
    ("k_measurements", integer, 1, 1000),
    ("seed", integer, 0, 2 ** 64 - 1),
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description. Fields left as None use defaults;
    positions are ``(x, y)`` pairs."""

    n_anchors: int = 4
    n_tags: int = 3
    n_steps: int = 55
    calibration_period: int = 10
    drift_bound: float = 0.1
    k_measurements: int = 5
    seed: int = 0
    trigger: Trigger = field(default_factory=Trigger)
    ranging: RangingModel | None = None
    motion: MotionTable | None = None
    initial_anchor_positions: tuple[tuple[float, float], ...] | None = None
    initial_tag_positions: tuple[tuple[float, float], ...] | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        json_object("scenario", raw, optional=[f.name for f in fields(cls)])
        kwargs = {key: parse(key, raw[key])
                  for key, parse, _, _ in SCALAR_KEYS if key in raw}
        if raw.get("trigger") is not None:
            kwargs["trigger"] = parse_trigger("trigger", raw["trigger"])
        if raw.get("ranging") is not None:
            kwargs["ranging"] = RangingModel.from_dict(raw["ranging"])
        if raw.get("motion") is not None:
            kwargs["motion"] = MotionTable.from_dict(raw["motion"])
        for key in ("initial_anchor_positions", "initial_tag_positions"):
            if raw.get(key) is not None:
                if not isinstance(raw[key], (list, tuple)):
                    raise ConfigError([f"{key}: not a list: "
                                       f"{echo(repr(raw[key]))}"])
                kwargs[key] = tuple(xy_pair(f"{key}[{i}]", p)
                                    for i, p in enumerate(raw[key]))
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            **{key: getattr(self, key) for key, *_ in SCALAR_KEYS},
            "trigger": str(self.trigger),
            "ranging": None if self.ranging is None else self.ranging.to_dict(),
            "motion": None if self.motion is None else {
                kind: [m.to_dict() for m in nodes]
                for kind, nodes in vars(self.motion).items()},
            # as lists, the JSON form from_dict reads
            **{key: None if getattr(self, key) is None
               else list(map(list, getattr(self, key)))
               for key in ("initial_anchor_positions",
                           "initial_tag_positions")},
        }


def _convex_hull(points):
    """Monotone-chain convex hull of ``(x, y)`` pairs, counter-clockwise."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def point_in_anchor_hull(p, anchors) -> bool:
    """True if the ``(x, y)`` pair ``p`` lies inside (or on, within 1e-9)
    the hull of the ``anchors`` pairs."""
    return _in_hull(p, _convex_hull(anchors))


def _in_hull(p, hull) -> bool:
    """:func:`point_in_anchor_hull` against the anchors' hull, formed by
    :func:`_convex_hull`."""
    px, py = p
    if len(hull) < 3:
        return False
    for k in range(len(hull)):
        ax, ay = hull[k]
        bx, by = hull[(k + 1) % len(hull)]
        if (bx - ax) * (py - ay) - (by - ay) * (px - ax) < -1e-9:
            return False
    return True


def _default_tags(anchors, n_tags: int,
                  hull) -> tuple[tuple[float, float], ...]:
    """The default tag positions about ``anchors``, whose convex hull from
    :func:`_convex_hull` is ``hull``."""
    x0, y0 = anchors[0]
    cx = sum(x for x, _ in anchors) / len(anchors)
    cy = sum(y for _, y in anchors) / len(anchors)
    dx, dy = cx - x0, cy - y0
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        return ((cx, cy),) * n_tags
    px, py = -dy / norm, dx / norm
    tags = []
    for j in range(n_tags):
        along = TAG_ALONG_BASE + TAG_ALONG_STEP * (j % 7)
        across = TAG_ACROSS * ((j % 3) - 1)
        tag = (x0 + along * dx + across * px, y0 + along * dy + across * py)
        if not _in_hull(tag, hull):
            # on the segment itself, inside any hull with an interior
            tag = (x0 + along * dx, y0 + along * dy)
        tags.append(tag)
    return tuple(tags)


def _default_motion(n_anchors: int, n_tags: int,
                    rng: np.random.Generator) -> MotionTable:
    base = rng.uniform(0.0, 2.0 * math.pi)
    offsets = rng.uniform(-DEFAULT_HEADING_SPREAD, DEFAULT_HEADING_SPREAD,
                          n_anchors + n_tags)
    params = [MotionParams(direction=base + off, speed=DEFAULT_SPEED,
                           gaussian_std=DEFAULT_GAUSSIAN_STD)
              for off in offsets]
    return MotionTable(anchors=tuple(params[:n_anchors]),
                       tags=tuple(params[n_anchors:]))


def resolve_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Fill in every defaulted field and validate the result.

    Positions become float pairs, default motion is drawn from stream 0 of
    the seed and the default ranging model is :func:`reference_model`.
    Raises :class:`ConfigError` listing all violations at once.
    """
    return _resolved(cfg)[0]


def _resolved(cfg: ScenarioConfig):
    """:func:`resolve_config`'s config and the generators of the seed's
    four streams, from one spawn of the seed."""
    anchors, tags = (tuple((float(x), float(y)) for x, y in points)
                     for points in _validated(cfg))
    streams = list(map(np.random.default_rng,
                       np.random.SeedSequence(cfg.seed).spawn(4)))
    motion = cfg.motion
    if motion is None:
        motion = _default_motion(cfg.n_anchors, cfg.n_tags, streams[0])
    ranging = cfg.ranging if cfg.ranging is not None else reference_model()
    return replace(cfg, ranging=ranging, motion=motion,
                   initial_anchor_positions=anchors,
                   initial_tag_positions=tags), streams


def _validated(cfg: ScenarioConfig):
    """The anchor and tag positions of ``cfg``, defaults filled in; raises
    :class:`ConfigError` listing all violations at once."""
    bad = out_of_range(SCALAR_KEYS, vars(cfg).values())
    violations = list(bad.values())
    for key in ("initial_anchor_positions", "initial_tag_positions"):
        for i, p in enumerate(getattr(cfg, key) or ()):
            violations += out_of_range(POSITION_KEYS, p,
                                       f"{key}[{i}]").values()

    # defaults exist only for a valid anchor count
    anchors = cfg.initial_anchor_positions
    if anchors is None:
        if "n_anchors" in bad:
            pass
        elif cfg.n_anchors > len(DEFAULT_ANCHOR_LAYOUT):
            violations.append(
                f"initial_anchor_positions: required for n_anchors > "
                f"{len(DEFAULT_ANCHOR_LAYOUT)}")
        else:
            anchors = DEFAULT_ANCHOR_LAYOUT[:cfg.n_anchors]
    elif len(anchors) != cfg.n_anchors:
        violations.append(
            f"initial_anchor_positions: {len(anchors)} entries for "
            f"{echo(cfg.n_anchors)} anchors")
        anchors = None
    else:
        # a zero inter-anchor distance cannot be ranged
        for i, j in _coincident(anchors):
            x, y = anchors[j]
            violations.append(
                f"initial_anchor_positions[{j}]: ({x:g}, {y:g}) "
                f"coincides with initial_anchor_positions[{i}]")

    # the anchors' hull, formed once for the default tags and the check of
    # every tag
    tags, hull = cfg.initial_tag_positions, None
    if tags is None:
        if anchors is not None and not bad.keys() & {"n_anchors", "n_tags"}:
            hull = _convex_hull(anchors)
            tags = _default_tags(anchors, cfg.n_tags, hull)
    elif len(tags) != cfg.n_tags:
        violations.append(
            f"initial_tag_positions: {len(tags)} entries for "
            f"{echo(cfg.n_tags)} tags")
        tags = None

    if anchors is not None and tags is not None:
        if hull is None:
            hull = _convex_hull(anchors)
        outside = [idx for idx, tag in enumerate(tags)
                   if not _in_hull(tag, hull)]
        if outside and cfg.initial_tag_positions is None:
            # the default tags lie inside any hull with an interior
            violations.append(
                "initial_anchor_positions: the default tag positions fall "
                "outside the anchor convex hull, which has no interior if "
                "the anchors are collinear; give initial_tag_positions or "
                "set n_tags 0")
        else:
            for idx in outside:
                x, y = tags[idx]
                violations.append(
                    f"initial_tag_positions[{idx}]: ({x:g}, {y:g}) "
                    f"outside the anchor convex hull")

    motion = cfg.motion
    if motion is not None:
        if len(motion.anchors) != cfg.n_anchors:
            violations.append(
                f"motion.anchors: {len(motion.anchors)} entries for "
                f"{echo(cfg.n_anchors)} anchors")
        if len(motion.tags) != cfg.n_tags:
            violations.append(
                f"motion.tags: {len(motion.tags)} entries for "
                f"{echo(cfg.n_tags)} tags")
    if violations:
        raise ConfigError(violations)
    return anchors, tags


def _coincident(points) -> list[tuple[int, int]]:
    """``(i, j)`` for every ``(x, y)`` point j equal to an earlier one, i
    being the first of them."""
    first, pairs = {}, []
    for j, p in enumerate(map(tuple, points)):
        i = first.setdefault(p, j)
        if i != j:
            pairs.append((i, j))
    return pairs


def _norms(diff: np.ndarray) -> np.ndarray:
    """``math.hypot`` of every ``(dx, dy)`` pair on the last axis (np.hypot
    may differ from it in the last bit)."""
    dx, dy = diff.reshape(-1, 2).T.tolist()
    return np.fromiter(map(math.hypot, dx, dy), float,
                       len(dx)).reshape(diff.shape[:-1])


def _placed(frame: np.ndarray, world: np.ndarray):
    """``frame``, frame coordinates, placed at anchor 0's true position and
    their ``math.hypot`` errors against the true positions ``world``; both
    are ``(steps, nodes, 2)``, node 0 being anchor 0. A NaN estimate (a
    failed fix) has a NaN error."""
    with np.errstate(over="ignore", invalid="ignore"):
        placed = frame + world[:, :1]
        return placed, _norms(placed - world)


def _true_paths(cfg: ScenarioConfig, motion_rng: np.random.Generator,
                drift_rng: np.random.Generator):
    """The run's true positions ``(steps, N+T, 2)``, anchors then tags, and
    the increments of the anchor estimates ``(2 steps, N, 2)``.

    Every node moves along its heading plus Gaussian jitter. An anchor
    estimate advances by the same executed displacement (odometry reads
    actual motion), then by a Uniform(-b, +b) drift per coordinate: its
    increments alternate the two, in the order they are added. Each stream
    is drawn in one call, which yields the numbers of one call per step,
    and np.add.accumulate adds the rows strictly in order.
    """
    n, steps = cfg.n_anchors, cfg.n_steps
    start = np.array(cfg.initial_anchor_positions + cfg.initial_tag_positions)
    velocity, jitter = cfg.motion.arrays()
    delta = velocity + jitter * motion_rng.standard_normal(
        (steps,) + start.shape)
    drift = drift_rng.uniform(-1.0, 1.0, (steps, n, 2)) * cfg.drift_bound
    world = np.add.accumulate(np.concatenate((start[None], delta)))[1:]
    increments = np.empty((2 * steps, n, 2))
    increments[0::2], increments[1::2] = delta[:, :n], drift
    return world, increments


class TraceRecord(NamedTuple):
    """One row of a :class:`StepTable`: a step's errors, anchors then tags
    (a failed tag fix has a NaN error), rotation and calibrated flag."""

    step: int
    anchor_errors: tuple[float, ...]
    tag_errors: tuple[float, ...]
    rotation_error: float
    calibrated: bool


def _int_column(values: list[int]) -> np.ndarray:
    """``values`` as an int64 array, or as an object array when one lies
    beyond int64 (a trace may number its steps with any integers)."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass(frozen=True, eq=False)
class StepTable:
    """Per-step results as columns, one row per step.

    ``errors`` is ``(steps, N+T)``: the errors of the ``n_anchors`` anchors,
    then those of the tags, NaN for a failed tag fix. ``steps`` holds each
    row's step, ``rotations`` its frame rotation error and ``calibrated``
    whether a calibration ran at it. :attr:`records` gives the same rows as
    :class:`TraceRecord` s, built on first access.
    """

    steps: np.ndarray
    n_anchors: int
    errors: np.ndarray
    rotations: np.ndarray
    calibrated: np.ndarray

    @classmethod
    def of(cls, records: list[TraceRecord]) -> "StepTable":
        """The table of ``records``, which it keeps as its
        :attr:`records`; ValueError when steps hold different numbers of
        anchors or of tags."""
        for kind in ("anchor", "tag"):
            if len({len(getattr(r, f"{kind}_errors")) for r in records}) > 1:
                raise ValueError(f"every step must hold the same number of "
                                 f"{kind}s")
        n = len(records[0].anchor_errors) if records else 0
        errors = np.array([r.anchor_errors + r.tag_errors for r in records]
                          or np.empty((0, 0)), float)
        table = cls(_int_column([r.step for r in records]), n, errors,
                    np.array([r.rotation_error for r in records], float),
                    np.array([r.calibrated for r in records], bool))
        vars(table)["records"] = list(records)
        return table

    @functools.cached_property
    def records(self) -> list[TraceRecord]:
        """The rows as records."""
        n, rows = self.n_anchors, self.errors.tolist()
        return list(map(TraceRecord, self.steps.tolist(),
                        [tuple(row[:n]) for row in rows],
                        [tuple(row[n:]) for row in rows],
                        self.rotations.tolist(), self.calibrated.tolist()))


@dataclass
class SimulationTrace:
    """A run's per-step results and diagnostics, and its true and estimated
    world positions, ``(steps, N+T, 2)`` arrays of anchors then tags; a
    failed tag fix's estimate is NaN."""

    config: dict
    table: StepTable
    diagnostics: list[str]
    true_positions: np.ndarray
    est_positions: np.ndarray

    @property
    def records(self) -> list[TraceRecord]:
        """The table's rows as records, built on first access."""
        return self.table.records


def run_scenario(cfg: ScenarioConfig, bias_correction: bool = True) -> SimulationTrace:
    """Execute a full scenario; deterministic for a fixed config and seed.

    The true paths and each step's tag-to-anchor distances depend on no
    decision, so they are formed for the whole run first. Every calibration
    solves its own round and takes only its frame from the estimates it
    replaces, so under a periodic trigger the rounds are drawn ahead, in
    stream order, and solved together, the bootstrap included, in
    :func:`~uwbcal.autocalib.solve_rounds` calls of up to
    :func:`~uwbcal.autocalib.batch_size` rounds. The loop then goes
    from one calibration to the next: it sums the anchor estimates up to
    the step where the trigger fires, frames that step's solved round onto
    them through :func:`~uwbcal.autocalib.calibrate`, and restarts the
    estimates from its result. A threshold trigger fires on the estimates
    themselves, so it draws and solves each round inside the loop. The tag
    noise of the steps since the last round is drawn just before each
    round, so the ranging stream keeps its order. After the loop, the
    corrected tag ranges and rotations are formed for the whole run, every
    tag fix is made in one :func:`~uwbcal.multilateration.solve_fixes`
    call, one :func:`_placed` call places and scores every anchor and tag
    estimate, and the step table is assembled. Distances and angles go
    through ``math.hypot`` and ``math.atan2`` value by value, and every sum
    adds its terms in step order, so the outputs are those of a per-step
    loop to the last bit.

    Module errors during a tag fix or a calibration become diagnostics,
    in step order, instead of aborting the run; a warm calibration whose
    update is singular keeps the previous estimates, and its step is not
    marked calibrated. Anchors that meet at a calibration raise
    :class:`ConfigError` for that step: the scenario's motion cannot be
    simulated. An error that aborts the run is raised at its step, after
    every earlier one, even where its round is drawn ahead.
    """
    # validated first: a bad seed is a ConfigError, not a numpy error
    cfg, (_, motion_rng, drift_rng, ranging_rng) = _resolved(cfg)
    model = cfg.ranging
    correction = model if bias_correction else RangingModel.identity()
    n, n_steps, trigger = cfg.n_anchors, cfg.n_steps, cfg.trigger

    stats, _ = run_calibration_round(n, cfg.k_measurements,
                                     cfg.initial_anchor_positions, model,
                                     ranging_rng)
    world, increments = _true_paths(cfg, motion_rng, drift_rng)
    truth = world[:, :n]
    tag_d = _norms(world[:, n:, None] - truth[:, None])
    live = ~(tag_d == 0.0).any(axis=2)
    # live tags before each step: the noise of steps a..b-1 is
    # (live_before[b] - live_before[a], N)
    live_before = [0] + np.cumsum(live.sum(axis=1)).tolist()
    noise, drawn = [], 0

    def draw_round(c: int):
        """Step c's round, drawn after the tag noise of the steps since the
        last one; ConfigError if anchors meet at c."""
        nonlocal drawn
        positions = truth[c].tolist()
        met = _coincident(positions)
        if met:
            i, j = met[0]
            x, y = positions[j]
            raise ConfigError([
                f"step {c}: anchors {i} and {j} coincide at ({x:g}, {y:g}) "
                f"and cannot range each other; change the motion or "
                f"initial_anchor_positions"])
        noise.append(ranging_rng.standard_normal(
            (live_before[c] - live_before[drawn], n)))
        drawn = c
        return run_calibration_round(n, cfg.k_measurements, positions,
                                     model, ranging_rng)[0]

    def periodic_rounds():
        """The bootstrap round, then each periodic step's, with its entry
        of :func:`~uwbcal.autocalib.solve_rounds`. Rounds are drawn ahead
        and solved up to ``batch_size`` at a time; a round that fails to
        draw ends the drawing, and its error is raised at its turn."""
        batch, failure = [stats], None
        for c in range(period, n_steps, period):
            if len(batch) == size:
                yield from zip(batch, solve_rounds(batch, correction))
                batch = []
            try:
                batch.append(draw_round(c))
            except UwbCalError as exc:
                failure = exc
                break
        if batch:
            yield from zip(batch, solve_rounds(batch, correction))
        if failure is not None:
            raise failure

    if trigger.kind == "periodic":
        period, size = cfg.calibration_period, batch_size(n)
        rounds = periodic_rounds()
        stats, solved = next(rounds)
    else:
        solved = None

    # (step, tag, message); a calibration's note comes before its step's
    # tag notes, as tag -1
    notes = []
    try:
        result = calibrate(stats, correction, solved=solved)
    except NotConverged as exc:
        result = exc.result
        notes.append((-1, -1, "bootstrap calibration did not converge"))

    # per step: the anchor frame, est - est[0]
    frames = np.empty((n_steps, n, 2))
    calibrated = [False] * n_steps
    # A window covers steps t..stop - 1, and `before` holds the estimates of
    # step t - 1. A threshold trigger looks `span` steps ahead: the last
    # segment's length, doubled while nothing fires.
    before = np.array(cfg.initial_anchor_positions[0]) + result.positions
    t, span = 0, 1
    while t < n_steps:
        if trigger.kind == "periodic":
            due = max(period, -(-t // period) * period)
            stop = min(due + 1, n_steps)
        else:
            stop = min(t + span, n_steps)
        path = np.add.accumulate(np.concatenate(
            (before[None], increments[2 * t:2 * stop])))[2::2]
        frame = path - path[:, :1]
        if trigger.kind == "periodic":
            fires, end = stop - 1 == due, stop - 1 - t
        else:
            err = _placed(frame, truth[t:stop])[1]
            over = np.flatnonzero((err > trigger.threshold).any(axis=1))
            fires = over.size > 0
            end = int(over[0]) if fires else stop - 1 - t
            span = end + 1 if fires else 2 * span
        c = t + end
        frames[t:c + 1] = frame[:end + 1]
        t, before = c + 1, path[end]
        if not fires:
            continue
        if trigger.kind == "periodic":
            stats, solved = next(rounds)
        else:
            stats = draw_round(c)
        try:
            result = calibrate(stats, correction, prior=frame[end],
                               solved=solved)
        except NotConverged as exc:
            result = exc.result
            notes.append((c, -1, f"step {c}: calibration did not converge"))
        except SingularUpdate as exc:
            # the estimates carry on as if no round had run
            notes.append((c, -1, f"step {c}: calibration failed: {exc}"))
            continue
        before = path[end, 0] + result.positions
        frames[c] = before - before[:1]
        calibrated[c] = True
    noise.append(ranging_rng.standard_normal(
        (live_before[-1] - live_before[drawn], n)))

    tags = _fix_tags(frames, tag_d, live, np.concatenate(noise), model,
                     correction, notes)
    placed, errors = _placed(np.concatenate((frames, tags), axis=1), world)
    assert not errors[:, 0].any()
    baseline = truth[:, 1] - truth[:, 0]
    rotations = [wrap_angle(math.atan2(fy, fx) - math.atan2(by, bx))
                 for fx, fy, bx, by in zip(*frames[:, 1].T.tolist(),
                                           *baseline.T.tolist())]

    table = StepTable(np.arange(n_steps), n, errors, np.array(rotations),
                      np.array(calibrated))
    return SimulationTrace(cfg.to_dict(), table,
                           [text for *_, text in sorted(notes)], world, placed)


def _fix_tags(frames, tag_d, live, noise, model: RangingModel,
              correction: RangingModel, notes):
    """Every tag fix of a run, in one :func:`solve_fixes` call.

    ``tag_d`` holds each step's true tag-to-anchor distances ``(steps, T,
    N)``, ``live`` marks the tags that coincide with no anchor, and
    ``noise`` the ranging noise of the live tags in step and tag order, N
    values each. The bias-corrected ranges are those of
    :func:`~uwbcal.ranging.simulate_measurement` and
    :func:`~uwbcal.ranging.correct_measurement`, operation by operation. A
    tag that coincides with an anchor, has a non-positive corrected range
    or whose fix fails adds its note to ``notes``. Returns the fixes in
    each step's frame, ``(steps, T, 2)``, NaN for a failed fix.
    """
    steps, n_tags, n = tag_d.shape
    for k in np.flatnonzero(~live).tolist():
        t, j = divmod(k, n_tags)
        notes.append((t, j, f"step {t}: tag {j} coincides with anchor "
                            f"{tag_d[t, j].tolist().index(0.0)} and cannot "
                            f"range it"))
    slots = np.flatnonzero(live)
    # unlike positions, the ranging model is unbounded (slope down to
    # 5e-324): corrected ranges, and the fixes made from them, may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        ranges = correction.correct(
            model.measure(tag_d.reshape(-1, n)[slots], noise))
    positive = ~(ranges <= 0.0).any(axis=1)
    for k in slots[~positive].tolist():
        t, j = divmod(k, n_tags)
        notes.append((t, j, f"step {t}: tag {j} produced a non-positive "
                            f"corrected range"))
    slots, ranges = slots[positive], ranges[positive]
    fixes = np.full((steps * n_tags, 2), math.nan)
    if slots.size:
        frame = frames[slots // n_tags]
        batch = solve_fixes(frame[:, :, 0], frame[:, :, 1], ranges)
        fixed = batch.status == CONVERGED
        fixes[slots[fixed]] = batch.position[fixed]
        for p in np.flatnonzero(~fixed).tolist():
            t, j = divmod(int(slots[p]), n_tags)
            notes.append((t, j, f"step {t}: tag {j} fix failed: "
                                f"{batch.error(p)}"))
    return fixes.reshape(steps, n_tags, 2)


@dataclass(frozen=True)
class Quartiles:
    min: float
    q1: float
    median: float
    q3: float
    max: float

    @classmethod
    def of(cls, values) -> "Quartiles":
        """``np.percentile(values, [0, 25, 50, 75, 100])`` from one sort,
        of all ``values`` whatever their shape.

        Quartile k of n sorted values lies at fraction t of the way from
        entry i to entry i + 1, where i + t = (n - 1) k / 4. numpy's linear
        rule gives a + (b - a) t there, or b - (b - a) (1 - t) for t >= 1/2;
        every step is exact or rounds once, so the values are numpy's,
        except that an end may keep a -0.0 that numpy returns as +0.0.
        Raises ValueError for a NaN or infinite value.
        """
        s = np.sort(np.asarray(values, dtype=float), axis=None)
        last = len(s) - 1
        # quartile k lies r/4 of the way from entry i to entry i + 1, where
        # 4i + r = (n - 1)k; with r = 0 the entry i + 1 is not needed
        spans = [divmod(last * k, 4) for k in (1, 2, 3)]
        lo, hi, *ends = s[[0, last, *(i for i, _ in spans),
                           *(i + (r > 0) for i, r in spans)]].tolist()
        # a NaN sorts after inf: the ends are finite only if every value is
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"cannot summarize non-finite values "
                             f"({lo!r} to {hi!r})")
        inner = [a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)
                 for a, b, t in zip(ends[:3], ends[3:],
                                    [r / 4 for _, r in spans])]
        return cls(lo, *inner, hi)


@dataclass(frozen=True)
class CalibrationEvent:
    step: int
    mean_anchor_error_before: float
    mean_anchor_error_after: float


@dataclass(frozen=True)
class SummaryStats:
    """Pooled error distributions plus before/after views of calibrations.

    Anchor errors pool anchors 1..N-1 over all steps (anchor 0 is zero by
    the frame convention and is excluded). Tag errors pool all successful
    fixes. Rotation pools the per-step frame rotation error.
    """

    anchor_translation: Quartiles
    tag_translation: Quartiles | None
    rotation: Quartiles
    n_steps: int
    n_calibrations: int
    calibration_events: tuple[CalibrationEvent, ...]
    mean_anchor_error_before_calibration: float | None
    mean_anchor_error_after_calibration: float | None

    def to_dict(self):
        # summary.json names each distribution with its unit
        units = {"anchor_translation": "anchor_translation_m",
                 "tag_translation": "tag_translation_m",
                 "rotation": "rotation_rad"}
        return {units.get(key, key): value
                for key, value in asdict(self).items()}


def summarize(trace: SimulationTrace | StepTable | list[TraceRecord]
              ) -> SummaryStats:
    """Distribution statistics for one run's step table, or for pooled
    records, which are first converted to a table (:meth:`StepTable.of`).

    A calibrated row whose previous row holds the step before it is a
    calibration event: the anchors' errors of that row and of its own. So
    records pooled from several runs pair each calibration with its own
    run's step. Raises ValueError when a pooled value is NaN or infinite (a
    failed tag fix's NaN is left out of the pool) or when steps hold
    different numbers of anchors or of tags.
    """
    if isinstance(trace, SimulationTrace):
        trace = trace.table
    table = trace if isinstance(trace, StepTable) else StepTable.of(trace)
    n, steps, errors = table.n_anchors, table.steps, table.errors
    if not len(steps):
        raise EmptyTrace("no records to summarize")
    anchors = errors[:, 1:n]
    if not anchors.size:
        raise EmptyTrace("no anchor errors besides anchor 0's to summarize")
    tags = errors[:, n:]
    tags = tags[~np.isnan(tags)]

    at = np.flatnonzero(table.calibrated[1:]) + 1
    at = at[steps[at - 1] == steps[at] - 1]
    events, mean_before, mean_after = (), None, None
    if at.size:
        # every mean in one call per level: numpy sums each contiguous row
        # as it sums that row alone, so the means are np.mean's per row
        means = np.mean(errors[np.concatenate((at - 1, at)), 1:n],
                        axis=1).reshape(2, -1)
        mean_before, mean_after = np.mean(means, axis=1).tolist()
        events = tuple(map(CalibrationEvent, steps[at].tolist(),
                           *means.tolist()))

    return SummaryStats(
        anchor_translation=Quartiles.of(anchors),
        tag_translation=Quartiles.of(tags) if tags.size else None,
        rotation=Quartiles.of(table.rotations),
        n_steps=len(steps),
        n_calibrations=int(np.count_nonzero(table.calibrated)),
        calibration_events=events,
        mean_anchor_error_before_calibration=mean_before,
        mean_anchor_error_after_calibration=mean_after,
    )


TRACE_HEADER = ["step", "node_kind", "node_id", "true_x", "true_y",
                "est_x", "est_y", "error_m", "rotation_error_rad",
                "calibrated"]


# bounded: a run whose tag fixes fail in many patterns has as many formats
@functools.lru_cache(maxsize=256)
def _rows_format(n_anchors: int, failed: tuple[bool, ...]) -> str:
    """The ``%`` format of a step's rows, ``n_anchors`` anchors then tags,
    where ``failed`` marks each node whose fix failed.

    A row takes its step, true x and y, estimated x and y, error and the
    step's ending (rotation and calibrated fields); a failed fix's three
    empty fields take their values through ``%.0s``.
    """
    f = FLOAT_FORMAT
    rows = []
    for k, fail in enumerate(failed):
        node = f"anchor,{k}" if k < n_anchors else f"tag,{k - n_anchors}"
        fix = "%.0s,%.0s,%.0s" if fail else f"{f},{f},{f}"
        rows.append(f"%d,{node},{f},{f},{fix},%s")
    return "".join(rows)


def write_trace_csv(trace: SimulationTrace, path) -> None:
    """One row per node of every step, anchors then tags; a failed tag fix
    (a NaN error) leaves ``est_x``, ``est_y`` and ``error_m`` empty. The
    bytes are those of ``csv.writer``: no field needs quoting, and lines end
    in CRLF.
    """
    # formed in a call of its own, whose lists are freed before the text is
    # encoded
    text = _trace_text(trace)
    with open(path, "w", newline="", encoding="utf-8") as out:
        out.write(text)


def _trace_text(trace: SimulationTrace) -> str:
    """The trace CSV of ``trace``, from one ``%`` over all rows: the format
    joins one block per step, cached per pattern of failed fixes, and each
    field's column is filled into the flat argument list in one slice
    assignment. A step's rotation and calibrated fields are formatted once,
    into the ending of each of its rows."""
    table = trace.table
    steps, width, _ = trace.true_positions.shape

    def per_row(values):
        """Each step's value once for every one of its rows."""
        return chain.from_iterable(map(repeat, values, repeat(width)))

    # row k takes args[7k:7k + 7]: step, true x and y, estimated x and y,
    # error, and the step's rotation and calibrated fields
    args = [None] * (7 * steps * width)
    args[0::7] = per_row(table.steps.tolist())
    args[1::7], args[2::7] = trace.true_positions.reshape(-1, 2).T.tolist()
    args[3::7], args[4::7] = trace.est_positions.reshape(-1, 2).T.tolist()
    args[5::7] = table.errors.ravel().tolist()
    args[6::7] = per_row(map(f"{FLOAT_FORMAT},%d\r\n".__mod__, zip(
        table.rotations.tolist(), table.calibrated.tolist())))
    fmt = ",".join(TRACE_HEADER) + "\r\n" + "".join(map(
        _rows_format, repeat(table.n_anchors),
        map(tuple, np.isnan(table.errors).tolist())))
    return fmt % tuple(args)


# The reader's rows per block, in whole steps, at least two.
TRACE_BLOCK_ROWS = 256


def read_trace_records(path) -> StepTable:
    """Rebuild the step table from a trace CSV (for summarize) with
    :func:`_read_steps`, decoding strictly; only after a decode fails is the
    file read again, to name the line and offset of the first byte that is
    not UTF-8, or a line before it that breaks a rule."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            return _read_steps(f)
    except UnicodeDecodeError:
        pass
    with open(path, newline="", encoding="utf-8",
              errors="surrogateescape") as f:
        try:
            for _ in _utf8_lines(f):
                pass
        except CsvFormatError as exc:
            bad = exc
        f.seek(0)
        try:  # the lines before it, as if the file ended there
            _read_steps(islice(f, bad.line - 1))
        except CsvFormatError as exc:
            if exc.line is not None and exc.line < bad.line:
                raise
    raise bad


def _read_steps(lines) -> StepTable:
    """The table of the trace CSV whose lines ``lines`` yields, laid out as
    :func:`write_trace_csv` writes it, with CRLF, LF or CR line endings.

    The first step is the rows up to the first of another step; its leading
    anchor rows give N, the rest T. Every step is anchors 0..N-1, then tags
    0..T-1, spelling its step, rotation and calibrated (0 or 1) fields
    alike; steps increase; no field is quoted. The lines are read in blocks
    of whole steps, and :func:`_deviation` names the first that leaves the
    layout."""
    header = next(lines, None)
    got = header and header.rstrip("\r\n").split(",")
    if got != TRACE_HEADER:
        raise CsvFormatError(f"expected header {','.join(TRACE_HEADER)!r}, "
                             f"got {echo(got)}", line=1)
    pending = list(islice(lines, 1))
    if not pending:
        raise CsvFormatError("trace has no data rows")
    first, width = pending[0].partition(",")[0] + ",", 1
    for line in lines:
        pending.append(line)
        if not line.startswith(first):
            break
        width += 1
    n = next((k for k, line in enumerate(pending[:width])
              if not line.startswith(first + "anchor,")), width)
    per_block = max(TRACE_BLOCK_ROWS // width, 2) * width
    start, blocks, last = 2, [], None
    pending += islice(lines, per_block - len(pending))
    while pending:
        rows = len(pending) // width * width  # 0: a step is cut short
        try:
            block = _steps_of(pending[:rows], n, width) if rows else None
        except ValueError:  # a number that does not parse
            block = None
        if block is None or (last is not None and block[0][0] <= last):
            _deviation(pending, start, n, width, last)
        blocks.append(block)
        start, last = start + rows, block[0][-1]
        del pending[:rows]
        pending += islice(lines, per_block - len(pending))
    steps, errors, rotations, calibrated = map(np.concatenate, zip(*blocks))
    return StepTable(steps, n, errors, rotations, calibrated)


def _steps_of(lines: list[str], n: int, width: int):
    """The steps, errors ``(steps, width)``, rotations and calibrated flags
    of ``lines``, whole steps of ``n`` anchors and ``width`` rows, as
    :class:`StepTable` holds them; None if they leave :func:`_read_steps`'s
    layout, ValueError for a number that does not parse. The lines' fields,
    each line's last ending in CR, are checked against the step's
    templates by slicing, and only the step, error, rotation and
    calibrated fields parsed, the three a step shares once per step.
    """
    cols, rows, text = len(TRACE_HEADER), len(lines), "".join(lines)
    k = rows // width
    if text.count("\r\n") != rows:  # LF or CR endings, or none at the end
        text = (text.replace("\r\n", "\n").replace("\r", "\n").rstrip("\n")
                + "\n").replace("\n", "\r\n")
    fields = text.replace("\n", ",").split(",")
    fields.pop()  # after the last line's comma
    kinds = ["anchor"] * n + ["tag"] * (width - n)
    ids = list(map(str, chain(range(n), range(width - n))))
    if ('"' in text or len(fields) != cols * rows
            or fields[1::cols] != kinds * k or fields[2::cols] != ids * k):
        return None
    stride = cols * width
    steps_s, rots_s, flags_s = (fields[0::stride], fields[8::stride],
                                fields[9::stride])
    # every row's last field a flag: each of the text's CRs ends a row's
    # tenth field, so no line holds more or fewer than ten fields
    if not {"0\r", "1\r"}.issuperset(flags_s) or any(
            fields[j::stride] != steps_s or fields[j + 8::stride] != rots_s
            or fields[j + 9::stride] != flags_s
            for j in range(cols, stride, cols)):
        return None
    steps = list(map(int, steps_s))
    rotations = np.fromiter(map(float, rots_s), float, k)
    if not all(map(lt, steps, steps[1:])) or not np.isfinite(rotations).all():
        return None
    # a failed tag fix leaves error_m empty, read as NaN; an anchor's is
    # never empty
    errs = fields[7::cols]
    failed = np.zeros((k, width), bool)
    if "" in errs:
        failed = np.fromiter(map(not_, errs), bool, rows).reshape(k, width)
        errs = [e or "nan" for e in errs]
    errors = np.fromiter(map(float, errs), float, rows).reshape(k, width)
    if failed[:, :n].any() or not (np.isfinite(errors) | failed).all():
        return None
    return (_int_column(steps), errors, rotations,
            np.fromiter(map("1\r".__eq__, flags_s), bool, k))


def _deviation(lines: list[str], start: int, n: int, width: int,
               last) -> NoReturn:
    """Raise :class:`CsvFormatError` naming the first of ``lines``, the
    trace's from line ``start`` on in steps of ``n`` anchors and ``width``
    rows after step ``last``, that leaves :func:`_read_steps`'s layout and
    the rule it breaks; if none does, their last step is cut short."""
    nodes = [f"anchor {k}" for k in range(n)] + \
        [f"tag {k}" for k in range(width - n)]
    for i, line in enumerate(lines):
        at, j, row = start + i, i % width, line.rstrip("\r\n").split(",")
        if len(row) != len(TRACE_HEADER):
            raise CsvFormatError(f"expected {len(TRACE_HEADER)} columns, got "
                                 f"{len(row)}", line=at)
        step_s, kind, node, _, _, _, _, err_s, rot_s, cal_s = row
        try:
            step, err, rot, _ = (int(step_s), math.nan if err_s == "" else
                                 float(err_s), float(rot_s), int(cal_s))
        except ValueError as exc:
            raise CsvFormatError(echo(exc), line=at) from None
        if j == 0 and step == last and at == 2 + 2 * width:
            # the second step goes on where the first stopped
            raise CsvFormatError(f"the first step is cut short: it holds "
                                 f"{width} rows, step {echo(step)} more",
                                 line=2 + width)
        if j == 0:
            prev, last, head = last, step, row
        node = f"{kind} {node}"
        # the rules, in the order they are checked
        message = next((message for broken, message in (
            ('"' in line, "a field is quoted; no trace field is"),
            # only a failed tag fix has no error, and every number is finite
            (not math.isfinite(err) and (err_s or kind == "anchor"),
             f"{echo(node)}: error_m must be a finite number, got "
             f"{echo(repr(err_s))}"),
            (not math.isfinite(rot), f"rotation_error_rad must be a finite "
                                     f"number, got {echo(repr(rot_s))}"),
            (cal_s not in ("0", "1"),
             f"calibrated must be 0 or 1, got {echo(repr(cal_s))}"),
            (j == 0 and prev is not None and step < prev, f"step {echo(step)} "
             f"follows step {echo(prev)}; steps must increase"),
            (j == 0 and step == prev, f"step {echo(step)} holds more rows "
             f"than the first step's {width}"),
            (step_s != head[0] and node == "anchor 0", f"step {echo(last)} is "
             f"cut short: it holds {j} of {width} rows"),
            (step_s != head[0],
             f"step {echo(last)}: step {echo(step_s)} differs from the "
             f"step's first row"),
            (row[8:] != head[8:], f"step {echo(last)}: rotation_error_rad,"
                                  f"calibrated {echo(','.join(row[8:]))} "
                                  f"differ from the step's first row, "
                                  f"{echo(','.join(head[8:]))}"),
            (node in nodes[:j], f"step {echo(last)}: a second row for {node}"),
            (node != nodes[j], f"step {echo(last)}: expected {nodes[j]}, got "
                               f"{echo(node)}")) if broken), None)
        if message:
            raise CsvFormatError(message, line=at)
    raise CsvFormatError(f"step {echo(last)} is cut short: the trace ends "
                         f"after {len(lines) % width} of its {width} rows",
                         line=start + len(lines))
