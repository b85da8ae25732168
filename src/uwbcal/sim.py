"""Mobile-deployment simulation: drifting anchors, periodic recalibration,
per-step tag fixes, and the error metrics to go with them.

Every node follows a fixed heading with per-step Gaussian jitter. Anchor
position *estimates* track the true motion (odometry is assumed to read the
executed displacement) but pick up a bounded uniform error per step; that
drift is what the periodic recalibration has to clean up. Tags are located
fresh at every step from bias-corrected ranges against the *estimated*
anchor positions.

A run takes two passes: the step loop draws and decides everything in
stream order, then one call of the multilateration kernel makes every tag
fix of the run.

Errors are always reported in the anchor frame re-anchored at anchor 0's
true position: anchor 0's own translation error is zero by construction and
frame rotation is reported separately, as the angle between the estimated
and true anchor-0-to-anchor-1 baselines.

One master seed expands into four independent streams (parameter defaults,
motion noise, odometry drift, ranging noise), so toggling one noise source
leaves the other draws unchanged.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .autocalib import calibrate
from .errors import (FLOAT_FORMAT, ConfigError, CsvFormatError, EmptyTrace,
                     NotConverged, SingularUpdate, csv_rows, finite_number,
                     integer, json_object, xy_pair)
from .geometry import Point2, wrap_angle
# locate_tag is not called here; bench/tracing.py hooks this name for its
# multilateration metrics until ROADMAP item 8 retires the tracer
from .multilateration import CONVERGED, locate_tag, solve_fixes  # noqa: F401
from .protocol import run_calibration_round
from .ranging import RangingModel, reference_model

# Anchor layout used when a scenario does not provide one (first n entries).
DEFAULT_ANCHOR_LAYOUT = (
    Point2(2.0, 3.0),
    Point2(11.0, 3.0),
    Point2(18.0, 6.0),
    Point2(15.0, 20.0),
    Point2(4.0, 22.0),
)

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


@dataclass(frozen=True)
class MotionParams:
    """Constant-heading motion with additive Gaussian position noise."""

    direction: float
    speed: float
    gaussian_std: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in
                   (self.direction, self.speed, self.gaussian_std)):
            raise ValueError("motion parameters must be finite")
        if self.speed < 0.0 or self.gaussian_std < 0.0:
            raise ValueError("speed and gaussian_std must be >= 0")

    def to_dict(self):
        return {"direction": self.direction, "speed": self.speed,
                "gaussian_std": self.gaussian_std}

    @classmethod
    def from_dict(cls, d, where: str = "motion"):
        keys = ("direction", "speed", "gaussian_std")
        json_object(where, d, required=keys)
        values = [finite_number(f"{where}.{key}", d[key]) for key in keys]
        try:
            return cls(*values)
        except ValueError as exc:
            raise ConfigError([f"{where}: {exc}"]) from exc


@dataclass(frozen=True)
class MotionTable:
    """Per-node motion parameters for all anchors and tags."""

    anchors: tuple[MotionParams, ...]
    tags: tuple[MotionParams, ...]

    def to_dict(self):
        return {"anchors": [m.to_dict() for m in self.anchors],
                "tags": [m.to_dict() for m in self.tags]}

    @classmethod
    def from_dict(cls, d):
        json_object("motion", d, required=("anchors", "tags"))

        def nodes(kind):
            if not isinstance(d[kind], list):
                raise ConfigError([f"motion.{kind}: not a list: {d[kind]!r}"])
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
        return f"threshold:{self.threshold:g}"


# The scalar scenario keys in config.json order: key, parser, and the
# inclusive range resolve_config enforces. The count bounds keep a round's
# block (k·N·(N−1) draws) under 33 MB and a trace (n_steps·(N+T) rows)
# under 1.3 million rows; drift_bound's upper bound only excludes inf.
SCALAR_KEYS = (
    ("n_anchors", integer, 3, 64),
    ("n_tags", integer, 0, 64),
    ("n_steps", integer, 1, 10_000),
    ("calibration_period", integer, 1, math.inf),
    ("drift_bound", finite_number, 0, sys.float_info.max),
    ("k_measurements", integer, 1, 1000),
    ("seed", integer, 0, 2 ** 64 - 1),
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description. Fields left as None use defaults."""

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
    initial_anchor_positions: tuple[Point2, ...] | None = None
    initial_tag_positions: tuple[Point2, ...] | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        json_object("scenario", raw, optional=[f.name for f in fields(cls)])
        kwargs = {key: parse(key, raw[key])
                  for key, parse, _, _ in SCALAR_KEYS if key in raw}
        if "trigger" in raw and raw["trigger"] is not None:
            try:
                if not isinstance(raw["trigger"], str):
                    raise ValueError(f"not a string: {raw['trigger']!r}")
                kwargs["trigger"] = Trigger.parse(raw["trigger"])
            except ValueError as exc:
                raise ConfigError([f"trigger: {exc}"]) from exc
        if raw.get("ranging") is not None:
            kwargs["ranging"] = RangingModel.from_dict(raw["ranging"])
        if raw.get("motion") is not None:
            kwargs["motion"] = MotionTable.from_dict(raw["motion"])
        for key in ("initial_anchor_positions", "initial_tag_positions"):
            if raw.get(key) is not None:
                if not isinstance(raw[key], (list, tuple)):
                    raise ConfigError([f"{key}: not a list: {raw[key]!r}"])
                kwargs[key] = tuple(Point2(*xy_pair(f"{key}[{i}]", p))
                                    for i, p in enumerate(raw[key]))
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            **{key: getattr(self, key) for key, *_ in SCALAR_KEYS},
            "trigger": str(self.trigger),
            "ranging": None if self.ranging is None else self.ranging.to_dict(),
            "motion": None if self.motion is None else self.motion.to_dict(),
            "initial_anchor_positions":
                None if self.initial_anchor_positions is None
                else [[p.x, p.y] for p in self.initial_anchor_positions],
            "initial_tag_positions":
                None if self.initial_tag_positions is None
                else [[p.x, p.y] for p in self.initial_tag_positions],
        }


def _convex_hull(points: list[tuple[float, float]]):
    """Monotone-chain convex hull, counter-clockwise."""
    pts = sorted(set(points))
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


def point_in_anchor_hull(p: Point2, anchors: list[Point2]) -> bool:
    """True if ``p`` lies inside (or on, within 1e-9) the anchors' hull."""
    hull = _convex_hull([(a.x, a.y) for a in anchors])
    if len(hull) < 3:
        return False
    for k in range(len(hull)):
        ax, ay = hull[k]
        bx, by = hull[(k + 1) % len(hull)]
        if (bx - ax) * (p.y - ay) - (by - ay) * (p.x - ax) < -1e-9:
            return False
    return True


def _default_tags(anchors: list[Point2], n_tags: int) -> tuple[Point2, ...]:
    a0 = anchors[0]
    cx = sum(a.x for a in anchors) / len(anchors)
    cy = sum(a.y for a in anchors) / len(anchors)
    dx, dy = cx - a0.x, cy - a0.y
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        return tuple(Point2(cx, cy) for _ in range(n_tags))
    px, py = -dy / norm, dx / norm
    tags = []
    for j in range(n_tags):
        along = TAG_ALONG_BASE + TAG_ALONG_STEP * (j % 7)
        across = TAG_ACROSS * ((j % 3) - 1)
        tag = Point2(a0.x + along * dx + across * px,
                     a0.y + along * dy + across * py)
        if not point_in_anchor_hull(tag, anchors):
            # on the segment itself, inside any hull with an interior
            tag = Point2(a0.x + along * dx, a0.y + along * dy)
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


def resolve_config(cfg: ScenarioConfig,
                   params_rng: np.random.Generator | None = None) -> ScenarioConfig:
    """Fill in every defaulted field and validate the result.

    Raises :class:`ConfigError` listing all violations at once.
    """
    violations, bad = [], set()
    for key, _, low, high in SCALAR_KEYS:
        value = getattr(cfg, key)
        if not low <= value <= high:
            bad.add(key)
            # an above-bound value is not echoed: it may run to 309 digits
            violations.append(f"{key}: need <= {high}" if low <= value
                              else f"{key}: need >= {low}, got {value}")

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
            f"{cfg.n_anchors} anchors")
        anchors = None
    else:
        # a zero inter-anchor distance cannot be ranged
        for i, j in _coincident(anchors):
            p = anchors[j]
            violations.append(
                f"initial_anchor_positions[{j}]: ({p.x:g}, {p.y:g}) "
                f"coincides with initial_anchor_positions[{i}]")

    tags = cfg.initial_tag_positions
    if tags is None:
        if anchors is not None and not bad & {"n_anchors", "n_tags"}:
            tags = _default_tags(list(anchors), cfg.n_tags)
    elif len(tags) != cfg.n_tags:
        violations.append(
            f"initial_tag_positions: {len(tags)} entries for "
            f"{cfg.n_tags} tags")
        tags = None

    if anchors is not None and tags is not None:
        for idx, tag in enumerate(tags):
            if not point_in_anchor_hull(tag, list(anchors)):
                violations.append(
                    f"initial_tag_positions[{idx}]: ({tag.x:g}, {tag.y:g}) "
                    f"outside the anchor convex hull")

    motion = cfg.motion
    if motion is not None:
        if len(motion.anchors) != cfg.n_anchors:
            violations.append(
                f"motion.anchors: {len(motion.anchors)} entries for "
                f"{cfg.n_anchors} anchors")
        if len(motion.tags) != cfg.n_tags:
            violations.append(
                f"motion.tags: {len(motion.tags)} entries for "
                f"{cfg.n_tags} tags")
    if violations:
        raise ConfigError(violations)

    if motion is None:
        if params_rng is None:
            params_rng = np.random.default_rng(
                np.random.SeedSequence(cfg.seed).spawn(4)[0])
        motion = _default_motion(cfg.n_anchors, cfg.n_tags, params_rng)

    ranging = cfg.ranging if cfg.ranging is not None else reference_model()
    return replace(cfg, ranging=ranging, motion=motion,
                   initial_anchor_positions=tuple(anchors),
                   initial_tag_positions=tuple(tags))


def _coincident(points) -> list[tuple[int, int]]:
    """``(i, j)`` for every ``(x, y)`` point j equal to an earlier one, i
    being the first of them."""
    first, pairs = {}, []
    for j, p in enumerate(map(tuple, points)):
        i = first.setdefault(p, j)
        if i != j:
            pairs.append((i, j))
    return pairs


def _xy(points) -> np.ndarray:
    """``(x, y)`` points as an ``(n, 2)`` float array."""
    return np.array([tuple(p) for p in points], dtype=float)


# Steps whose motion and drift are drawn and summed together. The outputs do
# not depend on it: a block draw is the same stream as its per-step draws,
# and np.add.accumulate adds the rows strictly in order.
MOTION_BLOCK = 64


def _overflowed(t: int) -> ConfigError:
    return ConfigError([f"step {t}: node positions overflowed; reduce the "
                        f"motion speed or gaussian_std, or drift_bound"])


class _Motion:
    """True positions and drifted anchor estimates, step by step.

    Every node moves along its heading plus Gaussian jitter; the anchor
    estimates advance by the same executed displacement (odometry reads
    actual motion) plus Uniform(-b, +b) drift per coordinate. Both are
    drawn, summed, checked and converted to lists a block of steps at a
    time; a calibration restarts the estimates, which are then summed
    again from its step to the block's end.
    """

    def __init__(self, cfg: ScenarioConfig, true_xy: np.ndarray,
                 est_xy: np.ndarray, motion_rng: np.random.Generator,
                 drift_rng: np.random.Generator):
        self.cfg = cfg
        self.velocity, self.jitter = cfg.motion.arrays()
        self.motion_rng, self.drift_rng = motion_rng, drift_rng
        # the last row of est_path is the estimate the next block starts from
        self.true_xy, self.est_path = true_xy, est_xy[None]
        self.block_start = self.block_stop = 0

    def _draw_block(self):
        cfg, n = self.cfg, self.cfg.n_anchors
        start = self.block_stop
        length = min(MOTION_BLOCK, cfg.n_steps - start)
        with np.errstate(over="ignore", invalid="ignore"):
            self.delta = self.velocity + self.jitter * \
                self.motion_rng.standard_normal((length,) + self.true_xy.shape)
            self.drift = self.drift_rng.uniform(
                -1.0, 1.0, (length, n, 2)) * cfg.drift_bound
            path = np.add.accumulate(
                np.concatenate((self.true_xy[None], self.delta)))[1:]
        self.true_xy = path[-1]
        self.true_ok = np.isfinite(path).all(axis=(1, 2)).tolist()
        self.worlds = path.tolist()
        self.block_start, self.block_stop = start, start + length
        before, self.est_path = self.est_path[-1], np.empty((length, n, 2))
        self.frame_ok, self.frames = [], []
        self._sum_estimates(0, before)

    def _sum_estimates(self, k: int, before: np.ndarray):
        """Estimates for the block's rows k to its end, from ``before``,
        the estimates of the step before row k."""
        rows = np.empty((2 * (len(self.drift) - k) + 1,) + before.shape)
        rows[0] = before
        rows[1::2] = self.delta[k:, :len(before)]
        rows[2::2] = self.drift[k:]
        with np.errstate(over="ignore", invalid="ignore"):
            path = self.est_path[k:] = np.add.accumulate(rows)[2::2]
            frame = path - path[:, :1]
        # a finite frame implies finite estimates, and also that no
        # estimate is so far from anchor 0 that the difference overflows
        self.frame_ok[k:] = np.isfinite(frame).all(axis=(1, 2)).tolist()
        self.frames[k:] = frame.tolist()

    def advance(self, t: int):
        """Step t's world positions, anchors then tags, and anchor frame
        (``est - est[0]``) as ``(x, y)`` lists; steps come in order."""
        if t == self.block_stop:
            self._draw_block()
        k = t - self.block_start
        if not (self.true_ok[k] and self.frame_ok[k]):
            raise _overflowed(t)
        return self.worlds[k], self.frames[k]

    def recalibrated(self, t: int, positions) -> list:
        """Restart the estimates at step t from calibrated anchor-frame
        ``positions``, placed at anchor 0's estimate; returns the new frame."""
        k = t - self.block_start
        est_xy = self.est_path[k] = self.est_path[k, 0] + _xy(positions)
        self._sum_estimates(k + 1, est_xy)
        return (est_xy - est_xy[0]).tolist()


@dataclass(frozen=True)
class TraceRecord:
    """Per-step errors and world positions, anchors then tags.

    A failed tag fix has a NaN error and a None estimate. Records read back
    from a trace CSV leave both position tuples empty.
    """

    step: int
    anchor_errors: tuple[float, ...]
    tag_errors: tuple[float, ...]
    rotation_error: float
    calibrated: bool
    true_positions: tuple[tuple[float, float], ...] = ()
    est_positions: tuple[tuple[float, float] | None, ...] = ()


@dataclass
class SimulationTrace:
    config: dict
    records: list[TraceRecord]
    diagnostics: list[str]


def run_scenario(cfg: ScenarioConfig, bias_correction: bool = True) -> SimulationTrace:
    """Execute a full scenario; deterministic for a fixed config and seed.

    Two passes. The step loop decides the run: per step, motion, drift,
    recalibration when triggered (warm-started from the current estimates),
    the metrics of the anchors, and each tag's fresh bias-corrected ranges,
    all drawn in stream order. After the loop, every tag fix of the run is
    made in one :func:`~uwbcal.multilateration.solve_fixes` call, and the
    records are assembled. No control decision depends on a tag fix, so
    the passes give what one loop fixing each tag at its step would.

    Module errors during a tag fix or a calibration become diagnostics,
    in step order, instead of aborting the run; a warm calibration whose
    update is singular keeps the previous estimates, and its step is not
    marked calibrated. Positions that overflow, or anchors that meet at a
    calibration, raise :class:`ConfigError`: the scenario's motion cannot be
    simulated.
    """
    cfg = resolve_config(cfg)  # draws any default motion from stream 0
    motion_rng, drift_rng, ranging_rng = map(
        np.random.default_rng, np.random.SeedSequence(cfg.seed).spawn(4)[1:])
    model = cfg.ranging
    correction = model if bias_correction else RangingModel.identity()
    n = cfg.n_anchors

    stats, _ = run_calibration_round(n, cfg.k_measurements,
                                     cfg.initial_anchor_positions, model,
                                     ranging_rng)
    # messages, and the queue index of each tag fix still to be made
    diagnostics: list[str | int] = []
    try:
        result = calibrate(stats, correction)
    except NotConverged as exc:
        result = exc.result
        diagnostics.append("bootstrap calibration did not converge")
    # world positions, anchors then tags, and the anchor estimates; the
    # system's anchor frame is est - est[0], so anchor 0 anchors it
    true_xy = _xy(cfg.initial_anchor_positions + cfg.initial_tag_positions)
    motion = _Motion(cfg, true_xy, true_xy[0] + _xy(result.positions),
                     motion_rng, drift_rng)
    tag_fixes = _TagFixes(model, correction)
    steps = []

    for t in range(cfg.n_steps):
        world, frame = motion.advance(t)
        truth = world[:n]
        calibrated = False
        x0, y0 = truth[0]
        est_pos = [(x + x0, y + y0) for x, y in frame]
        anchor_errors = list(map(math.dist, est_pos, truth))
        if _trigger_fires(cfg, t, anchor_errors):
            met = _coincident(truth)
            if met:
                i, j = met[0]
                raise ConfigError([
                    f"step {t}: anchors {i} and {j} coincide at "
                    f"({truth[j][0]:g}, {truth[j][1]:g}) and cannot range "
                    f"each other; change the motion or "
                    f"initial_anchor_positions"])
            stats, _ = run_calibration_round(
                n, cfg.k_measurements, truth, model, ranging_rng)
            try:
                result = calibrate(stats, correction, prior=frame)
            except NotConverged as exc:
                result = exc.result
                diagnostics.append(f"step {t}: calibration did not converge")
            except SingularUpdate as exc:
                # the estimates carry on as if no round had run
                result = None
                diagnostics.append(f"step {t}: calibration failed: {exc}")
            if result is not None:
                frame = motion.recalibrated(t, result.positions)
                est_pos = [(x + x0, y + y0) for x, y in frame]
                anchor_errors = list(map(math.dist, est_pos, truth))
                calibrated = True

        assert anchor_errors[0] == 0.0
        if math.inf in anchor_errors:
            # an estimate so far out that its error overflows
            raise _overflowed(t)
        (x1, y1), (fx, fy) = truth[1], frame[1]
        rotation = wrap_angle(math.atan2(fy, fx)
                              - math.atan2(y1 - y0, x1 - x0))
        steps.append((tuple(anchor_errors), rotation, calibrated,
                      tuple(map(tuple, world)), tuple(est_pos),
                      len(tag_fixes.errors)))
        tag_fixes.draw(t, world[n:], truth, frame, ranging_rng, diagnostics)

    tag_fixes.solve(diagnostics)
    n_tags = cfg.n_tags
    records = [
        TraceRecord(step=t, anchor_errors=anchor_errors,
                    tag_errors=tuple(tag_fixes.errors[k:k + n_tags]),
                    rotation_error=rotation, calibrated=calibrated,
                    true_positions=true_positions,
                    est_positions=est_positions
                    + tuple(tag_fixes.estimates[k:k + n_tags]))
        for t, (anchor_errors, rotation, calibrated, true_positions,
                est_positions, k) in enumerate(steps)]
    return SimulationTrace(config=cfg.to_dict(), records=records,
                           diagnostics=diagnostics)


def _trigger_fires(cfg: ScenarioConfig, t: int, anchor_errors) -> bool:
    if cfg.trigger.kind == "periodic":
        return t > 0 and t % cfg.calibration_period == 0
    return max(anchor_errors) > cfg.trigger.threshold


class _TagFixes:
    """The tag fixes of a run: ranges step by step, fixes after the loop.

    :meth:`draw` forms a step's bias-corrected ranges, as
    :func:`~uwbcal.ranging.simulate_measurement` and
    :func:`~uwbcal.ranging.correct_measurement` form them but on floats,
    from one noise draw for all its tags (tag by tag, anchor by anchor; a
    tag that coincides with an anchor draws nothing), so the stream and the
    ranges are those of one such call per range. It queues each tag's fix.
    :meth:`solve` then makes every queued fix in one
    :func:`~uwbcal.multilateration.solve_fixes` call. ``estimates`` and
    ``errors`` hold, per step and tag, the world estimate (None for a
    failed fix) and its error (NaN).
    """

    def __init__(self, model: RangingModel, correction: RangingModel):
        self.model, self.correction = model, correction
        self.estimates: list[tuple[float, float] | None] = []
        self.errors: list[float] = []
        self.frames = []  # the anchor frame of each step with a queued fix
        self.ranges: list[float] = []  # N per queued fix
        # per queued fix: its frame, slot in estimates, step, tag, and
        # anchor 0's and the tag's true positions
        self.queue = []

    def draw(self, step, tags_true, truth_anchors, frame, rng, diagnostics):
        """Draw step ``step``'s ranges and queue its fixes. A tag that
        coincides with an anchor or has a non-positive corrected range fails
        with a diagnostic; a queued fix appends its queue index to
        ``diagnostics``, which :meth:`solve` resolves."""
        m, c = self.model, self.correction
        slope, intercept, noise_std = m.slope, m.intercept, m.noise_std
        true_d = [[math.hypot(tx - ax, ty - ay) for ax, ay in truth_anchors]
                  for tx, ty in tags_true]
        live = sum(0.0 not in d for d in true_d)
        n = len(truth_anchors)
        noise = rng.standard_normal(live * n).tolist()
        k, frame_id = 0, len(self.frames)
        for tag_id, (tag_true, dists) in enumerate(zip(tags_true, true_d)):
            slot = len(self.errors)
            self.estimates.append(None)
            self.errors.append(math.nan)
            if 0.0 in dists:
                diagnostics.append(f"step {step}: tag {tag_id} coincides "
                                   f"with anchor {dists.index(0.0)} and "
                                   f"cannot range it")
                continue
            ranges = [(slope * d + intercept + noise_std * z - c.intercept)
                      / c.slope for d, z in zip(dists, noise[k:k + n])]
            k += n
            if min(ranges) <= 0.0:
                diagnostics.append(f"step {step}: tag {tag_id} produced a "
                                   f"non-positive corrected range")
                continue
            if frame_id == len(self.frames):
                self.frames.append(frame)
            diagnostics.append(len(self.queue))
            self.queue.append((frame_id, slot, step, tag_id, truth_anchors[0],
                               tag_true))
            self.ranges += ranges

    def solve(self, diagnostics):
        """Make every queued fix, and put each failed fix's message in
        ``diagnostics`` where :meth:`draw` put its queue index (dropping
        the index of a fix that succeeded)."""
        messages = [None] * len(self.queue)
        if self.queue:
            frames = np.array(self.frames)[[q[0] for q in self.queue]]
            batch = solve_fixes(frames[:, :, 0], frames[:, :, 1],
                                np.reshape(self.ranges, (len(messages), -1)))
            for p, (status, (fx, fy), (_, slot, step, tag_id, (x0, y0),
                                       tag_true)) in enumerate(zip(
                    batch.status.tolist(), batch.position.tolist(),
                    self.queue)):
                if status == CONVERGED:
                    est = (fx + x0, fy + y0)
                    self.estimates[slot] = est
                    self.errors[slot] = math.dist(est, tag_true)
                else:
                    messages[p] = (f"step {step}: tag {tag_id} fix failed: "
                                   f"{batch.error(p)}")
        diagnostics[:] = [d if isinstance(d, str) else messages[d]
                          for d in diagnostics
                          if isinstance(d, str) or messages[d] is not None]


@dataclass(frozen=True)
class Quartiles:
    min: float
    q1: float
    median: float
    q3: float
    max: float

    @classmethod
    def of(cls, values) -> "Quartiles":
        q = np.percentile(np.asarray(values, dtype=float), [0, 25, 50, 75, 100])
        return cls(*(float(v) for v in q))

    def to_dict(self):
        return {"min": self.min, "q1": self.q1, "median": self.median,
                "q3": self.q3, "max": self.max}


@dataclass(frozen=True)
class CalibrationEvent:
    step: int
    mean_anchor_error_before: float
    mean_anchor_error_after: float

    def to_dict(self):
        return {"step": self.step,
                "mean_anchor_error_before": self.mean_anchor_error_before,
                "mean_anchor_error_after": self.mean_anchor_error_after}


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
        return {
            "anchor_translation_m": self.anchor_translation.to_dict(),
            "tag_translation_m":
                None if self.tag_translation is None
                else self.tag_translation.to_dict(),
            "rotation_rad": self.rotation.to_dict(),
            "n_steps": self.n_steps,
            "n_calibrations": self.n_calibrations,
            "calibration_events": [e.to_dict() for e in self.calibration_events],
            "mean_anchor_error_before_calibration":
                self.mean_anchor_error_before_calibration,
            "mean_anchor_error_after_calibration":
                self.mean_anchor_error_after_calibration,
        }


def summarize(trace: SimulationTrace | list[TraceRecord]) -> SummaryStats:
    """Distribution statistics for one simulation run (or pooled records)."""
    records = trace.records if isinstance(trace, SimulationTrace) else trace
    if not records:
        raise EmptyTrace("no records to summarize")

    anchor_pool = [e for r in records for e in r.anchor_errors[1:]]
    if not anchor_pool:
        raise EmptyTrace("no anchor errors besides anchor 0's to summarize")
    tag_pool = [e for r in records for e in r.tag_errors if not math.isnan(e)]
    rotation_pool = [r.rotation_error for r in records]

    by_step = {r.step: r for r in records}
    events = []
    for r in records:
        if r.calibrated and (r.step - 1) in by_step:
            prev = by_step[r.step - 1]
            events.append(CalibrationEvent(
                step=r.step,
                mean_anchor_error_before=float(np.mean(prev.anchor_errors[1:])),
                mean_anchor_error_after=float(np.mean(r.anchor_errors[1:]))))

    return SummaryStats(
        anchor_translation=Quartiles.of(anchor_pool),
        tag_translation=Quartiles.of(tag_pool) if tag_pool else None,
        rotation=Quartiles.of(rotation_pool),
        n_steps=len(records),
        n_calibrations=sum(1 for r in records if r.calibrated),
        calibration_events=tuple(events),
        mean_anchor_error_before_calibration=
            float(np.mean([e.mean_anchor_error_before for e in events]))
            if events else None,
        mean_anchor_error_after_calibration=
            float(np.mean([e.mean_anchor_error_after for e in events]))
            if events else None,
    )


TRACE_HEADER = ["step", "node_kind", "node_id", "true_x", "true_y",
                "est_x", "est_y", "error_m", "rotation_error_rad",
                "calibrated"]


def write_trace_csv(trace: SimulationTrace, path) -> None:
    """One row per node of every record, anchors then tags; a failed tag fix
    leaves ``est_x``, ``est_y`` and ``error_m`` empty. The bytes are those
    of ``csv.writer``: no field needs quoting, and lines end in CRLF."""
    f = FLOAT_FORMAT
    fixed = f"%d,%s,%d,{f},{f},{f},{f},{f},%s"
    failed = f"%d,%s,%d,{f},{f},,,,%s"
    lines = [",".join(TRACE_HEADER) + "\r\n"]
    for r in trace.records:
        # the rotation and calibrated fields end every row of the record
        step, tail = r.step, f"{f},%d\r\n" % (r.rotation_error, r.calibrated)
        n = len(r.anchor_errors)
        for k, ((tx, ty), est, err) in enumerate(zip(
                r.true_positions, r.est_positions,
                r.anchor_errors + r.tag_errors)):
            kind, node_id = ("anchor", k) if k < n else ("tag", k - n)
            if est is None:
                lines.append(failed % (step, kind, node_id, tx, ty, tail))
            else:
                lines.append(fixed % (step, kind, node_id, tx, ty, est[0],
                                      est[1], err, tail))
    with open(path, "w", newline="", encoding="utf-8") as out:
        out.write("".join(lines))


def read_trace_records(path) -> list[TraceRecord]:
    """Rebuild per-step records from a trace CSV (for summarize)."""
    # step -> (step, anchor errors by id, tag errors by id, rotation,
    # calibrated), the last four taken from the step's first row
    steps: dict[int, tuple[int, dict, dict, float, bool]] = {}
    # consecutive rows of a step repeat its step, rotation and calibrated
    # fields: each is parsed (and so checked) again only when it changes
    last_step_s = last_rot_s = last_cal_s = None
    step = entry = None
    for lineno, row in csv_rows(path, TRACE_HEADER):
        step_s, kind, node_s, _, _, _, _, err_s, rot_s, cal_s = row
        try:
            if step_s != last_step_s:
                step, last_step_s = int(step_s), step_s
            node_id = int(node_s)
            err = math.nan if err_s == "" else float(err_s)
            if rot_s != last_rot_s:
                rot, last_rot_s = float(rot_s), rot_s
            if cal_s != last_cal_s:
                cal, last_cal_s = bool(int(cal_s)), cal_s
        except ValueError as exc:
            raise CsvFormatError(str(exc), line=lineno) from exc
        if kind not in ("anchor", "tag"):
            raise CsvFormatError(f"unknown node_kind {kind!r}", line=lineno)
        if entry is None or entry[0] != step:
            entry = steps.get(step)
            if entry is None:
                entry = steps[step] = (step, {}, {}, rot, cal)
        entry[1 if kind == "anchor" else 2][node_id] = err
    if not steps:
        raise CsvFormatError("trace has no data rows")
    records = []
    first_ids = None
    for step in sorted(steps):
        _, anchors, tags, rot, cal = steps[step]
        ids = sorted(anchors)
        if first_ids is None:
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
