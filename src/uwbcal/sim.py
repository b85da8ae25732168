"""Mobile-deployment simulation: drifting anchors, periodic recalibration,
per-step tag fixes, and the error metrics to go with them.

Every node follows a fixed heading with per-step Gaussian jitter. Anchor
position *estimates* track the true motion (odometry is assumed to read the
executed displacement) but pick up a bounded uniform error per step; that
drift is what the periodic recalibration has to clean up. Tags are located
fresh at every step from bias-corrected ranges against the *estimated*
anchor positions.

Errors are always reported in the anchor frame re-anchored at anchor 0's
true position: anchor 0's own translation error is zero by construction and
frame rotation is reported separately, as the angle between the estimated
and true anchor-0-to-anchor-1 baselines.

One master seed expands into four independent streams (parameter defaults,
motion noise, odometry drift, ranging noise), so toggling one noise source
leaves the other draws unchanged.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from numbers import Integral, Real

import numpy as np

from .autocalib import calibrate
from .errors import (CollinearAnchors, ConfigError, CsvFormatError,
                     DegenerateGeometry, EmptyTrace, NotConverged,
                     SingularUpdate)
from .geometry import Point2, distance, translation_errors, wrap_angle
from .multilateration import locate_tag
from .protocol import run_calibration_round
from .ranging import (RangingModel, correct_measurement, reference_model,
                      simulate_measurement)

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

# Default tags sit on the segment from anchor 0 toward the deployment
# centroid: interior for any convex layout, and the region where tag fixes
# are least sensitive to drift of the frame-defining anchor.
TAG_ALONG_BASE = 0.2
TAG_ALONG_STEP = 0.1
TAG_ACROSS = 0.4


def _finite_number(key: str, value) -> float:
    """A scenario number as a float; :class:`ConfigError` naming ``key`` for
    bools, strings and non-finite values."""
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer too large for a float
            pass
    raise ConfigError([f"{key}: not a finite number: {value!r}"])


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
        required = ("direction", "speed", "gaussian_std")
        problems = []
        unknown = sorted(set(d) - set(required))
        missing = sorted(set(required) - set(d))
        if unknown:
            problems.append(f"{where}: unknown keys {unknown}")
        if missing:
            problems.append(f"{where}: missing keys {missing}")
        if problems:
            raise ConfigError(problems)
        return cls(*(_finite_number(f"{where}.{key}", d[key])
                     for key in required))


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
        unknown = sorted(set(d) - {"anchors", "tags"})
        if unknown:
            raise ConfigError([f"motion: unknown keys {unknown}"])
        if "anchors" not in d or "tags" not in d:
            raise ConfigError(["motion: needs both 'anchors' and 'tags' lists"])

        def nodes(kind):
            return tuple(MotionParams.from_dict(m, f"motion.{kind}[{i}]")
                         for i, m in enumerate(d[kind]))

        return cls(anchors=nodes("anchors"), tags=nodes("tags"))


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


_CONFIG_KEYS = {
    "n_anchors", "n_tags", "n_steps", "calibration_period", "drift_bound",
    "k_measurements", "seed", "trigger", "ranging", "motion",
    "initial_anchor_positions", "initial_tag_positions",
}


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
        unknown = sorted(set(raw) - _CONFIG_KEYS)
        if unknown:
            raise ConfigError([f"unknown config keys: {', '.join(unknown)}"])
        kwargs = {}
        for key in ("n_anchors", "n_tags", "n_steps", "calibration_period",
                    "k_measurements", "seed"):
            if key in raw:
                value = raw[key]
                if isinstance(value, float) and value.is_integer():
                    value = int(value)
                if isinstance(value, bool) or not isinstance(value, Integral):
                    raise ConfigError([f"{key}: not an integer: {value!r}"])
                kwargs[key] = int(value)
        if "drift_bound" in raw:
            kwargs["drift_bound"] = _finite_number("drift_bound",
                                                   raw["drift_bound"])
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
                kwargs[key] = tuple(Point2(float(x), float(y))
                                    for x, y in raw[key])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            "n_anchors": self.n_anchors,
            "n_tags": self.n_tags,
            "n_steps": self.n_steps,
            "calibration_period": self.calibration_period,
            "drift_bound": self.drift_bound,
            "k_measurements": self.k_measurements,
            "seed": self.seed,
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
        tags.append(Point2(a0.x + along * dx + across * px,
                           a0.y + along * dy + across * py))
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
    violations = []
    if cfg.n_anchors < 3:
        violations.append(f"n_anchors: need >= 3, got {cfg.n_anchors}")
    if cfg.n_tags < 0:
        violations.append(f"n_tags: need >= 0, got {cfg.n_tags}")
    if cfg.n_steps < 1:
        violations.append(f"n_steps: need >= 1, got {cfg.n_steps}")
    if cfg.calibration_period < 1:
        violations.append(
            f"calibration_period: need >= 1, got {cfg.calibration_period}")
    if not (math.isfinite(cfg.drift_bound) and cfg.drift_bound >= 0.0):
        violations.append(
            f"drift_bound: need a finite value >= 0, got {cfg.drift_bound}")
    if cfg.k_measurements < 1:
        violations.append(
            f"k_measurements: need >= 1, got {cfg.k_measurements}")
    if not 0 <= cfg.seed < 2 ** 64:
        violations.append(f"seed: need a 64-bit unsigned integer, got {cfg.seed}")

    anchors = cfg.initial_anchor_positions
    if anchors is None:
        if cfg.n_anchors <= len(DEFAULT_ANCHOR_LAYOUT):
            anchors = DEFAULT_ANCHOR_LAYOUT[:cfg.n_anchors]
        else:
            violations.append(
                f"initial_anchor_positions: required for n_anchors > "
                f"{len(DEFAULT_ANCHOR_LAYOUT)}")
    elif len(anchors) != cfg.n_anchors:
        violations.append(
            f"initial_anchor_positions: {len(anchors)} entries for "
            f"{cfg.n_anchors} anchors")
        anchors = None
    else:
        # a zero inter-anchor distance cannot be ranged
        for j, p in enumerate(anchors):
            if p in anchors[:j]:
                violations.append(
                    f"initial_anchor_positions[{j}]: ({p.x:g}, {p.y:g}) "
                    f"coincides with initial_anchor_positions"
                    f"[{anchors.index(p)}]")

    tags = cfg.initial_tag_positions
    if tags is None:
        if anchors is not None:
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


@dataclass
class WorldState:
    """True and estimated node positions at one simulation step.

    ``est_anchor_pos`` holds the odometry estimates in world coordinates;
    the system's anchor frame is recovered as est[i] - est[0], so anchor 0
    always anchors the estimation frame.
    """

    true_anchor_pos: list[Point2]
    est_anchor_pos: list[Point2]
    true_tag_pos: list[Point2]


def step_motion(state: WorldState, cfg: ScenarioConfig,
                rng: np.random.Generator) -> WorldState:
    """Advance every node one step along its heading, plus Gaussian noise.

    Estimates advance by the same executed displacement as the truth
    (odometry reads actual motion); only drift separates them.
    """
    motion = cfg.motion
    noise = rng.standard_normal((cfg.n_anchors + cfg.n_tags, 2))
    new_true, new_est = [], []
    for i, (p, m) in enumerate(zip(state.true_anchor_pos, motion.anchors)):
        delta = Point2(m.speed * math.cos(m.direction) + m.gaussian_std * noise[i, 0],
                       m.speed * math.sin(m.direction) + m.gaussian_std * noise[i, 1])
        new_true.append(p + delta)
        new_est.append(state.est_anchor_pos[i] + delta)
    new_tags = []
    for i, (p, m) in enumerate(zip(state.true_tag_pos, motion.tags)):
        k = cfg.n_anchors + i
        delta = Point2(m.speed * math.cos(m.direction) + m.gaussian_std * noise[k, 0],
                       m.speed * math.sin(m.direction) + m.gaussian_std * noise[k, 1])
        new_tags.append(p + delta)
    return replace(state, true_anchor_pos=new_true,
                   est_anchor_pos=new_est, true_tag_pos=new_tags)


def apply_drift(state: WorldState, cfg: ScenarioConfig,
                rng: np.random.Generator) -> WorldState:
    """Add one step of odometry error: Uniform(-b, +b) per coordinate,
    independently for every anchor estimate."""
    draws = rng.uniform(-1.0, 1.0, (cfg.n_anchors, 2)) * cfg.drift_bound
    new_est = [p + Point2(draws[i, 0], draws[i, 1])
               for i, p in enumerate(state.est_anchor_pos)]
    return replace(state, est_anchor_pos=new_est)


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


def _frame(est: list[Point2]) -> list[Point2]:
    origin = est[0]
    return [p - origin for p in est]


def _baseline_angle(p0: Point2, p1: Point2) -> float:
    return math.atan2(p1.y - p0.y, p1.x - p0.x)


def run_scenario(cfg: ScenarioConfig, bias_correction: bool = True) -> SimulationTrace:
    """Execute a full scenario; deterministic for a fixed config and seed.

    Per step: motion, drift, recalibration when triggered (warm-started from
    the current estimates), then one fix per tag from fresh bias-corrected
    ranges, then metric recording. Module errors during a tag fix or a
    calibration become diagnostics instead of aborting the run.
    """
    try:
        seq = np.random.SeedSequence(cfg.seed).spawn(4)
    except (TypeError, ValueError) as exc:
        raise ConfigError([f"seed: {exc}"]) from exc
    params_rng, motion_rng, drift_rng, ranging_rng = (
        np.random.default_rng(s) for s in seq)
    cfg = resolve_config(cfg, params_rng)
    model = cfg.ranging
    correction = model if bias_correction else RangingModel.identity()

    anchors0 = list(cfg.initial_anchor_positions)
    stats, _ = run_calibration_round(cfg.n_anchors, cfg.k_measurements,
                                     anchors0, model, ranging_rng)
    diagnostics: list[str] = []
    try:
        result = calibrate(stats, correction)
    except NotConverged as exc:
        result = exc.result
        diagnostics.append("bootstrap calibration did not converge")
    origin0 = anchors0[0]
    est = [origin0 + p for p in result.positions]

    state = WorldState(true_anchor_pos=anchors0, est_anchor_pos=est,
                       true_tag_pos=list(cfg.initial_tag_positions))
    records: list[TraceRecord] = []

    for t in range(cfg.n_steps):
        state = step_motion(state, cfg, motion_rng)
        state = apply_drift(state, cfg, drift_rng)

        truth = state.true_anchor_pos
        frame = _frame(state.est_anchor_pos)
        calibrated = False
        if _trigger_fires(cfg, t, frame, truth):
            stats, _ = run_calibration_round(
                cfg.n_anchors, cfg.k_measurements, truth, model, ranging_rng)
            try:
                result = calibrate(stats, correction, prior=frame)
            except NotConverged as exc:
                result = exc.result
                diagnostics.append(f"step {t}: calibration did not converge")
            origin = state.est_anchor_pos[0]
            state = replace(
                state, est_anchor_pos=[origin + p for p in result.positions])
            frame = _frame(state.est_anchor_pos)
            calibrated = True

        anchor_errors = translation_errors(frame, truth, truth[0])
        assert anchor_errors[0] == 0.0
        rotation = wrap_angle(_baseline_angle(Point2(0.0, 0.0), frame[1])
                              - _baseline_angle(truth[0], truth[1]))

        a0 = truth[0]
        true_pos = [(p.x, p.y) for p in truth]
        est_pos = [(p.x + a0.x, p.y + a0.y) for p in frame]
        tag_errors = []
        for tag_id, tag_true in enumerate(state.true_tag_pos):
            est_world, err = _fix_tag(tag_true, truth, frame, model,
                                      correction, ranging_rng,
                                      diagnostics, t, tag_id)
            tag_errors.append(err)
            true_pos.append((tag_true.x, tag_true.y))
            est_pos.append(est_world)

        records.append(TraceRecord(step=t,
                                   anchor_errors=tuple(anchor_errors),
                                   tag_errors=tuple(tag_errors),
                                   rotation_error=rotation,
                                   calibrated=calibrated,
                                   true_positions=tuple(true_pos),
                                   est_positions=tuple(est_pos)))

    return SimulationTrace(config=cfg.to_dict(), records=records,
                           diagnostics=diagnostics)


def _trigger_fires(cfg: ScenarioConfig, t: int, frame: list[Point2],
                   truth: list[Point2]) -> bool:
    if cfg.trigger.kind == "periodic":
        return t > 0 and t % cfg.calibration_period == 0
    errors = translation_errors(frame, truth, truth[0])
    return max(errors) > cfg.trigger.threshold


def _fix_tag(tag_true, truth_anchors, frame, model, correction, rng,
             diagnostics, step, tag_id):
    measured = [simulate_measurement(distance(tag_true, a), model, rng)
                for a in truth_anchors]
    ranges = [correct_measurement(m, correction) for m in measured]
    if min(ranges) <= 0.0:
        diagnostics.append(
            f"step {step}: tag {tag_id} produced a non-positive corrected range")
        return None, math.nan
    try:
        fix = locate_tag(frame, ranges)
    except (CollinearAnchors, NotConverged, DegenerateGeometry,
            SingularUpdate) as exc:
        diagnostics.append(f"step {step}: tag {tag_id} fix failed: {exc}")
        return None, math.nan
    est = fix.position + truth_anchors[0]
    return (est.x, est.y), distance(est, tag_true)


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


def write_trace_csv(trace: SimulationTrace, path,
                    float_format: str = "%.9g") -> None:
    """One row per node of every record, anchors then tags; a failed tag fix
    leaves ``est_x``, ``est_y`` and ``error_m`` empty."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(TRACE_HEADER)
        for r in trace.records:
            rot, cal = float_format % r.rotation_error, int(r.calibrated)
            n = len(r.anchor_errors)
            for k, ((tx, ty), est, err) in enumerate(zip(
                    r.true_positions, r.est_positions,
                    r.anchor_errors + r.tag_errors)):
                kind, node_id = ("anchor", k) if k < n else ("tag", k - n)
                fix = ("", "", "") if est is None else (
                    float_format % est[0], float_format % est[1],
                    float_format % err)
                writer.writerow([r.step, kind, node_id, float_format % tx,
                                 float_format % ty, *fix, rot, cal])


def read_trace_records(path) -> list[TraceRecord]:
    """Rebuild per-step records from a trace CSV (for summarize)."""
    steps: dict[int, dict] = {}
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != TRACE_HEADER:
            raise CsvFormatError(
                f"expected header {','.join(TRACE_HEADER)!r}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(TRACE_HEADER):
                raise CsvFormatError(
                    f"expected {len(TRACE_HEADER)} columns, got {len(row)}",
                    line=lineno)
            try:
                step = int(row[0])
                kind = row[1]
                node_id = int(row[2])
                err = math.nan if row[7] == "" else float(row[7])
                rot = float(row[8])
                cal = bool(int(row[9]))
            except ValueError as exc:
                raise CsvFormatError(str(exc), line=lineno) from exc
            if kind not in ("anchor", "tag"):
                raise CsvFormatError(f"unknown node_kind {kind!r}", line=lineno)
            entry = steps.setdefault(
                step, {"anchors": {}, "tags": {}, "rot": rot, "cal": cal})
            entry[kind + "s"][node_id] = err
    if not steps:
        raise CsvFormatError("trace has no data rows")
    records = []
    for step in sorted(steps):
        entry = steps[step]
        anchors = [entry["anchors"][i] for i in sorted(entry["anchors"])]
        tags = [entry["tags"][i] for i in sorted(entry["tags"])]
        records.append(TraceRecord(step=step, anchor_errors=tuple(anchors),
                                   tag_errors=tuple(tags),
                                   rotation_error=entry["rot"],
                                   calibrated=entry["cal"]))
    return records


def summary_to_json(summary: SummaryStats, digits: int = 9) -> str:
    """Serialize a summary with fixed significant digits (stable goldens)."""
    return json.dumps(_round_floats(summary.to_dict(), digits), indent=2)


def _round_floats(obj, digits):
    if isinstance(obj, float):
        return float(f"%.{digits}g" % obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj
