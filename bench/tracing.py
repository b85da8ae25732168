"""Traced run: spans around the calls into each uwbcal module.

Wrappers replace names where they are looked up (``uwbcal.sim.locate_tag``,
not ``uwbcal.multilateration.locate_tag``), record one in-memory span per
call (name, start, end, parent span, scenario) and are removed again when
the ``installed`` block exits. They never draw from an RNG and hand back
the wrapped function's result untouched, so traced outputs are identical to
untraced ones. A name that a later refactor removes is skipped, and the
metrics that depend on it read "not measured".

A span's self time is its duration minus that of its direct children; a
module's self time is the sum over its spans.
"""

from __future__ import annotations

import array
import importlib
import inspect
import statistics
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

MODULES = ("sim", "protocol", "ranging", "autocalib", "leastsq",
           "multilateration", "geometry", "cli")

ROOT_SPAN = "bench.scenario"

# (module path, name looked up there, span name). Span names start with the
# module the time is charged to.
_SPANS = (
    ("uwbcal.sim", "run_calibration_round", "protocol.run_calibration_round"),
    ("uwbcal.protocol", "simulate_round", "protocol.simulate_round"),
    ("uwbcal.sim", "simulate_measurement", "ranging.simulate_measurement"),
    ("uwbcal.protocol", "simulate_measurement", "ranging.simulate_measurement"),
    ("uwbcal.sim", "translation_errors", "geometry.translation_errors"),
    ("uwbcal.sim", "distance", "geometry.distance"),
    ("uwbcal.sim", "wrap_angle", "geometry.wrap_angle"),
    ("uwbcal.protocol", "distance", "geometry.distance"),
    ("uwbcal.autocalib", "bilaterate_positive_y", "geometry.bilaterate"),
    ("uwbcal.cli", "run_scenario", "sim.run_scenario"),
    ("uwbcal.cli", "summarize", "sim.summarize"),
    ("uwbcal.cli", "write_trace_csv", "cli.write_trace_csv"),
    ("uwbcal.cli", "read_trace_records", "cli.read_trace_records"),
)


class Tracer:
    """Spans kept in flat arrays; counters and samples by name."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.scenario = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: list[int] = []
        self.current = -1
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {}
        self.installed: set[str] = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def call(self, nid: int, fn, args=(), kwargs=None):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.scenario.append(self.current)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, span: str, fn):
        nid = self.name_id(span)
        call = self.call

        def traced(*args, **kwargs):
            return call(nid, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name),
            parent=np.asarray(self.parent), scenario=np.asarray(self.scenario),
            start=np.asarray(self.start), end=np.asarray(self.end))


def _calibrate(tracer: Tracer, fn):
    boot = tracer.name_id("autocalib.calibrate.bootstrap")
    warm = tracer.name_id("autocalib.calibrate.warm")
    signature = inspect.signature(fn)

    def calibrate(*args, **kwargs):
        prior = signature.bind(*args, **kwargs).arguments.get("prior")
        try:
            result = tracer.call(boot if prior is None else warm, fn,
                                 args, kwargs)
        except Exception as exc:
            result = getattr(exc, "result", None)  # NotConverged's best iterate
            if result is not None:
                tracer.count("autocalib.nonconverged")
                tracer.sample("autocalib.iterations", result.iterations)
            raise
        tracer.sample("autocalib.iterations", result.iterations)
        return result

    calibrate.__wrapped__ = fn
    return calibrate


def _locate_tag(tracer: Tracer, fn):
    nid = tracer.name_id("multilateration.locate_tag")

    def locate_tag(*args, **kwargs):
        try:
            return tracer.call(nid, fn, args, kwargs)
        except Exception:
            tracer.count("multilateration.failed")
            raise

    locate_tag.__wrapped__ = fn
    return locate_tag


def _levenberg_marquardt(tracer: Tracer, fn, caller: str):
    """The solver's span is charged to leastsq, and each evaluation of the
    residual function the caller passes in to the caller's module."""
    nid = tracer.name_id("leastsq.levenberg_marquardt")
    residuals = f"{caller}.residuals"

    def levenberg_marquardt(fun, *args, **kwargs):
        result = tracer.call(nid, fn, (tracer.wrap(residuals, fun),) + args,
                             kwargs)
        tracer.sample("leastsq.iterations", result.iterations)
        tracer.sample("leastsq.converged", float(result.converged))
        return result

    levenberg_marquardt.__wrapped__ = fn
    return levenberg_marquardt


_HOOKS = (
    ("uwbcal.sim", "calibrate", _calibrate),
    ("uwbcal.sim", "locate_tag", _locate_tag),
    ("uwbcal.autocalib", "levenberg_marquardt",
     lambda t, fn: _levenberg_marquardt(t, fn, "autocalib")),
    ("uwbcal.multilateration", "levenberg_marquardt",
     lambda t, fn: _levenberg_marquardt(t, fn, "multilateration")),
)


def _point2_counter(tracer: Tracer, fn):
    def __post_init__(self):
        tracer.counts["geometry.point2_new"] += 1
        fn(self)

    return __post_init__


@contextmanager
def installed(tracer: Tracer, uwbcal):
    """Install every wrapper that still has a target; yield the traced API
    the benchmark calls; restore every original name on exit."""
    undo = []
    try:
        targets = [(m, a, lambda t, fn, s=s: t.wrap(s, fn)) for m, a, s in _SPANS]
        for module_path, attr, make in targets + list(_HOOKS):
            try:
                module = importlib.import_module(module_path)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                continue
            setattr(module, attr, make(tracer, original))
            undo.append((module, attr, original))
            tracer.installed.add(f"{module_path}.{attr}")
        point2 = getattr(importlib.import_module("uwbcal.geometry"), "Point2",
                         None)
        post_init = None if point2 is None else \
            point2.__dict__.get("__post_init__")
        if post_init is not None:
            tracer.counts.setdefault("geometry.point2_new", 0)
            point2.__post_init__ = _point2_counter(tracer, post_init)
            undo.append((point2, "__post_init__", post_init))
            tracer.installed.add("uwbcal.geometry.Point2.__post_init__")
        yield SimpleNamespace(
            run_scenario=tracer.wrap("sim.run_scenario", uwbcal.run_scenario),
            summarize=tracer.wrap("sim.summarize", uwbcal.summarize),
            main=tracer.wrap("cli.main", uwbcal.cli.main))
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# Which wrapped names each per-module metric needs; a metric whose names are
# all gone reads "not measured" (null).
_NEEDS = {
    "ranging": ("uwbcal.sim.simulate_measurement",
                "uwbcal.protocol.simulate_measurement"),
    "protocol": ("uwbcal.sim.run_calibration_round",),
    "autocalib": ("uwbcal.sim.calibrate",),
    "leastsq": ("uwbcal.autocalib.levenberg_marquardt",
                "uwbcal.multilateration.levenberg_marquardt"),
    "multilateration": ("uwbcal.sim.locate_tag",),
    "geometry": ("uwbcal.sim.translation_errors", "uwbcal.sim.distance",
                 "uwbcal.geometry.Point2.__post_init__"),
    "sim": (),
    "cli": ("uwbcal.cli.write_trace_csv", "uwbcal.cli.read_trace_records"),
}

UNITS = {
    "ranging.draws": "count", "ranging.self_frac": "ratio",
    "protocol.rounds": "count", "protocol.round_ms_p50": "ms",
    "protocol.self_frac": "ratio",
    "autocalib.bootstrap_calls": "count", "autocalib.warm_calls": "count",
    "autocalib.warm_us_p50": "us", "autocalib.lm_iters_mean": "count",
    "autocalib.nonconverged": "count", "autocalib.self_frac": "ratio",
    "leastsq.calls": "count", "leastsq.iters_mean": "count",
    "leastsq.fun_evals": "count", "leastsq.converged_frac": "ratio",
    "leastsq.self_frac": "ratio",
    "multilateration.fixes": "count", "multilateration.failed": "count",
    "multilateration.fix_us_p50": "us",
    "multilateration.tag_err_median_m": "m",
    "multilateration.self_frac": "ratio",
    "geometry.point2_new": "count", "geometry.self_frac": "ratio",
    "sim.steps": "count", "sim.step_us_p50": "us", "sim.summarize_ms": "ms",
    "sim.self_frac": "ratio",
    "cli.write_trace_ms": "ms", "cli.read_trace_ms": "ms",
    "cli.bytes_written": "B", "cli.self_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _mean(values) -> float:
    return float(statistics.fmean(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, scale: list[float], outcomes) -> dict:
    """Per-module metrics of a traced run.

    ``scale`` holds each traced scenario's host-speed factor; span times are
    multiplied by it. Counts are per traced scenario; work a workload never
    does reads 0.
    """
    n = len(outcomes)
    name = np.asarray(tracer.name)
    parent = np.asarray(tracer.parent)
    scenario = np.asarray(tracer.scenario)
    dur = (np.asarray(tracer.end) - np.asarray(tracer.start)) \
        * np.asarray(scale)[scenario]
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                  minlength=len(dur))
    module = np.array([s.split(".")[0] for s in tracer.names])[name]

    def of(span):
        return name == tracer._ids.get(span, -1)

    def spans(span):
        return dur[of(span)]

    def per(count):
        return count / n

    total = float(spans(ROOT_SPAN).sum())
    # Each scenario's run_scenario time over its simulated steps.
    run_time = np.bincount(scenario[of("sim.run_scenario")],
                           weights=spans("sim.run_scenario"), minlength=n)
    step_times = [t / o.steps for t, o in zip(run_time, outcomes) if o.steps]
    m = {
        "ranging.draws": per(len(spans("ranging.simulate_measurement"))),
        "protocol.rounds": per(len(spans("protocol.run_calibration_round"))),
        "protocol.round_ms_p50":
            1e3 * _median(spans("protocol.run_calibration_round")),
        "autocalib.bootstrap_calls":
            per(len(spans("autocalib.calibrate.bootstrap"))),
        "autocalib.warm_calls": per(len(spans("autocalib.calibrate.warm"))),
        "autocalib.warm_us_p50":
            1e6 * _median(spans("autocalib.calibrate.warm")),
        "autocalib.lm_iters_mean":
            _mean(tracer.samples.get("autocalib.iterations", [])),
        "autocalib.nonconverged":
            per(tracer.counts.get("autocalib.nonconverged", 0)),
        "leastsq.calls": per(len(spans("leastsq.levenberg_marquardt"))),
        "leastsq.iters_mean":
            _mean(tracer.samples.get("leastsq.iterations", [])),
        "leastsq.fun_evals": per(len(spans("autocalib.residuals"))
                                 + len(spans("multilateration.residuals"))),
        "leastsq.converged_frac":
            _mean(tracer.samples.get("leastsq.converged", [])),
        "multilateration.fixes":
            per(len(spans("multilateration.locate_tag"))),
        "multilateration.failed":
            per(tracer.counts.get("multilateration.failed", 0)),
        "multilateration.fix_us_p50":
            1e6 * _median(spans("multilateration.locate_tag")),
        "multilateration.tag_err_median_m":
            _median([e for o in outcomes for e in o.tag_errors]),
        "geometry.point2_new":
            per(tracer.counts.get("geometry.point2_new", 0)),
        "sim.steps": per(sum(o.steps for o in outcomes)),
        "sim.step_us_p50": 1e6 * _median(step_times),
        "sim.summarize_ms": 1e3 * per(float(spans("sim.summarize").sum())),
        "cli.write_trace_ms":
            1e3 * per(float(spans("cli.write_trace_csv").sum())),
        "cli.read_trace_ms":
            1e3 * per(float(spans("cli.read_trace_records").sum())),
        "cli.bytes_written": per(sum(o.bytes_written for o in outcomes)),
    }
    for mod in MODULES:
        share = float(self_time[module == mod].sum()) / total if total else 0.0
        m[f"{mod}.self_frac"] = share
    for key in m:
        needs = _NEEDS[key.split(".")[0]]
        if needs and not tracer.installed.intersection(needs):
            m[key] = None
    return m

