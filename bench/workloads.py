"""The three workloads: their scenarios, how one scenario runs, and the
checks its outputs must pass.

The untraced path touches only ``ScenarioConfig``, ``run_scenario``,
``summarize``, ``reference_model`` and ``cli.main``, so a refactor behind
those names cannot break it. Scenario seeds come from the workload seed
alone; the program only ever sees the generated configs or scenario files.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

# p90 needs at least ten scenarios beyond it.
MIN_SCENARIOS = 100
# Scenario seeds of workload seed s are s*SEED_STRIDE + 0, 1, ...; workload
# seed 0 thus starts with the acceptance ensemble, seeds 0-19.
SEED_STRIDE = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: dict           # scenario file contents; the seed is added per run
    via_cli: bool            # run through cli.main instead of the library
    nominal_scenario_s: float  # normalised cost of one scenario plus its probe

    def scenario_count(self, seconds: float) -> int:
        """Fixed work per run: about ``seconds`` at nominal host speed."""
        return max(MIN_SCENARIOS, round(seconds / self.nominal_scenario_s))

    def seeds(self, workload_seed: int, count: int) -> list[int]:
        base = workload_seed * SEED_STRIDE
        return list(range(base, base + count))

    def calibration_steps(self) -> set[int]:
        period = self.scenario.get("calibration_period", 10)
        steps = self.scenario.get("n_steps", 55)
        return {t for t in range(1, steps) if t % period == 0}


# Every workload keeps the packaged sensor model (noise 0.058 m). Ranging
# noise of 0.5 m and 2.0 m is left out on purpose: at the seed commit 3 and
# 9 of seeds 0-19 abort there with DegenerateGeometry (ROADMAP item 2), so
# fixing that would read as a steps_per_s regression.
WORKLOADS = {
    w.name: w for w in (
        Workload("default_ensemble", {}, False, 0.13),
        Workload("recal_dense",
                 {"n_anchors": 5, "n_tags": 1, "n_steps": 10,
                  "k_measurements": 50, "calibration_period": 1},
                 False, 0.29),
        Workload("long_drift",
                 {"n_anchors": 5, "n_tags": 0, "n_steps": 500,
                  "calibration_period": 250},
                 True, 0.115),
    )
}


@dataclass
class Outcome:
    """What one scenario did, as read from its outputs."""

    seed: int
    error: str | None = None      # exception type, if the scenario raised
    bug: bool = False             # raised something other than UwbCalError
    checks_failed: list[str] = field(default_factory=list)
    steps: int = 0
    calibrations: int = 0
    calibrations_failed: int = 0
    fixes: int = 0
    fixes_failed: int = 0
    anchor_errors: list[float] = field(default_factory=list)  # anchors 1..N-1
    tag_errors: list[float] = field(default_factory=list)     # successful fixes
    events: int = 0
    events_improved: int = 0
    bytes_written: int = 0
    digest: str = ""

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.checks_failed)

    @property
    def attempted_ops(self) -> int:
        return 1 + self.calibrations + self.fixes

    @property
    def failed_ops(self) -> int:
        return int(self.failed) + self.calibrations_failed + self.fixes_failed


class Raised:
    """Marker for a scenario that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.type = type(exc).__name__
        self.typed = any(c.__name__ == "UwbCalError" for c in type(exc).__mro__)


def _is_converge_note(text: str) -> bool:
    return "converge" in text


class LibraryRunner:
    """``run_scenario`` + ``summarize`` on a generated ``ScenarioConfig``."""

    def __init__(self, uwbcal, workload: Workload):
        self.uwbcal = uwbcal
        self.workload = workload

    def prepare(self, seed: int):
        return self.uwbcal.ScenarioConfig.from_dict(
            dict(self.workload.scenario, seed=seed))

    @staticmethod
    def execute(api, cfg):
        try:
            trace = api.run_scenario(cfg)
            return trace, api.summarize(trace)
        except Exception as exc:  # counted as a failed scenario
            return Raised(exc)

    def check(self, seed: int, raw) -> Outcome:
        out = Outcome(seed)
        if isinstance(raw, Raised):
            out.error, out.bug = raw.type, not raw.typed
            return out
        trace, summary = raw
        records = trace.records
        fail = out.checks_failed.append
        scheduled = self.workload.calibration_steps()
        n_steps = self.workload.scenario.get("n_steps", 55)
        out.steps = len(records)
        if [r.step for r in records] != list(range(n_steps)):
            fail("steps are not 0..n_steps-1")
        calibrated = set()
        for r in records:
            if r.anchor_errors[0] != 0.0:
                fail(f"step {r.step}: anchor 0 error {r.anchor_errors[0]!r}")
            if not all(math.isfinite(e) for e in r.anchor_errors):
                fail(f"step {r.step}: non-finite anchor error")
            if not math.isfinite(r.rotation_error):
                fail(f"step {r.step}: non-finite rotation error")
            if any(math.isinf(e) for e in r.tag_errors):
                fail(f"step {r.step}: infinite tag error")
            if r.calibrated:
                calibrated.add(r.step)
            out.anchor_errors.extend(r.anchor_errors[1:])
            out.fixes += len(r.tag_errors)
            for e in r.tag_errors:
                if math.isnan(e):
                    out.fixes_failed += 1
                else:
                    out.tag_errors.append(e)
        if calibrated != scheduled:
            fail(f"calibrated at {sorted(calibrated)}, scheduled "
                 f"{sorted(scheduled)}")
        if summary.n_steps != len(records) \
                or summary.n_calibrations != len(calibrated):
            fail("summary counts disagree with the trace")
        out.calibrations = 1 + len(calibrated)
        out.calibrations_failed = sum(
            1 for d in trace.diagnostics if _is_converge_note(str(d)))
        for e in summary.calibration_events:
            out.events += 1
            out.events_improved += \
                e.mean_anchor_error_after < e.mean_anchor_error_before
        out.digest = hashlib.sha256(
            repr((records, trace.diagnostics, summary)).encode()).hexdigest()
        return out


# summarize reads errors back from the 9-significant-digit trace.csv, so its
# quartiles and means may differ from summary.json by a few units in the 9th
# digit (a mean of four errors up to four times its size: 2e-8 relative).
SIG9_REL_TOL = 5e-8


def _sig9_close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=SIG9_REL_TOL, abs_tol=1e-12)


def _json_close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_close, a, b))
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and _sig9_close(float(a), float(b)))
    return a == b


class CliRunner:
    """``uwbcal simulate`` then ``uwbcal summarize`` on its trace.csv."""

    def __init__(self, workload: Workload, workdir: Path):
        self.workload = workload
        self.scenario_file = workdir / "scenario.json"
        self.out_dir = workdir / "sim"
        workdir.mkdir(parents=True, exist_ok=True)
        self.scenario_file.write_text(json.dumps(workload.scenario) + "\n",
                                      encoding="utf-8")

    def prepare(self, seed: int):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        simulate = ["simulate", "--scenario", str(self.scenario_file),
                    "--out-dir", str(self.out_dir), "--seed", str(seed)]
        summarize = ["summarize", "--input", str(self.out_dir / "trace.csv")]
        return simulate, summarize

    @staticmethod
    def execute(api, argvs):
        simulate, summarize = argvs
        sim_err, sum_out = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(sim_err):
                rc_sim = api.main(simulate)
            with contextlib.redirect_stdout(sum_out), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc_sum = api.main(summarize)
        except (Exception, SystemExit) as exc:
            return Raised(exc)
        return rc_sim, rc_sum, sim_err.getvalue(), sum_out.getvalue()

    def check(self, seed: int, raw) -> Outcome:
        out = Outcome(seed)
        if isinstance(raw, Raised):
            out.error, out.bug = raw.type, not raw.typed
            return out
        rc_sim, rc_sum, notes, summarize_text = raw
        fail = out.checks_failed.append
        if rc_sim != 0 or rc_sum != 0:
            fail(f"cli.main returned {rc_sim} (simulate), {rc_sum} (summarize)")
            return out
        trace_path = self.out_dir / "trace.csv"
        summary_path = self.out_dir / "summary.json"
        out.bytes_written = sum(p.stat().st_size
                                for p in self.out_dir.iterdir() if p.is_file())
        trace_bytes = trace_path.read_bytes()
        summary_bytes = summary_path.read_bytes()
        steps, calibrated = set(), set()
        rows = csv.DictReader(io.StringIO(trace_bytes.decode("utf-8")))
        try:
            for row in rows:
                step = int(row["step"])
                steps.add(step)
                rotation = float(row["rotation_error_rad"])
                if not math.isfinite(rotation):
                    fail(f"step {step}: non-finite rotation error")
                if row["calibrated"] == "1":
                    calibrated.add(step)
                if row["node_kind"] == "anchor":
                    err = float(row["error_m"])
                    if not math.isfinite(err):
                        fail(f"step {step}: non-finite anchor error")
                    if row["node_id"] == "0":
                        if err != 0.0:
                            fail(f"step {step}: anchor 0 error {err!r}")
                    else:
                        out.anchor_errors.append(err)
                else:
                    out.fixes += 1
                    if row["error_m"] == "":
                        out.fixes_failed += 1
                    elif not math.isfinite(float(row["error_m"])):
                        fail(f"step {step}: non-finite tag error")
                    else:
                        out.tag_errors.append(float(row["error_m"]))
        except (KeyError, ValueError) as exc:
            fail(f"trace.csv unreadable: {exc!r}")
            return out
        n_steps = self.workload.scenario.get("n_steps", 55)
        out.steps = len(steps)
        if steps != set(range(n_steps)):
            fail("steps are not 0..n_steps-1")
        if calibrated != self.workload.calibration_steps():
            fail(f"calibrated at {sorted(calibrated)}")
        try:
            written = json.loads(summary_bytes)
            printed = json.loads(summarize_text)
        except json.JSONDecodeError as exc:
            fail(f"summary is not JSON: {exc}")
            return out
        if not _json_close(written, printed):
            fail("summarize output differs from summary.json beyond 9 digits")
        out.calibrations = 1 + len(calibrated)
        out.calibrations_failed = sum(
            1 for line in notes.splitlines() if _is_converge_note(line))
        for e in written.get("calibration_events", []):
            out.events += 1
            out.events_improved += \
                e["mean_anchor_error_after"] < e["mean_anchor_error_before"]
        out.digest = hashlib.sha256(trace_bytes + summary_bytes
                                    + summarize_text.encode()).hexdigest()
        return out


def make_runner(uwbcal, workload: Workload, workdir: Path):
    if workload.via_cli:
        return CliRunner(workload, workdir)
    return LibraryRunner(uwbcal, workload)


def behaviour_lock(main, workdir: Path, seeds=range(20)) -> dict:
    """SHA-256 of trace.csv and summary.json of the default scenario."""
    scenario = workdir / "default.json"
    workdir.mkdir(parents=True, exist_ok=True)
    scenario.write_text("{}\n", encoding="utf-8")
    digests = {}
    for seed in seeds:
        out_dir = workdir / f"lock{seed}"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(["simulate", "--scenario", str(scenario),
                       "--out-dir", str(out_dir), "--seed", str(seed)])
        digests[str(seed)] = None if rc != 0 else {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("trace.csv", "summary.json")}
        shutil.rmtree(out_dir, ignore_errors=True)
    return digests
