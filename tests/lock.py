"""The behaviour lock: digests of every output of a fixed matrix of runs.

``test_lock.py`` recomputes the digests and compares them with
``lock.json``. A change that means to move outputs rewrites the file with

    PYTHONPATH=src python tests/lock.py

and names the entries that moved and why. The file records the numpy
version and the BLAS library it was made with: ``calibrate``'s solves go
through LAPACK, so another build may differ in the last bits, and on
another build the test only reports the outputs that differ. CI's 3.11
job installs the recorded numpy (``.github/workflows/ci.yml``, "Pin numpy
to the behaviour lock's build") and fails on that report, so a lock
regenerated on another numpy moves the pin with it.

The matrix runs ``uwbcal simulate`` then ``uwbcal summarize`` on:

- the default scenario, seeds 0-19;
- the ``long_drift`` and ``recal_dense`` benchmark shapes, the 3-anchor
  default layout and a 200-step run under ``--trigger threshold:0.3``, seeds
  0-3, and the 3-anchor layout also at seeds 156 and 216;
- ``wide``: 9 anchors at the explicit positions ``WIDE_ANCHORS`` with 3
  tags inside their hull, seeds 0-3. Its tag fixes sum over 9 anchors,
  more than the other shapes (at most 5 anchors) ever do;

and ``fit-model`` on the bundled sweep and ``calibrate`` on exact distances
of a 5-anchor layout, plain and with a prior, and on the same distances
measured through a ranging model, with that model and with both. Per run
it digests every file written, stdout, stderr and the exit code, and for a
simulation also ``summarize``'s output and, from the same config run
through the library, the bytes of the true and estimated positions and
the ``repr`` of its records, diagnostics and summary.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from uwbcal import cli
from uwbcal.sim import ScenarioConfig, Trigger, run_scenario, summarize

LOCK_FILE = Path(__file__).with_name("lock.json")

LONG_DRIFT = {"n_anchors": 5, "n_tags": 0, "n_steps": 500,
              "calibration_period": 250}
RECAL_DENSE = {"n_anchors": 5, "n_tags": 1, "n_steps": 10,
               "k_measurements": 50, "calibration_period": 1}
WIDE_ANCHORS = [[0, 0], [10, 0], [20, 1], [21, 10], [20, 19], [10, 20],
                [-1, 19], [0, 10], [11, 9]]
WIDE = {"n_anchors": 9, "n_tags": 3,
        "initial_anchor_positions": WIDE_ANCHORS,
        "initial_tag_positions": [[5, 5], [14, 12], [6, 15]]}

# (name, scenario, seeds, trigger or None)
SIMULATIONS = (
    ("default", {}, range(20), None),
    ("long_drift", LONG_DRIFT, range(4), None),
    ("recal_dense", RECAL_DENSE, range(4), None),
    ("three", {"n_anchors": 3}, (0, 1, 2, 3, 156, 216), None),
    ("threshold", {"n_steps": 200}, range(4), "threshold:0.3"),
    ("wide", WIDE, range(4), None),
)

# calibrate's input: exact distances of this layout, both directions
LAYOUT = ((0.0, 0.0), (9.0, 0.0), (16.0, 3.0), (13.0, 17.0), (2.0, 19.0))
PRIOR = [[0.0, 0.0], [9.2, 0.3], [15.7, 3.4], [13.3, 16.8], [1.8, 19.3]]
MODEL = {"slope": 1.05, "intercept_m": 0.4, "noise_std_m": 0.0,
         "n_samples": 2}
SWEEP = Path(cli.__file__).with_name("data") / "dwm1001_los_sweep.csv"


def environment() -> dict:
    """The numpy version and the name of the BLAS it was built with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = blas["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode
        name = "unknown"
    return {"numpy": np.__version__, "blas": name}


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def run_cli(*argv) -> dict:
    """The digests of ``cli.main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return {"exit": code, "stdout": digest(out.getvalue()),
            "stderr": digest(err.getvalue())}


def simulation(out_dir: Path, scenario: dict, seed: int, trigger) -> dict:
    out_dir.mkdir(parents=True)
    scenario_file = out_dir / "scenario.json"
    scenario_file.write_text(json.dumps(scenario), encoding="utf-8")
    flags = [] if trigger is None else ["--trigger", trigger]
    entry = run_cli("simulate", "--scenario", scenario_file, "--out-dir",
                    out_dir, "--seed", seed, *flags)
    for name in ("trace.csv", "summary.json", "config.json"):
        entry[name] = digest((out_dir / name).read_bytes())
    entry["summarize"] = run_cli("summarize", "--input",
                                 out_dir / "trace.csv")
    cfg = ScenarioConfig.from_dict(dict(scenario, seed=seed))
    if trigger is not None:
        cfg = dataclasses.replace(cfg, trigger=Trigger.parse(trigger))
    trace = run_scenario(cfg)
    entry["true_positions"] = digest(trace.true_positions.tobytes())
    entry["est_positions"] = digest(trace.est_positions.tobytes())
    entry["library"] = digest(repr((trace.records, trace.diagnostics,
                                    summarize(trace))))
    return entry


def with_output(path: Path, *argv) -> dict:
    """:func:`run_cli` on ``argv``, plus the digest of the file at
    ``path`` it writes."""
    entry = run_cli(*argv, "--output", path)
    entry["output"] = digest(path.read_bytes()) if path.exists() else None
    return entry


def entries(workdir: Path) -> dict:
    """Every run of the matrix by name, run in ``workdir``."""
    runs = {}
    for name, scenario, seeds, trigger in SIMULATIONS:
        for seed in seeds:
            runs[f"simulate {name} seed {seed}"] = simulation(
                workdir / f"{name} {seed}", scenario, seed, trigger)
    runs["fit-model"] = with_output(workdir / "fit.json", "fit-model",
                                    "--input", SWEEP)
    model = workdir / "model.json"
    model.write_text(json.dumps(MODEL), encoding="utf-8")
    prior = workdir / "prior.json"
    prior.write_text(json.dumps({"positions": PRIOR}), encoding="utf-8")
    exact, measured = workdir / "exact.csv", workdir / "measured.csv"
    for path, slope, intercept in ((exact, 1.0, 0.0),
                                   (measured, MODEL["slope"],
                                    MODEL["intercept_m"])):
        path.write_text("i,j,mean_m,std_m,count\n" + "".join(
            f"{i},{j},{slope * math.dist(a, b) + intercept:.17g},0,1\n"
            for i, a in enumerate(LAYOUT) for j, b in enumerate(LAYOUT)
            if i != j), encoding="utf-8")
    for name, flags in (("plain", [exact]),
                        ("prior", [exact, "--prior", prior]),
                        ("model", [measured, "--model", model]),
                        ("model and prior",
                         [measured, "--model", model, "--prior", prior])):
        runs[f"calibrate {name}"] = with_output(
            workdir / f"calibrate {name}.json", "calibrate", "--input",
            *flags)
    return runs


def moved(recorded: dict, runs: dict) -> list[str]:
    """``run: output`` for every digest of ``runs`` that differs from
    ``recorded``, and every run only one of them holds."""
    names = sorted(recorded.keys() | runs.keys())
    return [f"{name}: {key}" for name in names
            for key in sorted(recorded.get(name, {}).keys()
                              | runs.get(name, {}).keys())
            if recorded.get(name, {}).get(key) != runs.get(name, {}).get(key)]


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        runs = entries(Path(workdir))
    LOCK_FILE.write_text(json.dumps(
        {"environment": environment(), "runs": runs}, indent=1,
        sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} runs to {LOCK_FILE}")


if __name__ == "__main__":
    main()
