"""Command-line front end.

Commands:
  fit-model   fit a ranging bias model from a `true_m,measured_m` CSV
  calibrate   estimate anchor positions from an `i,j,mean_m,std_m,count` CSV
  simulate    run a scenario file, writing trace.csv / summary.json / config.json
  summarize   print distribution statistics for a trace CSV

Exit codes (``EXIT_CODES`` maps error types to them): 0 success, 2 input
error, 3 fit failure, 4 non-convergence, 5 geometry failure. All numbers in
output files carry 9 significant digits and no timestamps, so identical
inputs give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

from .autocalib import CalibrationResult, calibrate, load_distance_csv
from .errors import (FLOAT_FORMAT, CollinearAnchors, ConfigError,
                     CsvFormatError, DegenerateFit, DegenerateGeometry,
                     EmptyTrace, InsufficientData, InvalidTiming,
                     NotConverged, SingularUpdate, UwbCalError, echo,
                     xy_pair)
from .ranging import RangingModel, fit_model, load_samples
from .sim import (ScenarioConfig, parse_trigger, read_trace_records,
                  run_scenario, summarize, write_trace_csv)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FIT = 3
EXIT_NOT_CONVERGED = 4
EXIT_GEOMETRY = 5

# The only place an error becomes an exit code; the first matching row wins.
# ProtocolViolation, like any exception without a row, ends in a traceback:
# only the message-level model of the round in the tests raises it.
EXIT_CODES = (
    ((ConfigError, CsvFormatError, EmptyTrace, InvalidTiming, OSError),
     EXIT_INPUT),
    ((InsufficientData, DegenerateFit), EXIT_FIT),
    ((NotConverged, SingularUpdate), EXIT_NOT_CONVERGED),
    ((DegenerateGeometry, CollinearAnchors), EXIT_GEOMETRY),
)


def _round_floats(obj):
    if isinstance(obj, float):
        return float(FLOAT_FORMAT % obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _dump_json(obj, path=None) -> str:
    """``obj`` as indented JSON with every float through ``FLOAT_FORMAT``,
    written to ``path`` when given; ValueError for a NaN or infinite float,
    which standard JSON cannot hold."""
    text = json.dumps(_round_floats(obj), indent=2, allow_nan=False) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def _read_json(path):
    """The JSON document in ``path``; invalid JSON is a :class:`ConfigError`
    naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigError([f"{path}: invalid JSON: {exc}"]) from exc


def cmd_fit_model(args) -> int:
    model = fit_model(load_samples(args.input))
    _dump_json(model.to_dict(), args.output)
    print(f"fitted {model.n_samples} samples: slope={model.slope:.6g} "
          f"intercept={model.intercept:.6g} m noise_std={model.noise_std:.6g} m")
    return EXIT_OK


def _load_prior(path, n_anchors: int) -> list[tuple[float, float]]:
    doc = _read_json(path)
    positions = doc.get("positions") if isinstance(doc, dict) else doc
    if not isinstance(positions, list):
        raise ConfigError([f"positions: not a list: {echo(repr(positions))}"])
    prior = [xy_pair(f"positions[{i}]", p) for i, p in enumerate(positions)]
    if len(prior) != n_anchors:
        raise ConfigError([f"positions: {len(prior)} entries for "
                           f"{n_anchors} anchors"])
    # calibrate() fits onto the prior's offsets from entry 0, which must be
    # finite
    x0, y0 = prior[0]
    for i, (x, y) in enumerate(prior):
        if not (math.isfinite(x - x0) and math.isfinite(y - y0)):
            raise ConfigError([f"positions[{i}]: offset from positions[0] "
                               f"overflows"])
    return prior


def _result_dict(result: CalibrationResult) -> dict:
    """The calibrate output; an rms residual that overflowed is null."""
    rms = result.rms_residual
    return {
        "positions": result.positions.tolist(),
        "rms_residual_m": rms if math.isfinite(rms) else None,
        "iterations": result.iterations,
        "converged": result.converged,
    }


def cmd_calibrate(args) -> int:
    matrix = load_distance_csv(args.input)
    model = RangingModel.identity() if args.model is None \
        else RangingModel.from_dict(_read_json(args.model))
    prior = None if args.prior is None \
        else _load_prior(args.prior, matrix.n_anchors)
    try:
        result = calibrate(matrix, model, prior=prior)
    except NotConverged as exc:
        _dump_json(_result_dict(exc.result), args.output)
        raise
    _dump_json(_result_dict(result), args.output)
    print(f"calibrated {matrix.n_anchors} anchors in {result.iterations} "
          f"iterations, rms residual {result.rms_residual:.6g} m")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = ScenarioConfig.from_dict(_read_json(args.scenario))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.trigger is not None:
        cfg = dataclasses.replace(
            cfg, trigger=parse_trigger("--trigger", args.trigger))

    trace = run_scenario(cfg, bias_correction=not args.no_bias_correction)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, out_dir / "trace.csv")
    _dump_json(summarize(trace).to_dict(), out_dir / "summary.json")
    effective = _dump_json(trace.config, out_dir / "config.json")
    print(effective, end="")
    for diag in trace.diagnostics:
        print(f"note: {diag}", file=sys.stderr)
    return EXIT_OK


def cmd_summarize(args) -> int:
    print(_dump_json(summarize(read_trace_records(args.input)).to_dict()),
          end="")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused:
    parsing does not change it, and each command looks up what it calls at
    call time."""
    parser = argparse.ArgumentParser(
        prog="uwbcal",
        description="UWB anchor autocalibration, tag localization, and "
                    "mobile-deployment simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "fit-model", help="fit a linear ranging bias model from samples",
        description="Fit measured = slope*true + intercept by least squares. "
                    "Input CSV: header 'true_m,measured_m', one pair per row. "
                    "Output JSON: slope, intercept_m, noise_std_m, n_samples.")
    p.add_argument("--input", required=True, help="ranging samples CSV")
    p.add_argument("--output", required=True, help="model JSON to write")
    p.set_defaults(func=cmd_fit_model)

    p = sub.add_parser(
        "calibrate", help="estimate anchor positions from distance statistics",
        description="Input CSV: header 'i,j,mean_m,std_m,count', one directed "
                    "pair per row, every pair present in at least one "
                    "direction. Output JSON: positions (anchor frame, anchor "
                    "0 at the origin), rms_residual_m, iterations, converged.")
    p.add_argument("--input", required=True, help="distance statistics CSV")
    p.add_argument("--model", help="ranging model JSON used to bias-correct "
                                   "the means (default: no correction)")
    p.add_argument("--prior", help="JSON with prior positions "
                                   "('positions' key or a bare list); sets "
                                   "the result's frame: the calibrated shape "
                                   "is turned about anchor 0 (and mirrored "
                                   "where that fits better) onto the prior, "
                                   "instead of keeping anchor 1 on the "
                                   "x-axis. It does not set the start")
    p.add_argument("--output", required=True, help="result JSON to write")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser(
        "simulate", help="run a scenario file",
        description="Scenario JSON mirrors the simulator config; unknown keys "
                    "are rejected and omitted keys take documented defaults "
                    "({} runs the default 4-anchor/3-tag/55-step scenario). "
                    "Writes trace.csv, summary.json and config.json into the "
                    "output directory and echoes the effective config.")
    p.add_argument("--scenario", "--input", dest="scenario", required=True,
                   help="scenario JSON file")
    p.add_argument("--out-dir", "--output", dest="out_dir", required=True,
                   help="output directory")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--trigger", help="override the calibration trigger: "
                                     "'periodic' or 'threshold:<m>'")
    p.add_argument("--no-bias-correction", action="store_true",
                   help="skip bias correction of simulated ranges (study "
                        "biased operation)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "summarize", help="print statistics for a simulation trace",
        description="Input: trace.csv as written by 'simulate'. Prints pooled "
                    "anchor/tag translation error quartiles, rotation error "
                    "quartiles, and per-calibration before/after means as "
                    "JSON.")
    p.add_argument("--input", required=True, help="trace CSV from simulate")
    p.set_defaults(func=cmd_summarize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UwbCalError, OSError) as exc:
        code = next((code for types, code in EXIT_CODES
                     if isinstance(exc, types)), None)
        if code is None:
            raise
        if isinstance(exc, ConfigError):
            messages = exc.violations
        elif isinstance(exc, (CsvFormatError, EmptyTrace)):
            messages = [f"{args.input}: {exc}"]
        else:
            messages = [str(exc)]
        for message in messages:
            print(f"error: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
