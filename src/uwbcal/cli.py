"""Command-line front end.

Commands:
  fit-model   fit a ranging bias model from a `true_m,measured_m` CSV
  calibrate   estimate anchor positions from an `i,j,mean_m,std_m,count` CSV
  simulate    run a scenario file, writing trace.csv / summary.json / config.json
  summarize   print distribution statistics for a trace CSV

Exit codes: 0 success, 2 input error, 3 fit failure, 4 non-convergence,
5 geometry failure. All numbers in output files carry 9 significant digits
and no timestamps, so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .autocalib import CalibrationResult, calibrate, load_distance_csv
from .errors import (ConfigError, CsvFormatError, DegenerateFit,
                     DegenerateGeometry, EmptyTrace, InsufficientData,
                     NotConverged, xy_pair)
from .ranging import RangingModel, fit_model, load_samples
from .sim import (ScenarioConfig, Trigger, _round_floats, read_trace_records,
                  run_scenario, summarize, summary_to_json, write_trace_csv)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FIT = 3
EXIT_NOT_CONVERGED = 4
EXIT_GEOMETRY = 5


def _dump_json(obj, path=None) -> str:
    text = json.dumps(_round_floats(obj, 9), indent=2) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_fit_model(args) -> int:
    try:
        samples = load_samples(args.input)
    except OSError as exc:
        return _fail(str(exc), EXIT_INPUT)
    except CsvFormatError as exc:
        return _fail(f"{args.input}: {exc}", EXIT_INPUT)
    try:
        model = fit_model(samples)
    except (InsufficientData, DegenerateFit) as exc:
        return _fail(str(exc), EXIT_FIT)
    _dump_json(model.to_dict(), args.output)
    print(f"fitted {model.n_samples} samples: slope={model.slope:.6g} "
          f"intercept={model.intercept:.6g} m noise_std={model.noise_std:.6g} m")
    return EXIT_OK


def _load_model(path) -> RangingModel:
    with open(path, encoding="utf-8") as f:
        return RangingModel.from_dict(json.load(f))


def _load_prior(path) -> list[tuple[float, float]]:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    positions = doc["positions"] if isinstance(doc, dict) else doc
    if not isinstance(positions, list):
        raise ConfigError([f"positions: not a list: {positions!r}"])
    return [xy_pair(f"positions[{i}]", p) for i, p in enumerate(positions)]


def _result_dict(result: CalibrationResult) -> dict:
    return {
        "positions": [[p.x, p.y] for p in result.positions],
        "rms_residual_m": result.rms_residual,
        "iterations": result.iterations,
        "converged": result.converged,
    }


def _degenerate_message(exc: DegenerateGeometry) -> str:
    which = "" if exc.anchor_id is None else f" (anchor {exc.anchor_id})"
    return f"degenerate geometry{which}: {exc}"


def cmd_calibrate(args) -> int:
    try:
        matrix = load_distance_csv(args.input)
    except OSError as exc:
        return _fail(str(exc), EXIT_INPUT)
    except CsvFormatError as exc:
        return _fail(f"{args.input}: {exc}", EXIT_INPUT)
    try:
        model = RangingModel.identity() if args.model is None \
            else _load_model(args.model)
        prior = None if args.prior is None else _load_prior(args.prior)
    except (OSError, KeyError, ValueError, json.JSONDecodeError,
            ConfigError) as exc:
        return _fail(f"bad model/prior file: {exc}", EXIT_INPUT)

    try:
        result = calibrate(matrix, model, prior=prior)
    except NotConverged as exc:
        _dump_json(_result_dict(exc.result), args.output)
        return _fail(str(exc), EXIT_NOT_CONVERGED)
    except DegenerateGeometry as exc:
        return _fail(_degenerate_message(exc), EXIT_GEOMETRY)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
    _dump_json(_result_dict(result), args.output)
    print(f"calibrated {matrix.n_anchors} anchors in {result.iterations} "
          f"iterations, rms residual {result.rms_residual:.6g} m")
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        with open(args.scenario, encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        return _fail(str(exc), EXIT_INPUT)
    except json.JSONDecodeError as exc:
        return _fail(f"{args.scenario}: invalid JSON: {exc}", EXIT_INPUT)
    try:
        cfg = ScenarioConfig.from_dict(raw)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.trigger is not None:
            try:
                trigger = Trigger.parse(args.trigger)
            except ValueError as exc:
                return _fail(f"--trigger: {exc}", EXIT_INPUT)
            cfg = dataclasses.replace(cfg, trigger=trigger)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, TypeError, KeyError) as exc:
        return _fail(f"bad scenario file: {exc}", EXIT_INPUT)

    try:
        trace = run_scenario(cfg, bias_correction=not args.no_bias_correction)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return EXIT_INPUT
    except DegenerateGeometry as exc:
        return _fail(_degenerate_message(exc), EXIT_GEOMETRY)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, out_dir / "trace.csv")
    (out_dir / "summary.json").write_text(
        summary_to_json(summarize(trace)) + "\n", encoding="utf-8")
    effective = _dump_json(trace.config, out_dir / "config.json")
    print(effective, end="")
    for diag in trace.diagnostics:
        print(f"note: {diag}", file=sys.stderr)
    return EXIT_OK


def cmd_summarize(args) -> int:
    try:
        records = read_trace_records(args.input)
        stats = summarize(records)
    except OSError as exc:
        return _fail(str(exc), EXIT_INPUT)
    except (CsvFormatError, EmptyTrace) as exc:
        return _fail(f"{args.input}: {exc}", EXIT_INPUT)
    print(summary_to_json(stats))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
                                   "('positions' key or a bare list); warm-"
                                   "starts the refinement and drops the "
                                   "anchor-1 x-axis rule")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
