"""uwbcal benchmark: three workloads, host-speed-bracketed timings, and a
separate traced run that splits the time by module.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root (or any checkout of it); it imports the
package from ``src/`` of that checkout and exits with code 2, printing no
result, when there is none. One client runs one scenario at a time (closed
loop). Each run does a fixed amount of work: a list of distinct scenario
seeds derived from ``--seed``, sized to take about ``--seconds`` on the
reference host but never fewer than 100 scenarios, so that p90 has ten
scenarios beyond it. Counts and answers therefore repeat exactly for a seed.

Timings are host-speed normalised. On a shared 2-vCPU host identical code
drifts by up to 1.8x within tens of seconds, so every scenario is timed
between two runs of a frozen reference kernel (probe.py) and divided by the
geometric mean of the two, then multiplied by the kernel's nominal time.
setup_s is normalised the same way by a fresh-interpreter reference
(fresh_probe.py) launched right before and after each fresh set-up
(fresh_setup.py); the launches are spread over the run. Raw times are
printed and stored beside the normalised ones.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
scenario untraced and then traced, checks that both give identical outputs,
and prints the per-module metrics and ``trace.overhead_frac``. ``--workload
all`` runs every workload both ways, each in its own process, and prints
everything. The last line of standard output is one JSON object; details go
to ``bench/out/``. The exit code is 1 when an output check fails.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Single-threaded BLAS before numpy loads. Bytecode is cached, as for an
# installed package, but inside the benchmark's own output directory rather
# than beside the sources; children inherit all of this.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
sys.pycache_prefix = os.environ["PYTHONPYCACHEPREFIX"]
sys.dont_write_bytecode = False

# Everything below imports numpy, so it comes after the settings above.
import argparse
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import time
from types import SimpleNamespace

import numpy as np

from probe import NOMINAL_FRESH_PROBE_S, NOMINAL_PROBE_S, run_probe
from tracing import ROOT_SPAN, Tracer, installed, layer_metrics
from tracing import UNITS as LAYER_UNITS
from workloads import SEED_STRIDE, WORKLOADS, behaviour_lock, make_runner

SETUP_LAUNCHES = 9
TRACED_SCENARIOS = 40
CHILD_TIMEOUT_S = 170

E2E_UNITS = {
    "setup_s": "s", "steps_per_s": "1/s", "scenario_ms_p50": "ms",
    "scenario_ms_p90": "ms", "ok_frac": "ratio", "peak_rss_mb": "MB",
    "anchor_err_median_m": "m", "calib_improved_frac": "ratio",
}


def load_program():
    """Import uwbcal from this checkout's src/, or None if it has none."""
    src = ROOT / "src"
    if not (src / "uwbcal" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import uwbcal
    import uwbcal.cli
    if not Path(uwbcal.__file__).resolve().is_relative_to(src.resolve()):
        return None
    return uwbcal


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "machine": platform.machine()}


def probe_s() -> float:
    gc.collect()
    t0 = time.perf_counter()
    run_probe()
    return time.perf_counter() - t0


def timed(fn, *args):
    gc.collect()
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def bracket(raw_s: float, before: float, after: float, nominal: float) -> float:
    return raw_s / math.sqrt(before * after) * nominal


def _launch(script: str, *args: str) -> float:
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, str(BENCH / script), *args],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=60, check=True)
    return float(proc.stdout.split()[-1]) - t0


def fresh_setup(scenario_json: str) -> tuple[float, float, float]:
    """(set-up, reference before, reference after), all raw seconds."""
    before = _launch("fresh_probe.py")
    setup = _launch("fresh_setup.py", str(ROOT / "src"), scenario_json)
    after = _launch("fresh_probe.py")
    return setup, before, after


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p90(values) -> float:
    return float(np.percentile(values, 90)) if values else 0.0


def _counts(outcomes) -> dict:
    return {
        "attempted": sum(o.attempted_ops for o in outcomes),
        "failed": sum(o.failed_ops for o in outcomes),
        "scenarios": len(outcomes),
        "scenarios_failed": sum(o.failed for o in outcomes),
        "calibrations": sum(o.calibrations for o in outcomes),
        "calibrations_failed": sum(o.calibrations_failed for o in outcomes),
        "fixes": sum(o.fixes for o in outcomes),
        "fixes_failed": sum(o.fixes_failed for o in outcomes),
        "errors": sorted({o.error for o in outcomes if o.error}),
    }


def _correct(outcomes) -> bool:
    return not any(o.checks_failed or o.bug for o in outcomes)


def run_untraced(uwbcal, workload, seeds, workdir) -> dict:
    runner = make_runner(uwbcal, workload, workdir)
    api = SimpleNamespace(run_scenario=uwbcal.run_scenario,
                          summarize=uwbcal.summarize, main=uwbcal.cli.main)
    first = json.dumps(dict(workload.scenario, seed=seeds[0]))

    # Warm-up outside the record: bytecode caches, lazy imports, allocator.
    fresh_setup(first)
    runner.execute(api, runner.prepare(seeds[-1] + 1))
    for _ in range(3):
        probe_s()
    gc.collect()
    gc.freeze()

    launch_at = {round(j * len(seeds) / SETUP_LAUNCHES)
                 for j in range(SETUP_LAUNCHES)}
    setups, raw_times, norm_times, probes, outcomes = [], [], [], [], []
    left = probe_s()
    probes.append(left)
    for i, seed in enumerate(seeds):
        if i in launch_at:
            setups.append(fresh_setup(first))
            left = probe_s()
            probes.append(left)
        prepared = runner.prepare(seed)
        elapsed, raw = timed(runner.execute, api, prepared)
        right = probe_s()
        probes.append(right)
        outcome = runner.check(seed, raw)
        outcomes.append(outcome)
        if not outcome.failed:
            raw_times.append(elapsed)
            norm_times.append(bracket(elapsed, left, right, NOMINAL_PROBE_S))
        left = right
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    steps = sum(o.steps for o in outcomes if not o.failed)
    pooled = [e for o in outcomes for e in o.anchor_errors]
    events = sum(o.events for o in outcomes)
    improved = sum(o.events_improved for o in outcomes)
    counts = _counts(outcomes)
    setup_norm = [bracket(s, b, a, NOMINAL_FRESH_PROBE_S)
                  for s, b, a in setups]
    metrics = {
        "setup_s": _median(setup_norm),
        "steps_per_s": steps / sum(norm_times) if norm_times else 0.0,
        "scenario_ms_p50": 1e3 * _median(norm_times),
        "scenario_ms_p90": 1e3 * _p90(norm_times),
        "ok_frac": 1.0 - counts["failed"] / counts["attempted"],
        "peak_rss_mb": peak_rss_mb,
        "anchor_err_median_m": _median(pooled),
        "calib_improved_frac": improved / events if events else 0.0,
    }
    raw = {
        "setup_s": _median([s for s, _, _ in setups]),
        "steps_per_s": steps / sum(raw_times) if raw_times else 0.0,
        "scenario_ms_p50": 1e3 * _median(raw_times),
        "scenario_ms_p90": 1e3 * _p90(raw_times),
    }
    return {
        "metrics": metrics, "raw": raw, "counts": counts,
        "correct": _correct(outcomes),
        "timed_scenarios": len(norm_times), "steps": steps,
        "calibration_events": {"improved": improved, "total": events},
        "checks_failed": {o.seed: o.checks_failed
                          for o in outcomes if o.checks_failed},
        "setups": [{"setup_s": s, "ref_before_s": b, "ref_after_s": a}
                   for s, b, a in setups],
        "probe_s": probes, "scenario_s": raw_times,
    }


def run_traced(uwbcal, workload, seeds, workdir) -> dict:
    runner = make_runner(uwbcal, workload, workdir)
    plain = SimpleNamespace(run_scenario=uwbcal.run_scenario,
                            summarize=uwbcal.summarize, main=uwbcal.cli.main)
    tracer = Tracer()
    root = tracer.name_id(ROOT_SPAN)

    warm = Tracer()
    runner.execute(plain, runner.prepare(seeds[-1] + 1))
    with installed(warm, uwbcal) as api:
        runner.execute(api, runner.prepare(seeds[-1] + 1))
    for _ in range(3):
        probe_s()
    gc.collect()
    gc.freeze()

    scale, untraced_s, traced_s, outcomes = [], 0.0, 0.0, []
    left = probe_s()
    for i, seed in enumerate(seeds):
        elapsed, raw = timed(runner.execute, plain, runner.prepare(seed))
        mid = probe_s()
        plain_outcome = runner.check(seed, raw)
        untraced_s += bracket(elapsed, left, mid, NOMINAL_PROBE_S)

        prepared = runner.prepare(seed)
        tracer.current = i
        with installed(tracer, uwbcal) as api:
            elapsed, raw = timed(tracer.call, root, runner.execute,
                                 (api, prepared))
        right = probe_s()
        outcome = runner.check(seed, raw)
        if (outcome.digest, outcome.error) != \
                (plain_outcome.digest, plain_outcome.error):
            outcome.checks_failed.append("traced outputs differ from untraced")
        outcomes.append(outcome)
        scale.append(NOMINAL_PROBE_S / math.sqrt(mid * right))
        traced_s += elapsed * scale[-1]
        left = right

    layers = layer_metrics(tracer, scale, outcomes)
    layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"spans_{workload.name}.npz")
    counts = _counts(outcomes)
    return {
        "metrics": layers, "counts": counts, "correct": _correct(outcomes),
        "traced_scenarios": len(seeds), "spans": len(tracer.start),
        "installed": sorted(tracer.installed),
        "checks_failed": {o.seed: o.checks_failed
                          for o in outcomes if o.checks_failed},
    }


def compare_lock(uwbcal, workdir) -> dict:
    """Behaviour lock: digests of the default scenario, seeds 0-19, against
    golden_digests.json. Reported, never gated on."""
    golden = json.loads((BENCH / "golden_digests.json").read_text())
    digests = behaviour_lock(uwbcal.cli.main, workdir / "lock")
    differ = sorted((int(s) for s in golden if digests.get(s) != golden[s]))
    return {"outputs_identical": not differ, "differing_seeds": differ}


def _fmt(value) -> str:
    return "not measured" if value is None else f"{value:.6g}"


def report(workload, trace: int, seed: int, n: int, result: dict) -> dict:
    """Print every metric by name and unit; return the result line."""
    units = LAYER_UNITS if trace else E2E_UNITS
    raw = result.get("raw", {})
    c = result["counts"]
    env = result["environment"]
    print(f"# {workload.name} trace={trace} seed={seed} scenarios={n}")
    print(f"# python {env['python']}, numpy {env['numpy']}, blas {env['blas']}"
          f", nproc {env['nproc']}")
    for name, value in result["metrics"].items():
        extra = f"  (raw {_fmt(raw[name])} {units[name]})" if name in raw else ""
        print(f"{workload.name} {name} = {_fmt(value)} {units[name]}{extra}")
    if not trace:
        print(f"{workload.name} p90 over {result['timed_scenarios']} "
              f"scenarios ({result['timed_scenarios'] // 10} beyond p90)")
    print(f"{workload.name} ops: scenarios {c['scenarios'] - c['scenarios_failed']}"
          f"/{c['scenarios']}, calibrations "
          f"{c['calibrations'] - c['calibrations_failed']}/{c['calibrations']}"
          f", fixes {c['fixes'] - c['fixes_failed']}/{c['fixes']}"
          + (f", errors {c['errors']}" if c["errors"] else ""))
    if "lock" in result:
        lock = result["lock"]
        print(f"{workload.name} outputs_identical = {lock['outputs_identical']}"
              + (f" (seeds differing: {lock['differing_seeds']})"
                 if lock["differing_seeds"] else ""))
    for seed_, failures in result["checks_failed"].items():
        print(f"{workload.name} CHECK FAILED seed {seed_}: {failures[:3]}")
    return {"correct": result["correct"], "attempted": c["attempted"],
            "failed": c["failed"],
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in result["metrics"].items()}}


def run_one(args, uwbcal) -> int:
    workload = WORKLOADS[args.workload]
    n = args.scenarios or workload.scenario_count(args.seconds)
    if args.trace:
        n = min(n, args.scenarios or TRACED_SCENARIOS)
    seeds = workload.seeds(args.seed, n)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            result = run_traced(uwbcal, workload, seeds, workdir)
        else:
            result = run_untraced(uwbcal, workload, seeds, workdir)
            if workload.name == "default_ensemble":
                result["lock"] = compare_lock(uwbcal, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(workload=workload.name, seed=args.seed, trace=args.trace,
                  scenario_seeds=[seeds[0], seeds[-1]],
                  environment=environment())
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result_{workload.name}_trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    line = report(workload, args.trace, args.seed, n, result)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# Self-time shares that show each workload stresses what it was chosen for.
STRESS = {
    "recal_dense": ("protocol",),
    "default_ensemble": ("multilateration", "leastsq"),
    "long_drift": ("sim", "geometry", "cli"),
}


def run_all(args) -> int:
    """Every workload untraced and traced, each in a process of its own."""
    lines, exit_code = {}, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.scenarios:
                cmd += ["--scenarios", str(args.scenarios)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=CHILD_TIMEOUT_S)
            out = proc.stdout.strip().splitlines()
            print("\n".join(out[:-1]))
            if proc.returncode not in (0, 1) or not out:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            exit_code = max(exit_code, proc.returncode)
            lines[(name, trace)] = json.loads(out[-1])

    def share(name, modules):
        layer = lines[(name, 1)]["metrics"]
        values = [layer[f"{m}.self_frac"]["value"] for m in modules]
        return None if None in values else sum(values)

    print("# stress check: self-time share of the modules each workload was "
          "chosen for")
    for chosen, modules in STRESS.items():
        shares = {name: share(name, modules) for name in WORKLOADS}
        known = {k: v for k, v in shares.items() if v is not None}
        ok = bool(known) and max(known, key=known.get) == chosen
        print(f"stress {'+'.join(modules)}: "
              + ", ".join(f"{k} {_fmt(v)}" for k, v in shares.items())
              + f" -> highest on {chosen}: {'yes' if ok else 'NO'}")
    print(json.dumps({
        "correct": all(v["correct"] for v in lines.values()),
        "attempted": sum(v["attempted"] for v in lines.values()),
        "failed": sum(v["failed"] for v in lines.values()),
        "metrics": {f"{name}.{metric}": value
                    for (name, _), v in lines.items()
                    for metric, value in v["metrics"].items()},
    }))
    return exit_code


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scenarios", type=int, default=0,
                        help="override the scenario count (quick checks only)")
    args = parser.parse_args(argv)
    count = args.scenarios or max(w.scenario_count(args.seconds)
                                  for w in WORKLOADS.values())
    if not 0 <= args.seed * SEED_STRIDE + count + 1 < 2 ** 64:
        parser.error("seed out of range")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    uwbcal = load_program()
    if uwbcal is None:
        print(f"error: no uwbcal package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_one(args, uwbcal)


if __name__ == "__main__":
    sys.exit(main())
