"""Self-test of the benchmark itself, not of uwbcal.

    python3 bench/selftest.py

Runs every workload on a few scenarios, untraced twice and traced twice,
and asserts that
  1. traced outputs are digest-identical to untraced ones (the traced run
     compares them scenario by scenario and fails its checks otherwise);
  2. the deterministic metrics repeat exactly across two runs of one seed;
  3. no file outside BENCHMARK.json and bench/ changes.
Takes about a minute; exits 1 on the first failed assertion.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3
SCENARIOS = 4

# Metrics that depend only on the seed, never on the host.
DETERMINISTIC = (
    "ok_frac", "anchor_err_median_m", "calib_improved_frac",
    "ranging.draws", "protocol.rounds", "autocalib.bootstrap_calls",
    "autocalib.warm_calls", "autocalib.lm_iters_mean",
    "autocalib.nonconverged", "leastsq.calls", "leastsq.iters_mean",
    "leastsq.fun_evals", "leastsq.converged_frac", "multilateration.fixes",
    "multilateration.failed", "multilateration.tag_err_median_m",
    "geometry.point2_new", "sim.steps", "cli.bytes_written",
)


def snapshot() -> dict:
    """SHA-256 of every file outside .git, bench/ and BENCHMARK.json."""
    skip = {ROOT / ".git", BENCH, ROOT / "BENCHMARK.json"}
    digests = {}
    for path in sorted(ROOT.rglob("*")):
        if any(path == s or s in path.parents for s in skip):
            continue
        if path.is_file():
            digests[str(path.relative_to(ROOT))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--scenarios", str(SCENARIOS)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, (workload, trace, proc.stdout[-2000:],
                                  proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], (workload, trace, proc.stdout[-2000:])
    return result


def deterministic(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if k in DETERMINISTIC}


def main() -> int:
    before = snapshot()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS
    for name in WORKLOADS:
        for trace in (0, 1):
            first, second = run(name, trace), run(name, trace)
            a, b = deterministic(first), deterministic(second)
            assert a and a == b, (name, trace, a, b)
            assert (first["attempted"], first["failed"]) == \
                (second["attempted"], second["failed"]), (name, trace)
            print(f"ok {name} trace={trace}: {len(a)} deterministic metrics "
                  f"repeat exactly")
    assert snapshot() == before, "files outside bench/ changed"
    print("ok no file outside BENCHMARK.json and bench/ changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
