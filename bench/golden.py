"""Regenerate golden_digests.json, the behaviour lock: SHA-256 of trace.csv
and summary.json of the default scenario at seeds 0-19.

    python3 bench/golden.py

Only a change that means to alter outputs should run it, and it should say
so in CHANGES.md.
"""

import json
import shutil
import sys

import run
from workloads import behaviour_lock


def main() -> int:
    uwbcal = run.load_program()
    if uwbcal is None:
        print("error: no uwbcal package under src/", file=sys.stderr)
        return 2
    workdir = run.OUT / "golden"
    try:
        digests = behaviour_lock(uwbcal.cli.main, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.BENCH / "golden_digests.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
