"""Fresh-interpreter set-up, timed for setup_s: import uwbcal, fit the
reference sensor model and resolve the workload's first scenario, then print
the monotonic clock.

Usage: python3 fresh_setup.py <uwbcal source dir> <scenario JSON>
"""

import sys
import time


def main() -> None:
    src, scenario = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import json

    import uwbcal
    uwbcal.reference_model()
    uwbcal.ScenarioConfig.from_dict(json.loads(scenario))
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))


if __name__ == "__main__":
    main()
