"""uwbcal: autocalibration of mobile UWB anchor networks.

Library layout:

- :mod:`uwbcal.geometry` -- planar primitives and the rotation error
- :mod:`uwbcal.ranging` -- the ranging bias/noise model: fit, draw, correct
- :mod:`uwbcal.leastsq` -- the Levenberg-Marquardt kernel for one problem,
  the one batched loop with its two step rules (the anchor network's
  stacked solves, the tag fixes' 2x2 Newton steps), and the range residuals
- :mod:`uwbcal.autocalib` -- anchor self-calibration from range statistics,
  every calibration through one entry (``solve_networks``), which solves
  one round by the scalar kernel and many by the batched one
- :mod:`uwbcal.multilateration` -- tag fixes from ranges to known anchors
- :mod:`uwbcal.protocol` -- token-passing ranging round (one batched draw)
- :mod:`uwbcal.sim` -- mobile-deployment simulator and summary statistics
- :mod:`uwbcal.cli` -- command-line front end

The message-by-message model of a round, the residual functions of the
gradient checks and the test input writers are test oracles, in
``tests/oracles.py``.
"""

from .autocalib import (CalibrationResult, DistanceStatsMatrix, calibrate,
                        initial_placement, refine_lse)
from .geometry import distance, rotation_error
from .multilateration import TagFix, linear_initial_guess, locate_tag
from .protocol import estimate_latency, run_calibration_round
from .ranging import (RangingModel, RangingSample, correct_measurement,
                      fit_model, reference_model, simulate_measurement)
from .sim import (ScenarioConfig, StepTable, SummaryStats, run_scenario,
                  summarize)

__version__ = "0.1.0"

__all__ = [
    "CalibrationResult", "DistanceStatsMatrix", "RangingModel",
    "RangingSample", "ScenarioConfig", "StepTable", "SummaryStats", "TagFix",
    "calibrate", "correct_measurement", "distance", "estimate_latency",
    "fit_model", "initial_placement", "linear_initial_guess", "locate_tag",
    "reference_model", "refine_lse", "rotation_error",
    "run_calibration_round", "run_scenario", "simulate_measurement",
    "summarize",
]
