"""uwbcal: autocalibration of mobile UWB anchor networks.

Library layout:

- :mod:`uwbcal.geometry` -- planar primitives, bilateration, error metrics
- :mod:`uwbcal.ranging` -- TWR distance computation and the bias/noise model
- :mod:`uwbcal.autocalib` -- anchor self-calibration from range statistics
- :mod:`uwbcal.multilateration` -- tag fixes from ranges to known anchors
- :mod:`uwbcal.protocol` -- token-passing ranging round (discrete events)
- :mod:`uwbcal.sim` -- mobile-deployment simulator and summary statistics
- :mod:`uwbcal.cli` -- command-line front end
"""

from .autocalib import (CalibrationResult, DistanceStatsMatrix, calibrate,
                        initial_placement, refine_lse)
from .geometry import (Point2, bilaterate_positive_y, distance, rotation_error,
                       translation_errors)
from .multilateration import TagFix, linear_initial_guess, locate_tag
from .protocol import estimate_latency, run_calibration_round, simulate_round
from .ranging import (RangingModel, RangingSample, TwrTimings,
                      correct_measurement, ds_twr_distance, fit_model,
                      reference_model, simulate_measurement, ss_twr_distance)
from .sim import ScenarioConfig, SummaryStats, run_scenario, summarize

__version__ = "0.1.0"

__all__ = [
    "CalibrationResult", "DistanceStatsMatrix", "Point2", "RangingModel",
    "RangingSample", "ScenarioConfig", "SummaryStats", "TagFix", "TwrTimings",
    "bilaterate_positive_y", "calibrate", "correct_measurement", "distance",
    "ds_twr_distance", "estimate_latency", "fit_model", "initial_placement",
    "linear_initial_guess", "locate_tag", "reference_model", "refine_lse",
    "rotation_error", "run_calibration_round", "run_scenario",
    "simulate_measurement", "simulate_round", "ss_twr_distance", "summarize",
    "translation_errors",
]
