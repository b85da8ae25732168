"""The empirical sensor model of two-way ranging.

Distances come from round-trip signal timings (two-way ranging). Real
modules read systematically long: a line fitted to measured-vs-true sweeps
captures that bias, and its residual spread gives the noise level used when
simulating measurements.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import (CsvFormatError, DegenerateFit, InsufficientData,
                     csv_rows, echo, finite_number, integer, out_of_range,
                     parse_rows)

SPEED_OF_LIGHT = 299_792_458.0  # m/s, vacuum value; air correction is < 0.03%

# Line-of-sight sweep recorded with DWM1001 modules, 0.5 m to 22 m, with the
# responder-delay offset already removed. Ships with the package so models
# can be fitted without external files.
REFERENCE_SWEEP = "dwm1001_los_sweep.csv"


# The sensor model's keys, one per field in field order: key, parser and
# inclusive range. A slope must be positive, 5e-324 being the smallest
# positive float, and the float bounds otherwise only exclude inf and NaN.
RANGING_KEYS = (
    ("slope", finite_number, math.ulp(0.0), sys.float_info.max),
    ("intercept_m", finite_number, -sys.float_info.max, sys.float_info.max),
    ("noise_std_m", finite_number, 0, sys.float_info.max),
    ("n_samples", integer, 2, math.inf),
)


@dataclass(frozen=True)
class RangingModel:
    """Linear bias fit (measured = slope*true + intercept) plus noise level."""

    slope: float
    intercept: float
    noise_std: float
    n_samples: int

    def __post_init__(self):
        problems = out_of_range(RANGING_KEYS, vars(self).values(), "ranging")
        if problems:
            raise ValueError("; ".join(problems.values()))

    # the sensor model's two maps, on floats and arrays alike
    def measure(self, true_d, z):
        """The reading of ``true_d`` under the standard normal draw ``z``."""
        return self.slope * true_d + self.intercept + self.noise_std * z

    def correct(self, measured):
        """Invert the bias line: the true distance of a noise-free reading."""
        return (measured - self.intercept) / self.slope

    @classmethod
    def identity(cls) -> "RangingModel":
        """Bias-free, noise-free model (measured == true)."""
        return cls(slope=1.0, intercept=0.0, noise_std=0.0, n_samples=2)

    def to_dict(self) -> dict:
        return {key: value for (key, *_), value
                in zip(RANGING_KEYS, vars(self).values())}

    @classmethod
    def from_dict(cls, d: dict) -> "RangingModel":
        """The inverse of :meth:`to_dict`, read by :func:`parse_rows`."""
        return cls(*parse_rows("ranging", d, RANGING_KEYS))


@dataclass(frozen=True)
class RangingSample:
    """One calibration measurement: ground-truth distance and what was read."""

    true_distance: float
    measured_distance: float

    def __post_init__(self):
        if not (0.0 < self.true_distance < math.inf
                and 0.0 < self.measured_distance < math.inf):
            raise ValueError(
                f"distances must be positive and finite, got "
                f"({self.true_distance}, {self.measured_distance})")


def fit_model(samples: list[RangingSample]) -> RangingModel:
    """Ordinary least-squares line through (true, measured) pairs.

    noise_std is the residual standard deviation with denominator n - 2
    (two fitted parameters).
    """
    if len(samples) < 2:
        raise InsufficientData(f"need >= 2 samples, got {len(samples)}")
    x = np.array([s.true_distance for s in samples])
    y = np.array([s.measured_distance for s in samples])
    if x.min() == x.max():
        raise DegenerateFit("all samples share the same true distance")
    # the sums of squares overflow at distances of about 1e154 m, and
    # underflow to 0 at distinct true ones of about 1e-162 m
    with np.errstate(over="ignore", invalid="ignore"):
        sxx = float(((x - x.mean()) ** 2).sum())
        if sxx == 0.0:
            raise DegenerateFit("the true distances' sum of squared "
                                "deviations underflows to 0")
        slope = float(((x - x.mean()) * (y - y.mean())).sum()) / sxx
        intercept = float(y.mean()) - slope * float(x.mean())
        sse = float(((y - (slope * x + intercept)) ** 2).sum())
    noise_std = math.sqrt(sse / (len(x) - 2)) if len(x) > 2 else 0.0
    if not all(map(math.isfinite, (sxx, slope, intercept, noise_std))):
        raise DegenerateFit("the least-squares sums overflow: the distances "
                            "are too large to fit")
    try:
        return RangingModel(slope=slope, intercept=intercept,
                            noise_std=noise_std, n_samples=len(samples))
    except ValueError as exc:
        raise DegenerateFit(f"fitted model unusable: {exc}") from exc


def simulate_measurement(true_d: float, model: RangingModel,
                         rng: np.random.Generator) -> float:
    """Draw one simulated range: biased line value plus Gaussian noise.

    Always consumes exactly one draw from ``rng`` so seeded draw order does
    not depend on the noise level. The result may be <= 0 under extreme
    noise; callers decide how to treat that.
    """
    if true_d <= 0.0:
        raise ValueError(f"true distance must be positive, got {true_d}")
    return model.measure(true_d, rng.standard_normal())


def correct_measurement(measured_d: float, model: RangingModel) -> float:
    """Invert the fitted bias line: :meth:`RangingModel.correct`."""
    return model.correct(measured_d)


def load_samples(path) -> list[RangingSample]:
    """Read a `true_m,measured_m` CSV of ranging samples."""
    samples = []
    for lineno, row in csv_rows(path, ["true_m", "measured_m"]):
        try:
            samples.append(RangingSample(float(row[0]), float(row[1])))
        except ValueError as exc:
            raise CsvFormatError(echo(exc), line=lineno) from exc
    return samples


def load_reference_samples() -> list[RangingSample]:
    """The packaged DWM1001 line-of-sight sweep (40 rows, 0.5 m to 22 m)."""
    ref = resources.files("uwbcal.data").joinpath(REFERENCE_SWEEP)
    with resources.as_file(ref) as path:
        return load_samples(path)


@functools.cache
def reference_model() -> RangingModel:
    """Model fitted to the packaged sweep; the default simulation sensor.

    Fitted once per process: the sweep ships with the package and the
    model is frozen.
    """
    return fit_model(load_reference_samples())
