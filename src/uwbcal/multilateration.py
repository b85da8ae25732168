"""Tag localization from ranges to anchors at known positions.

Uses the same damped least-squares kernel as the anchor calibration. The
start point comes from the standard linearization (subtracting the first
squared-range equation from the rest), which also disambiguates the mirror
solution that exists with exactly three anchors. Ranges are expected to be
bias-corrected by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CollinearAnchors, NotConverged
from .geometry import Point2
from .leastsq import levenberg_marquardt, range_residuals

CONDITION_LIMIT = 1e8


@dataclass(frozen=True)
class TagFix:
    """One tag position estimate with its residual diagnostics."""

    position: Point2
    rms_residual: float
    n_anchors_used: int

    def __post_init__(self):
        if self.n_anchors_used < 3:
            raise ValueError("a fix needs at least 3 anchors")
        if self.rms_residual < 0.0:
            raise ValueError("rms_residual must be >= 0")


def _as_arrays(anchors: list[Point2], ranges: list[float]):
    if len(anchors) < 3:
        raise ValueError(f"need at least 3 anchors, got {len(anchors)}")
    if len(ranges) != len(anchors):
        raise ValueError(f"{len(ranges)} ranges for {len(anchors)} anchors")
    a = np.array([(p.x, p.y) for p in anchors], dtype=float)
    r = np.asarray(ranges, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("ranges must be positive")
    return a, r


def linear_initial_guess(anchors: list[Point2], ranges: list[float]) -> Point2:
    """Least-squares solution of the pairwise-subtracted squared equations.

    Subtracting the first range equation from each of the others removes the
    quadratic term and leaves an (n-1) x 2 linear system in the position.
    Exact at zero noise. Raises :class:`CollinearAnchors` when the system is
    rank-deficient (condition number above 1e8).
    """
    a, r = _as_arrays(anchors, ranges)
    lhs = 2.0 * (a[1:] - a[0])
    rhs = (r[0] ** 2 - r[1:] ** 2
           + (a[1:] ** 2).sum(axis=1) - (a[0] ** 2).sum())
    singular = np.linalg.svd(lhs, compute_uv=False)
    cond = math.inf if singular[-1] == 0.0 else float(singular[0] / singular[-1])
    if cond > CONDITION_LIMIT:
        raise CollinearAnchors(
            f"anchor layout is (near-)collinear, condition {cond:.3g}")
    solution, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    return Point2(float(solution[0]), float(solution[1]))


def tag_residuals(anchors: list[Point2], ranges: list[float]):
    """Residual function p -> (|p - a_i| - r_i, Jacobian) for a tag fix."""
    a, r = _as_arrays(anchors, ranges)

    def fun(p):
        return range_residuals(p[None, :] - a, r)

    return fun


def locate_tag(anchors: list[Point2], ranges: list[float],
               guess: Point2 | None = None) -> TagFix:
    """Fix a tag position by damped least squares over the range residuals.

    Starts from ``guess`` when given, otherwise from the linear
    initialization. Raises :class:`NotConverged` with the best fix attached
    if the iteration cap is hit.
    """
    fun = tag_residuals(anchors, ranges)
    if guess is None:
        guess = linear_initial_guess(anchors, ranges)
    lsq = levenberg_marquardt(fun, np.array([guess.x, guess.y]))
    fix = TagFix(
        position=Point2(float(lsq.x[0]), float(lsq.x[1])),
        rms_residual=math.sqrt(lsq.objective / len(anchors)),
        n_anchors_used=len(anchors),
    )
    if not lsq.converged:
        raise NotConverged(
            f"tag fix stopped after {lsq.iterations} iterations", fix)
    return fix
