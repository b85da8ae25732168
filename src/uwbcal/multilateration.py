"""Tag localization from ranges to anchors at known positions.

Uses the damped least-squares iteration of the anchor calibration, in its
two-unknown float form :func:`~uwbcal.leastsq.fit_point`. The start point
comes from the standard linearization (subtracting the first
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
from .leastsq import fit_point, range_residuals

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


def _checked(anchors: list[Point2], ranges: list[float]):
    """Anchor (x, y) pairs and ranges as floats, after the input checks."""
    if len(anchors) < 3:
        raise ValueError(f"need at least 3 anchors, got {len(anchors)}")
    if len(ranges) != len(anchors):
        raise ValueError(f"{len(ranges)} ranges for {len(anchors)} anchors")
    a = [(float(p.x), float(p.y)) for p in anchors]
    r = [float(v) for v in ranges]
    if any(v <= 0.0 for v in r):
        raise ValueError("ranges must be positive")
    return a, r


def _linear_start(a: list[tuple[float, float]],
                  r: list[float]) -> tuple[float, float]:
    """The linearized least-squares position, by a Givens QR on floats.

    Row i of the (n-1) x 2 system is 2 (a_i - a_0) . p = r_0^2 - r_i^2
    + |a_i|^2 - |a_0|^2. Each row is rotated into the upper-triangular R and
    the matching right-hand side; the condition number is read off the
    singular values of R. Squares are products, never ``**``, so huge inputs
    overflow to inf instead of raising.
    """
    (x0, y0), r0 = a[0], r[0]
    sq0 = x0 * x0 + y0 * y0
    r11 = r12 = r22 = q1 = q2 = 0.0
    for (x, y), ri in zip(a[1:], r[1:]):
        u1, u2 = 2.0 * (x - x0), 2.0 * (y - y0)
        w = r0 * r0 - ri * ri + (x * x + y * y) - sq0
        if u1 != 0.0:
            h = math.hypot(r11, u1)
            c, s = r11 / h, u1 / h
            r11 = h
            r12, u2 = c * r12 + s * u2, c * u2 - s * r12
            q1, w = c * q1 + s * w, c * w - s * q1
        if u2 != 0.0:
            h = math.hypot(r22, u2)
            c, s = r22 / h, u2 / h
            r22 = h
            q2 = c * q2 + s * w
    # Singular values of [[r11, r12], [0, r22]]: their sum and difference
    # are hypot(|r11| +- |r22|, r12), and their product is |r11 r22|.
    s_max = 0.5 * (math.hypot(abs(r11) + abs(r22), r12)
                   + math.hypot(abs(r11) - abs(r22), r12))
    s_min = abs(r11 * r22) / s_max if s_max > 0.0 else 0.0
    cond = math.inf if s_min == 0.0 else s_max / s_min
    if not cond <= CONDITION_LIMIT:
        raise CollinearAnchors(
            f"anchor layout is (near-)collinear, condition {cond:.3g}")
    py = q2 / r22
    return (q1 - r12 * py) / r11, py


def linear_initial_guess(anchors: list[Point2], ranges: list[float]) -> Point2:
    """Least-squares solution of the pairwise-subtracted squared equations.

    Subtracting the first range equation from each of the others removes the
    quadratic term and leaves an (n-1) x 2 linear system in the position.
    Exact at zero noise. Raises :class:`CollinearAnchors` when the system is
    rank-deficient (condition number above 1e8).
    """
    return Point2(*_linear_start(*_checked(anchors, ranges)))


def tag_residuals(anchors: list[Point2], ranges: list[float]):
    """Residual function p -> (|p - a_i| - r_i, Jacobian) for a tag fix.

    The array form of the residuals :func:`locate_tag` fits, for
    :func:`~uwbcal.leastsq.levenberg_marquardt` and gradient checks.
    """
    a, r = (np.array(v, dtype=float) for v in _checked(anchors, ranges))

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
    a, r = _checked(anchors, ranges)
    start = _linear_start(a, r) if guess is None else (guess.x, guess.y)
    lsq = fit_point(a, r, start)
    fix = TagFix(
        position=Point2(float(lsq.x[0]), float(lsq.x[1])),
        rms_residual=math.sqrt(lsq.objective / len(anchors)),
        n_anchors_used=len(anchors),
    )
    if not lsq.converged:
        raise NotConverged(
            f"tag fix stopped after {lsq.iterations} iterations", fix)
    return fix
