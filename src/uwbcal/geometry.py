"""Planar geometric primitives and the frame-rotation error metric.

All lengths are in meters and all angles in radians. Positions estimated by
the calibration pipeline live in the *anchor frame*: anchor 0 at the origin
and (on the first calibration only) anchor 1 on the positive x-axis.

Positions are ``(x, y)`` float pairs: functions take any pair (a tuple, a
row of an ``(N, 2)`` array or of its ``tolist()``) and unpack it, and return
tuples.
"""

from __future__ import annotations

import math

from .errors import DegenerateGeometry

# Relative slack on y^2 when two ranging circles fail to intersect: small
# inconsistencies are projected onto the x-axis, anything worse is an error.
CIRCLE_INTERSECT_TOL = 1e-6


def distance(p, q) -> float:
    """Euclidean distance between two ``(x, y)`` points."""
    (px, py), (qx, qy) = p, q
    return math.hypot(px - qx, py - qy)


def wrap_angle(angle: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.remainder(angle, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def bilaterate_positive_y(d01: float, d0i: float,
                          d1i: float) -> tuple[float, float]:
    """Intersect circles centered at (0, 0) and (d01, 0), keeping y >= 0.

    ``d01`` is the baseline between the two reference nodes, ``d0i``/``d1i``
    the measured distances from each of them to the node being placed. Of the
    two intersection points the one in the upper half-plane is returned; a
    negative discriminant above ``-CIRCLE_INTERSECT_TOL * d0i**2`` is clamped
    to the x-axis, a lower one raises :class:`DegenerateGeometry`, and so do
    distances whose squares overflow.
    """
    if d01 <= 0.0 or d0i <= 0.0 or d1i <= 0.0:
        raise DegenerateGeometry(
            f"distances must be positive, got ({d01}, {d0i}, {d1i})")
    x = (d0i * d0i - d1i * d1i + d01 * d01) / (2.0 * d01)
    y_sq = d0i * d0i - x * x
    if not (math.isfinite(x) and math.isfinite(y_sq)):
        raise DegenerateGeometry(
            f"circles d0i={d0i}, d1i={d1i} on baseline {d01} are too large "
            f"to intersect in floating point")
    if y_sq < 0.0:
        if y_sq < -CIRCLE_INTERSECT_TOL * d0i * d0i:
            raise DegenerateGeometry(
                f"circles d0i={d0i}, d1i={d1i} on baseline {d01} do not "
                f"intersect (discriminant {y_sq:.3e})")
        y_sq = 0.0
    return x, math.sqrt(y_sq)


def rotation_error(estimated_a1) -> float:
    """Signed angle between the x-axis and the ray to the estimated anchor
    1, an ``(x, y)`` pair."""
    x, y = estimated_a1
    if x == 0.0 and y == 0.0:
        raise DegenerateGeometry("anchor 1 estimate coincides with the origin")
    return wrap_angle(math.atan2(y, x))
