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


def rotation_error(estimated_a1) -> float:
    """Signed angle between the x-axis and the ray to the estimated anchor
    1, an ``(x, y)`` pair."""
    x, y = estimated_a1
    if x == 0.0 and y == 0.0:
        raise DegenerateGeometry("anchor 1 estimate coincides with the origin")
    return wrap_angle(math.atan2(y, x))
