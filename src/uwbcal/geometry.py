"""Planar geometric primitives and the frame-rotation error metric.

All lengths are in meters and all angles in radians. Positions estimated by
the calibration pipeline live in the *anchor frame*: anchor 0 at the origin
and (on the first calibration only) anchor 1 on the positive x-axis.

Functions take positions as any ``(x, y)`` pairs (a :class:`Point2`, a tuple,
a row of ``ndarray.tolist()``) and unpack them; :class:`Point2` is the type
at the API edge, for configured and returned positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateGeometry

# Relative slack on y^2 when two ranging circles fail to intersect: small
# inconsistencies are projected onto the x-axis, anything worse is an error.
CIRCLE_INTERSECT_TOL = 1e-6


@dataclass(frozen=True)
class Point2:
    """A point (or displacement) in the plane. Coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self):
        # tolerate numpy scalars at the boundary, store plain floats
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")

    def __iter__(self):
        yield self.x
        yield self.y

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)


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


def bilaterate_positive_y(d01: float, d0i: float, d1i: float) -> Point2:
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
    return Point2(x, math.sqrt(y_sq))


def rotation_error(estimated_a1: Point2) -> float:
    """Signed angle between the x-axis and the ray to the estimated anchor 1."""
    if estimated_a1.x == 0.0 and estimated_a1.y == 0.0:
        raise DegenerateGeometry("anchor 1 estimate coincides with the origin")
    return wrap_angle(math.atan2(estimated_a1.y, estimated_a1.x))
