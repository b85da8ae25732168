"""Tag localization from ranges to anchors at known positions.

One kernel, :func:`solve_fixes`, fixes P tags at once from ``(P, N)``
arrays: N anchor positions and N ranges per tag. The start point comes from
the standard linearization (subtracting the first squared-range equation
from the rest), solved by a QR factorization, which also disambiguates the
mirror solution that exists with exactly three anchors. The fit is the
batched loop :func:`~uwbcal.leastsq.damped_least_squares`, the anchor
network's too, with this module's rows and step rule: where the objective
is locally convex the damped matrix is the full Hessian rather than J^T J,
so steps near a fix are damped Newton steps, solved in closed form. Range
residuals are not zero at the optimum, where Gauss-Newton only converges
linearly.

Inside the kernel the batch is laid out anchor-major, ``(N, P)``: row i
holds anchor i's values for every problem, so a sum over each problem's N
anchors is a few full-width adds of rows, :func:`_anchor_sum`, rather
than P short row reductions. Every operation is elementwise per problem or
such a sum, so a problem's result is the same, bit for bit, whatever batch
it is solved in. :func:`locate_tag` is the kernel on one problem. Ranges
are expected to be bias-corrected by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CollinearAnchors
from .leastsq import (CONVERGED, FLOOR_FACTOR, MAX_ITERATIONS, NOT_CONVERGED,
                      SINGULAR, damped_least_squares, failure,
                      range_residuals)

CONDITION_LIMIT = 1e8
# the smallest normal float: below it a product keeps fewer digits
_TINY = float(np.finfo(float).tiny)

# Per-fix status codes of solve_fixes: the kernels' three, and a layout too
# collinear to fit.
COLLINEAR = SINGULAR + 1

@dataclass(frozen=True)
class TagFix:
    """One tag position estimate, an ``(x, y)`` pair, with its residual
    diagnostics."""

    position: tuple[float, float]
    rms_residual: float
    n_anchors_used: int

    def __post_init__(self):
        if self.n_anchors_used < 3:
            raise ValueError("a fix needs at least 3 anchors")
        if self.rms_residual < 0.0:
            raise ValueError("rms_residual must be >= 0")


@dataclass(frozen=True)
class FixBatch:
    """Per-problem results of :func:`solve_fixes`.

    ``position`` is ``(P, 2)``; ``objective`` (the sum of squared range
    residuals), ``iterations``, ``status`` and ``condition`` (of the linear
    start's system, NaN when a start was given) have length P;
    ``max_iterations`` is the cap the problems were fitted under.
    """

    position: np.ndarray
    objective: np.ndarray
    iterations: np.ndarray
    status: np.ndarray
    condition: np.ndarray
    max_iterations: int = MAX_ITERATIONS

    def error(self, p: int, result=None):
        """Problem p's failure as the error :func:`locate_tag` raises, with
        ``result`` attached to a :class:`NotConverged`; None if p converged."""
        if self.status[p] == COLLINEAR:
            return _collinear(self.condition[p])
        return failure(self.status[p], "tag fix", int(self.iterations[p]),
                       self.max_iterations, result)


def _collinear(condition: float) -> CollinearAnchors:
    return CollinearAnchors(
        f"anchor layout is (near-)collinear, condition {condition:.3g}")


def _checked(anchors, ranges: list[float]):
    """Anchor (x, y) pairs and ranges as floats, after the input checks."""
    if len(anchors) < 3:
        raise ValueError(f"need at least 3 anchors, got {len(anchors)}")
    if len(ranges) != len(anchors):
        raise ValueError(f"{len(ranges)} ranges for {len(anchors)} anchors")
    a = [(float(x), float(y)) for x, y in anchors]
    r = [float(v) for v in ranges]
    if any(v <= 0.0 for v in r):
        raise ValueError("ranges must be positive")
    return a, r


def _anchor_sum(a: np.ndarray) -> np.ndarray:
    """The sum of ``a`` over its anchor axis, -2, adding the anchors in
    order from the identity 0.0. numpy's own sum would do so too, but for a
    batch of one problem, whose anchors then lie contiguous and are summed
    pairwise from 8 on."""
    total = a[..., 0, :] + 0.0
    for i in range(1, a.shape[-2]):
        total += a[..., i, :]
    return total


def _linear_starts(x: np.ndarray, y: np.ndarray, ranges: np.ndarray):
    """Linearized least-squares positions and the condition numbers of
    their systems, by a QR factorization per problem.

    ``x``, ``y`` and ``ranges`` are ``(N, P)``, anchor-major: column p is
    problem p, and every sum over its rows is :func:`_anchor_sum`. Row i
    of a problem's (n-1) x 2 system is 2 (a_i - a_0) . p = r_0^2 - r_i^2 +
    |a_i|^2 - |a_0|^2. The QR is modified Gram-Schmidt on the two columns
    and the right-hand side, all rows and problems at once: the first
    column's norm r11 and unit vector, then the second column and the
    right-hand side with that direction taken out. Norms are ``hypot``
    chains and products are never ``**``, so huge inputs overflow to inf
    instead of raising. The condition number is read off the singular
    values of R. Returns the start's x and y and the condition number,
    each ``(P,)``.
    """
    x0, y0, r0 = x[0], y[0], ranges[0]
    xi, yi, ri = x[1:], y[1:], ranges[1:]
    u1 = 2.0 * (xi - x0)
    u2 = 2.0 * (yi - y0)
    w = r0 * r0 - ri * ri + (xi * xi + yi * yi) - (x0 * x0 + y0 * y0)
    # hypot.reduce chains in row order along either axis
    r11 = np.hypot.reduce(u1, axis=0)
    e1 = u1 / r11
    r12 = _anchor_sum(e1 * u2)
    q1 = _anchor_sum(e1 * w)
    u2 = u2 - r12 * e1
    w = w - q1 * e1
    r22 = np.hypot.reduce(u2, axis=0)
    q2 = _anchor_sum(u2 * w) / r22
    # Singular values of [[r11, r12], [0, r22]] (r11, r22 >= 0): their sum
    # and difference are hypot(r11 +- r22, r12), their product r11 r22.
    s_max = 0.5 * (np.hypot(r11 + r22, r12) + np.hypot(r11 - r22, r12))
    product = r11 * r22
    s_min = product / s_max
    condition = np.where(s_min > 0.0, s_max / s_min, np.inf)
    # Where the product or s_min leaves the normal range, digits are lost
    # or it overflows. For finite positive r11, r22 and s_max the condition
    # s_max^2 / (r11 r22) is then the product of two ratios, each >= 1 as
    # s_max bounds both, which neither underflows nor overflows early.
    lost = (r11 > 0.0) & (r22 > 0.0) & (s_max < np.inf) & ~(
        (product >= _TINY) & (product < np.inf) & (s_min >= _TINY))
    if lost.any():
        condition[lost] = (s_max[lost] / r11[lost]) \
            * (s_max[lost] / r22[lost])
    py = q2 / r22
    return (q1 - r12 * py) / r11, py, condition


def _residuals(xy: np.ndarray, problems: np.ndarray):
    """Every problem's point, offsets, distances and residuals there, which
    :func:`_equations` goes on from.

    ``xy`` holds the points, ``(P, 2)``; ``problems`` stacks the anchor x,
    anchor y and range arrays anchor-major, ``(3, N, P)``. The offsets are
    ``(2, N, P)`` and the distances and residuals ``(N, P)``; the offsets
    are those :func:`~uwbcal.leastsq.range_residuals` left, coincident ones
    nudged.
    """
    offsets = xy.T[:, None] - problems[:2]
    r, dist = range_residuals(offsets[0], offsets[1], problems[2])
    return xy, offsets, dist, r


def _equations(xy, offsets, dist, r) -> np.ndarray:
    """The rows x, y, f, phi, g0, g1, h00, h01, h11 at ``xy``, ``(P, 9)``,
    from what :func:`_residuals` returned there; f = sum r_i^2 and g = J^T
    r.

    The matrix h is the Hessian of f / 2, J^T J plus each residual's
    curvature r/d (I - u u^T), where that is positive definite, so steps are
    damped Newton steps; elsewhere (far from a minimum, or on an anchor) it
    is J^T J. phi is the float floor of f, ``FLOOR_FACTOR`` sum |r| d, as in
    :func:`~uwbcal.leastsq.levenberg_marquardt`. The per-anchor terms are
    laid out ``(10, N, P)``, and all ten sums come from one
    :func:`_anchor_sum` over their anchor axis, which adds each problem's
    terms in the same order whatever the batch. The rows are a transposed
    view of the sums, so each column is contiguous.
    """
    # per anchor: the curvature terms the Hessian adds to h00, h01 and h11,
    # c uy uy, -c ux uy and c ux ux, then r r, |r| d, ux r, uy r, ux ux,
    # ux uy and uy uy. Once h is formed, x and y take the place of the
    # curvature sums. The unit vectors and curvature factors take the place
    # of the offsets and distances, which nothing reads after them
    terms = np.empty((10,) + r.shape)
    np.multiply(np.abs(r, terms[4]), dist, terms[4])
    u = np.divide(offsets, dist, offsets)
    c = np.divide(r, dist, dist)
    np.multiply(r, r, terms[3])
    np.multiply(u, r, terms[5:7])
    np.multiply(u[0], u, terms[7:9])
    np.multiply(u[1], u[1], terms[9])
    np.multiply(c, terms[9:6:-1], terms[:3])
    np.negative(terms[1], terms[1])
    sums = _anchor_sum(terms)
    newton = sums[7:] + sums[:3]
    n00, n01, n11 = newton
    np.copyto(sums[7:], newton,
              where=np.minimum(n00, n00 * n11 - n01 * n01) > 0.0)
    sums[1:3] = xy.T
    np.multiply(sums[4], FLOOR_FACTOR, sums[4])
    return sums[1:].T


def _newton_step(rows: np.ndarray, lam: np.ndarray):
    """Every problem's step d from its :func:`_equations` rows under
    damping ``lam``, the 2x2 damped system (h + lam I) d = -g solved in
    closed form; whether it is solved (a finite determinant and step); and
    its predicted reduction lam |d|^2 - g . d."""
    g, (h00, h01, h11) = rows.T[4:6], rows.T[6:]
    a = h00 + lam
    d = h11 + lam
    det = a * d - h01 * h01
    step = np.empty((2, len(lam)))
    np.divide(h01 * g[1] - d * g[0], det, step[0])
    np.divide(h01 * g[0] - a * g[1], det, step[1])
    # NaN or inf unless finite
    size = np.maximum.reduce(np.abs(step), axis=0)
    squares, products = step * step, g * step
    return (step.T, np.isfinite(det) & (size < np.inf),
            lam * (squares[0] + squares[1]) - (products[0] + products[1]))


def solve_fixes(anchor_x, anchor_y, ranges, start=None,
                max_iterations: int = MAX_ITERATIONS) -> FixBatch:
    """Fix P tags at once, each from N ranges to N anchors.

    ``anchor_x``, ``anchor_y`` and ``ranges`` are ``(P, N)`` arrays, one
    problem per row. Each problem starts from ``start[p]`` (a ``(P, 2)``
    array) when given, otherwise from its linear initialization, and a
    problem whose linear system has a condition number above
    ``CONDITION_LIMIT`` is not fitted (status COLLINEAR). The others are
    fitted by :func:`~uwbcal.leastsq.damped_least_squares` with the rows
    of :func:`_equations` and the steps of :func:`_newton_step`, and end
    CONVERGED, NOT_CONVERGED (the iteration cap, or a rejected step at
    maximum damping: the position is the best iterate) or SINGULAR (the
    damped system unsolvable at maximum damping). Input checks are the
    caller's; no numpy warning escapes.
    """
    # anchor-major, (3, N, P), as the kernel's sums want it
    problems = np.array((anchor_x, anchor_y, ranges),
                        dtype=float).transpose(0, 2, 1).copy()
    p = problems.shape[2]
    with np.errstate(all="ignore"):
        if start is None:
            x, y, condition = _linear_starts(*problems)
            fitted = np.flatnonzero(condition <= CONDITION_LIMIT)
        else:
            x, y = np.array(start, dtype=float).reshape(p, 2).T
            condition, fitted = np.full(p, math.nan), np.arange(p)
        position = np.stack((x, y), axis=1)
        running = problems.take(fitted, axis=2)

        def evaluate(xy, live):
            # the loop's live problems only shrink: take them anew then
            nonlocal running
            if running.shape[2] != len(live):
                running = problems.take(fitted[live], axis=2)
            return _equations(*_residuals(xy, running))

        fit = damped_least_squares(evaluate, _newton_step, position[fitted],
                                   max_iterations)
    objective = np.full(p, math.nan)
    iterations, status = np.zeros(p, dtype=int), np.full(p, COLLINEAR)
    position[fitted], objective[fitted] = fit.x, fit.objective
    iterations[fitted], status[fitted] = fit.iterations, fit.status
    return FixBatch(position, objective, iterations, status, condition,
                    max_iterations)


def linear_initial_guess(anchors,
                         ranges: list[float]) -> tuple[float, float]:
    """Least-squares solution of the pairwise-subtracted squared equations.

    Subtracting the first range equation from each of the others removes the
    quadratic term and leaves an (n-1) x 2 linear system in the position.
    Exact at zero noise. Raises :class:`CollinearAnchors` when the system is
    rank-deficient (condition number above 1e8), and ValueError when the
    solution is not finite (squares that overflow).
    """
    a, r = _checked(anchors, ranges)
    with np.errstate(all="ignore"):
        x, y, condition = _linear_starts(*np.array(a).T[:, :, None],
                                         np.array(r)[:, None])
    if not condition[0] <= CONDITION_LIMIT:
        raise _collinear(condition[0])
    position = float(x[0]), float(y[0])
    if not all(map(math.isfinite, position)):
        raise ValueError(f"non-finite coordinates {position}")
    return position


def locate_tag(anchors, ranges: list[float], guess=None) -> TagFix:
    """Fix a tag position by damped least squares over the range residuals.

    :func:`solve_fixes` on one problem. ``anchors`` and ``guess`` are
    ``(x, y)`` pairs. Starts from ``guess`` when given, otherwise from the
    linear initialization. Raises :class:`CollinearAnchors`,
    :class:`SingularUpdate`, or :class:`NotConverged` with the best fix
    attached if the iteration cap is hit or a rejected step takes the
    damping past ``DAMPING_MAX`` before it; the message names which.
    """
    a, r = _checked(anchors, ranges)
    x, y = np.array(a).T
    batch = solve_fixes(x[None], y[None], [r],
                        None if guess is None else [tuple(guess)])
    status = batch.status[0]
    if status in (COLLINEAR, SINGULAR):
        raise batch.error(0)
    position, = batch.position.tolist()
    fix = TagFix(position=tuple(position),
                 rms_residual=math.sqrt(batch.objective[0] / len(a)),
                 n_anchors_used=len(a))
    if status == NOT_CONVERGED:
        raise batch.error(0, fix)
    return fix
