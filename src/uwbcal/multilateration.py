"""Tag localization from ranges to anchors at known positions.

One kernel, :func:`solve_fixes`, fixes P tags at once from ``(P, N)``
arrays: N anchor positions and N ranges per tag. The start point comes from
the standard linearization (subtracting the first squared-range equation
from the rest), solved by a QR factorization, which also disambiguates the
mirror solution that exists with exactly three anchors. The fit is the
iteration of :func:`~uwbcal.leastsq.levenberg_marquardt` with its constants
and its accept, reject and stop rules, with one change: where the objective
is locally convex the damped matrix is the full Hessian rather than J^T J,
so steps near a fix are damped Newton steps. Range residuals are not zero
at the optimum, where Gauss-Newton only converges linearly.

Every operation is elementwise per problem or a sum along one problem's
row of N, so a problem's result is the same, bit for bit, whatever batch it
is solved in. :func:`locate_tag` is the kernel on one problem. Ranges are
expected to be bias-corrected by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CollinearAnchors, NotConverged, SingularUpdate
from .geometry import Point2
from .leastsq import (COINCIDENT_EPS, DAMPING_GROW, DAMPING_INITIAL,
                      DAMPING_MAX, DAMPING_SHRINK, GRAD_TOL, MAX_ITERATIONS,
                      STEP_TOL, range_residuals)

CONDITION_LIMIT = 1e8

# Per-fix status codes of solve_fixes. NOT_CONVERGED covers the iteration
# cap and a rejected step at maximum damping.
CONVERGED, NOT_CONVERGED, SINGULAR, COLLINEAR = range(4)

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


@dataclass(frozen=True)
class FixBatch:
    """Per-problem results of :func:`solve_fixes`.

    ``position`` is ``(P, 2)``; ``objective`` (the sum of squared range
    residuals), ``iterations``, ``status`` and ``condition`` (of the linear
    start's system, NaN when a start was given) have length P.
    """

    position: np.ndarray
    objective: np.ndarray
    iterations: np.ndarray
    status: np.ndarray
    condition: np.ndarray

    def error(self, p: int, result=None):
        """Problem p's failure as the error :func:`locate_tag` raises, with
        ``result`` attached to a :class:`NotConverged`; None if p converged."""
        status = self.status[p]
        if status == COLLINEAR:
            return _collinear(self.condition[p])
        if status == SINGULAR:
            return SingularUpdate(
                "normal equations unsolvable at maximum damping")
        if status == NOT_CONVERGED:
            return NotConverged(f"tag fix stopped after "
                                f"{int(self.iterations[p])} iterations",
                                result)
        return None


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


def _linear_starts(x: np.ndarray, y: np.ndarray, ranges: np.ndarray):
    """Linearized least-squares positions and the condition numbers of
    their systems, by a QR factorization per problem.

    ``x``, ``y`` and ``ranges`` are ``(P, N)``: one row per problem. Row i
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
    x0, y0, r0 = x[:, :1], y[:, :1], ranges[:, :1]
    xi, yi, ri = x[:, 1:], y[:, 1:], ranges[:, 1:]
    u1 = 2.0 * (xi - x0)
    u2 = 2.0 * (yi - y0)
    w = r0 * r0 - ri * ri + (xi * xi + yi * yi) - (x0 * x0 + y0 * y0)
    r11 = np.hypot.reduce(u1, axis=1)
    e1 = u1 / r11[:, None]
    r12 = (e1 * u2).sum(axis=1)
    q1 = (e1 * w).sum(axis=1)
    u2 = u2 - r12[:, None] * e1
    w = w - q1[:, None] * e1
    r22 = np.hypot.reduce(u2, axis=1)
    q2 = (u2 * w).sum(axis=1) / r22
    # Singular values of [[r11, r12], [0, r22]] (r11, r22 >= 0): their sum
    # and difference are hypot(r11 +- r22, r12), their product r11 r22.
    s_max = 0.5 * (np.hypot(r11 + r22, r12) + np.hypot(r11 - r22, r12))
    s_min = r11 * r22 / s_max
    condition = np.where(s_min > 0.0, s_max / s_min, np.inf)
    py = q2 / r22
    return (q1 - r12 * py) / r11, py, condition


def _residuals(x: np.ndarray, y: np.ndarray, problems: np.ndarray):
    """The objective f = sum r_i^2 of every problem at (x, y), and the
    offsets, distances and residuals :func:`_equations` goes on from.

    ``x`` and ``y`` are ``(P,)``; ``problems`` stacks the anchor x, anchor
    y and range arrays, ``(3, P, N)``. The coincident-point nudge is the one
    :func:`~uwbcal.leastsq.range_residuals` applies.
    """
    ax, ay, ranges = problems
    dx = x[:, None] - ax
    dy = y[:, None] - ay
    dist = np.hypot(dx, dy)
    coincident = dist < 1e-12
    if np.count_nonzero(coincident):
        dx[coincident] = COINCIDENT_EPS
        dy[coincident] = 0.0
        dist[coincident] = COINCIDENT_EPS
    r = dist - ranges
    return (r * r).sum(axis=1), (x, y, dx, dy, dist, r)


def _equations(x, y, dx, dy, dist, r) -> np.ndarray:
    """The ``(8, P)`` rows f, g0, g1, h00, h01, h11, x, y at (x, y), from
    what :func:`_residuals` returned there; g = J^T r.

    The matrix h is the Hessian of f / 2, J^T J plus each residual's
    curvature r/d (I - u u^T), where that is positive definite, so steps are
    damped Newton steps; elsewhere (far from a minimum, or on an anchor) it
    is J^T J. All nine sums come from one sum along the anchor axis, which
    numpy forms per problem row whatever the batch (and f as
    :func:`_residuals` forms it).
    """
    # unit vectors and curvature factors in place of the offsets and
    # distances, which nothing reads after this
    ux = np.divide(dx, dist, dx)
    uy = np.divide(dy, dist, dy)
    c = np.divide(r, dist, dist)
    # per anchor: r r, ux r, uy r, ux ux, ux uy, uy uy and the curvature
    # terms the Hessian adds to the last three, c uy uy, -c ux uy, c ux ux
    terms = np.empty((9,) + r.shape)
    np.multiply(r, r, terms[0])
    np.multiply(ux, r, terms[1])
    np.multiply(uy, r, terms[2])
    np.multiply(ux, ux, terms[3])
    np.multiply(ux, uy, terms[4])
    np.multiply(uy, uy, terms[5])
    np.multiply(c, terms[5], terms[6])
    np.multiply(c, terms[4], terms[7])
    np.negative(terms[7], terms[7])
    np.multiply(c, terms[3], terms[8])
    sums = terms.sum(axis=2)
    newton = sums[3:6] + sums[6:9]
    n00, n01, n11 = newton
    np.copyto(sums[3:6], newton,
              where=np.minimum(n00, n00 * n11 - n01 * n01) > 0.0)
    sums[6] = x
    sums[7] = y
    return sums[:8]


def _fit(x: np.ndarray, y: np.ndarray, problems: np.ndarray,
         max_iterations: int):
    """Damped least squares from (x, y) for every problem at once.

    The rules of :func:`~uwbcal.leastsq.levenberg_marquardt`, per problem:
    the 2x2 damped system is solved in closed form, and a zero or
    non-finite determinant or step counts as an unsolvable system (damping
    grows; past ``DAMPING_MAX`` the status is SINGULAR). A trial point's
    gradient and step matrix are formed only when some trial is accepted.
    The working arrays hold the running problems only: a problem that stops
    leaves them. Returns the rows of :func:`_equations` at each problem's
    last iterate, its iterations and its status.
    """
    p = len(x)
    out = np.empty((8, p))
    out_iterations = np.full(p, max_iterations)
    out_status = np.full(p, NOT_CONVERGED)
    state = _equations(*_residuals(x, y, problems)[1])
    lam = np.full(p, DAMPING_INITIAL)
    live = np.arange(p)
    # 2 |g|_inf <= GRAD_TOL, exactly
    converged = stop = np.abs(state[1:3]).max(axis=0) <= 0.5 * GRAD_TOL
    solved = True
    iteration = 0
    while True:
        if np.count_nonzero(stop):
            done = live[stop]
            out[:, done], out_iterations[done] = state[:, stop], iteration
            # CONVERGED, else NOT_CONVERGED if the last step was solved,
            # else SINGULAR
            out_status[done] = np.where(converged, CONVERGED,
                                        SINGULAR - solved)[stop]
            keep = ~stop
            live, state, lam = live[keep], state[:, keep], lam[keep]
            problems = problems[:, keep]
        iteration += 1
        if iteration > max_iterations or not len(live):
            break
        f, g0, g1, h00, h01, h11, x, y = state
        a = h00 + lam
        d = h11 + lam
        det = a * d - h01 * h01
        dx = (h01 * g1 - d * g0) / det
        dy = (h01 * g0 - a * g1) / det
        size = np.maximum(np.abs(dx), np.abs(dy))  # NaN or inf unless finite
        solved = np.isfinite(det) & (size < np.inf)
        f_trial, at_trial = _residuals(x + dx, y + dy, problems)
        accept = solved & (f_trial < f)
        # accepted: stop on a small step or gradient; rejected: on a small
        # step (nothing better nearby), else give up past maximum damping
        converged = solved & (size < STEP_TOL)
        if np.count_nonzero(accept):
            trial = _equations(*at_trial)
            state = np.where(accept, trial, state)
            converged |= accept & (np.abs(trial[1:3]).max(axis=0)
                                   <= 0.5 * GRAD_TOL)
        lam = np.maximum(np.where(accept, lam / DAMPING_SHRINK,
                                  lam * DAMPING_GROW), 1e-15)
        stop = converged | (lam > DAMPING_MAX)
    out[:, live] = state
    return out, out_iterations, out_status


def solve_fixes(anchor_x, anchor_y, ranges, start=None,
                max_iterations: int = MAX_ITERATIONS) -> FixBatch:
    """Fix P tags at once, each from N ranges to N anchors.

    ``anchor_x``, ``anchor_y`` and ``ranges`` are ``(P, N)`` arrays, one
    problem per row. Each problem starts from ``start[p]`` (a ``(P, 2)``
    array) when given, otherwise from its linear initialization, and a
    problem whose linear system has a condition number above
    ``CONDITION_LIMIT`` is not fitted (status COLLINEAR). The others end
    CONVERGED, NOT_CONVERGED (the iteration cap, or a rejected step at
    maximum damping: the position is the best iterate) or SINGULAR (the
    damped system unsolvable at maximum damping). Input checks are the
    caller's; no numpy warning escapes.
    """
    problems = np.array((anchor_x, anchor_y, ranges), dtype=float)
    p = problems.shape[1]
    with np.errstate(all="ignore"):
        if start is None:
            x, y, condition = _linear_starts(*problems)
            fitted = np.flatnonzero(condition <= CONDITION_LIMIT)
        else:
            x, y = np.array(start, dtype=float).reshape(p, 2).T
            condition, fitted = np.full(p, math.nan), np.arange(p)
        rows = np.full((8, p), math.nan)
        rows[6], rows[7] = x, y
        iterations, status = np.zeros(p, dtype=int), np.full(p, COLLINEAR)
        rows[:, fitted], iterations[fitted], status[fitted] = _fit(
            x[fitted], y[fitted], problems[:, fitted], max_iterations)
    return FixBatch(rows[6:8].T, rows[0], iterations, status, condition)


def linear_initial_guess(anchors, ranges: list[float]) -> Point2:
    """Least-squares solution of the pairwise-subtracted squared equations.

    Subtracting the first range equation from each of the others removes the
    quadratic term and leaves an (n-1) x 2 linear system in the position.
    Exact at zero noise. Raises :class:`CollinearAnchors` when the system is
    rank-deficient (condition number above 1e8).
    """
    a, r = _checked(anchors, ranges)
    with np.errstate(all="ignore"):
        x, y, condition = _linear_starts(*np.array(a).T[:, None],
                                         np.array(r)[None])
    if not condition[0] <= CONDITION_LIMIT:
        raise _collinear(condition[0])
    return Point2(float(x[0]), float(y[0]))


def tag_residuals(anchors, ranges: list[float]):
    """Residual function p -> (|p - a_i| - r_i, Jacobian) for a tag fix.

    The array form of the residuals :func:`locate_tag` fits, for
    :func:`~uwbcal.leastsq.levenberg_marquardt` and gradient checks.
    """
    a, r = (np.array(v, dtype=float) for v in _checked(anchors, ranges))

    def fun(p):
        return range_residuals(p[None, :] - a, r)

    return fun


def locate_tag(anchors, ranges: list[float], guess=None) -> TagFix:
    """Fix a tag position by damped least squares over the range residuals.

    :func:`solve_fixes` on one problem. ``anchors`` and ``guess`` are
    ``(x, y)`` pairs. Starts from ``guess`` when given, otherwise from the
    linear initialization. Raises :class:`CollinearAnchors`,
    :class:`SingularUpdate`, or :class:`NotConverged` with the best fix
    attached if the iteration cap is hit.
    """
    a, r = _checked(anchors, ranges)
    x, y = np.array(a).T
    batch = solve_fixes(x[None], y[None], [r],
                        None if guess is None else [tuple(guess)])
    status = batch.status[0]
    if status in (COLLINEAR, SINGULAR):
        raise batch.error(0)
    (fx, fy), = batch.position.tolist()
    fix = TagFix(position=Point2(fx, fy),
                 rms_residual=math.sqrt(batch.objective[0] / len(a)),
                 n_anchors_used=len(a))
    if status == NOT_CONVERGED:
        raise batch.error(0, fix)
    return fix
