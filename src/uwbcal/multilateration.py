"""Tag localization from ranges to anchors at known positions.

One kernel, :func:`solve_fixes`, fixes P tags at once from ``(P, N)``
arrays: N anchor positions and N ranges per tag. The start point comes from
the standard linearization (subtracting the first squared-range equation
from the rest), solved by a QR factorization, which also disambiguates the
mirror solution that exists with exactly three anchors. The fit is the
iteration of :func:`~uwbcal.leastsq.levenberg_marquardt` with its constants
and its accept, reject and stop rules, float floor included, with one
change: where the objective is locally convex the damped matrix is the full
Hessian rather than J^T J, so steps near a fix are damped Newton steps.
Range residuals are not zero at the optimum, where Gauss-Newton only
converges linearly.

Inside the kernel the batch is laid out anchor-major, ``(N, P)``: row i
holds anchor i's values for every problem, so a sum over each problem's N
anchors is a few full-width adds of rows, :func:`_anchor_sum`, rather
than P short row reductions. Every operation is elementwise per problem or such a
sum, so a problem's result is the same, bit for bit, whatever batch it is
solved in. :func:`locate_tag` is
the kernel on one problem. Ranges are expected to be bias-corrected by the
caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CollinearAnchors, NotConverged, SingularUpdate
from .leastsq import (CONVERGED, DAMPING_GROW, DAMPING_INITIAL, DAMPING_MAX,
                      DAMPING_SHRINK, FLOOR_FACTOR, GRAD_TOL, MAX_ITERATIONS,
                      NOT_CONVERGED, SINGULAR, range_residuals)

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
        status = self.status[p]
        if status == COLLINEAR:
            return _collinear(self.condition[p])
        if status == SINGULAR:
            return SingularUpdate(
                "normal equations unsolvable at maximum damping")
        if status == NOT_CONVERGED:
            # short of the cap, the fit stops unconverged only when a
            # rejected step takes the damping past DAMPING_MAX
            iterations = int(self.iterations[p])
            limit = "" if iterations >= self.max_iterations else \
                f" at the damping limit ({DAMPING_MAX:g})"
            return NotConverged(f"tag fix stopped after {iterations} "
                                f"iterations{limit}", result)
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


def _residuals(x: np.ndarray, y: np.ndarray, problems: np.ndarray):
    """The objective f = sum r_i^2 of every problem at (x, y), and the
    offsets, distances and residuals :func:`_equations` goes on from.

    ``x`` and ``y`` are ``(P,)``; ``problems`` stacks the anchor x, anchor
    y and range arrays anchor-major, ``(3, N, P)``, and the offsets,
    distances and residuals are ``(N, P)`` too; f is their
    :func:`_anchor_sum`. The offsets are those
    :func:`~uwbcal.leastsq.range_residuals` left, coincident ones nudged.
    """
    ax, ay, ranges = problems
    dx = x - ax
    dy = y - ay
    r, dist = range_residuals(dx, dy, ranges)
    return _anchor_sum(r * r), (x, y, dx, dy, dist, r)


def _equations(x, y, dx, dy, dist, r) -> np.ndarray:
    """The ``(9, P)`` rows f, g0, g1, h00, h01, h11, x, y, phi at (x, y),
    from what :func:`_residuals` returned there; g = J^T r.

    The matrix h is the Hessian of f / 2, J^T J plus each residual's
    curvature r/d (I - u u^T), where that is positive definite, so steps are
    damped Newton steps; elsewhere (far from a minimum, or on an anchor) it
    is J^T J. phi is the float floor of f, ``FLOOR_FACTOR`` sum |r| d, as in
    :func:`~uwbcal.leastsq.levenberg_marquardt`. The per-anchor terms are
    laid out ``(10, N, P)``, and all ten sums come from one
    :func:`_anchor_sum` over their anchor axis, which adds each problem's
    terms in the same order whatever the batch (and f as :func:`_residuals`
    forms it).
    """
    # per anchor: r r, ux r, uy r, ux ux, ux uy, uy uy, the curvature terms
    # the Hessian adds to the last three, c uy uy, -c ux uy, c ux ux, and
    # |r| d; the unit vectors and curvature factors take the place of the
    # offsets and distances, which nothing reads after them
    terms = np.empty((10,) + r.shape)
    np.multiply(np.abs(r, terms[9]), dist, terms[9])
    ux = np.divide(dx, dist, dx)
    uy = np.divide(dy, dist, dy)
    c = np.divide(r, dist, dist)
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
    sums = _anchor_sum(terms)
    newton = sums[3:6] + sums[6:9]
    n00, n01, n11 = newton
    np.copyto(sums[3:6], newton,
              where=np.minimum(n00, n00 * n11 - n01 * n01) > 0.0)
    sums[6] = x
    sums[7] = y
    np.multiply(sums[9], FLOOR_FACTOR, sums[8])
    return sums[:9]


def _fit(x: np.ndarray, y: np.ndarray, problems: np.ndarray,
         max_iterations: int):
    """Damped least squares from (x, y) for every problem at once.

    The rules of :func:`~uwbcal.leastsq.levenberg_marquardt`, per problem:
    the 2x2 damped system is solved in closed form, and a zero or
    non-finite determinant or step counts as an unsolvable system (damping
    grows; past ``DAMPING_MAX`` the status is SINGULAR). A step whose
    predicted reduction is at most the float floor phi is taken if it does
    not raise f, and the problem stops CONVERGED either way. A trial point's
    gradient and step matrix are formed only when some accepted problem goes
    on from it; a problem that stops at the floor keeps only the trial's f,
    x and y. The working arrays hold the running problems only: a problem
    that stops leaves them. Returns the rows of :func:`_equations` at each
    problem's last iterate (f, x and y only, for a step taken at the floor),
    its iterations and its status.
    """
    p = len(x)
    out = np.empty((9, p))
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
            # compress along the last axis keeps the arrays contiguous,
            # where a mask index there would leave them strided
            live, lam = live[keep], lam[keep]
            state = state.compress(keep, axis=1)
            problems = problems.compress(keep, axis=2)
        iteration += 1
        if iteration > max_iterations or not len(live):
            break
        f, g0, g1, h00, h01, h11, x, y, floor = state
        a = h00 + lam
        d = h11 + lam
        det = a * d - h01 * h01
        dx = (h01 * g1 - d * g0) / det
        dy = (h01 * g0 - a * g1) / det
        size = np.maximum(np.abs(dx), np.abs(dy))  # NaN or inf unless finite
        solved = np.isfinite(det) & (size < np.inf)
        x_trial, y_trial = x + dx, y + dy
        f_trial, at_trial = _residuals(x_trial, y_trial, problems)
        # predicted reduction lam |d|^2 - g . d within the floor: stop here
        converged = solved & (lam * (dx * dx + dy * dy) - (g0 * dx + g1 * dy)
                              <= floor)
        accept = solved & (f_trial < f) | converged & (f_trial == f)
        last = accept & converged
        go_on = accept ^ last
        if np.count_nonzero(go_on):
            trial = _equations(*at_trial)
            state = np.where(go_on, trial, state)
            converged |= go_on & (np.abs(trial[1:3]).max(axis=0)
                                  <= 0.5 * GRAD_TOL)
        if np.count_nonzero(last):
            np.copyto(state[0], f_trial, where=last)
            np.copyto(state[6], x_trial, where=last)
            np.copyto(state[7], y_trial, where=last)
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
        rows = np.full((9, p), math.nan)
        rows[6], rows[7] = x, y
        iterations, status = np.zeros(p, dtype=int), np.full(p, COLLINEAR)
        rows[:, fitted], iterations[fitted], status[fitted] = _fit(
            x[fitted], y[fitted], problems.take(fitted, axis=2),
            max_iterations)
    return FixBatch(rows[6:8].T, rows[0], iterations, status, condition,
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
