"""Damped least-squares (Levenberg-Marquardt) kernel and range residuals.

One small dense solver for the anchor-network refinement, the range-residual
kernel it builds its residual functions on, and :func:`fit_point`, the same
iteration written out on Python floats for the two-unknown tag fix, taking
damped Newton steps where the objective is convex.
Problems here have at most a few dozen residuals and ~10 unknowns, so the
normal equations are formed directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SingularUpdate

DAMPING_INITIAL = 1e-3
DAMPING_GROW = 10.0
DAMPING_SHRINK = 10.0
DAMPING_MAX = 1e14
MAX_ITERATIONS = 100
STEP_TOL = 1e-9   # max |coordinate update|, meters
GRAD_TOL = 1e-12  # inf-norm of the objective gradient 2 J^T r

# Coincident iterates have no distance gradient; nudge them apart instead.
COINCIDENT_EPS = 1e-9


@dataclass
class LeastSquaresResult:
    x: np.ndarray
    objective: float
    iterations: int
    converged: bool
    grad_inf: float


ResidualFunction = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def range_residuals(diff: np.ndarray,
                    targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals |diff_k| - targets_k and the unit vectors diff_k / |diff_k|.

    ``diff`` holds one 2-D difference vector per row; the unit vectors are
    the residuals' derivatives with respect to it. A row shorter than 1e-12
    is replaced by (COINCIDENT_EPS, 0) so the Jacobian stays finite.
    """
    dist = np.hypot(diff[:, 0], diff[:, 1])
    coincident = dist < 1e-12
    if coincident.any():
        diff = diff.copy()
        diff[coincident] = (COINCIDENT_EPS, 0.0)
        dist[coincident] = COINCIDENT_EPS
    return dist - targets, diff / dist[:, None]


def objective_and_gradient(fun: ResidualFunction,
                           x: np.ndarray) -> tuple[float, np.ndarray]:
    """Objective sum(r(x)**2) and its gradient 2 J^T r for fun(x) -> (r, J)."""
    r, jac = fun(np.asarray(x, dtype=float))
    return float(r @ r), 2.0 * (jac.T @ r)


def levenberg_marquardt(fun: ResidualFunction, x0: np.ndarray,
                        max_iterations: int = MAX_ITERATIONS
                        ) -> LeastSquaresResult:
    """Minimize sum(r(x)**2) for fun(x) -> (r, J).

    Steps solve (J^T J + lam*I) dx = -J^T r. Damping shrinks tenfold on an
    accepted step and grows tenfold on a rejected one, so the objective is
    non-increasing. Convergence is declared when the proposed step or the
    gradient drops below tolerance; hitting the iteration cap leaves
    ``converged`` False and the caller decides what to do with the best
    iterate. Raises :class:`SingularUpdate` if the damped system cannot be
    solved even at maximum damping.
    """
    x = np.asarray(x0, dtype=float).copy()
    r, jac = fun(x)
    f = float(r @ r)
    # J^T J and J^T r change only with an accepted step; the gradient is
    # 2 J^T r, and doubling is exact
    jtj, jtr = jac.T @ jac, jac.T @ r
    grad_inf = 2.0 * float(np.abs(jtr).max()) if jtr.size else 0.0

    if grad_inf <= GRAD_TOL:
        return LeastSquaresResult(x, f, 0, True, grad_inf)

    lam = DAMPING_INITIAL
    converged = False
    iterations = 0
    identity = np.eye(x.size)

    for iterations in range(1, max_iterations + 1):
        try:
            dx = np.linalg.solve(jtj + lam * identity, -jtr)
        except np.linalg.LinAlgError:
            dx = None
        if dx is None or not np.isfinite(dx).all():
            lam *= DAMPING_GROW
            if lam > DAMPING_MAX:
                raise SingularUpdate(
                    "normal equations unsolvable at maximum damping")
            continue

        step_inf = float(np.abs(dx).max())
        r_trial, jac_trial = fun(x + dx)
        f_trial = float(r_trial @ r_trial)

        if f_trial < f:
            x = x + dx
            r, jac, f = r_trial, jac_trial, f_trial
            jtj, jtr = jac.T @ jac, jac.T @ r
            grad_inf = 2.0 * float(np.abs(jtr).max())
            lam = max(lam / DAMPING_SHRINK, 1e-15)
            if step_inf < STEP_TOL or grad_inf <= GRAD_TOL:
                converged = True
                break
        else:
            lam *= DAMPING_GROW
            if step_inf < STEP_TOL:
                # The solver cannot improve on x even with a tiny step: done.
                converged = True
                break
            if lam > DAMPING_MAX:
                break

    return LeastSquaresResult(x, f, iterations, converged, grad_inf)


def _point_normal_equations(terms, x: float, y: float):
    """Objective, J^T r and the step matrix of the range residuals at (x, y).

    ``terms`` holds one (anchor x, anchor y, range) triple per residual; the
    coincident-point nudge is the one :func:`range_residuals` applies.
    Returns (f, g0, g1, h00, h01, h11) with g = J^T r. The matrix h is the
    Hessian of f / 2, J^T J plus each residual's curvature r/d (I - u u^T),
    when that is positive definite, so steps are damped Newton steps;
    otherwise (far from a minimum, or on an anchor) it is J^T J.
    """
    f = g0 = g1 = h00 = h01 = h11 = k00 = k01 = k11 = 0.0
    for ax, ay, target in terms:
        dx, dy = x - ax, y - ay
        dist = math.hypot(dx, dy)
        if dist < 1e-12:
            dx, dy, dist = COINCIDENT_EPS, 0.0, COINCIDENT_EPS
        r = dist - target
        ux, uy = dx / dist, dy / dist
        c = r / dist
        xx, xy, yy = ux * ux, ux * uy, uy * uy
        f += r * r
        g0 += ux * r
        g1 += uy * r
        h00 += xx
        h01 += xy
        h11 += yy
        k00 += c * yy
        k01 += c * xy
        k11 += c * xx
    n00, n01, n11 = h00 + k00, h01 - k01, h11 + k11
    if n00 > 0.0 and n00 * n11 - n01 * n01 > 0.0:
        return f, g0, g1, n00, n01, n11
    return f, g0, g1, h00, h01, h11


def fit_point(anchors_xy, ranges, x0,
              max_iterations: int = MAX_ITERATIONS) -> LeastSquaresResult:
    """Fit one planar point to ranges from known anchors.

    The iteration of :func:`levenberg_marquardt` on the residuals
    |p - a_i| - r_i, with the same constants and accept, reject and stop
    rules, written on Python floats: the 2x2 damped system is solved in
    closed form. Where the objective is locally convex the damped matrix is
    the full Hessian rather than J^T J (see :func:`_point_normal_equations`),
    so the iteration converges quadratically on residuals that are not zero
    at the optimum, where Gauss-Newton only converges linearly. A zero or
    non-finite determinant or step is treated like an unsolvable system
    there: damping grows, and :class:`SingularUpdate` is raised past
    ``DAMPING_MAX``. ``anchors_xy`` holds (x, y) pairs, one per
    range; ``x0`` is the (x, y) start.
    """
    terms = [(float(ax), float(ay), float(t))
             for (ax, ay), t in zip(anchors_xy, ranges)]
    x, y = float(x0[0]), float(x0[1])
    f, g0, g1, h00, h01, h11 = _point_normal_equations(terms, x, y)
    grad_inf = 2.0 * max(abs(g0), abs(g1))

    if grad_inf <= GRAD_TOL:
        return LeastSquaresResult(np.array([x, y]), f, 0, True, grad_inf)

    lam = DAMPING_INITIAL
    converged = False
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        a, d = h00 + lam, h11 + lam
        det = a * d - h01 * h01
        solved = det != 0.0 and math.isfinite(det)
        if solved:
            dx = (h01 * g1 - d * g0) / det
            dy = (h01 * g0 - a * g1) / det
            solved = math.isfinite(dx) and math.isfinite(dy)
        if not solved:
            lam *= DAMPING_GROW
            if lam > DAMPING_MAX:
                raise SingularUpdate(
                    "normal equations unsolvable at maximum damping")
            continue

        step_inf = max(abs(dx), abs(dy))
        trial = _point_normal_equations(terms, x + dx, y + dy)

        if trial[0] < f:
            x, y = x + dx, y + dy
            f, g0, g1, h00, h01, h11 = trial
            grad_inf = 2.0 * max(abs(g0), abs(g1))
            lam = max(lam / DAMPING_SHRINK, 1e-15)
            if step_inf < STEP_TOL or grad_inf <= GRAD_TOL:
                converged = True
                break
        else:
            lam *= DAMPING_GROW
            if step_inf < STEP_TOL:
                # The solver cannot improve on x even with a tiny step: done.
                converged = True
                break
            if lam > DAMPING_MAX:
                break

    return LeastSquaresResult(np.array([x, y]), f, iterations, converged,
                              grad_inf)
