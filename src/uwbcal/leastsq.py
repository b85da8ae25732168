"""Damped least-squares (Levenberg-Marquardt) kernel and range residuals.

One small dense solver shared by the anchor-network refinement and the tag
fix, and the range-residual kernel both build their residual functions on.
Problems here have at most a few dozen residuals and ~10 unknowns, so the
normal equations are formed directly.
"""

from __future__ import annotations

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
    grad = 2.0 * (jac.T @ r)
    grad_inf = float(np.abs(grad).max()) if grad.size else 0.0

    if grad_inf <= GRAD_TOL:
        return LeastSquaresResult(x, f, 0, True, grad_inf)

    lam = DAMPING_INITIAL
    converged = False
    iterations = 0
    identity = np.eye(x.size)

    for iterations in range(1, max_iterations + 1):
        jtj = jac.T @ jac
        jtr = jac.T @ r
        try:
            dx = np.linalg.solve(jtj + lam * identity, -jtr)
        except np.linalg.LinAlgError:
            dx = None
        if dx is None or not np.all(np.isfinite(dx)):
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
            grad = 2.0 * (jac.T @ r)
            grad_inf = float(np.abs(grad).max())
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
