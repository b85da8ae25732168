"""Damped least-squares (Levenberg-Marquardt) kernel and range residuals.

One small dense solver for the anchor-network refinement, and the one
range-residual kernel of both solvers. The tag kernel,
:func:`~uwbcal.multilateration.solve_fixes`, runs the same iteration with
the same constants over many two-unknown problems at once. Problems here
have at most a few dozen residuals and ~10 unknowns, so the normal
equations are formed directly.
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
GRAD_TOL = 1e-12  # inf-norm of the objective gradient 2 J^T r
# Rounding a computed distance d costs up to EPS * d, so the objective
# f = sum r_i^2 is known only to within FLOOR_FACTOR * sum |r_i| d_i.
FLOOR_FACTOR = 2.0 * float(np.finfo(float).eps)

# Coincident iterates have no distance gradient; nudge them apart instead.
COINCIDENT_EPS = 1e-9


@dataclass
class LeastSquaresResult:
    x: np.ndarray
    objective: float
    iterations: int
    converged: bool
    grad_inf: float


ResidualFunction = Callable[[np.ndarray],
                            tuple[np.ndarray, np.ndarray, np.ndarray]]


def range_residuals(dx: np.ndarray, dy: np.ndarray, targets: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Residuals |(dx, dy)| - targets and the distances |(dx, dy)|.

    ``dx`` and ``dy`` hold the offsets, arrays of one shape. An offset
    shorter than 1e-12 has no distance gradient: it is replaced in place,
    in ``dx`` and ``dy``, by (COINCIDENT_EPS, 0), so the unit vectors the
    caller forms from them stay finite.
    """
    dist = np.hypot(dx, dy)
    # one pass in the common case; a NaN distance takes the masked path too
    if dist.size and not np.minimum.reduce(dist, axis=None) >= 1e-12:
        coincident = dist < 1e-12
        dx[coincident] = COINCIDENT_EPS
        dy[coincident] = 0.0
        dist[coincident] = COINCIDENT_EPS
    return dist - targets, dist


def levenberg_marquardt(fun: ResidualFunction, x0: np.ndarray,
                        max_iterations: int = MAX_ITERATIONS
                        ) -> LeastSquaresResult:
    """Minimize f = sum(r(x)**2) for fun(x) -> (r, J, d).

    ``d`` holds the magnitude each residual is computed from (the distance
    of a range residual), so rounding makes r_i uncertain by EPS * d_i and f
    by the float floor phi = 2 EPS sum |r_i| d_i. Steps solve (J^T J +
    lam*I) dx = -J^T r. Damping shrinks tenfold on an accepted step and
    grows tenfold on a rejected one, so the objective is non-increasing.
    Convergence is declared when the gradient drops below tolerance, or
    when the step's predicted reduction of f, lam |dx|^2 - J^T r . dx, is
    at most phi: such a step is taken only if it does not raise f, and the
    iteration stops either way. Hitting the iteration cap leaves
    ``converged`` False and the caller decides what to do with the best
    iterate. Raises :class:`SingularUpdate` if the damped system cannot be
    solved even at maximum damping.
    """
    x = np.asarray(x0, dtype=float).copy()
    r, jac, dist = fun(x)
    f = float(r @ r)
    # J^T J, J^T r and the floor change only with an accepted step; the
    # gradient is 2 J^T r, and doubling is exact. The floor's dot products
    # are ndarray.dot, which costs half of what @ does on vectors this short.
    # The scalar bookkeeping (|dx|^2, the predicted reduction, the floor)
    # is in Python floats, whose arithmetic is numpy's without its overhead
    jtj, jtr = jac.T @ jac, jac.T @ r
    floor = FLOOR_FACTOR * float(abs(r).dot(dist))
    grad_inf = 2.0 * _max_abs(jtr) if jtr.size else 0.0

    if grad_inf <= GRAD_TOL:
        return LeastSquaresResult(x, f, 0, True, grad_inf)

    lam = DAMPING_INITIAL
    converged = False
    iterations = 0
    rhs = -jtr
    # J^T J + lam I, formed in place entry for entry: lam is added through
    # a view of the diagonal, and every other entry is J^T J's own
    damped = np.empty_like(jtj)
    diagonal = damped.reshape(-1)[::x.size + 1]

    for iterations in range(1, max_iterations + 1):
        damped[...] = jtj
        diagonal += lam
        try:
            dx = np.linalg.solve(damped, rhs)
            # |dx|^2 is finite only if every entry is; where it overflows,
            # the entries decide
            step_sq = float(dx.dot(dx))
            solved = step_sq < math.inf or _max_abs(dx) < math.inf
        except np.linalg.LinAlgError:
            solved = False
        if not solved:  # a NaN or infinite entry in dx
            lam *= DAMPING_GROW
            if lam > DAMPING_MAX:
                raise SingularUpdate(
                    "normal equations unsolvable at maximum damping")
            continue

        x_trial = x + dx
        r_trial, jac_trial, dist = fun(x_trial)
        f_trial = float(r_trial @ r_trial)
        # the predicted reduction is within rounding of f: no step can
        # lower f any more than rounding does, so this is the last one
        at_floor = lam * step_sq + float(rhs.dot(dx)) <= floor

        if f_trial < f or at_floor and f_trial == f:
            x, r, jac, f = x_trial, r_trial, jac_trial, f_trial
            jtr = jac.T @ r
            grad_inf = 2.0 * _max_abs(jtr)
            if at_floor or grad_inf <= GRAD_TOL:
                converged = True
                break
            jtj, rhs = jac.T @ jac, -jtr
            floor = FLOOR_FACTOR * float(abs(r).dot(dist))
            lam = max(lam / DAMPING_SHRINK, 1e-15)
        else:
            lam *= DAMPING_GROW
            if at_floor:
                converged = True
                break
            if lam > DAMPING_MAX:
                break

    return LeastSquaresResult(x, f, iterations, converged, grad_inf)


def _max_abs(v: np.ndarray) -> float:
    """max |v_i| of a non-empty vector; NaN if any entry is NaN."""
    return float(np.maximum.reduce(np.abs(v)))
