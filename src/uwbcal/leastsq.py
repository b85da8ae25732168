"""Damped least-squares (Levenberg-Marquardt) kernels and range residuals.

:func:`levenberg_marquardt` solves one small dense problem from any start.
:func:`damped_least_squares` is the one loop that runs its rules on many
problems at once, and two step rules drive it: the stacked solves of
:func:`levenberg_marquardt_batch`, with which the anchor network is
calibrated, and the closed-form 2x2 Newton steps of the tag kernel,
:func:`~uwbcal.multilateration.solve_fixes`. :func:`failure` turns a
problem's status into the error the callers raise. This module also holds
the one range-residual kernel of every solver. Problems here have at most
a few dozen residuals and ~10 unknowns, so the normal equations are formed
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotConverged, SingularUpdate, UwbCalError

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

# Per-problem status codes of the batched kernels. NOT_CONVERGED covers the
# iteration cap and a rejected step at maximum damping; SINGULAR is a damped
# system unsolvable at maximum damping.
CONVERGED, NOT_CONVERGED, SINGULAR = range(3)


@dataclass
class LeastSquaresResult:
    x: np.ndarray
    objective: float
    iterations: int
    converged: bool
    grad_inf: float


@dataclass(frozen=True)
class LeastSquaresBatch:
    """Per-problem results of :func:`damped_least_squares`: ``x`` is
    ``(K, n)``; ``objective``, ``iterations`` and ``status`` have length K.
    A SINGULAR problem's ``x`` and ``objective`` are those of its last
    accepted iterate."""

    x: np.ndarray
    objective: np.ndarray
    iterations: np.ndarray
    status: np.ndarray


ResidualFunction = Callable[[np.ndarray],
                            tuple[np.ndarray, np.ndarray, np.ndarray]]
BatchResidualFunction = Callable[[np.ndarray, np.ndarray],
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
    iteration stops either way. An infinite f has no floor: its residuals'
    squares overflow, and only a step that brings f down is taken, so it
    ends at the damping limit unless one does. Hitting the iteration cap leaves
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
                raise failure(SINGULAR)
            continue

        x_trial = x + dx
        r_trial, jac_trial, dist = fun(x_trial)
        f_trial = float(r_trial @ r_trial)
        # the predicted reduction is within rounding of f: no step can
        # lower f any more than rounding does, so this is the last one
        at_floor = f < math.inf and \
            lam * step_sq + float(rhs.dot(dx)) <= floor

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


def levenberg_marquardt_batch(fun: BatchResidualFunction, x0: np.ndarray,
                              max_iterations: int = MAX_ITERATIONS
                              ) -> LeastSquaresBatch:
    """:func:`levenberg_marquardt`'s iteration on K problems of n unknowns
    and m residuals at once, from the rows of ``x0``, ``(K, n)``.

    ``fun(x, live)`` takes the iterates ``(L, n)`` of the problems whose
    indices are ``live`` and returns their residuals ``(L, m)``, the
    transposed Jacobians J^T ``(L, n, m)`` and the distances ``(L, m)``.
    :func:`damped_least_squares` runs the problems, with the rows of
    :func:`_state` and the steps of the stacked damped systems (J^T J +
    lam I) dx = -J^T r. Every product, dot product and solve is a stacked
    call that makes one BLAS or LAPACK call per problem, the one the scalar
    kernel makes, so a problem's result is the same, bit for bit, in any
    batch, and the scalar kernel's where J is column-major.
    """
    n = np.shape(x0)[1]

    def step(rows, lam):
        damped = rows[:, 2 * n + 2:].reshape(-1, n, n).copy()
        damped.reshape(-1, n * n)[:, ::n + 1] += lam[:, None]
        rhs = -rows[:, n + 2:2 * n + 2]
        dx = _solve(damped, rhs)
        # |dx|^2 overflows where an entry is large; the entries decide
        return (dx, np.isfinite(dx).all(axis=1),
                lam * _row_dot(dx, dx) + _row_dot(rhs, dx))

    return damped_least_squares(lambda x, live: _state(x, fun(x, live)),
                                step, x0, max_iterations)


def damped_least_squares(evaluate: Callable, step: Callable, x0: np.ndarray,
                         max_iterations: int = MAX_ITERATIONS
                         ) -> LeastSquaresBatch:
    """The Levenberg-Marquardt loop of the batched kernels: K problems of n
    unknowns from the rows of ``x0``, ``(K, n)``, by
    :func:`levenberg_marquardt`'s constants and rules, each problem with
    its own damping.

    A kernel supplies the algebra. ``evaluate(x, live)`` takes the iterates
    ``(L, n)`` of the problems whose indices are ``live`` and returns one
    row per problem: x, f, the float floor of f, J^T r and whatever its
    step reads, ``(L, 2n + 2 + ...)``. ``step(rows, lam)`` returns each
    problem's step dx ``(L, n)`` from those rows under damping ``lam``,
    whether it was solved (a finite step), and its predicted reduction of
    f, lam |dx|^2 - J^T r . dx. A step is accepted if it lowers f. One
    whose predicted reduction is within the floor of a finite f is the
    problem's last: taken if it does not raise f, and the problem stops
    CONVERGED either way. A problem also stops CONVERGED when its gradient
    2 |J^T r|_inf is at most GRAD_TOL; NOT_CONVERGED at the iteration cap,
    or when a rejected step takes its damping past ``DAMPING_MAX``; and
    SINGULAR when its damped system is unsolvable at maximum damping. A
    SINGULAR problem's ``x`` and ``objective`` are those of its last
    accepted iterate. The loop's own arithmetic is elementwise per problem,
    and the rows it works on hold the running problems only: ``live``
    shrinks as problems stop, and keeps its length while none does.
    """
    x = np.array(x0, dtype=float)
    k, n = x.shape
    out = np.empty((k, n + 1))  # x and f
    out_iterations = np.zeros(k, dtype=int)
    out_status = np.full(k, NOT_CONVERGED)
    live = np.arange(k)
    # one np.where keeps an accepted trial and one take compacts. The
    # gradient test 2 |J^T r|_inf <= GRAD_TOL is |J^T r|_inf <= GRAD_TOL / 2,
    # which halving keeps exact
    state = evaluate(x, live)
    lam = np.full(k, DAMPING_INITIAL)
    converged = stop = _row_max_abs(state[:, n + 2:2 * n + 2]) \
        <= 0.5 * GRAD_TOL
    solved = True
    iteration = 0
    while True:
        if stop.any():
            done = live[stop]
            out[done] = state[stop, :n + 1]
            out_iterations[done] = iteration
            # CONVERGED, else NOT_CONVERGED if the last step was solved,
            # else SINGULAR
            out_status[done] = np.where(converged, CONVERGED,
                                        SINGULAR - solved)[stop]
            keep = ~stop
            live, state, lam = live[keep], state[keep], lam[keep]
        iteration += 1
        if iteration > max_iterations or not live.size:
            break
        f, floor = state[:, n], state[:, n + 1]
        dx, solved, predicted = step(state, lam)
        trial = evaluate(state[:, :n] + dx, live)
        f_trial = trial[:, n]
        # the predicted reduction is within rounding of a finite f: the
        # problem's last step, taken if it does not raise f
        at_floor = solved & (f < math.inf) & (predicted <= floor)
        accept = solved & (f_trial < f) | at_floor & (f_trial == f)
        converged = at_floor | accept & (
            _row_max_abs(trial[:, n + 2:2 * n + 2]) <= 0.5 * GRAD_TOL)
        state = np.where(accept[:, None], trial, state)
        lam = np.where(accept, np.maximum(lam / DAMPING_SHRINK, 1e-15),
                       lam * DAMPING_GROW)
        stop = converged | (lam > DAMPING_MAX)
    out[live] = state[:, :n + 1]
    out_iterations[live] = max_iterations
    return LeastSquaresBatch(out[:, :n], out[:, n], out_iterations,
                             out_status)


def failure(status: int, noun: str = "", iterations: int = 0,
            max_iterations: int = MAX_ITERATIONS,
            result=None) -> UwbCalError | None:
    """The error of a problem that ended with ``status``: a
    :class:`SingularUpdate`, or a :class:`NotConverged` that names the
    ``noun`` and its ``iterations`` and carries ``result``; None for
    CONVERGED. Short of the cap ``max_iterations``, a problem stops
    unconverged only when a rejected step takes the damping past
    ``DAMPING_MAX``, and the message says so."""
    if status == SINGULAR:
        return SingularUpdate("normal equations unsolvable at maximum damping")
    if status == NOT_CONVERGED:
        limit = "" if iterations >= max_iterations else \
            f" at the damping limit ({DAMPING_MAX:g})"
        return NotConverged(f"{noun} stopped after {iterations} "
                            f"iterations{limit}", result)
    return None


def _state(x: np.ndarray, at_x) -> np.ndarray:
    """The rows x, f, the float floor, J^T r and J^T J of each problem at
    ``x``, ``(L, 2 + n (n + 2))``, from ``fun``'s residuals ``(L, m)``,
    J^T ``(L, n, m)`` and distances ``(L, m)`` there. numpy multiplies a
    strided stack in its own loops but a contiguous one through BLAS, and
    a stack of one counts as contiguous whatever its strides, so J^T is
    made contiguous first."""
    r, jac_t, dist = at_x
    jac_t = np.ascontiguousarray(jac_t)
    n = x.shape[1]
    rows = np.empty((len(x), 2 + n * (n + 2)))
    rows[:, :n] = x
    rows[:, n] = _row_dot(r, r)
    rows[:, n + 1] = FLOOR_FACTOR * _row_dot(np.abs(r), dist)
    np.matmul(jac_t, r[:, :, None], out=rows[:, n + 2:2 * n + 2, None])
    np.matmul(jac_t, jac_t.transpose(0, 2, 1),
              out=rows[:, 2 * n + 2:].reshape(-1, n, n))
    return rows


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``a`` with the same row of ``b``, as
    a stacked product of a row by a column: each is the BLAS dot product
    that ``ndarray.dot`` and ``@`` form on one pair of vectors."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_max_abs(a: np.ndarray) -> np.ndarray:
    """max |a_ij| of each row; NaN where a row holds a NaN."""
    return np.maximum.reduce(np.abs(a), axis=1)


def _solve(damped: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The stacked solves ``damped[p] dx[p] = rhs[p]``; NaN for a problem
    whose system LAPACK finds singular. Each is its own LAPACK call, in a
    stack or alone, so one problem's solution does not depend on another's."""
    try:
        return np.linalg.solve(damped, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:  # one singular system fails the stack
        dx = np.full_like(rhs, math.nan)
        for p in range(len(rhs)):
            try:
                dx[p] = np.linalg.solve(damped[p], rhs[p])
            except np.linalg.LinAlgError:
                pass
        return dx


def _max_abs(v: np.ndarray) -> float:
    """max |v_i| of a non-empty vector; NaN if any entry is NaN."""
    return float(np.maximum.reduce(np.abs(v)))
