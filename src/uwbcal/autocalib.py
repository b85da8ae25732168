"""Anchor-network self-calibration from inter-anchor range statistics.

A calibration solves its round on its own. A classical-MDS start places
every anchor from every pair's distance in the bootstrap gauge (anchor 0 at
the origin, anchor 1 on the positive x-axis, anchor 2 at y >= 0), and a
damped least-squares refinement in that gauge adjusts all positions to
match the full set of pairwise distances. Distances cannot observe the
frame's rotation or handedness, so a re-calibration takes them from its
prior: the refined shape is turned about anchor 0 onto the prior by a
closed-form fit, and mirrored first where the mirror image fits better.
:func:`solve_networks` is the one entry that starts, refines and reports
calibrations: one round by the scalar kernel, many rounds of one anchor
count at once by the batched one, and a problem's result is the same, bit
for bit, alone or in any batch. :func:`calibrate` solves its round through
it, and :func:`refine_lse` any start.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, islice
from operator import mul

import numpy as np

from .errors import (CsvFormatError, DegenerateGeometry, NotConverged,
                     SingularUpdate, UwbCalError, csv_rows, echo)
# solve_networks looks levenberg_marquardt up here at each call, for a
# batch of one; bench/tracing.py hooks the name for its leastsq metrics
# until ROADMAP item 8 retires the tracer
from .leastsq import (CONVERGED, MAX_ITERATIONS, NOT_CONVERGED, SINGULAR,
                      failure, levenberg_marquardt, levenberg_marquardt_batch,
                      range_residuals)
from .ranging import RangingModel


# the largest count a numpy int holds; a distance CSV names at most
# MISSING_PAIRS_NAMED missing pairs and counts the rest; a scenario and a
# distance CSV hold at most MAX_ANCHORS anchors
MAX_COUNT, MISSING_PAIRS_NAMED, MAX_ANCHORS = np.iinfo(int).max, 10, 64


def _check_pair(n, i, j, mean, std, count) -> None:
    """ValueError unless ``(i, j)`` is a pair of distinct anchors below ``n``
    with a count from 1 to MAX_COUNT, a mean > 0 and a std >= 0."""
    _check_ids(n, i, j)
    if not 1 <= count <= MAX_COUNT:
        raise ValueError(f"pair ({i},{j}): count must be from 1 to "
                         f"{MAX_COUNT}, got {count}")
    if mean <= 0.0:
        raise ValueError(f"pair ({i},{j}): mean must be positive, got {mean}")
    if std < 0.0:
        raise ValueError(f"pair ({i},{j}): std must be >= 0, got {std}")


def _check_ids(n: int, i: int, j: int) -> None:
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ValueError(f"invalid anchor pair ({echo(i)},{echo(j)}) for "
                         f"n={n}")


@dataclass(frozen=True)
class PairStats:
    """Mean/std/count of range measurements for one directed anchor pair."""

    mean: float
    std: float
    count: int


class DistanceStatsMatrix:
    """Per-directed-pair range statistics for a deployment of n anchors.

    Entry (i, j) holds what anchor i measured toward anchor j. The
    symmetrized view, ``sym_table``, combines both directions with count
    weighting, since the ranging protocol measures every pair from both
    initiator roles and all of that data is equally good.
    """

    def __init__(self, n_anchors: int):
        if n_anchors < 3:
            raise ValueError(f"need at least 3 anchors, got {n_anchors}")
        self.n_anchors = n_anchors
        self._mean = np.zeros((n_anchors, n_anchors))
        self._std = np.zeros((n_anchors, n_anchors))
        self._count = np.zeros((n_anchors, n_anchors), dtype=int)

    def set_pair(self, i: int, j: int, mean: float, std: float, count: int) -> None:
        _check_pair(self.n_anchors, i, j, mean, std, count)
        self._mean[i, j] = mean
        self._std[i, j] = std
        self._count[i, j] = count

    def _store(self, i: np.ndarray, j: np.ndarray, mean: np.ndarray,
               std: np.ndarray, count: int) -> None:
        """``set_pair`` over arrays of directed pairs sharing one count,
        without its checks, for a caller whose block is known valid."""
        self._mean[i, j] = mean
        self._std[i, j] = std
        self._count[i, j] = count

    def pair(self, i: int, j: int) -> PairStats | None:
        _check_ids(self.n_anchors, i, j)
        if self._count[i, j] == 0:
            return None
        return PairStats(self._mean[i, j], self._std[i, j],
                         int(self._count[i, j]))

    def sym_table(self, model: RangingModel | None = None
                  ) -> tuple[tuple[tuple[int, int], ...], list[float]]:
        """Every pair ``(i, j)``, i < j, measured in at least one direction,
        and its count-weighted mean of the (i,j) and (j,i) directed means,
        each first corrected through ``model.correct`` if given and never
        clamped: a short distance corrected below zero fails as geometry.
        An unmeasured direction's mean is 0, so a correction that overflows
        gives inf, never NaN (see :func:`_sym_means`).
        """
        total, targets = _sym_means(self._count, self._mean, model)
        measured = total > 0
        pairs = _upper_pairs(self.n_anchors)[2]
        if measured.all():
            return pairs, targets.tolist()
        return (tuple(p for p, ok in zip(pairs, measured.tolist()) if ok),
                targets[measured].tolist())


@functools.lru_cache(maxsize=64)
def _upper_pairs(n: int):
    """The rows, columns and ``(i, j)`` tuples of the pairs i < j of n
    anchors, in row order; the arrays read-only."""
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju, tuple(zip(iu.tolist(), ju.tolist()))


def _sym_means(count: np.ndarray, mean: np.ndarray,
               model: RangingModel | None):
    """:meth:`DistanceStatsMatrix.sym_table` over stacked ``(..., n, n)``
    directed counts and means: each pair's count total and count-weighted
    mean, for every pair i < j in row order (NaN where none was measured).

    The arithmetic is that of Python numbers: a count converts to a float
    exactly, and total and products round once, as long as counts stay
    below 2^52; beyond, the counts are taken as Python ints. A sum that
    overflows is inf without a warning.
    """
    if model is not None:
        # a slope near 5e-324 takes a mean to inf, which the bootstrap
        # and the refinement reject; no warning is needed for it
        with np.errstate(over="ignore"):
            mean = np.where(count > 0, model.correct(mean), 0.0)
    if count.max(initial=0) >= 2 ** 52:
        count = count.astype(object)
    iu, ju, _ = _upper_pairs(count.shape[-1])
    c_ij, c_ji = count[..., iu, ju], count[..., ju, iu]
    total = c_ij + c_ji
    with np.errstate(all="ignore"):
        targets = (c_ij * mean[..., iu, ju] + c_ji * mean[..., ju, iu]) \
            / np.where(total > 0, total, math.nan)
    return total, targets.astype(float)


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    """Anchor positions in the anchor frame, a read-only ``(N, 2)`` array,
    plus solver diagnostics."""

    positions: np.ndarray
    rms_residual: float
    iterations: int
    converged: bool

    def __post_init__(self):
        if tuple(self.positions[0]) != (0.0, 0.0):
            raise ValueError("anchor 0 must sit exactly at the origin")


def initial_placement(d: DistanceStatsMatrix) -> list[tuple[float, float]]:
    """Classical-MDS start from every pair's symmetrized mean."""
    pairs, targets = d.sym_table()
    (start,), (error,) = _starts(d.n_anchors, pairs, [targets])
    if error is not None:
        raise error
    return list(map(tuple, start.tolist()))


@functools.lru_cache(maxsize=64)
def _centring(n: int) -> np.ndarray:
    """The n x n centring matrix I - 1/n, read-only."""
    centring = np.eye(n) - 1.0 / n
    centring.flags.writeable = False
    return centring


def _starts(n: int, pairs, targets, measured=None):
    """The starts ``(K, n, 2)`` of K problems over ``pairs``, from the K
    rows of their means ``targets``: classical MDS
    (Torgerson 1952) of the squared distances over the largest, negative
    eigenvalues clamped at 0, in the gauge anchor 0 at the origin, anchor 1
    on +x, anchor 2 at y >= 0. Every matrix product and eigensolve is per
    problem, and each problem's turn is formed by ``math``'s trigonometry,
    whose results do not depend on numpy's vector loops. Also each
    problem's :class:`DegenerateGeometry` (its start NaN), or None: the
    first pair, by its larger anchor, that is unmeasured (not in ``pairs``,
    or 0 in the ``(K, m)`` counts ``measured``) or not positive and
    finite, else an anchor whose start overflows."""
    k = len(targets)
    ii, jj = np.array(pairs, dtype=int).reshape(-1, 2).T
    table = np.zeros((k, n, n))
    table[:, jj, ii] = targets
    errors = [None] * k
    usable = (table > 0.0) & (table < math.inf)
    if np.count_nonzero(usable) < k * n * (n - 1) // 2:
        known = np.zeros((k, n, n), dtype=bool)
        known[:, jj, ii] = True if measured is None else measured
        # in reverse, so that each problem keeps its first bad pair, by
        # its larger anchor
        bad = np.argwhere(np.tri(n, k=-1, dtype=bool) & ~usable)[::-1]
        for p, j, i in bad.tolist():
            why = (f"has distance {table[p, j, i]}, which is not positive "
                   f"and finite" if known[p, j, i] else "was not measured")
            errors[p] = DegenerateGeometry(
                f"anchor {j}: pair ({i},{j}) {why}", anchor_id=j)
        table[bad[:, 0]] = 1.0  # a stand-in keeps the algebra finite
    scale = table.max(axis=(1, 2))[:, None, None]
    sq, centring = (table / scale) ** 2, _centring(n)
    eigval, eigvec = np.linalg.eigh(
        -0.5 * (centring @ (sq + sq.transpose(0, 2, 1)) @ centring))
    xy = eigvec[:, :, -2:] * np.sqrt(np.maximum(eigval[:, None, -2:], 0.0))
    xy -= xy[:, :1]
    turn = np.empty((k, 2, 2))
    for p, (_, (x1, y1), (x2, y2)) in enumerate(xy[:, :3].tolist()):
        angle = math.atan2(y1, x1)
        c, s = math.cos(angle), math.sin(angle)
        flip = -1.0 if c * y2 - s * x2 < 0.0 else 1.0
        turn[p] = ((c, -flip * s), (s, flip * c))
    with np.errstate(over="ignore"):
        rows = xy @ (scale * turn)
    finite = np.isfinite(rows).all(axis=2)
    if not finite.all():
        for p, i in np.argwhere(~finite)[::-1].tolist():
            errors[p] = DegenerateGeometry(f"anchor {i}: the start overflows "
                                           f"floating point", anchor_id=i)
    rows[:, 0] = 0.0
    rows[:, 1, 1] = 0.0
    if any(errors):
        rows[[p for p, error in enumerate(errors) if error]] = math.nan
    return rows, errors


def _free_columns(n_anchors: int) -> np.ndarray:
    """Flat-coordinate columns the optimizer may move: all but anchor 0's
    and anchor 1's y, the bootstrap gauge."""
    cols = np.arange(2, 2 * n_anchors)
    return cols[cols != 3]


@functools.lru_cache(maxsize=64)
def _residual_layout(n_anchors: int, pairs: tuple[tuple[int, int], ...]):
    """The residual function's layout over ``pairs``, read-only.

    Returns the free flat coordinates; the matrix of +1, -1 and 0 whose
    product with a vector of free coordinates is the flat pair differences
    p_i - p_j, ``(2m,)``: each is one exact product or the sum of two, so it
    rounds once, as the difference does, in any order of summation; and
    each free coordinate's axis (0 for x) and its sign in every pair, +1 at
    the pair's first anchor, -1 at its second and 0 elsewhere, ``(n_free,
    m)``. With u the pairs' unit vectors, J^T is ``u.T[axis] * sign``.
    """
    free_cols = _free_columns(n_anchors)
    ii, jj = np.array(pairs, dtype=int).reshape(-1, 2).T
    rows, xy = np.arange(len(pairs)), np.arange(2)
    full = np.zeros((2 * n_anchors, len(pairs), 2))
    full[2 * ii[:, None] + xy, rows[:, None], xy] = 1.0
    full[2 * jj[:, None] + xy, rows[:, None], xy] = -1.0
    free, axis = full[free_cols], free_cols % 2
    layout = (free_cols, free.reshape(len(free_cols), -1), axis,
              free[np.arange(len(free_cols)), :, axis])
    for a in layout:
        a.flags.writeable = False
    return layout


def _residuals(n_anchors: int, pairs, targets):
    """``fun(x, live=0)`` -> (r, J, d) over ``pairs``, whose means are the
    rows of the array ``targets`` ``(K, m)``, and the pair distances d: of
    row ``live`` for free coordinates ``(n_free,)``, J column-major as the
    transpose of the J^T it is formed as; of the rows ``live`` for iterates
    ``(L, n_free)``, with J^T ``(L, n_free, m)`` in place of J."""
    _, difference, axis, sign = _residual_layout(n_anchors, pairs)
    m = len(pairs)

    def fun(x, live=0):
        diff = (x @ difference).reshape(x.shape[:-1] + (m, 2))
        r, dist = range_residuals(diff[..., 0], diff[..., 1], targets[live])
        jac_t = (diff / dist[..., None]).swapaxes(-1, -2) \
            .take(axis, axis=-2) * sign
        return r, jac_t if x.ndim > 1 else jac_t.T, dist

    return fun


def refine_lse(initial, d: DistanceStatsMatrix) -> CalibrationResult:
    """Adjust anchor positions, ``(x, y)`` pairs, to best match the measured
    distances, in the bootstrap gauge.

    Anchor 0 stays at the origin and anchor 1 on the x-axis; a start that
    has them elsewhere is a ValueError. Raises :class:`NotConverged` with
    the best iterate attached if the iteration cap is reached, or if a
    rejected step takes the damping past ``DAMPING_MAX`` before it; the
    message names which.
    """
    n = d.n_anchors
    start = _positions(initial, n, "initial positions")
    if start[0, 0] != 0.0 or start[0, 1] != 0.0:
        raise ValueError("initial[0] must be the origin")
    if start[1, 1] != 0.0:
        raise ValueError("initial[1] must lie on the x-axis")
    if not np.isfinite(start).all():
        raise ValueError("initial positions must be finite")
    pairs, targets = d.sym_table()
    return calibrate(d, None, solved=solve_networks(
        n, pairs, [targets], start=start[None]).outcome(0))


def _positions(points, n: int, what: str) -> np.ndarray:
    """``points``, ``(x, y)`` pairs or an ``(N, 2)`` array, as an ``(n, 2)``
    float array; ValueError if there are not n of them or one is not a
    pair."""
    if len(points) != n:
        raise ValueError(f"expected {n} {what}, got {len(points)}")
    try:
        points = np.asarray(points, dtype=float)
    except ValueError:  # ragged: rows of different lengths
        points = None
    if points is None or points.shape != (n, 2):
        raise ValueError(f"{what} must be {n} (x, y) pairs")
    return points


@dataclass(frozen=True)
class NetworkBatch:
    """Per-problem results of :func:`solve_networks`, in the bootstrap
    gauge.

    ``positions`` is ``(K, N, 2)``, read-only; ``rms_residual``,
    ``iterations``, ``status`` (CONVERGED, NOT_CONVERGED or SINGULAR) and
    ``start_errors`` (a failed start's :class:`DegenerateGeometry`, else
    None) have length K; ``max_iterations`` is the cap the problems were
    refined under.
    """

    positions: np.ndarray
    rms_residual: np.ndarray
    iterations: np.ndarray
    status: np.ndarray
    start_errors: list
    max_iterations: int = MAX_ITERATIONS

    def outcome(self, k: int) -> "CalibrationResult | UwbCalError":
        """Problem k as :func:`calibrate` takes it through ``solved``: its
        result if it converged, else the error a calibration raises, the
        :class:`DegenerateGeometry` of its start, a :class:`NotConverged`
        with the best iterate attached or a :class:`SingularUpdate`."""
        if self.start_errors[k]:
            return self.start_errors[k]
        status, iterations = self.status[k], int(self.iterations[k])
        result = CalibrationResult(self.positions[k],
                                   float(self.rms_residual[k]), iterations,
                                   bool(status == CONVERGED))
        if status == CONVERGED:
            return result
        return failure(status, "refinement", iterations,
                       self.max_iterations, result)


def solve_networks(n: int, pairs, targets, start=None,
                   measured=None) -> NetworkBatch:
    """Calibrate K rounds of n anchors at once in the bootstrap gauge.

    Each row of ``targets`` holds one round's symmetrized means over
    ``pairs``, as a sym_table gives them. Every problem starts from its
    row of ``start`` ``(K, n, 2)`` if given, else from its classical-MDS
    start (:func:`_starts`, which reads ``measured``), and is refined with
    anchor 0 and anchor 1's y pinned: one problem by
    :func:`~uwbcal.leastsq.levenberg_marquardt`, more by
    :func:`~uwbcal.leastsq.levenberg_marquardt_batch`. A problem's result
    depends neither on the batch it is solved in nor on a failed start.
    """
    targets = np.asarray(targets, dtype=float)
    k, m = len(targets), len(pairs)
    start, errors = (_starts(n, pairs, targets, measured) if start is None
                     else (start, [None] * k))
    free_cols = _residual_layout(n, pairs)[0]
    x0 = start.reshape(k, 2 * n).take(free_cols, axis=1)
    fun = _residuals(n, pairs, targets)
    # positions far out overflow to inf or nan, which the refinement's
    # accept rule and step check reject; no warning is needed for them.
    # A problem without a start is refined from NaN, which ends it SINGULAR
    with np.errstate(over="ignore", invalid="ignore"):
        if k > 1:
            lsq = levenberg_marquardt_batch(fun, x0, MAX_ITERATIONS)
            x, f, iterations, status = (lsq.x, lsq.objective,
                                        lsq.iterations, lsq.status)
        else:
            try:
                lsq = levenberg_marquardt(fun, x0[0], MAX_ITERATIONS)
            except SingularUpdate:
                x, f, iterations, status = x0, np.zeros(1), [0], [SINGULAR]
            else:
                x, f = lsq.x, np.array([lsq.objective])
                iterations = [lsq.iterations]
                status = [CONVERGED if lsq.converged else NOT_CONVERGED]
        # no pairs, no residuals: the objective is 0, and so the rms
        rms = np.sqrt(f / max(m, 1))
    flat = np.zeros((k, 2 * n))
    flat[:, free_cols] = x
    flat.flags.writeable = False
    return NetworkBatch(flat.reshape(k, n, 2), rms, iterations, status,
                        errors, MAX_ITERATIONS)


def batch_size(n_anchors: int) -> int:
    """How many rounds of n anchors a caller hands :func:`solve_rounds` at
    once: as many as keep the kernel's stacked Jacobians, 2N - 3 unknowns
    by N (N - 1) / 2 pairs each, within 2^21 floats (16 MB)."""
    size = (2 * n_anchors - 3) * n_anchors * (n_anchors - 1) // 2
    return max(1, 2 ** 21 // size)


def solve_rounds(rounds: list[DistanceStatsMatrix],
                 ranging_model: RangingModel) -> list:
    """What :func:`calibrate` takes through ``solved`` for each of
    ``rounds``, all of one anchor count: its result or error, from one
    :func:`solve_networks` call on their bias-corrected tables, formed as
    ``sym_table`` forms them."""
    # a pair that a round did not measure has a NaN mean and fails its start
    total, targets = _sym_means(np.array([d._count for d in rounds]),
                                np.array([d._mean for d in rounds]),
                                ranging_model)
    n = rounds[0].n_anchors
    batch = solve_networks(n, _upper_pairs(n)[2], targets, measured=total)
    return [batch.outcome(k) for k in range(len(rounds))]


def _scaled(*coordinates: list[float]) -> list[list[float]]:
    """The lists ``coordinates`` times the one power of two that brings
    their largest magnitude into [0.5, 1), exactly but for subnormal
    results; unchanged if they are all 0."""
    e = math.frexp(max(map(abs, chain(*coordinates))))[1]
    return [[math.ldexp(v, -e) for v in c] for c in coordinates]


def _onto_prior(result: CalibrationResult,
                offsets: np.ndarray) -> CalibrationResult:
    """``result`` turned about anchor 0 onto the prior's ``offsets`` from
    its anchor 0, by the 2-D Procrustes angle atan2(sum p x q, sum p . q)
    (Schonemann 1966; Kabsch 1976). Where the mirror image of the shape fits
    the prior better, the shape is mirrored in the x-axis first. Where a
    product could overflow, both are scaled by powers of two first, which
    moves no angle."""
    (px, py), (qx, qy) = result.positions.T.tolist(), offsets.T.tolist()
    # below 1e150, a sum of at most MAX_ANCHORS products is finite
    if max(map(abs, chain(px, py, qx, qy))) >= 1e150:
        (px, py), (qx, qy) = _scaled(px, py), _scaled(qx, qy)
    xx, xy, yx, yy = (sum(map(mul, a, b)) for a, b in
                      ((px, qx), (px, qy), (py, qx), (py, qy)))
    mirror = math.hypot(xx - yy, xy + yx) > math.hypot(xx + yy, xy - yx)
    angle = math.atan2(xy + yx, xx - yy) if mirror else \
        math.atan2(xy - yx, xx + yy)
    c, s = math.cos(angle), math.sin(angle)
    with np.errstate(over="ignore", invalid="ignore"):
        positions = result.positions @ np.array(
            ((c, s), (s, -c)) if mirror else ((c, s), (-s, c)))
    positions[0] = 0.0
    positions.flags.writeable = False
    return CalibrationResult(positions, result.rms_residual,
                             result.iterations, result.converged)


def calibrate(d: DistanceStatsMatrix, ranging_model: RangingModel,
              prior=None, *, solved=None) -> CalibrationResult:
    """Full calibration: solve the round in the bootstrap gauge (anchor 0
    at the origin, anchor 1 on +x) as ``solve_rounds([d], ranging_model)``
    does, and with a prior turn the result about anchor 0 onto the prior
    (:func:`_onto_prior`).

    The prior, ``(x, y)`` pairs or an ``(N, 2)`` array, sets only the
    frame: its rotation and handedness, and through its anchor 0 the
    origin. It does not set the start, so a calibration depends on no
    earlier one. ``solved`` is this round's entry of :func:`solve_rounds`
    when the round was solved in a batch, and is then not solved again.
    Raises the entry's error: :class:`DegenerateGeometry` for a failed
    start, :class:`NotConverged` with the best iterate attached (in the
    prior's frame) or :class:`SingularUpdate`.
    """
    if prior is not None:
        prior = _positions(prior, d.n_anchors, "prior positions")
        with np.errstate(over="ignore", invalid="ignore"):
            offsets = prior - prior[0]
        if not np.isfinite(offsets).all():
            raise ValueError("prior offsets from anchor 0 must be finite")
    if solved is None:
        solved = solve_rounds([d], ranging_model)[0]
    if isinstance(solved, NotConverged) and prior is not None:
        raise NotConverged(str(solved), _onto_prior(solved.result, offsets))
    if isinstance(solved, UwbCalError):
        raise solved
    return solved if prior is None else _onto_prior(solved, offsets)


def load_distance_csv(path) -> DistanceStatsMatrix:
    """Read an `i,j,mean_m,std_m,count` CSV of directed pair statistics.
    The rows are checked and complete before the n x n matrix is built."""
    rows = []
    for lineno, row in csv_rows(path, ["i", "j", "mean_m", "std_m", "count"]):
        try:
            i, j, mean, std, count = (int(row[0]), int(row[1]), float(row[2]),
                                      float(row[3]), int(row[4]))
        except ValueError as exc:
            raise CsvFormatError(echo(exc), line=lineno) from exc
        for a in (i, j):
            if not 0 <= a < MAX_ANCHORS:
                raise CsvFormatError(f"anchor id {echo(a)}: need 0 to "
                                     f"{MAX_ANCHORS - 1}", line=lineno)
        rows.append((i, j, mean, std, count, lineno))
    if not rows:
        raise CsvFormatError("no data rows", line=1)
    n = max(max(r[0], r[1]) for r in rows) + 1
    if n < 3:
        raise CsvFormatError(f"only {n} anchors present, need at least 3")
    seen = set()
    for i, j, mean, std, count, lineno in rows:
        if (i, j) in seen:
            raise CsvFormatError(f"duplicate pair ({echo(i)},{echo(j)})",
                                 line=lineno)
        seen.add((i, j))
        if not (math.isfinite(mean) and math.isfinite(std)):
            raise CsvFormatError(f"pair ({i},{j}): mean and std must be "
                                 f"finite", line=lineno)
        try:
            _check_pair(n, i, j, mean, std, count)
        except ValueError as exc:
            raise CsvFormatError(echo(exc), line=lineno) from exc
    measured = {(min(p), max(p)) for p in seen}
    missing = n * (n - 1) // 2 - len(measured)
    if missing:
        absent = ((i, j) for i in range(n) for j in range(i + 1, n)
                  if (i, j) not in measured)
        named = list(islice(absent, MISSING_PAIRS_NAMED))
        more = missing - len(named)
        raise CsvFormatError("missing pair rows: " + ", ".join(map(str, named))
                             + (f" and {more} more" if more else ""))
    matrix = DistanceStatsMatrix(n)
    for i, j, mean, std, count, _ in rows:
        matrix.set_pair(i, j, mean, std, count)
    return matrix
