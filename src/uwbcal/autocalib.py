"""Anchor-network self-calibration from inter-anchor range statistics.

The pipeline has two stages. A classical-MDS start places every anchor from
every pair's distance (anchor 0 at the origin, anchor 1 on the positive
x-axis, anchor 2 at y >= 0). A damped least-squares refinement then adjusts
all positions to match the full set of pairwise distances. Re-calibrations
warm-start from the previous estimates and drop the axis assumptions: only
the anchor-0 origin is kept, which is enough because the distance-only
objective cannot observe rotation anyway.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (CsvFormatError, DegenerateGeometry, NotConverged,
                     csv_rows, echo)
from .leastsq import (DAMPING_MAX, MAX_ITERATIONS, levenberg_marquardt,
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

    def set_pairs(self, i: np.ndarray, j: np.ndarray, mean: np.ndarray,
                  std: np.ndarray, count: int) -> None:
        """``set_pair`` over arrays of directed pairs sharing one count.

        Valid input is stored in one step. Otherwise the pairs go through
        ``set_pair`` in order, so the first bad one raises its error.
        """
        n = self.n_anchors
        ids = list(zip(i.tolist(), j.tolist()))
        means, stds = mean.tolist(), std.tolist()
        if not (1 <= count <= MAX_COUNT and min(means, default=1.0) > 0.0
                and min(stds, default=0.0) >= 0.0
                and all(0 <= a < n and 0 <= b < n and a != b for a, b in ids)):
            for (a, b), m, s in zip(ids, means, stds):
                self.set_pair(a, b, m, s, count)
        self._store(i, j, mean, std, count)

    def _store(self, i: np.ndarray, j: np.ndarray, mean: np.ndarray,
               std: np.ndarray, count: int) -> None:
        """``set_pairs``' store, for a caller whose block is known valid."""
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
        gives inf, never NaN; a sum that overflows on these Python numbers
        is inf without a warning.
        """
        mean = self._mean
        if model is not None:
            # a slope near 5e-324 takes a mean to inf, which the bootstrap
            # and the refinement reject; no warning is needed for it
            with np.errstate(over="ignore"):
                mean = np.where(self._count > 0, model.correct(mean), 0.0)
        n, count, mean = self.n_anchors, self._count.tolist(), mean.tolist()
        pairs, targets = [], []
        for i in range(n):
            c_i, m_i = count[i], mean[i]
            for j in range(i + 1, n):
                c_ij, c_ji = c_i[j], count[j][i]
                total = c_ij + c_ji
                if total:
                    pairs.append((i, j))
                    targets.append((c_ij * m_i[j] + c_ji * mean[j][i]) / total)
        return tuple(pairs), targets


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
    return _placement(d.n_anchors, *d.sym_table())


def _placement(n: int, pairs, targets) -> list[tuple[float, float]]:
    """:func:`initial_placement` from the pairs and means of a sym_table:
    classical MDS (Torgerson 1952) of the squared distances over the
    largest, negative eigenvalues clamped at 0, in the gauge anchor 0 at the
    origin, anchor 1 on +x, anchor 2 at y >= 0. :class:`DegenerateGeometry`
    names the first pair, by its larger anchor, that is unmeasured or not
    positive and finite, and an anchor whose start overflows."""
    ii, jj = np.array(pairs, dtype=int).reshape(-1, 2).T
    table = np.zeros((n, n))
    table[jj, ii] = targets
    usable = (table > 0.0) & (table < math.inf)
    if np.count_nonzero(usable) < n * (n - 1) // 2:
        j, i = np.argwhere(np.tri(n, k=-1, dtype=bool) & ~usable)[0].tolist()
        why = (f"has distance {table[j, i]}, which is not positive and "
               f"finite" if (i, j) in pairs else "was not measured")
        raise DegenerateGeometry(f"anchor {j}: pair ({i},{j}) {why}",
                                 anchor_id=j)
    scale = table.max()
    sq, centring = (table / scale) ** 2, np.eye(n) - 1.0 / n
    eigval, eigvec = np.linalg.eigh(-0.5 * (centring @ (sq + sq.T)
                                            @ centring))
    xy = eigvec[:, -2:] * np.sqrt(np.maximum(eigval[-2:], 0.0))
    xy -= xy[0]
    angle = math.atan2(xy[1, 1], xy[1, 0])
    c, s = math.cos(angle), math.sin(angle)
    flip = -1.0 if c * xy[2, 1] - s * xy[2, 0] < 0.0 else 1.0
    with np.errstate(over="ignore"):
        rows = (xy @ (scale * np.array([[c, -flip * s],
                                        [s, flip * c]]))).tolist()
    for i, (x, y) in enumerate(rows):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DegenerateGeometry(f"anchor {i}: the start overflows "
                                     f"floating point", anchor_id=i)
    return [(0.0, 0.0), (rows[1][0], 0.0), *map(tuple, rows[2:])]


def _free_columns(n_anchors: int, fix_a1_axis: bool) -> np.ndarray:
    """Flat-coordinate columns the optimizer may move (anchor 0 is pinned)."""
    cols = np.arange(2, 2 * n_anchors)
    if fix_a1_axis:
        cols = cols[cols != 3]  # anchor 1 stays on the x-axis
    return cols


@functools.lru_cache(maxsize=64)
def _residual_layout(n_anchors: int, fix_a1_axis: bool,
                     pairs: tuple[tuple[int, int], ...]):
    """Index arrays of the residual function over ``pairs``, read-only.

    With ``ext`` the free vector followed by one 0.0 (the value of every
    pinned coordinate), the differences p_i - p_j are ``ext[first] -
    ext[second]``. With ``buf`` the unit vectors, then their negations, then
    one 0.0, J is ``buf[jac_t].T``: +unit at pair k's first anchor, -unit
    at its second and 0 elsewhere, the entries of the dense scatter it
    replaces. Its column-major layout is the one that scatter's column
    gather leaves, so the matrix products that follow round alike.
    """
    free_cols = _free_columns(n_anchors, fix_a1_axis)
    n_free, m = len(free_cols), len(pairs)
    slot = np.full(2 * n_anchors, n_free)
    slot[free_cols] = np.arange(n_free)
    ii, jj = np.array(pairs, dtype=int).reshape(-1, 2).T
    rows, xy = np.arange(m), np.arange(2)
    jac = np.full((m, n_anchors, 2), 4 * m)
    jac[rows, ii] = 2 * rows[:, None] + xy
    jac[rows, jj] = 2 * (m + rows[:, None]) + xy
    layout = (free_cols, slot[2 * ii[:, None] + xy],
              slot[2 * jj[:, None] + xy],
              jac.reshape(m, 2 * n_anchors)[:, free_cols].T.copy())
    for a in layout:
        a.flags.writeable = False
    return layout


def _residual_function(n_anchors: int, pairs, targets, fix_a1_axis: bool):
    """free -> (r, J, d) over ``pairs`` with symmetrized means ``targets``
    and the pair distances d."""
    free_cols, first, second, jac_t = _residual_layout(
        n_anchors, fix_a1_axis, pairs)
    n_free, m = len(free_cols), len(pairs)
    targets = np.array(targets, dtype=float)
    ext, buf = np.zeros(n_free + 1), np.zeros(4 * m + 1)
    free_part = ext[:n_free]
    units, negated = buf[:2 * m].reshape(m, 2), buf[2 * m:4 * m].reshape(m, 2)

    def fun(free):
        free_part[...] = free
        diff = ext.take(first)
        diff -= ext.take(second)
        r, dist = range_residuals(diff[:, 0], diff[:, 1], targets)
        np.divide(diff, dist[:, None], out=units)
        np.negative(units, out=negated)
        return r, buf.take(jac_t).T, dist

    return fun


def refine_lse(initial, d: DistanceStatsMatrix,
               fix_a1_axis: bool = False) -> CalibrationResult:
    """Adjust anchor positions, ``(x, y)`` pairs, to best match the measured
    distances.

    Anchor 0 never moves; with ``fix_a1_axis`` (first calibration) anchor 1
    additionally keeps y = 0. Raises :class:`NotConverged` with the best
    iterate attached if the iteration cap is reached, or if a rejected step
    takes the damping past ``DAMPING_MAX`` before it; the message names
    which.
    """
    n = d.n_anchors
    return _refine(_positions(initial, n, "initial positions"), n,
                   *d.sym_table(), fix_a1_axis)


def _refine(start: np.ndarray, n: int, pairs, targets,
            fix_a1_axis: bool) -> CalibrationResult:
    """:func:`refine_lse` from an ``(n, 2)`` float array against the pairs
    and means of a sym_table."""
    if start[0, 0] != 0.0 or start[0, 1] != 0.0:
        raise ValueError("initial[0] must be the origin")
    if not np.isfinite(start).all():
        raise ValueError("initial positions must be finite")
    fun = _residual_function(n, pairs, targets, fix_a1_axis)
    free_cols = _residual_layout(n, fix_a1_axis, pairs)[0]
    lsq = levenberg_marquardt(fun, start.reshape(-1)[free_cols])
    flat = np.zeros(2 * n)
    flat[free_cols] = lsq.x
    positions = flat.reshape(n, 2)
    positions.flags.writeable = False
    result = CalibrationResult(
        positions, math.sqrt(lsq.objective / len(pairs)) if pairs else 0.0,
        lsq.iterations, lsq.converged)
    if not lsq.converged:
        # short of the cap, levenberg_marquardt stops unconverged only when
        # a rejected step takes the damping past DAMPING_MAX
        limit = "" if lsq.iterations >= MAX_ITERATIONS else \
            f" at the damping limit ({DAMPING_MAX:g})"
        raise NotConverged(f"refinement stopped after {lsq.iterations} "
                           f"iterations{limit}", result)
    return result


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


def calibrate(d: DistanceStatsMatrix, ranging_model: RangingModel,
              prior=None) -> CalibrationResult:
    """Full calibration: form the bias-corrected symmetric table once,
    choose a start, refine against the same table.

    Without a prior this is the initial calibration: the classical-MDS
    start with the anchor-1 x-axis rule, which the refinement then
    preserves.
    With a prior (re-calibration), the prior is translated so its anchor 0
    sits at the origin and every other coordinate is free; the refined
    anchor 1 may leave the x-axis.
    """
    n, table = d.n_anchors, d.sym_table(ranging_model)
    if prior is None:
        start, fix_a1_axis = np.array(_placement(n, *table)), True
    else:
        prior, fix_a1_axis = _positions(prior, n, "prior positions"), False
    # positions far out overflow to inf or nan, which the refinement's
    # accept rule and step check reject; no warning is needed for them
    with np.errstate(over="ignore", invalid="ignore"):
        if prior is not None:
            start = prior - prior[0]
        return _refine(start, n, *table, fix_a1_axis)


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
