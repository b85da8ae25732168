"""Anchor-network self-calibration from inter-anchor range statistics.

The pipeline has two stages. A geometric bootstrap places every anchor from
its distances to anchors 0 and 1 (anchor 0 at the origin, anchor 1 on the
positive x-axis, everyone else in the upper half-plane). A damped
least-squares refinement then adjusts all positions to match the full set of
pairwise distances. Re-calibrations warm-start from the previous estimates
and drop the axis assumptions: only the anchor-0 origin is kept, which is
enough because the distance-only objective cannot observe rotation anyway.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import CsvFormatError, DegenerateGeometry, NotConverged
from .geometry import Point2, bilaterate_positive_y
from .leastsq import levenberg_marquardt
from .ranging import RangingModel

# Floor for 1/std^2 residual weighting; keeps zero-noise pairs finite.
WEIGHT_STD_FLOOR = 1e-6

# Coincident iterates have no distance gradient; nudge them apart instead.
COINCIDENT_EPS = 1e-9


@dataclass(frozen=True)
class PairStats:
    """Mean/std/count of range measurements for one directed anchor pair."""

    mean: float
    std: float
    count: int


class DistanceStatsMatrix:
    """Per-directed-pair range statistics for a deployment of n anchors.

    Entry (i, j) holds what anchor i measured toward anchor j. The
    symmetrized accessors combine both directions with count weighting,
    since the ranging protocol measures every pair from both initiator
    roles and all of that data is equally good.
    """

    def __init__(self, n_anchors: int):
        if n_anchors < 3:
            raise ValueError(f"need at least 3 anchors, got {n_anchors}")
        self.n_anchors = n_anchors
        self._mean = np.zeros((n_anchors, n_anchors))
        self._std = np.zeros((n_anchors, n_anchors))
        self._count = np.zeros((n_anchors, n_anchors), dtype=int)

    def set_pair(self, i: int, j: int, mean: float, std: float, count: int) -> None:
        self._check_ids(i, j)
        if count < 1:
            raise ValueError(f"pair ({i},{j}): count must be >= 1, got {count}")
        if mean <= 0.0:
            raise ValueError(f"pair ({i},{j}): mean must be positive, got {mean}")
        if std < 0.0:
            raise ValueError(f"pair ({i},{j}): std must be >= 0, got {std}")
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
        if not (count >= 1 and min(means, default=1.0) > 0.0
                and min(stds, default=0.0) >= 0.0
                and all(0 <= a < n and 0 <= b < n and a != b for a, b in ids)):
            for (a, b), m, s in zip(ids, means, stds):
                self.set_pair(a, b, m, s, count)
        self._mean[i, j] = mean
        self._std[i, j] = std
        self._count[i, j] = count

    def pair(self, i: int, j: int) -> PairStats | None:
        self._check_ids(i, j)
        if self._count[i, j] == 0:
            return None
        return PairStats(self._mean[i, j], self._std[i, j],
                         int(self._count[i, j]))

    def has_sym(self, i: int, j: int) -> bool:
        return self._count[i, j] + self._count[j, i] > 0

    def sym_mean(self, i: int, j: int) -> float:
        """Count-weighted mean of the (i,j) and (j,i) directed means."""
        self._check_ids(i, j)
        c_ij, c_ji = self._count[i, j], self._count[j, i]
        total = c_ij + c_ji
        if total == 0:
            raise KeyError(f"pair ({i},{j}) has no measurements")
        return (c_ij * self._mean[i, j] + c_ji * self._mean[j, i]) / total

    def sym_std(self, i: int, j: int) -> float:
        """Count-weighted RMS of the two directed standard deviations."""
        c_ij, c_ji = self._count[i, j], self._count[j, i]
        total = c_ij + c_ji
        if total == 0:
            raise KeyError(f"pair ({i},{j}) has no measurements")
        return math.sqrt((c_ij * self._std[i, j] ** 2 +
                          c_ji * self._std[j, i] ** 2) / total)

    def sym_count(self, i: int, j: int) -> int:
        return int(self._count[i, j] + self._count[j, i])

    def unordered_pairs(self) -> list[tuple[int, int]]:
        """All (i, j) with i < j for which at least one direction was measured."""
        return [(i, j)
                for i in range(self.n_anchors)
                for j in range(i + 1, self.n_anchors)
                if self.has_sym(i, j)]

    def missing_pairs(self) -> list[tuple[int, int]]:
        unmeasured = (self._count + self._count.T == 0).tolist()
        return [(i, j)
                for i in range(self.n_anchors)
                for j in range(i + 1, self.n_anchors)
                if unmeasured[i][j]]

    def corrected(self, model: RangingModel) -> "DistanceStatsMatrix":
        """Bias-correct every directed mean through the ranging model.

        Means map through (m - intercept)/slope and stds scale by 1/slope.
        No positivity re-check: correcting a short distance below zero is
        surfaced later as a geometry error, not silently clamped.
        """
        out = DistanceStatsMatrix(self.n_anchors)
        out._mean = (self._mean - model.intercept) / model.slope
        out._mean[self._count == 0] = 0.0
        out._std = self._std / model.slope
        out._count = self._count.copy()
        return out

    def equal_stats(self, other: "DistanceStatsMatrix") -> bool:
        return (self.n_anchors == other.n_anchors
                and np.array_equal(self._mean, other._mean)
                and np.array_equal(self._std, other._std)
                and np.array_equal(self._count, other._count))

    def _check_ids(self, i, j):
        n = self.n_anchors
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ValueError(f"invalid anchor pair ({i},{j}) for n={n}")


@dataclass(frozen=True)
class CalibrationResult:
    """Anchor positions in the anchor frame, plus solver diagnostics."""

    positions: tuple[Point2, ...]
    rms_residual: float
    iterations: int
    converged: bool

    def __post_init__(self):
        if self.positions[0].x != 0.0 or self.positions[0].y != 0.0:
            raise ValueError("anchor 0 must sit exactly at the origin")


def initial_placement(d: DistanceStatsMatrix) -> list[Point2]:
    """Geometric bootstrap from distances to the first two anchors."""
    d01 = d.sym_mean(0, 1)
    positions = [Point2(0.0, 0.0), Point2(d01, 0.0)]
    for i in range(2, d.n_anchors):
        try:
            positions.append(
                bilaterate_positive_y(d01, d.sym_mean(0, i), d.sym_mean(1, i)))
        except DegenerateGeometry as exc:
            raise DegenerateGeometry(
                f"anchor {i}: {exc}", anchor_id=i) from exc
    return positions


def _free_columns(n_anchors: int, fix_a1_axis: bool) -> np.ndarray:
    """Flat-coordinate columns the optimizer may move (anchor 0 is pinned)."""
    cols = np.arange(2, 2 * n_anchors)
    if fix_a1_axis:
        cols = cols[cols != 3]  # anchor 1 stays on the x-axis
    return cols


def _expand(free: np.ndarray, n_anchors: int, fix_a1_axis: bool) -> np.ndarray:
    flat = np.zeros(2 * n_anchors)
    flat[_free_columns(n_anchors, fix_a1_axis)] = free
    return flat.reshape(n_anchors, 2)


def _pair_arrays(d: DistanceStatsMatrix, weighted: bool):
    pairs = d.unordered_pairs()
    ii = np.array([p[0] for p in pairs], dtype=int)
    jj = np.array([p[1] for p in pairs], dtype=int)
    targets = np.array([d.sym_mean(i, j) for i, j in pairs])
    if weighted:
        stds = np.array([max(d.sym_std(i, j), WEIGHT_STD_FLOOR)
                         for i, j in pairs])
        sqrt_w = 1.0 / stds
    else:
        sqrt_w = np.ones(len(pairs))
    return ii, jj, targets, sqrt_w


def _residuals_and_jacobian(positions: np.ndarray, ii, jj, targets, sqrt_w,
                            free_cols):
    diff = positions[ii] - positions[jj]
    dist = np.hypot(diff[:, 0], diff[:, 1])
    coincident = dist < 1e-12
    if coincident.any():
        diff[coincident] = (COINCIDENT_EPS, 0.0)
        dist[coincident] = COINCIDENT_EPS
    unit = diff / dist[:, None]
    r = (dist - targets) * sqrt_w
    m, n = len(ii), positions.shape[0]
    jac_full = np.zeros((m, n, 2))
    rows = np.arange(m)
    jac_full[rows, ii] = unit
    jac_full[rows, jj] = -unit
    jac = jac_full.reshape(m, 2 * n)[:, free_cols] * sqrt_w[:, None]
    return r, jac


def objective_and_gradient(d: DistanceStatsMatrix, free: np.ndarray,
                           weighted: bool = False,
                           fix_a1_axis: bool = False) -> tuple[float, np.ndarray]:
    """Objective F = sum_pairs (|p_i - p_j| - d_ij)^2 and its gradient.

    ``free`` is the optimizer's variable vector: the flattened coordinates of
    anchors 1..n-1 (anchor 1's y omitted when ``fix_a1_axis``).
    """
    n = d.n_anchors
    free_cols = _free_columns(n, fix_a1_axis)
    ii, jj, targets, sqrt_w = _pair_arrays(d, weighted)
    positions = _expand(np.asarray(free, dtype=float), n, fix_a1_axis)
    r, jac = _residuals_and_jacobian(positions, ii, jj, targets, sqrt_w,
                                     free_cols)
    return float(r @ r), 2.0 * (jac.T @ r)


def refine_lse(initial: list[Point2], d: DistanceStatsMatrix,
               weighted: bool = False,
               fix_a1_axis: bool = False) -> CalibrationResult:
    """Adjust anchor positions to best match the measured distances.

    Anchor 0 never moves; with ``fix_a1_axis`` (first calibration) anchor 1
    additionally keeps y = 0. Raises :class:`NotConverged` with the best
    iterate attached if the iteration cap is reached.
    """
    n = d.n_anchors
    if len(initial) != n:
        raise ValueError(f"expected {n} initial positions, got {len(initial)}")
    if initial[0].x != 0.0 or initial[0].y != 0.0:
        raise ValueError("initial[0] must be the origin")

    free_cols = _free_columns(n, fix_a1_axis)
    ii, jj, targets, sqrt_w = _pair_arrays(d, weighted)
    flat0 = np.array([c for p in initial for c in (p.x, p.y)])

    def fun(free):
        positions = _expand(free, n, fix_a1_axis)
        return _residuals_and_jacobian(positions, ii, jj, targets, sqrt_w,
                                       free_cols)

    lsq = levenberg_marquardt(fun, flat0[free_cols])
    positions = _expand(lsq.x, n, fix_a1_axis)
    # rms is always reported on unweighted residuals for comparability
    plain_r, _ = _residuals_and_jacobian(positions, ii, jj, targets,
                                         np.ones(len(ii)), free_cols)
    rms = math.sqrt(float(plain_r @ plain_r) / len(ii)) if len(ii) else 0.0
    result = CalibrationResult(
        positions=tuple(Point2(p[0], p[1]) for p in positions),
        rms_residual=rms,
        iterations=lsq.iterations,
        converged=lsq.converged,
    )
    if not lsq.converged:
        raise NotConverged(
            f"refinement stopped after {lsq.iterations} iterations", result)
    return result


def calibrate(d: DistanceStatsMatrix, ranging_model: RangingModel,
              prior: list[Point2] | None = None,
              weighted: bool = False) -> CalibrationResult:
    """Full calibration: bias-correct, choose a start, refine.

    Without a prior this is the initial calibration: geometric placement
    with the anchor-1 x-axis rule, which the refinement then preserves.
    With a prior (re-calibration), the prior is translated so its anchor 0
    sits at the origin and every other coordinate is free; the refined
    anchor 1 may leave the x-axis.
    """
    corrected = d.corrected(ranging_model)
    if prior is None:
        start = initial_placement(corrected)
        fix_a1_axis = True
    else:
        if len(prior) != d.n_anchors:
            raise ValueError(
                f"prior has {len(prior)} entries for {d.n_anchors} anchors")
        origin = prior[0]
        start = [p - origin for p in prior]
        fix_a1_axis = False
    return refine_lse(start, corrected, weighted=weighted,
                      fix_a1_axis=fix_a1_axis)


def load_distance_csv(path) -> DistanceStatsMatrix:
    """Read an `i,j,mean_m,std_m,count` CSV of directed pair statistics."""
    rows = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["i", "j", "mean_m", "std_m", "count"]:
            raise CsvFormatError(
                f"expected header 'i,j,mean_m,std_m,count', got {header}",
                line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise CsvFormatError(f"expected 5 columns, got {len(row)}",
                                     line=lineno)
            try:
                rows.append((int(row[0]), int(row[1]), float(row[2]),
                             float(row[3]), int(row[4]), lineno))
            except ValueError as exc:
                raise CsvFormatError(str(exc), line=lineno) from exc
    if not rows:
        raise CsvFormatError("no data rows", line=1)
    n = max(max(r[0], r[1]) for r in rows) + 1
    if n < 3:
        raise CsvFormatError(f"only {n} anchors present, need at least 3")
    matrix = DistanceStatsMatrix(n)
    seen = set()
    for i, j, mean, std, count, lineno in rows:
        if (i, j) in seen:
            raise CsvFormatError(f"duplicate pair ({i},{j})", line=lineno)
        seen.add((i, j))
        try:
            matrix.set_pair(i, j, mean, std, count)
        except ValueError as exc:
            raise CsvFormatError(str(exc), line=lineno) from exc
    missing = matrix.missing_pairs()
    if missing:
        raise CsvFormatError(
            "missing pair rows: " + ", ".join(str(p) for p in missing))
    return matrix


def save_distance_csv(matrix: DistanceStatsMatrix, path,
                      float_format: str = "%.9g") -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["i", "j", "mean_m", "std_m", "count"])
        for i in range(matrix.n_anchors):
            for j in range(matrix.n_anchors):
                if i == j:
                    continue
                stats = matrix.pair(i, j)
                if stats is None:
                    continue
                writer.writerow([i, j, float_format % stats.mean,
                                 float_format % stats.std, stats.count])
