import math
import warnings

import numpy as np
import pytest

from uwbcal.autocalib import DistanceStatsMatrix
from uwbcal.errors import (CollinearAnchors, DegenerateGeometry,
                           NotConverged, SingularUpdate)
from uwbcal.geometry import Point2, distance
from uwbcal.leastsq import range_residuals
from uwbcal.multilateration import locate_tag
from uwbcal.ranging import correct_measurement, simulate_measurement

# To explain a failing @given test, Hypothesis imports
# hypothesis.extra._patching, which imports libcst, which raises a
# DeprecationWarning (mypy_extensions.TypedDict). Under filterwarnings =
# error that warning, raised inside the report hook, ends the whole session
# with INTERNALERROR. Imported once here, with the warning ignored, the
# module is cached and a failing property is one failed test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# Surveyed desk-scale deployment used as the golden reconstruction case:
# five anchors and one tag, with anchor 1 due east of anchor 0 so the
# world and anchor frames coincide up to the anchor-0 translation.
GOLDEN_WORLD = [Point2(2, 3), Point2(11, 3), Point2(18, 6),
                Point2(15, 20), Point2(4, 22)]
GOLDEN_FRAME = [Point2(0, 0), Point2(9, 0), Point2(16, 3),
                Point2(13, 17), Point2(2, 19)]
GOLDEN_TAG_WORLD = Point2(9, 11)
GOLDEN_TAG_FRAME = Point2(7, 8)
GOLDEN_TAG_RANGES = [math.sqrt(v) for v in (113, 68, 106, 117, 146)]


def step_motion(true_xy: np.ndarray, est_xy: np.ndarray,
                velocity: np.ndarray, jitter: np.ndarray,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One step of the simulator's motion, drawn per step: the oracle for
    ``sim._Motion``, which draws and sums a block of steps at a time.

    Every node advances along its heading plus Gaussian noise. ``true_xy``
    holds the true positions of the anchors then the tags, ``est_xy`` the
    anchor estimates; ``velocity`` and ``jitter`` are the rows of
    ``MotionTable.arrays``. Estimates advance by the same executed
    displacement as the truth; only drift separates them. Returns the new
    ``(true_xy, est_xy)``.
    """
    delta = velocity + jitter * rng.standard_normal(true_xy.shape)
    return true_xy + delta, est_xy + delta[:len(est_xy)]


def apply_drift(est_xy: np.ndarray, drift_bound: float,
                rng: np.random.Generator) -> np.ndarray:
    """One step of odometry error, drawn per step: Uniform(-b, +b) per
    coordinate, independently for every anchor estimate."""
    return est_xy + rng.uniform(-1.0, 1.0, est_xy.shape) * drift_bound


def fix_tag(tag_true, truth_anchors, frame, model, correction, rng,
            diagnostics, step, tag_id):
    """One tag's fix from ranges drawn one at a time: the oracle for
    ``sim._fix_tags``, which draws the noise of every tag of a step at once.

    Ranges to the true anchors go through ``simulate_measurement`` and
    ``correct_measurement``; the fix is made against the anchor ``frame``
    and placed at anchor 0's true position. Returns the world estimate and
    its error, or ``(None, nan)`` with a diagnostic appended.
    """
    true_d = [distance(tag_true, a) for a in truth_anchors]
    if 0.0 in true_d:
        diagnostics.append(f"step {step}: tag {tag_id} coincides with anchor "
                           f"{true_d.index(0.0)} and cannot range it")
        return None, math.nan
    measured = [simulate_measurement(d, model, rng) for d in true_d]
    ranges = [correct_measurement(m, correction) for m in measured]
    if min(ranges) <= 0.0:
        diagnostics.append(
            f"step {step}: tag {tag_id} produced a non-positive corrected range")
        return None, math.nan
    try:
        fix = locate_tag(frame, ranges)
    except (CollinearAnchors, NotConverged, DegenerateGeometry,
            SingularUpdate) as exc:
        diagnostics.append(f"step {step}: tag {tag_id} fix failed: {exc}")
        return None, math.nan
    (fx, fy), (x0, y0) = fix.position, truth_anchors[0]
    est = (fx + x0, fy + y0)
    return est, distance(est, tag_true)


def _directed(d: DistanceStatsMatrix, i: int, j: int) -> tuple[int, float]:
    stats = d.pair(i, j)
    return (0, 0.0) if stats is None else (stats.count, float(stats.mean))


def sym_mean(d: DistanceStatsMatrix, i: int, j: int) -> float:
    """Count-weighted mean of the (i,j) and (j,i) directed means, per pair:
    the oracle for ``DistanceStatsMatrix.sym_table``, which forms every
    pair's mean in one pass."""
    (c_ij, m_ij), (c_ji, m_ji) = _directed(d, i, j), _directed(d, j, i)
    total = c_ij + c_ji
    if total == 0:
        raise KeyError(f"pair ({i},{j}) has no measurements")
    return (c_ij * m_ij + c_ji * m_ji) / total


def unordered_pairs(d: DistanceStatsMatrix) -> list[tuple[int, int]]:
    """All (i, j) with i < j for which at least one direction was measured:
    the oracle for the pairs of ``DistanceStatsMatrix.sym_table``."""
    n = d.n_anchors
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if d.pair(i, j) is not None or d.pair(j, i) is not None]


def equal_stats(a: DistanceStatsMatrix, b: DistanceStatsMatrix) -> bool:
    """True if both matrices hold the same statistics for every directed
    pair."""
    n = a.n_anchors
    return n == b.n_anchors and all(
        a.pair(i, j) == b.pair(i, j)
        for i in range(n) for j in range(n) if i != j)


def dense_network_residuals(d: DistanceStatsMatrix, fix_a1_axis: bool = False):
    """The anchor-network residual function built densely: the oracle for
    ``autocalib.network_residuals``, which gathers J from a precomputed
    index map.

    Targets come from ``unordered_pairs`` and ``sym_mean`` above; every
    evaluation zero-fills an ``(m, n, 2)`` Jacobian, scatters +unit and
    -unit into it and gathers the free columns (all but anchor 0's, and
    anchor 1's y when ``fix_a1_axis``).
    """
    n = d.n_anchors
    free_cols = np.arange(2, 2 * n)
    if fix_a1_axis:
        free_cols = free_cols[free_cols != 3]
    pairs = unordered_pairs(d)
    ii, jj = np.array(pairs, dtype=int).reshape(-1, 2).T
    targets = np.array([sym_mean(d, i, j) for i, j in pairs])
    m, rows = len(pairs), np.arange(len(pairs))

    def fun(free):
        flat = np.zeros(2 * n)
        flat[free_cols] = free
        positions = flat.reshape(n, 2)
        r, unit = range_residuals(positions[ii] - positions[jj], targets)
        jac = np.zeros((m, n, 2))
        jac[rows, ii] = unit
        jac[rows, jj] = -unit
        return r, jac.reshape(m, 2 * n)[:, free_cols]

    return fun


def rotated(p: Point2, angle: float) -> Point2:
    """``p`` rotated counter-clockwise about the origin by ``angle`` rad."""
    c, s = math.cos(angle), math.sin(angle)
    return Point2(c * p.x - s * p.y, s * p.x + c * p.y)


def exact_matrix(frame_positions, transform=None) -> DistanceStatsMatrix:
    """Distance matrix holding exact pairwise distances (optionally mapped
    through a measurement transform), both directions, count 1, std 0."""
    n = len(frame_positions)
    m = DistanceStatsMatrix(n)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = distance(frame_positions[i], frame_positions[j])
            m.set_pair(i, j, d if transform is None else transform(d), 0.0, 1)
    return m


@pytest.fixture(scope="session")
def golden_frame():
    return list(GOLDEN_FRAME)


@pytest.fixture(scope="session")
def golden_world():
    return list(GOLDEN_WORLD)
