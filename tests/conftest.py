import math
import warnings

import numpy as np
import pytest

from uwbcal.autocalib import DistanceStatsMatrix
from uwbcal.errors import (CollinearAnchors, DegenerateGeometry,
                           NotConverged, SingularUpdate)
from uwbcal.geometry import distance
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
GOLDEN_WORLD = [(2.0, 3.0), (11.0, 3.0), (18.0, 6.0), (15.0, 20.0),
                (4.0, 22.0)]
GOLDEN_FRAME = [(0.0, 0.0), (9.0, 0.0), (16.0, 3.0), (13.0, 17.0),
                (2.0, 19.0)]
GOLDEN_TAG_WORLD = (9.0, 11.0)
GOLDEN_TAG_FRAME = (7.0, 8.0)
GOLDEN_TAG_RANGES = [math.sqrt(v) for v in (113, 68, 106, 117, 146)]


def step_motion(true_xy: np.ndarray, est_xy: np.ndarray,
                velocity: np.ndarray, jitter: np.ndarray,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One step of the simulator's motion, drawn per step: the oracle for
    ``sim.run_scenario``, which draws the motion and drift of the whole run
    at once.

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
    ``sim.run_scenario``, which draws the noise of every tag between two
    calibration rounds at once and makes all of a run's fixes in one
    ``solve_fixes`` call.

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


def _directed(d: DistanceStatsMatrix, i: int, j: int,
              model=None) -> tuple[int, float]:
    stats = d.pair(i, j)
    if stats is None:
        return 0, 0.0
    mean = float(stats.mean)
    return stats.count, (mean if model is None
                         else correct_measurement(mean, model))


def sym_mean(d: DistanceStatsMatrix, i: int, j: int, model=None) -> float:
    """Count-weighted mean of the (i,j) and (j,i) directed means, each
    corrected by ``correct_measurement`` under ``model`` if given, per pair:
    the oracle for ``DistanceStatsMatrix.sym_table``, which forms every
    pair's mean in one pass."""
    (c_ij, m_ij), (c_ji, m_ji) = (_directed(d, i, j, model),
                                  _directed(d, j, i, model))
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


def dense_network_residuals(d: DistanceStatsMatrix, model=None):
    """The anchor-network residual function built densely: the oracle for
    ``oracles.network_residuals``, which forms the differences and J from a
    precomputed layout of signs.

    Targets come from ``unordered_pairs`` and ``sym_mean`` above, corrected
    under ``model`` if given; every evaluation zero-fills an ``(m, n, 2)``
    Jacobian, scatters +unit and -unit into it and gathers the free columns
    of the bootstrap gauge (all but anchor 0's and anchor 1's y).
    """
    n = d.n_anchors
    free_cols = np.arange(2, 2 * n)
    free_cols = free_cols[free_cols != 3]
    pairs = unordered_pairs(d)
    ii, jj = np.array(pairs, dtype=int).reshape(-1, 2).T
    targets = np.array([sym_mean(d, i, j, model) for i, j in pairs])
    m, rows = len(pairs), np.arange(len(pairs))

    def fun(free):
        flat = np.zeros(2 * n)
        flat[free_cols] = free
        positions = flat.reshape(n, 2)
        diff = positions[ii] - positions[jj]
        r, dist = range_residuals(diff[:, 0], diff[:, 1], targets)
        unit = diff / dist[:, None]
        jac = np.zeros((m, n, 2))
        jac[rows, ii] = unit
        jac[rows, jj] = -unit
        return r, jac.reshape(m, 2 * n)[:, free_cols], dist

    return fun


def rotated(p, angle: float) -> tuple[float, float]:
    """The ``(x, y)`` pair ``p`` rotated counter-clockwise about the origin
    by ``angle`` rad."""
    (x, y), c, s = p, math.cos(angle), math.sin(angle)
    return c * x - s * y, s * x + c * y


def offset(p, dx, dy) -> tuple[float, float]:
    """The ``(x, y)`` pair ``p`` moved by ``(dx, dy)``, as floats."""
    return float(p[0] + dx), float(p[1] + dy)


def result_repr(result) -> str:
    """The repr of a :class:`CalibrationResult`'s fields, its positions as
    lists: numpy's repr of the array keeps only 8 digits, a float's every
    bit."""
    return repr({**vars(result), "positions": result.positions.tolist()})


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


# Lines the behaviour lock reports when it runs on an environment other than
# the one its digests were recorded on (tests/test_lock.py)
LOCK_NOTES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    for note in LOCK_NOTES:
        terminalreporter.write_line(note)
