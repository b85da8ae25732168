"""Frozen reference kernels that measure how fast the host is right now.

The benchmark runs ``run_probe`` immediately before and after every unit of
work and divides the unit's time by the geometric mean of the two probe
times. The probe mirrors what the simulator spends its time on: small dense
Levenberg-Marquardt solves through numpy, and pure-Python event churn of
frozen dataclasses, a ``deque`` and ``isinstance`` dispatch, like the
protocol's discrete-event model. A numeric-only probe did not track the
object-heavy workloads.

Nothing here may import ``uwbcal``, and nothing here may change: any edit
rescales every normalised time the benchmark has recorded.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque

import numpy as np

# Probe time on the reference host; normalised times are expressed in
# seconds of a host that runs one probe in exactly this long.
NOMINAL_PROBE_S = 0.014
# Same for one launch of fresh_probe.py, the reference for setup_s.
NOMINAL_FRESH_PROBE_S = 0.12

_LM_PROBLEMS = 48
_LM_ITERATIONS = 6
_EVENT_NODES = 5
_EVENTS = 1100


@dataclasses.dataclass(frozen=True)
class _Vec:
    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite")

    def __add__(self, other):
        return _Vec(self.x + other.x, self.y + other.y)


@dataclasses.dataclass(frozen=True)
class _Ping:
    sender: int
    target: int


@dataclasses.dataclass(frozen=True)
class _Pong:
    sender: int
    target: int
    value: float = 0.0


@dataclasses.dataclass(frozen=True)
class _Node:
    id: int
    count: int = 0
    burst: tuple = ()
    pos: _Vec = _Vec(0.0, 0.0)


def _make_inputs():
    rng = np.random.default_rng(20040676)
    anchors = rng.uniform(0.0, 20.0, (_LM_PROBLEMS, 4, 2))
    truth = rng.uniform(5.0, 15.0, (_LM_PROBLEMS, 2))
    ranges = np.hypot(*(truth[:, None, :] - anchors).transpose(2, 0, 1))
    ranges += rng.normal(0.0, 0.05, ranges.shape)
    starts = truth + rng.normal(0.0, 1.0, truth.shape)
    return anchors, ranges, starts


_ANCHORS, _RANGES, _STARTS = _make_inputs()


def _lm_solves() -> float:
    total = 0.0
    eye = np.eye(2)
    for a, r, x in zip(_ANCHORS, _RANGES, _STARTS):
        x = x.copy()
        lam = 1e-3
        for _ in range(_LM_ITERATIONS):
            diff = x[None, :] - a
            dist = np.hypot(diff[:, 0], diff[:, 1])
            res = dist - r
            jac = diff / dist[:, None]
            dx = np.linalg.solve(jac.T @ jac + lam * eye, -(jac.T @ res))
            x = x + dx
            lam = max(lam / 10.0, 1e-15)
        total += float(res @ res)
    return total


def _event_churn() -> float:
    rng = np.random.default_rng(7)
    nodes = [_Node(i) for i in range(_EVENT_NODES)]
    queue = deque([_Ping(0, 1)])
    step = _Vec(0.1, -0.05)
    handled = 0
    while queue and handled < _EVENTS:
        msg = queue.popleft()
        handled += 1
        node = nodes[msg.target]
        if isinstance(msg, _Ping):
            queue.append(_Pong(msg.target, msg.sender,
                               2.0 + 0.05 * rng.standard_normal()))
            nodes[msg.target] = dataclasses.replace(node, count=node.count + 1)
        elif isinstance(msg, _Pong):
            burst = node.burst + (msg.value,)
            if len(burst) >= 5:
                burst = ()
            nodes[msg.target] = dataclasses.replace(
                node, burst=burst, pos=node.pos + step)
            queue.append(_Ping(msg.target, (msg.target + 1) % _EVENT_NODES))
    return sum(n.pos.x + n.count for n in nodes)


def run_probe() -> float:
    """Run the frozen kernel once; returns a value so no work is skipped."""
    return _lm_solves() + _event_churn()
