"""Partition tree and the contraction-guided adaptive stepping loop.

The engine keeps a tree of boxes over the initial set.  Within every
control interval each leaf integrates its own embedding; before committing
to the full interval a leaf may integrate a short probe, extrapolate the
interval width at the interval end from the observed growth ratio, and --
if the projected width violates the per-axis tolerance -- discard the
probe, split into ``2**n`` children at the interval start, and recurse.

Network verification is decoupled from partitioning.  With
``nn = min(nn_depth_max, depth_max)``, a node recomputes the linear
relaxation on its own box iff it sits at depth ``nn``, or it is a leaf
shallower than ``nn``; every other node evaluates through its nearest
verifying ancestor's relaxation while still re-evaluating the face caches
on its own (smaller) box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple
import warnings

import numpy as np

from .bounds import InclusionFunction, crown_bounds, make_inclusion
from .embedding import (
    ClosedLoopEmbedding,
    DiscreteLTIEmbedding,
    OpenLoopSystem,
    _require_pair,
)
from .intervals import (
    IntervalVector,
    ToleranceVector,
    interval_hull,
    uniform_divide,
    weighted_inf_norm,
)

__all__ = [
    "AlgorithmParams",
    "PartitionNode",
    "ReachTube",
    "StepStats",
    "ContinuousClosedLoopModel",
    "DiscreteLTIModel",
    "compute_reachable_set",
]

_GRID_TOL = 1e-9


@dataclass
class AlgorithmParams:
    """Hyper-parameters for the adaptive partitioning engine.

    ``eps`` is the per-axis target width: an infinite entry removes the
    constraint on that axis, a zero entry forces subdivision of any
    positive-width box until the depth budget is exhausted.  ``gamma`` is
    the fraction of each control interval integrated before the width at
    the interval end is extrapolated; ``gamma = 1`` checks the true final
    width.  ``depth_max`` caps the tree depth, ``nn_depth_max`` caps the
    depth at which the network relaxation is recomputed (values above
    ``depth_max`` act as ``depth_max``).  Mode
    ``"uniform"`` pre-partitions the initial set to ``depth_max`` and
    disables the width trigger (the non-adaptive baseline).
    """

    eps: ToleranceVector
    gamma: float = 1.0
    depth_max: int = 0
    nn_depth_max: int = 0
    mode: str = "adaptive"

    def __post_init__(self):
        if not isinstance(self.eps, ToleranceVector):
            self.eps = ToleranceVector(np.asarray(self.eps, dtype=float))
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.depth_max < 0 or self.nn_depth_max < 0:
            raise ValueError("depth budgets must be non-negative")
        if self.mode not in ("adaptive", "uniform"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.nn_depth_max > self.depth_max:
            warnings.warn(
                f"nn_depth_max={self.nn_depth_max} exceeds depth_max="
                f"{self.depth_max}; verification depth is capped at depth_max",
                stacklevel=3,  # the caller of the generated __init__
            )


@dataclass
class PartitionNode:
    """Tree node: current box, depth, and children (0 or 2**n)."""

    box: IntervalVector
    depth: int = 0
    children: list = field(default_factory=list)


class StepStats(NamedTuple):
    interval: int
    t_end: float
    leaf_count: int
    max_depth: int
    nn_calls: int
    subdivisions: int


@dataclass
class ReachTube:
    """Time-indexed union of boxes, one entry per integration step."""

    times: np.ndarray
    boxes: list  # per time index: array (num_partitions, 2, n)
    interval_stats: list

    @property
    def n(self) -> int:
        return self.boxes[0].shape[2]

    def hull_at(self, k: int) -> IntervalVector:
        arr = self.boxes[k]
        return IntervalVector(arr[:, 0, :].min(axis=0), arr[:, 1, :].max(axis=0))

    def final_hull(self) -> IntervalVector:
        return self.hull_at(len(self.times) - 1)

    def hull_widths(self) -> np.ndarray:
        """Per-time hull widths, shape ``(len(times), n)``."""
        return np.stack([self.hull_at(k).width for k in range(len(self.times))])

    def time_index(self, t: float) -> int:
        k = int(round((t - self.times[0]) / (self.times[1] - self.times[0]))) \
            if len(self.times) > 1 else 0
        if k < 0 or k >= len(self.times) or abs(self.times[k] - t) > _GRID_TOL:
            raise ValueError(f"time {t} is not on the tube grid")
        return k

    def write_csv(self, path) -> None:
        n = self.n
        cols = ",".join(f"lo{i},hi{i}" for i in range(n))
        lines = [f"time,partition,{cols}"]
        for k, t in enumerate(self.times):
            for pid, arr in enumerate(self.boxes[k]):
                vals = ",".join(
                    f"{arr[0, i]:.17g},{arr[1, i]:.17g}" for i in range(n)
                )
                lines.append(f"{t:.17g},{pid},{vals}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Closed-loop models: package system + controller + time structure so the
# engine can stay agnostic of continuous vs discrete integration.

def _build_instants(t0, horizon, control_period, control_instants):
    if control_instants is not None:
        inst = [float(t) for t in control_instants]
        if len(inst) < 2 or any(b - a <= 0 for a, b in zip(inst, inst[1:])):
            raise ValueError("control instants must be strictly increasing")
        if inst[-1] < horizon - _GRID_TOL:
            raise ValueError("control instants must reach the final time")
        return inst
    if control_period is None or control_period <= 0:
        raise ValueError("a positive control period or explicit instants are required")
    m = max(1, math.ceil((horizon - t0) / control_period - _GRID_TOL))
    return [t0 + j * control_period for j in range(m + 1)]


class ContinuousClosedLoopModel:
    """Sampled-data neural-network loop integrated with fixed-step Euler."""

    def __init__(self, sys: OpenLoopSystem, net, horizon: float, dt: float,
                 control_period: float | None = None,
                 control_instants=None, w_box=None, t0: float = 0.0):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if horizon <= t0:
            raise ValueError("final time must exceed the initial time")
        self.sys = sys
        self.net = net
        self.dt = float(dt)
        self.instants = _build_instants(t0, horizon, control_period, control_instants)
        self.t0 = self.instants[0]
        self._steps = []
        for a, b in zip(self.instants, self.instants[1:]):
            s = (b - a) / dt
            if abs((b - a) - round(s) * dt) > _GRID_TOL:
                raise ValueError(
                    f"dt={dt} does not divide the control interval [{a}, {b}]"
                )
            self._steps.append(int(round(s)))
        total = sum(self._steps)
        self.times = self.t0 + self.dt * np.arange(total + 1)
        self.w_box = w_box
        if w_box is None:
            self._w_lo = self._w_hi = np.zeros(sys.q)
        else:
            self._w_lo, self._w_hi = _require_pair(w_box, sys.q, "disturbance")

    @property
    def n(self) -> int:
        return self.sys.n

    @property
    def num_intervals(self) -> int:
        return len(self._steps)

    def interval_steps(self, j: int) -> int:
        return self._steps[j - 1]

    def verify(self, box: IntervalVector) -> InclusionFunction:
        return make_inclusion(crown_bounds(self.net, box))

    def make_embedding(self) -> ClosedLoopEmbedding:
        return ClosedLoopEmbedding(self.sys, self.w_box)

    def advance(self, emb, lo, hi, steps: int) -> np.ndarray:
        return emb.integrate(lo, hi, self.dt, steps)

    def simulate_interval(self, x, j: int, rng):
        """Yield the sampled states ``(count, n)`` after each step of interval ``j``.

        The control is held over the interval; with ``q > 0`` one
        disturbance per trajectory is drawn from ``rng``, uniform on the
        disturbance box and constant over the interval.
        """
        u = self.net(x)
        q = self.sys.q
        if q:
            w = rng.uniform(self._w_lo, self._w_hi, size=(x.shape[0], q))
        else:
            w = np.zeros((x.shape[0], 0))
        for _ in range(self.interval_steps(j)):
            x = x + self.dt * self.sys.f(x, u, w)
            yield x


class DiscreteLTIModel:
    """Discrete-time linear loop; one control update per map step."""

    def __init__(self, A, B, net, horizon_steps: int, w_box=None):
        if w_box is not None:
            wlo = np.asarray(w_box.lo if isinstance(w_box, IntervalVector) else w_box[0])
            if wlo.size:
                raise ValueError("the discrete LTI model does not take disturbances")
        if horizon_steps < 1:
            raise ValueError("need at least one step")
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self.net = net
        self.dt = 1.0
        self.times = np.arange(horizon_steps + 1, dtype=float)
        self.instants = list(self.times)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def num_intervals(self) -> int:
        return len(self.times) - 1

    def interval_steps(self, j: int) -> int:
        return 1

    def verify(self, box: IntervalVector) -> InclusionFunction:
        return make_inclusion(crown_bounds(self.net, box))

    def make_embedding(self) -> DiscreteLTIEmbedding:
        return DiscreteLTIEmbedding(self.A, self.B)

    def advance(self, emb, lo, hi, steps: int) -> np.ndarray:
        return emb.integrate(lo, hi, self.dt, steps)

    def simulate_interval(self, x, j: int, rng):
        """Yield the sampled states ``(count, n)`` after the one map step of interval ``j``."""
        u = self.net(x)
        yield x @ self.A.T + u @ self.B.T


# ---------------------------------------------------------------------------
# The stepping procedure.

def _probe_steps(gamma: float, steps: int) -> int:
    return max(1, min(steps, int(math.floor(gamma * steps + 0.5))))


def _predicate_fires(w0: float, w_probe: float, inv_gamma_eff: float) -> bool:
    """Projected end-of-interval weighted width exceeds 1?

    Implements ``C**(1/gamma) * w0 > 1`` with ``C = w_probe / w0`` in log
    form to dodge overflow.  A zero-width start never fires; an infinite
    weighted width (zero tolerance on a positive-width axis) always does.
    """
    if w0 == 0.0:
        return False
    if math.isinf(w0) or math.isinf(w_probe):
        return True
    if w_probe == 0.0:
        return False
    return inv_gamma_eff * math.log(w_probe / w0) + math.log(w0) > 0.0


def _step(node: PartitionNode, inherited, j: int, params: AlgorithmParams, model,
          trajs: list):
    """Advance one subtree across control interval ``j``.

    Appends each leaf trajectory, in tree order, to ``trajs`` and returns
    ``(nn calls, subdivisions, max leaf depth)``; mutates the tree in place
    (successor boxes, new children).
    """
    nn = min(params.nn_depth_max, params.depth_max)
    eff = inherited
    nn_calls = subdivisions = 0
    if node.depth == nn or (not node.children and node.depth < nn):
        eff = model.verify(node.box)
        nn_calls = 1

    if not node.children:
        steps = model.interval_steps(j)
        emb = model.make_embedding()
        emb.refresh_control(node.box, reverify=False, inherited=eff,
                            interval_index=j)
        probing = node.depth < params.depth_max
        k = _probe_steps(params.gamma, steps) if probing else steps
        traj = model.advance(emb, node.box.lo, node.box.hi, k)
        if probing and _predicate_fires(
                weighted_inf_norm(node.box.width, params.eps),
                weighted_inf_norm(traj[-1, 1] - traj[-1, 0], params.eps), steps / k):
            # discard the probe and restart the interval from the children
            subdivisions = 1
            node.children = [PartitionNode(b, depth=node.depth + 1)
                             for b in uniform_divide(node.box)]
        else:
            if k < steps:
                rest = model.advance(emb, traj[-1, 0], traj[-1, 1], steps - k)
                traj = np.concatenate([traj, rest[1:]], axis=0)
            node.box = IntervalVector(traj[-1, 0], traj[-1, 1])
            trajs.append(traj)
            return nn_calls, subdivisions, node.depth

    max_depth = node.depth
    for child in node.children:
        calls, subs, depth = _step(child, eff, j, params, model, trajs)
        nn_calls += calls
        subdivisions += subs
        max_depth = max(max_depth, depth)
    node.box = interval_hull([child.box for child in node.children])
    return nn_calls, subdivisions, max_depth


def _build_uniform_tree(box: IntervalVector, depth_max: int,
                        depth: int = 0) -> PartitionNode:
    node = PartitionNode(box, depth=depth)
    if depth < depth_max:
        node.children = [
            _build_uniform_tree(b, depth_max, depth + 1)
            for b in uniform_divide(box)
        ]
    return node


def compute_reachable_set(root_box: IntervalVector, params: AlgorithmParams,
                          model) -> ReachTube:
    """Run the adaptive (or uniform) partitioning loop over all intervals.

    Returns the concatenated reach tube from the initial time to the
    smallest control instant at or beyond the final time.
    """
    if root_box.n != model.n:
        raise ValueError(
            f"initial box has dimension {root_box.n}, model expects {model.n}"
        )
    if params.eps.n != model.n:
        raise ValueError("eps must have one entry per state dimension")
    if params.mode == "uniform":
        root = _build_uniform_tree(root_box, params.depth_max)
    else:
        root = PartitionNode(root_box)

    boxes = [root_box.as_array()[None, :, :]]
    stats = []
    for j in range(1, model.num_intervals + 1):
        trajs = []
        nn_calls, subdivisions, max_depth = _step(root, None, j, params, model, trajs)
        boxes.extend(np.stack(trajs, axis=1)[1:])
        assert max_depth <= params.depth_max, "depth budget violated"
        stats.append(StepStats(j, model.instants[j], len(trajs), max_depth,
                               nn_calls, subdivisions))
    return ReachTube(times=model.times, boxes=boxes, interval_stats=stats)
