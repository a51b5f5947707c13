"""Ordered leaf list and the contraction-guided adaptive stepping loop.

The engine keeps the partition of the initial set as one list of leaves
``(box, path)`` in tree order: ``path`` is the tuple of child indices from
the whole initial box, so a leaf's depth is ``len(path)`` and sorting by
path gives the list order.  Within every control interval each leaf
integrates its own embedding; before committing to the full interval a
leaf may integrate a short probe, extrapolate the interval width at the
interval end from the observed growth ratio, and -- if the projected
width violates the per-axis tolerance -- discard the probe and take its
place in the list as ``2**n`` children that restart the interval.

Network verification is decoupled from partitioning.  With
``nn = min(nn_depth_max, depth_max)``, the leaves sharing ``path[:nn]``
(the leaves under one depth-``nn`` box) sit next to each other and form a
group, verified once per interval on the hull of its leaves' boxes; a leaf
at depth ``nn`` or less is a group of its own.  A split child at depth
``nn`` or less verifies its own box, a deeper one inherits the relaxation
of the leaf it came from.  Every leaf still re-evaluates the face caches
on its own (smaller) box.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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


class StepStats(NamedTuple):
    interval: int
    t_end: float
    leaf_count: int
    max_depth: int
    nn_calls: int
    subdivisions: int


def csv_rows(times, ids, values) -> list[str]:
    """CSV lines ``time,id,v0,v1,...`` with every float written as ``%.17g``.

    ``values`` is a list with one equal-length sequence of floats per line.
    """
    if not values:
        return []
    fmt = "%.17g,%d," + ",".join(["%.17g"] * len(values[0]))
    return [fmt % (t, i, *v) for t, i, v in zip(times, ids, values)]


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
        for t, arr in zip(self.times.tolist(), self.boxes):
            count = arr.shape[0]
            # per partition: lo0, hi0, lo1, hi1, ...
            vals = arr.transpose(0, 2, 1).reshape(count, 2 * n).tolist()
            lines += csv_rows(itertools.repeat(t), range(count), vals)
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


def _step_interval(leaves: list, j: int, params: AlgorithmParams, model):
    """Advance the ordered leaves ``(box, path)`` across control interval ``j``.

    Returns the successor leaves and their trajectories, both in tree
    order, and the numbers of ``verify`` calls and of splits.
    """
    nn = min(params.nn_depth_max, params.depth_max)
    steps = model.interval_steps(j)
    out, trajs = [], []
    nn_calls = subdivisions = 0
    for _, group in itertools.groupby(leaves, key=lambda leaf: leaf[1][:nn]):
        group = list(group)
        eff = model.verify(interval_hull(box for box, _ in group))
        nn_calls += 1
        # a stack, so that split children pop in tree order; a child with
        # no relaxation (None) verifies its own box
        todo = [(box, path, eff) for box, path in reversed(group)]
        while todo:
            box, path, eff = todo.pop()
            if eff is None:
                eff = model.verify(box)
                nn_calls += 1
            emb = model.make_embedding()
            emb.refresh_control(box, reverify=False, inherited=eff, interval_index=j)
            probing = len(path) < params.depth_max
            k = _probe_steps(params.gamma, steps) if probing else steps
            traj = model.advance(emb, box.lo, box.hi, k)
            if probing and _predicate_fires(
                    weighted_inf_norm(box.width, params.eps),
                    weighted_inf_norm(traj[-1, 1] - traj[-1, 0], params.eps), steps / k):
                # discard the probe and restart the interval from the children
                subdivisions += 1
                inherited = None if len(path) < nn else eff
                children = list(enumerate(uniform_divide(box)))
                todo.extend((child, path + (i,), inherited) for i, child in reversed(children))
                continue
            if k < steps:
                rest = model.advance(emb, traj[-1, 0], traj[-1, 1], steps - k)
                traj = np.concatenate([traj, rest[1:]], axis=0)
            out.append((IntervalVector(traj[-1, 0], traj[-1, 1]), path))
            trajs.append(traj)
    return out, trajs, nn_calls, subdivisions


def _build_uniform_tree(box: IntervalVector, depth_max: int) -> list:
    """The leaves ``(box, path)`` of the full tree of depth ``depth_max``, in tree order."""
    leaves = [(box, ())]
    for _ in range(depth_max):
        leaves = [(child, path + (i,)) for parent, path in leaves
                  for i, child in enumerate(uniform_divide(parent))]
    return leaves


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
        leaves = _build_uniform_tree(root_box, params.depth_max)
    else:
        leaves = [(root_box, ())]

    boxes = [root_box.as_array()[None, :, :]]
    stats = []
    for j in range(1, model.num_intervals + 1):
        leaves, trajs, nn_calls, subdivisions = _step_interval(leaves, j, params, model)
        boxes.extend(np.stack(trajs, axis=1)[1:])
        max_depth = max(len(path) for _, path in leaves)
        assert max_depth <= params.depth_max, "depth budget violated"
        stats.append(StepStats(j, model.instants[j], len(leaves), max_depth,
                               nn_calls, subdivisions))
    return ReachTube(times=model.times, boxes=boxes, interval_stats=stats)
