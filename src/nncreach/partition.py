"""Ordered leaf list and the contraction-guided adaptive stepping loop.

The engine keeps the partition of the initial set as one list of leaves
``(box, path)`` in tree order: ``path`` is the tuple of child indices from
the whole initial box, so a leaf's depth is ``len(path)`` and sorting by
path gives the list order.  Within every control interval each leaf
integrates the interval's one embedding, refreshed on its own box; before
committing to the full interval a leaf may integrate a short probe,
extrapolate the interval width at the interval end from the observed
growth ratio, and -- if the projected width violates the per-axis
tolerance -- discard the probe and take its place in the list as
``2**n`` children that restart the interval.

Network verification is decoupled from partitioning.  With
``nn = min(nn_depth_max, depth_max)``, the leaves sharing ``path[:nn]``
(the leaves under one depth-``nn`` box) sit next to each other and form a
group, verified once per interval on the hull of its leaves' boxes; a leaf
at depth ``nn`` or less is a group of its own.  A split child at depth
``nn`` or less verifies its own box, a deeper one inherits the relaxation
of the leaf it came from.  Every leaf still re-evaluates the face caches
on its own (smaller) box.

Between intervals the leaves are held as arrays: the frontier is the last
row of the interval's stacked trajectories, one ``(L, 2, n)`` endpoint
array plus the paths.  It is validated once per interval by
:meth:`IntervalVector.from_stack`, whose boxes are read-only views into
one copy; the starting weighted widths of all leaves (and of the children
of a split) are one stacked :func:`weighted_inf_norm` call, and a group's
hull is the min/max of its slice of the array.
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
_MAX_GRID_STEPS = 10 ** 7


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
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        for name, depth in (("depth_max", self.depth_max),
                            ("nn_depth_max", self.nn_depth_max)):
            if depth < 0:
                raise ValueError(f"{name} must be non-negative, got {depth}")
        if self.mode not in ("adaptive", "uniform"):
            raise ValueError(f"mode must be 'adaptive' or 'uniform', got {self.mode!r}")
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


def csv_template(lead: str, tails: list[str]) -> list[str]:
    """Pieces of the CSV rows ``lead + key + tail``, one row per tail.

    ``key.join(pieces)`` is the rows' text with the block's ``key`` in every
    row and a ``\\n`` after each; the ``%`` fields in ``lead`` and the tails
    are left to be filled.
    """
    if not tails:
        return [""]
    return [lead] + [tail + "\n" + lead for tail in tails[:-1]] + [tails[-1] + "\n"]


def write_csv_blocks(path, header: str, blocks) -> None:
    """Write ``header`` and then ``blocks``, one block of rows at a time.

    Each block is ``(pieces, key, values)``: the pieces of
    :func:`csv_template`, the string that fills the block's key column and
    the flat list of the floats for its ``%.17g`` fields in row order.  A
    block is formatted by one ``%`` and written straight to the file, so only
    one block's text is held at a time.
    """
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for pieces, key, values in blocks:
            fh.write(key.join(pieces) % tuple(values))


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
        """Write ``time,partition,lo0,hi0,lo1,hi1,...`` rows, floats as ``%.17g``.

        Each time step is one block: its boxes' ends are formatted by one
        ``%`` over the step's flat list, into a row template that holds the
        partition ids and is rebuilt only when the leaf count changes, and
        the block goes straight to the file.  The memory held is one step's
        text, not the tube's.
        """
        fields = ",%.17g" * (2 * self.n)
        header = "time,partition," + ",".join(f"lo{i},hi{i}" for i in range(self.n))

        def blocks():
            pieces = csv_template("", [])
            for t, arr in zip(self.times.tolist(), self.boxes):
                count = arr.shape[0]
                if len(pieces) != count + 1:
                    pieces = csv_template("", [f",{i}{fields}" for i in range(count)])
                # per partition: lo0, hi0, lo1, hi1, ...
                yield pieces, "%.17g" % t, arr.transpose(0, 2, 1).ravel().tolist()

        write_csv_blocks(path, header, blocks())


# ---------------------------------------------------------------------------
# Closed-loop models: package system + controller + time structure so the
# engine can stay agnostic of continuous vs discrete integration.

class _ControlGrid:
    """The closed-loop model base: a controller and one control time grid.

    ``net`` maps the plant's ``n`` states to its ``p`` inputs.  The grid
    from t = 0 has ``num_intervals`` control intervals of one ``period``
    each, the last ending at the smallest multiple of the period at or
    beyond the horizon, and ``steps`` steps of ``dt`` per interval; ``dt``
    must divide the period.  ``times`` are the step ends, from 0, so the
    end of interval ``j`` is ``times[j * steps]``.  A horizon or period of
    more than ``_MAX_GRID_STEPS`` steps is rejected before the grid is
    allocated.
    """

    def __init__(self, n: int, p: int, net, horizon: float, dt: float, period: float):
        if (net.input_dim, net.output_dim) != (n, p):
            raise ValueError(
                f"network maps dimension {net.input_dim} to {net.output_dim}, "
                f"the plant needs {n} to {p}"
            )
        if dt <= 0:
            raise ValueError("dt must be positive")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if period <= 0:
            raise ValueError("the control period must be positive")
        # within a factor 2 of the grid's step count; also rejects NaN
        if not max(horizon, period) / dt <= _MAX_GRID_STEPS:
            raise ValueError(f"the time grid to horizon {horizon} would have more "
                             f"than {_MAX_GRID_STEPS} steps of dt={dt}")
        self.steps = int(round(period / dt))
        # a period within _GRID_TOL of 0 rounds to 0 steps and would pass the tolerance
        if self.steps < 1 or abs(period - self.steps * dt) > _GRID_TOL:
            raise ValueError(f"dt={dt} does not divide the control period {period}")
        self.n = n
        self.net = net
        self.dt = float(dt)
        self.num_intervals = max(1, math.ceil(horizon / period - _GRID_TOL))
        self.times = self.dt * np.arange(self.num_intervals * self.steps + 1)


class ContinuousClosedLoopModel(_ControlGrid):
    """Sampled-data neural-network loop integrated with fixed-step Euler."""

    def __init__(self, sys: OpenLoopSystem, net, horizon: float, dt: float,
                 control_period: float, w_box=None):
        super().__init__(sys.n, sys.p, net, horizon, dt, control_period)
        self.sys = sys
        self.w_box = w_box
        self._w_lo, self._w_hi = _require_pair(w_box, sys.q, "disturbance")

    def verify(self, box: IntervalVector) -> InclusionFunction:
        return make_inclusion(crown_bounds(self.net, box))

    def make_embedding(self) -> ClosedLoopEmbedding:
        return ClosedLoopEmbedding(self.sys, self.w_box)

    def advance(self, emb, lo, hi, steps: int) -> np.ndarray:
        return emb.integrate(lo, hi, self.dt, steps)

    def simulate_interval(self, x, rng):
        """Yield the sampled states ``(count, n)`` after each step of a control interval.

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
        for _ in range(self.steps):
            x = x + self.dt * self.sys.f(x, u, w)
            yield x


class DiscreteLTIModel(_ControlGrid):
    """Discrete-time linear loop; one control update per map step.

    ``A`` and ``B`` are the read-only copies of a map built (and
    shape-checked) at construction.
    """

    def __init__(self, A, B, net, horizon_steps: int, w_box=None):
        _require_pair(w_box, 0, "disturbance")  # the map takes no disturbance
        emb = DiscreteLTIEmbedding(A, B)
        super().__init__(emb.n, emb.p, net, horizon_steps, 1.0, 1.0)
        self.A, self.B = emb.A, emb.B

    def verify(self, box: IntervalVector) -> InclusionFunction:
        return make_inclusion(crown_bounds(self.net, box))

    def make_embedding(self) -> DiscreteLTIEmbedding:
        return DiscreteLTIEmbedding(self.A, self.B)

    def advance(self, emb, lo, hi, steps: int) -> np.ndarray:
        return emb.integrate(lo, hi, self.dt, steps)

    def simulate_interval(self, x, rng):
        """Yield the sampled states ``(count, n)`` after the interval's one map step."""
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


def _step_interval(ends, boxes: list, paths: list, params: AlgorithmParams, model):
    """Advance the frontier across one control interval.

    The frontier is the leaves' ``(L, 2, n)`` endpoint array ``ends``, their
    boxes (with the same endpoints) and their paths, all in tree order.
    Returns the successor leaves' trajectories and paths, both in tree
    order, and the numbers of ``verify`` calls and of splits.
    """
    nn = min(params.nn_depth_max, params.depth_max)
    eps = params.eps
    steps = model.steps
    probe_steps = _probe_steps(params.gamma, steps)
    trajs, out_paths = [], []
    nn_calls = subdivisions = 0
    emb = model.make_embedding()  # refreshed for every leaf
    w0s = weighted_inf_norm(ends[:, 1] - ends[:, 0], eps).tolist()
    stop = 0
    for _, group in itertools.groupby(paths, key=lambda path: path[:nn]):
        start, stop = stop, stop + sum(1 for _ in group)
        hull = ends[start:stop]
        eff = model.verify(IntervalVector(hull[:, 0].min(axis=0), hull[:, 1].max(axis=0)))
        nn_calls += 1
        # a stack, so that split children pop in tree order; a child with
        # no relaxation (None) verifies its own box
        todo = [(boxes[i], paths[i], w0s[i], eff) for i in range(stop - 1, start - 1, -1)]
        while todo:
            box, path, w0, eff = todo.pop()
            if eff is None:
                eff = model.verify(box)
                nn_calls += 1
            emb.refresh_control(box, inherited=eff)
            probing = len(path) < params.depth_max
            k = probe_steps if probing else steps
            traj = model.advance(emb, box.lo, box.hi, k)
            if probing and _predicate_fires(
                    w0, weighted_inf_norm(traj[-1, 1] - traj[-1, 0], eps), steps / k):
                # discard the probe and restart the interval from the children
                subdivisions += 1
                inherited = None if len(path) < nn else eff
                children = uniform_divide(box)
                kids = children[0].lo.base  # their (2**n, 2, n) stacked ends
                widths = weighted_inf_norm(kids[:, 1] - kids[:, 0], eps).tolist()
                todo.extend((children[i], path + (i,), widths[i], inherited)
                            for i in reversed(range(len(children))))
                continue
            if k < steps:
                rest = model.advance(emb, traj[-1, 0], traj[-1, 1], steps - k)
                traj = np.concatenate([traj, rest[1:]], axis=0)
            trajs.append(traj)
            out_paths.append(path)
    return trajs, out_paths, nn_calls, subdivisions


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

    Returns the concatenated reach tube from t = 0 to the smallest
    control instant at or beyond the horizon.
    """
    if root_box.n != model.n:
        raise ValueError(
            f"initial box has dimension {root_box.n}, model expects {model.n}"
        )
    if params.eps.n != model.n:
        raise ValueError("eps must have one entry per state dimension")
    depth = params.depth_max if params.mode == "uniform" else 0
    leaves = _build_uniform_tree(root_box, depth)
    boxes = [box for box, _ in leaves]
    paths = [path for _, path in leaves]
    ends = np.stack([box.as_array() for box in boxes])

    tube = [root_box.as_array()[None, :, :]]
    stats = []
    for j in range(1, model.num_intervals + 1):
        trajs, paths, nn_calls, subdivisions = _step_interval(ends, boxes, paths, params, model)
        stacked = np.stack(trajs, axis=1)
        tube.extend(stacked[1:])
        # the successor frontier: the last row, validated once
        ends = stacked[-1]
        boxes = IntervalVector.from_stack(ends)
        max_depth = max(len(path) for path in paths)
        assert max_depth <= params.depth_max, "depth budget violated"
        stats.append(StepStats(j, float(model.times[j * model.steps]), len(paths),
                               max_depth, nn_calls, subdivisions))
    return ReachTube(times=model.times, boxes=tube, interval_stats=stats)
