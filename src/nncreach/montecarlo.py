"""Seeded closed-loop trajectory sampling and tube containment audits.

Trajectories are integrated on the verifier's control time grid, so
containment can be checked pointwise on it.  All randomness flows through
one generator seeded up front: initial states first, then one disturbance
draw per control interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import ReachTube

__all__ = ["sample_trajectories", "containment_check", "ContainmentReport"]

# Deficit elements in each of containment_check's two fold buffers: a chunk
# is max(1, _FOLD_ELEMENTS // count) boxes against all count points.
_FOLD_ELEMENTS = 2 ** 16


def sample_trajectories(model, init_box, count: int, seed: int):
    """Simulate ``count`` closed-loop trajectories from uniform initial states.

    Disturbances (if the model carries a disturbance box) are piecewise
    constant per control interval, drawn uniformly.  Returns
    ``(times, trajectories)`` with trajectories shaped
    ``(count, len(times), n)``.
    """
    if count < 1:
        raise ValueError("need at least one trajectory")
    rng = np.random.default_rng(seed)
    n = model.n
    x = rng.uniform(init_box.lo, init_box.hi, size=(count, n))
    times = model.times
    traj = np.empty((count, len(times), n))
    traj[:, 0] = x

    k = 0
    for _ in range(model.num_intervals):
        for x in model.simulate_interval(x, rng):
            k += 1
            traj[:, k] = x
    return times, traj


@dataclass
class ContainmentReport:
    """Outcome of checking trajectories against a tube's per-time box unions."""

    violations: int
    worst_deficit: float  # <= slack everywhere when the tube is sound
    first_violation: tuple | None

    @property
    def ok(self) -> bool:
        return self.violations == 0


def containment_check(tube: ReachTube, trajectories, slack: float = 1e-9) -> ContainmentReport:
    """Check that every trajectory point lies in the union of that step's boxes.

    A point's deficit against a box is its largest coordinate overshoot,
    ``max_i max(lo_i - x_i, x_i - hi_i)``; its deficit against the tube is
    the smallest over the step's boxes, and the point violates the tube
    when that exceeds ``slack``.  Each step folds its boxes a chunk at a
    time through two ``(chunk, count)`` buffers allocated once per call:
    the overshoots ``lo_0 - x_0, x_0 - hi_0, lo_1 - x_1, ...`` are
    subtracted into one buffer and maxed into the other in order, each
    chunk's per-point minimum over its boxes is taken, and a running
    ``np.minimum`` keeps each point's best across chunks.  The result is
    exact, whatever the chunk size: every element sees the same
    subtractions, and ``np.maximum`` and ``np.minimum`` pick the same
    operand on every tie (``+0.0`` against ``-0.0``) and propagate NaN, so
    a fold in the same order gives the same bits however it is grouped.

    A point that is not finite is a violation with deficit ``inf``, so
    ``worst_deficit <= slack`` still means the report is ok.  The
    trajectories must be shaped ``(count, len(tube.times), tube.n)``.
    """
    traj = np.asarray(trajectories, dtype=float)
    if traj.ndim != 3:
        raise ValueError("trajectories must be shaped (count, len(times), n)")
    count, K, n = traj.shape
    if K != len(tube.times):
        raise ValueError(
            f"time-grid mismatch: trajectories have {K} samples, tube has "
            f"{len(tube.times)}"
        )
    if n != tube.n:
        raise ValueError(
            f"state-dimension mismatch: trajectories have {n} coordinates, "
            f"tube has {tube.n}"
        )
    sizes = [len(boxes) for boxes in tube.boxes]
    if min(sizes) == 0:
        raise ValueError("every tube step must hold at least one box")
    chunk = max(1, _FOLD_ELEMENTS // count)
    rows = min(chunk, max(sizes))
    deficit, scratch = np.empty((rows, count)), np.empty((rows, count))
    best, part = np.empty(count), np.empty(count)
    violations = 0
    worst = -np.inf
    first = None
    for k in range(K):
        lo = tube.boxes[k][:, 0].T[:, :, None]  # (n, B, 1)
        hi = tube.boxes[k][:, 1].T[:, :, None]
        x = np.ascontiguousarray(traj[:, k].T)  # (n, count)
        for start in range(0, lo.shape[1], chunk):
            stop = min(start + chunk, lo.shape[1])
            d, tmp = deficit[:stop - start], scratch[:stop - start]
            np.subtract(lo[0, start:stop], x[0], out=d)  # the fold starts at lo_0 - x_0
            for i in range(n):
                if i > 0:
                    np.subtract(lo[i, start:stop], x[i], out=tmp)
                    np.maximum(d, tmp, out=d)
                np.subtract(x[i], hi[i, start:stop], out=tmp)
                np.maximum(d, tmp, out=d)
            np.minimum.reduce(d, axis=0, out=part if start else best)
            if start:
                np.minimum(best, part, out=best)
        top = float(best.max())
        worst = max(worst, np.inf if np.isnan(top) else top)
        bad = ~(best <= slack)  # a NaN coordinate gives a NaN deficit
        if bad.any():
            violations += int(bad.sum())
            if first is None:
                first = (k, int(np.argmax(bad)))
    return ContainmentReport(violations=violations, worst_deficit=worst,
                             first_violation=first)
