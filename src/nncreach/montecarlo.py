"""Seeded closed-loop trajectory sampling and tube containment audits.

Trajectories are integrated with the same step size and the same control
instants as the verifier, so containment can be checked pointwise on a
shared time grid.  All randomness flows through one generator seeded up
front: initial states first, then one disturbance draw per control
interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import ReachTube

__all__ = ["sample_trajectories", "containment_check", "ContainmentReport"]


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
    for j in range(1, model.num_intervals + 1):
        for x in model.simulate_interval(x, j, rng):
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
    """Check that every trajectory point lies in the union of that step's boxes."""
    traj = np.asarray(trajectories, dtype=float)
    if traj.ndim != 3:
        raise ValueError("trajectories must be shaped (count, len(times), n)")
    count, K, n = traj.shape
    if K != len(tube.times):
        raise ValueError(
            f"time-grid mismatch: trajectories have {K} samples, tube has "
            f"{len(tube.times)}"
        )
    violations = 0
    worst = -np.inf
    first = None
    for k in range(K):
        boxes = tube.boxes[k]  # (B, 2, n)
        pts = traj[:, k]       # (count, n)
        deficit = np.maximum(
            boxes[:, 0][:, None, :] - pts[None, :, :],
            pts[None, :, :] - boxes[:, 1][:, None, :],
        ).max(axis=2)          # (B, count)
        best = deficit.min(axis=0)
        worst = max(worst, float(best.max()))
        bad = best > slack
        if bad.any():
            violations += int(bad.sum())
            if first is None:
                first = (k, int(np.argmax(bad)))
    return ContainmentReport(violations=violations, worst_deficit=worst,
                             first_violation=first)
