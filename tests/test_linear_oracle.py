"""Random linear loops against their exact reachable sets.

A controller of one ``identity`` layer, ``u = K x + c``, makes the loop
linear, and CROWN is exact on it.  The true state at every step is then
affine in the initial state and in the disturbance of each control
interval, ``x = v + G z``, where ``z`` ranges over the box of half-widths
``rad`` (the initial box's, then the disturbance box's once per interval).
Its interval hull is closed-form: centre ``v`` and radius ``|G| rad``.
The tubes below must contain that hull at every step, hold the
trajectories of every vertex of the initial box, and get no looser as a
uniform partition gets finer.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from nncreach import (
    AlgorithmParams,
    ContinuousClosedLoopModel,
    DiscreteLTIModel,
    IntervalVector,
    MLPNetwork,
    ToleranceVector,
    affine_system,
    compute_reachable_set,
    containment_check,
)

SLACK = 1e-9  # relative to the magnitude of the exact hull


@dataclass
class LinearLoop:
    """A closed loop ``u = K x + c`` over ``x+ = A x + B u`` (``dt`` None) or
    over Euler steps of ``x' = A x + B u + D w + k``."""

    model: object
    box: IntervalVector
    A: np.ndarray
    B: np.ndarray
    K: np.ndarray
    c: np.ndarray
    dt: float | None = None
    D: np.ndarray | None = None
    k: np.ndarray | None = None
    w_box: IntervalVector | None = None


def random_box(rng, n):
    center = rng.normal(size=n)
    half = rng.uniform(0.05, 0.5, size=n)
    return IntervalVector(center - half, center + half)


def random_gains(rng, n):
    p = int(rng.integers(1, 3))
    return rng.normal(size=(n, p)), rng.normal(scale=0.4, size=(p, n)), rng.normal(size=p)


def di_loop(seed):
    """A random discrete-time loop of ``1 + seed % 3`` states over four map steps."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    A = rng.normal(scale=0.6, size=(n, n))
    B, K, c = random_gains(rng, n)
    model = DiscreteLTIModel(A, B, MLPNetwork([(K, c, "identity")]), 4)
    return LinearLoop(model, random_box(rng, n), A, B, K, c)


def affine_loop(seed):
    """A random continuous loop through ``affine_system`` of ``1 + seed % 3`` states.

    Seeds 0 and 1 take no disturbance, 2 and 3 one component, 4 and 5 two.
    """
    rng = np.random.default_rng(seed)
    n, q = 1 + seed % 3, seed // 2 % 3
    A = rng.normal(size=(n, n))
    B, K, c = random_gains(rng, n)
    D, k = rng.normal(size=(n, q)), rng.normal(size=n)
    w_box = random_box(rng, q) if q else None
    model = ContinuousClosedLoopModel(affine_system(A, B, D if q else None, k),
                                      MLPNetwork([(K, c, "identity")]), horizon=0.75,
                                      dt=0.05, control_period=0.25, w_box=w_box)
    return LinearLoop(model, random_box(rng, n), A, B, K, c, model.dt, D, k, w_box)


def exact_hulls(loop):
    """The true state's interval hull ``(lo, hi)`` at every time of the model's grid."""
    model, n = loop.model, loop.model.n
    q = 0 if loop.w_box is None else loop.w_box.n
    v = loop.box.center
    G = np.eye(n, n + model.num_intervals * q)
    rad = np.concatenate([loop.box.width / 2]
                         + ([loop.w_box.width / 2] * model.num_intervals if q else []))
    hulls = [(v - np.abs(G) @ rad, v + np.abs(G) @ rad)]
    for j in range(model.num_intervals):
        # the control held over the interval is affine in the state at its start
        u_v, u_G = loop.K @ v + loop.c, loop.K @ G
        for _ in range(model.steps):
            if loop.dt is None:
                v, G = loop.A @ v + loop.B @ u_v, loop.A @ G + loop.B @ u_G
            else:
                dv = loop.A @ v + loop.B @ u_v + loop.k
                dG = loop.A @ G + loop.B @ u_G
                if q:
                    dv += loop.D @ loop.w_box.center
                    dG[:, n + j * q:n + (j + 1) * q] += loop.D
                v, G = v + loop.dt * dv, G + loop.dt * dG
            hulls.append((v - np.abs(G) @ rad, v + np.abs(G) @ rad))
    return hulls


def vertex_trajectories(loop, seed):
    """Closed-loop trajectories from all ``2^n`` vertices, shaped ``(2^n, len(times), n)``."""
    x = np.array(list(itertools.product(*zip(loop.box.lo, loop.box.hi))))
    rng = np.random.default_rng(seed)
    traj = [x]
    for _ in range(loop.model.num_intervals):
        traj.extend(loop.model.simulate_interval(traj[-1], rng))
    return np.stack(traj, axis=1)


def params(n, setting):
    eps = {"uniform-0": np.inf, "uniform-1": np.inf, "adaptive": 0.3}[setting]
    depth = {"uniform-0": 0, "uniform-1": 1, "adaptive": 2}[setting]
    return AlgorithmParams(eps=ToleranceVector(np.full(n, eps)), gamma=0.5, depth_max=depth,
                           nn_depth_max=min(depth, 1),
                           mode="adaptive" if setting == "adaptive" else "uniform")


LOOPS = [pytest.param(di_loop, seed, id=f"di-{seed}") for seed in range(6)] + \
        [pytest.param(affine_loop, seed, id=f"affine-{seed}") for seed in range(6)]


@pytest.mark.parametrize("setting", ["uniform-0", "uniform-1", "adaptive"])
@pytest.mark.parametrize("make, seed", LOOPS)
def test_tube_hull_contains_the_exact_hull(make, seed, setting):
    loop = make(seed)
    tube = compute_reachable_set(loop.box, params(loop.model.n, setting), loop.model)
    hulls = exact_hulls(loop)
    assert len(hulls) == len(tube.times)
    for k, (lo, hi) in enumerate(hulls):
        slack = SLACK * (1.0 + max(np.abs(lo).max(), np.abs(hi).max()))
        hull = tube.hull_at(k)
        assert np.all(hull.lo <= lo + slack), (k, hull.lo - lo)
        assert np.all(hull.hi >= hi - slack), (k, hi - hull.hi)


@pytest.mark.parametrize("setting", ["uniform-0", "uniform-1", "adaptive"])
@pytest.mark.parametrize("make, seed", LOOPS)
def test_tube_holds_every_vertex_trajectory(make, seed, setting):
    loop = make(seed)
    tube = compute_reachable_set(loop.box, params(loop.model.n, setting), loop.model)
    traj = vertex_trajectories(loop, seed)
    report = containment_check(tube, traj, slack=SLACK * (1.0 + np.abs(traj).max()))
    assert report.ok, report


def test_vertex_trajectories_reach_the_exact_hull():
    """Without a disturbance, the vertices attain the hull's every face."""
    for loop in (di_loop(2), affine_loop(1)):
        traj = vertex_trajectories(loop, 0)
        for k, (lo, hi) in enumerate(exact_hulls(loop)):
            np.testing.assert_allclose(traj[:, k].min(axis=0), lo, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(traj[:, k].max(axis=0), hi, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("make, seed", LOOPS)
def test_excess_ratio_does_not_grow_with_uniform_depth(make, seed):
    loop = make(seed)
    lo, hi = exact_hulls(loop)[-1]
    ratios = []
    for depth in range(3):
        uniform = AlgorithmParams(eps=ToleranceVector(np.full(loop.model.n, np.inf)),
                                  depth_max=depth, nn_depth_max=depth, mode="uniform")
        hull = compute_reachable_set(loop.box, uniform, loop.model).final_hull()
        ratios.append(float(np.prod(hull.width / (hi - lo))))
    assert ratios[0] >= 1.0 - 1e-9
    for coarse, fine in zip(ratios, ratios[1:]):
        assert fine <= coarse * (1.0 + 1e-9), ratios
