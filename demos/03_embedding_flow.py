"""Embedding dynamics: one trajectory bounds them all
=====================================================

A system with a decomposition function lifts to dynamics on pairs
(lower, upper): integrating the pair once yields a tube containing every
trajectory that starts inside the initial box.  Shown first on a scalar
toy with an exact answer, then on the 4-state vehicle.

The plant's `open_field` evaluates the open-loop embedding under given
input and disturbance intervals; `ClosedLoopEmbedding.field` (what
`integrate` steps) uses the controller's output intervals frozen on the
faces of the box at the last `refresh_control`.

Run: python demos/03_embedding_flow.py
"""

import math

import numpy as np

from nncreach import (
    ClosedLoopEmbedding,
    IntervalVector,
    LinearBounds,
    MLPNetwork,
    VehicleSystem,
    affine_system,
    crown_bounds,
    make_inclusion,
)
from pathlib import Path

NETWORKS = Path(__file__).resolve().parent.parent / "networks"


def scalar_toy():
    print("=" * 60)
    print("Scalar toy: xdot = -x + u, u held in [-0.1, 0.1]")
    print("=" * 60)
    sys = affine_system(np.array([[-1.0]]), np.array([[1.0]]))
    none = np.zeros(0)  # no disturbance
    rate = sys.open_field(np.array([-1.0]), np.array([1.0]),
                          np.array([-0.1]), np.array([0.1]), none, none)
    print("open-loop embedding field at ([-1,1]):", rate, " (lower half rises, upper falls)")

    domain = IntervalVector(np.array([-2.0]), np.array([2.0]))
    incl = make_inclusion(LinearBounds(
        C_lo=np.zeros((1, 1)), d_lo=np.array([-0.1]),
        C_hi=np.zeros((1, 1)), d_hi=np.array([0.1]), domain=domain))
    # a constant controller band: the closed-loop field is the open-loop one
    emb = ClosedLoopEmbedding(sys)
    emb.refresh_control(domain, reverify=False, inherited=incl, interval_index=0)
    traj = emb.integrate(np.array([-1.0]), np.array([1.0]), 0.01, 500)
    print("\n  t     lower     upper     exact envelope +/-(e^-t + 0.1(1-e^-t))")
    for t in (0.0, 0.5, 1.0, 2.0, 5.0):
        k = int(round(t / 0.01))
        exact = math.exp(-t) + 0.1 * (1 - math.exp(-t))
        print(f"  {t:3.1f}  {traj[k,0,0]:+.4f}   {traj[k,1,0]:+.4f}   +/-{exact:.4f}")
    print("the integrated pair hugs the analytic envelope from inside.")


def vehicle():
    print()
    print("=" * 60)
    print("Vehicle: one control interval of the sampled-data loop")
    print("=" * 60)
    net = MLPNetwork.load(NETWORKS / "vehicle_standin.json")
    sys = VehicleSystem().open_loop()
    c = 2 * math.pi / 3
    box = IntervalVector(np.array([7.9, 7.9, -c - 0.01, 1.99]),
                         np.array([8.1, 8.1, -c + 0.01, 2.01]))
    emb = ClosedLoopEmbedding(sys)
    emb.refresh_control(box, inherited=make_inclusion(crown_bounds(net, box)),
                        interval_index=0)
    print("per-face controller output ranges frozen at the control instant:")
    for i, name in enumerate(["p_x", "p_y", "phi", "v"]):
        face_hi = box.hi.copy()
        face_hi[i] = box.lo[i]  # the lower face pins coordinate i at its lower end
        u_lo, u_hi = emb.incl(box.lo, face_hi)
        print(f"  lower {name}-face: force [{u_lo[0]:+.3f}, {u_hi[0]:+.3f}]"
              f"  wheel [{u_lo[1]:+.3f}, {u_hi[1]:+.3f}]")
    traj = emb.integrate(box.lo, box.hi, 0.01, 25)
    print("\nwidths along the interval (ordering is preserved step by step):")
    for k in (0, 5, 15, 25):
        w = traj[k, 1] - traj[k, 0]
        print(f"  step {k:2d}: widths {np.array2string(w, precision=4)}")


def main():
    scalar_toy()
    vehicle()


if __name__ == "__main__":
    main()
