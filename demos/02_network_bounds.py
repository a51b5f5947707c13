"""Network output bounds: interval propagation vs linear relaxation
===================================================================

Bounds the double-integrator controller over the benchmark's initial box
with both methods and reports the widths; the linear relaxation is then
re-evaluated on sub-boxes without touching the network again.

Run: python demos/02_network_bounds.py
"""

from pathlib import Path

import numpy as np

from nncreach import (
    IntervalVector,
    MLPNetwork,
    crown_bounds,
    ibp_bounds,
    make_inclusion,
    uniform_divide,
)

NETWORKS = Path(__file__).resolve().parent.parent / "networks"


def main():
    net = MLPNetwork.load(NETWORKS / "double_integrator_standin.json")
    print(f"controller: {net.input_dim} -> "
          + " -> ".join(str(l.out_dim) for l in net.layers))

    box = IntervalVector(np.array([2.5, -0.25]), np.array([3.0, 0.25]))
    print("input box:", box)

    ib = ibp_bounds(net, box)
    lb = crown_bounds(net, box)
    incl = make_inclusion(lb)
    out = IntervalVector(*incl(box.lo, box.hi))

    print()
    print(f"interval propagation:  [{ib.lo[0]:+.4f}, {ib.hi[0]:+.4f}]  "
          f"width {ib.width[0]:.4f}")
    print(f"linear relaxation:     [{out.lo[0]:+.4f}, {out.hi[0]:+.4f}]  "
          f"width {out.width[0]:.4f}")
    print(f"true output at center: {net(box.center)[0]:+.4f}")

    print()
    print("Both are sound; neither dominates in general, but on this box the")
    print("relaxation is tighter by "
          f"{ib.width[0] / out.width[0]:.1f}x.")

    print()
    print("Evaluating the same relaxation on each quadrant (no new network")
    print("work, just endpoint arithmetic):")
    for k, kid in enumerate(uniform_divide(box)):
        sub = IntervalVector(*incl(kid.lo, kid.hi))
        print(f"  quadrant {k}: [{sub.lo[0]:+.4f}, {sub.hi[0]:+.4f}] "
              f"width {sub.width[0]:.4f}")

    print()
    print("Monte-Carlo audit (10^4 samples stay inside both bounds):")
    rng = np.random.default_rng(0)
    xs = rng.uniform(box.lo, box.hi, size=(10000, 2))
    vals = net(xs)
    ok_ibp = np.all(vals >= ib.lo - 1e-9) and np.all(vals <= ib.hi + 1e-9)
    lo_env = xs @ lb.C_lo.T + lb.d_lo
    hi_env = xs @ lb.C_hi.T + lb.d_hi
    ok_lin = np.all(lo_env <= vals + 1e-9) and np.all(vals <= hi_env + 1e-9)
    print(f"  interval propagation sound: {ok_ibp}")
    print(f"  linear relaxation sound:    {ok_lin}")


if __name__ == "__main__":
    main()
