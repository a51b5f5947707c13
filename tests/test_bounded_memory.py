"""The report and the audit run in bounded memory.

``ReachTube.write_csv`` holds one time step's text at a time, and
``containment_check`` folds through two fixed buffers, so neither peak grows
with the tube.  Holding the whole tube's text, or a ``(B, count)`` temporary
per operation, costs about 19 MB and 11 MB on these tubes.
"""

import tracemalloc

import numpy as np

from nncreach import ReachTube, containment_check

MB = 1e6


def synthetic_tube(rng, leaves, steps, n):
    lo = rng.normal(size=(steps, leaves, n))
    hi = lo + rng.random((steps, leaves, n))
    return ReachTube(times=np.arange(steps) * 0.05, boxes=list(np.stack([lo, hi], axis=2)),
                     interval_stats=[])


def traced_peak(fn, *args):
    """Bytes traced by ``tracemalloc`` during ``fn(*args)`` above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_write_csv_peak_is_one_step(tmp_path):
    tube = synthetic_tube(np.random.default_rng(1), leaves=256, steps=126, n=4)
    assert traced_peak(tube.write_csv, tmp_path / "tube.csv") < 1 * MB


def test_containment_check_peak_is_two_buffers():
    rng = np.random.default_rng(2)
    tube = synthetic_tube(rng, leaves=1657, steps=4, n=2)
    traj = rng.normal(size=(200, 4, 2))
    assert traced_peak(containment_check, tube, traj) < 2 * MB
