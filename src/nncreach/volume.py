"""Box-volume and rasterized union-area reporting."""

from __future__ import annotations

import numpy as np

from .partition import ReachTube

__all__ = ["hull_volume", "union_area_raster"]


def hull_volume(tube: ReachTube, t: float) -> float:
    """Product of the hull's widths at time ``t``."""
    return float(np.prod(tube.hull_at(tube.time_index(t)).width))


def union_area_raster(boxes, resolution: int = 1000) -> float:
    """Area of the union of boxes projected onto the first two coordinates.

    ``boxes`` is a ``(B, 2, n)`` endpoint array, one ``[lo, hi]`` per box,
    as :class:`ReachTube` holds them per time step.  The projected hull is
    cut into ``resolution x resolution`` cells, and a cell counts when its
    centre lies in some box, closed on every side (``x0 <= xs <= x1`` and
    ``y0 <= ys <= y1``); the error shrinks like (perimeter / resolution) as
    the resolution grows.

    The count is exact and takes no loop over boxes.  Since the centres are
    sorted, the cells a box covers along an axis form the index range
    ``[searchsorted(xs, x0, "left"), searchsorted(xs, x1, "right"))``.  Each
    non-empty box adds its four corners to a 2-D difference array, and two
    cumulative sums turn that into the number of boxes covering each cell.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    arr = np.asarray(boxes, dtype=float)
    if arr.ndim != 3 or arr.shape[1] != 2 or arr.shape[2] < 2:
        raise ValueError("boxes must be shaped (B, 2, n) with n >= 2")
    lo = arr[:, 0, :2]
    hi = arr[:, 1, :2]
    xmin, ymin = lo.min(axis=0)
    xmax, ymax = hi.max(axis=0)
    if xmax <= xmin or ymax <= ymin:
        return 0.0
    dx = (xmax - xmin) / resolution
    dy = (ymax - ymin) / resolution
    xs = xmin + (np.arange(resolution) + 0.5) * dx
    ys = ymin + (np.arange(resolution) + 0.5) * dy
    x0 = np.searchsorted(xs, lo[:, 0], "left")
    x1 = np.searchsorted(xs, hi[:, 0], "right")
    y0 = np.searchsorted(ys, lo[:, 1], "left")
    y1 = np.searchsorted(ys, hi[:, 1], "right")
    keep = (x0 < x1) & (y0 < y1)
    x0, x1, y0, y1 = x0[keep], x1[keep], y0[keep], y1[keep]
    cover = np.zeros((resolution + 1, resolution + 1), dtype=np.int32)
    np.add.at(cover, (x0, y0), 1)
    np.add.at(cover, (x0, y1), -1)
    np.add.at(cover, (x1, y0), -1)
    np.add.at(cover, (x1, y1), 1)
    np.cumsum(cover, axis=0, out=cover)
    np.cumsum(cover, axis=1, out=cover)
    return float(np.count_nonzero(cover[:resolution, :resolution])) * dx * dy
