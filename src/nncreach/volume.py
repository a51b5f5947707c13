"""Box-volume and rasterized union-area reporting."""

from __future__ import annotations

import numpy as np

from .intervals import IntervalVector
from .partition import ReachTube

__all__ = ["hull_volume", "union_area_raster"]


def hull_volume(tube: ReachTube, t: float, coords=None) -> float:
    """Product of hull widths over the selected coordinates at time ``t``."""
    hull = tube.hull_at(tube.time_index(t))
    w = hull.width
    if coords is None:
        coords = range(len(w))
    return float(np.prod([w[i] for i in coords]))


def _normalize_boxes(boxes) -> np.ndarray:
    if isinstance(boxes, np.ndarray):
        arr = boxes
    else:
        arr = np.stack([b.as_array() if isinstance(b, IntervalVector) else np.asarray(b)
                        for b in boxes])
    if arr.ndim != 3 or arr.shape[1] != 2:
        raise ValueError("boxes must be shaped (B, 2, n)")
    return arr


def union_area_raster(boxes, coords=(0, 1), resolution: int = 1000) -> float:
    """Area of the union of boxes projected onto two coordinates.

    Counts raster cells whose centers fall inside any projected box; the
    error shrinks like (perimeter / resolution) as the resolution grows.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    arr = _normalize_boxes(boxes)
    i, j = coords
    lo = arr[:, 0][:, (i, j)]
    hi = arr[:, 1][:, (i, j)]
    xmin, ymin = lo.min(axis=0)
    xmax, ymax = hi.max(axis=0)
    if xmax <= xmin or ymax <= ymin:
        return 0.0
    dx = (xmax - xmin) / resolution
    dy = (ymax - ymin) / resolution
    xs = xmin + (np.arange(resolution) + 0.5) * dx
    ys = ymin + (np.arange(resolution) + 0.5) * dy
    inside = np.zeros((resolution, resolution), dtype=bool)
    for (x0, y0), (x1, y1) in zip(lo, hi):
        mx = (xs >= x0) & (xs <= x1)
        my = (ys >= y0) & (ys <= y1)
        if mx.any() and my.any():
            inside |= mx[:, None] & my[None, :]
    return float(inside.sum()) * dx * dy
