"""Box-volume and rasterized union-area reporting."""

from __future__ import annotations

import numbers

import numpy as np

from .partition import ReachTube

__all__ = ["hull_volume", "union_area_raster"]

# Cells in union_area_raster's one band buffer: a band is
# _BAND_CELLS // (resolution + 1) rows of the cover grid, at least one and
# at most all of them.
_BAND_CELLS = 2 ** 16


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
    the resolution grows.  ``resolution`` must be a positive integer.

    The count is exact and takes no loop over boxes.  Since the centres are
    sorted, the cells a box covers along an axis form the index range
    ``[searchsorted(xs, x0, "left"), searchsorted(xs, x1, "right"))``.  Each
    non-empty box adds its four corners to a 2-D difference array, and two
    cumulative sums turn that into the number of boxes covering each cell.

    The grid is never held whole.  The corners are sorted by row once, and
    the rows are summed a band at a time in one reused int32 buffer of
    about ``_BAND_CELLS`` cells plus one row; its first row carries the
    last cover row of the band before, which the rows up to the next band
    with corners repeat.  Integer sums are exact, so the count is the whole
    grid's, in memory that grows with the resolution, not with its square.
    """
    if not isinstance(resolution, numbers.Integral) or resolution <= 0:
        raise ValueError("resolution must be a positive integer")
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

    width = resolution + 1
    band = min(resolution, max(1, _BAND_CELLS // width))
    rows = np.concatenate((x0, x0, x1, x1))
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    # each corner's flat position in the buffer, below the carried row
    flat = (rows % band + 1) * width + np.concatenate((y0, y1, y0, y1))[order]
    sign = np.repeat(np.array([1, -1, -1, 1], dtype=np.int32), x0.size)[order]
    # the bands that hold corners, each with its run [s, e) of corners; a
    # corner on row `resolution` bounds no cell
    bands = rows[rows < resolution] // band
    cuts = [*np.flatnonzero(np.diff(bands, prepend=-1)).tolist(), bands.size]
    buf = np.zeros((band + 1, width), dtype=np.int32)
    body = buf[1:]
    count = carried = done = 0
    for s, e in zip(cuts, cuts[1:]):
        r0 = int(bands[s]) * band
        height = min(band, resolution - r0)
        # the rows since the last band with corners repeat its last row
        count += (r0 - done) * carried
        body[...] = 0
        np.add.at(buf.reshape(-1), flat[s:e], sign[s:e])
        np.cumsum(body, axis=1, out=body)
        # one vector add per row: numpy sums a short band down its columns slowly
        for r in range(1, height + 1):
            np.add(buf[r - 1], buf[r], out=buf[r])
        count += np.count_nonzero(buf[1:height + 1, :resolution])
        buf[0] = buf[height]
        carried = np.count_nonzero(buf[0, :resolution])
        done = r0 + height
    return float(count + (resolution - done) * carried) * dx * dy
