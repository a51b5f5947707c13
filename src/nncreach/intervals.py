"""Interval vectors, order relations, weighted norms, and box manipulation.

Everything downstream (network bounds, embedding dynamics, the partition
engine) works on axis-aligned boxes represented by a pair of endpoint
vectors.  All arithmetic is plain double precision; no outward rounding is
performed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IntervalVector",
    "ToleranceVector",
    "weighted_inf_norm",
    "matrix_measure_inf",
    "uniform_divide",
    "interval_hull",
    "interval_mul",
    "interval_cos",
    "interval_sin",
]

_TWO_PI = 2.0 * math.pi


def _as_vector(x, name="vector") -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class IntervalVector:
    """Axis-aligned box ``[lo, hi]`` with finite endpoints and ``lo <= hi``."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _as_vector(self.lo, "lo")
        hi = _as_vector(self.hi, "hi")
        if lo.shape != hi.shape:
            raise ValueError("lo and hi must have the same length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("state boxes must have finite endpoints")
        if np.any(lo > hi):
            raise ValueError("box endpoints are crossed (lo > hi)")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def n(self) -> int:
        return self.lo.shape[0]

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def center(self) -> np.ndarray:
        return self.lo + 0.5 * (self.hi - self.lo)

    def contains_box(self, other: "IntervalVector", slack: float = 0.0) -> bool:
        return bool(
            np.all(other.lo >= self.lo - slack) and np.all(other.hi <= self.hi + slack)
        )

    def as_array(self) -> np.ndarray:
        """Stack endpoints into shape ``(2, n)``."""
        return np.stack([self.lo, self.hi])

    def __repr__(self):
        parts = ", ".join(f"[{a:g},{b:g}]" for a, b in zip(self.lo, self.hi))
        return f"IntervalVector({parts})"


@dataclass(frozen=True)
class ToleranceVector:
    """Per-axis width tolerances; entries live in ``[0, inf]``.

    ``inf`` removes the constraint on an axis, ``0`` makes any positive
    width a violation (see the partition engine for how both are used).
    """

    eps: np.ndarray

    def __post_init__(self):
        eps = _as_vector(self.eps, "eps")
        if np.any(np.isnan(eps)) or np.any(eps < 0):
            raise ValueError("tolerances must be non-negative (inf allowed)")
        eps.setflags(write=False)
        object.__setattr__(self, "eps", eps)

    @property
    def n(self) -> int:
        return self.eps.shape[0]


def weighted_inf_norm(x, eps) -> float:
    """Weighted max norm ``max_i |x_i| / eps_i``.

    An entry with infinite tolerance contributes 0.  A zero tolerance acts
    as a hard constraint: the result is ``inf`` as soon as the matching
    component is nonzero, and 0 otherwise.
    """
    x = _as_vector(x, "x")
    e = eps.eps if isinstance(eps, ToleranceVector) else _as_vector(eps, "eps")
    if x.shape != e.shape:
        raise ValueError("x and eps must have the same length")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    if x.size == 0:
        return 0.0
    ax = np.abs(x)
    out = np.zeros_like(ax)
    finite = np.isfinite(e) & (e > 0)
    out[finite] = ax[finite] / e[finite]
    zero = e == 0
    out[zero & (ax > 0)] = np.inf
    return float(out.max())


def matrix_measure_inf(A):
    """One-sided derivative of the induced max norm at the identity.

    Equals ``max_i (A_ii + sum_{j != i} |A_ij|)``; negative values certify
    contraction in the max norm.  A ``(..., n, n)`` stack gives an array of
    one measure per matrix, a single matrix a float.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[-1] == 0:
        mu = np.zeros(A.shape[:-2])
    else:
        absrow = np.abs(A).sum(axis=-1)
        diag = np.diagonal(A, axis1=-2, axis2=-1)
        mu = (diag + absrow - np.abs(diag)).max(axis=-1)
    return float(mu) if A.ndim == 2 else mu


def _matvec(M, X):
    """``M @ x`` for every row ``x`` of ``X`` (or for a single vector ``X``).

    The stacked ``matmul`` gives each row the bits of the single product
    ``M @ x``; ``X @ M.T`` and ``einsum`` can differ from it in the last
    place.
    """
    return np.matmul(M, X[..., None])[..., 0]


def uniform_divide(box: IntervalVector) -> list[IntervalVector]:
    """Bisect every axis at its midpoint, producing ``2**n`` sub-boxes.

    Child ``k`` takes the upper half of axis ``i`` iff bit ``i`` of ``k``
    is set; the union of the children is exactly the input box.
    """
    lo, hi = box.lo, box.hi
    mid = lo + (hi - lo) / 2.0
    n = box.n
    out = []
    for k in range(1 << n):
        clo = lo.copy()
        chi = hi.copy()
        for i in range(n):
            if (k >> i) & 1:
                clo[i] = mid[i]
            else:
                chi[i] = mid[i]
        out.append(IntervalVector(clo, chi))
    return out


def interval_hull(boxes) -> IntervalVector:
    """Smallest box containing every box in a non-empty collection."""
    boxes = list(boxes)
    if not boxes:
        raise ValueError("interval_hull of an empty collection")
    lo = np.min([b.lo for b in boxes], axis=0)
    hi = np.max([b.hi for b in boxes], axis=0)
    return IntervalVector(lo, hi)


# ---------------------------------------------------------------------------
# Elementwise interval arithmetic used by hand-written inclusion oracles.
# All helpers broadcast and assume lo <= hi on input.

def interval_mul(alo, ahi, blo, bhi):
    """Elementwise interval product."""
    p1 = alo * blo
    p2 = alo * bhi
    p3 = ahi * blo
    p4 = ahi * bhi
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return lo, hi


def interval_cos(lo, hi):
    """Exact range of cos over ``[lo, hi]`` (elementwise)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    clo = np.cos(lo)
    chi = np.cos(hi)
    # fresh arrays (0-d on scalar input), so the extrema are written in place
    out_lo = np.asarray(np.minimum(clo, chi))
    out_hi = np.asarray(np.maximum(clo, chi))
    # cos attains +1 at even multiples of pi, -1 at odd multiples
    has_max = np.floor(hi / _TWO_PI) >= np.ceil(lo / _TWO_PI)
    has_min = np.floor((hi - math.pi) / _TWO_PI) >= np.ceil((lo - math.pi) / _TWO_PI)
    np.copyto(out_hi, 1.0, where=has_max)
    np.copyto(out_lo, -1.0, where=has_min)
    return out_lo, out_hi


def interval_sin(lo, hi):
    """Exact range of sin over ``[lo, hi]`` (elementwise)."""
    half_pi = 0.5 * math.pi
    return interval_cos(np.asarray(lo, dtype=float) - half_pi,
                        np.asarray(hi, dtype=float) - half_pi)
