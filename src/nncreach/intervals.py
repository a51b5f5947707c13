"""Interval vectors, order relations, weighted norms, and box manipulation.

Everything downstream (network bounds, embedding dynamics, the partition
engine) works on axis-aligned boxes represented by a pair of endpoint
vectors.  All arithmetic is plain double precision; no outward rounding is
performed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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
    """``x`` as a fresh 1-D float array, which may be frozen without touching the caller's."""
    a = np.array(x, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    return a


def _check_ends(lo, hi) -> None:
    """Raise ``ValueError`` unless the endpoint arrays are finite and ordered."""
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("state boxes must have finite endpoints")
    if (lo > hi).any():
        raise ValueError("box endpoints are crossed (lo > hi)")


@dataclass(frozen=True, eq=False)
class IntervalVector:
    """Axis-aligned box ``[lo, hi]`` with finite endpoints and ``lo <= hi``.

    The endpoints are stored as read-only copies, so the arrays a caller
    passes in stay writable and later writes to them do not reach the box.
    Boxes compare and hash by identity; compare endpoints explicitly.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _as_vector(self.lo, "lo")
        hi = _as_vector(self.hi, "hi")
        if lo.shape != hi.shape:
            raise ValueError("lo and hi must have the same length")
        _check_ends(lo, hi)
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def from_stack(cls, ends) -> list["IntervalVector"]:
        """The boxes ``[ends[k, 0], ends[k, 1]]`` of an ``(L, 2, n)`` endpoint stack.

        The stack is validated once, as a whole, against the same rules
        and with the same messages as a single box, and copied once: every
        box's endpoints are read-only views into that one copy, so the
        caller's array stays writable, and ``boxes[0].lo.base`` is the copy.
        """
        ends = np.array(ends, dtype=float)
        if ends.ndim != 3 or ends.shape[1] != 2:
            raise ValueError(f"endpoint stack must have shape (L, 2, n), got {ends.shape}")
        _check_ends(ends[:, 0], ends[:, 1])
        ends.setflags(write=False)
        boxes = []
        for lo, hi in zip(ends[:, 0], ends[:, 1]):
            box = object.__new__(cls)
            object.__setattr__(box, "lo", lo)
            object.__setattr__(box, "hi", hi)
            boxes.append(box)
        return boxes

    @property
    def n(self) -> int:
        return self.lo.shape[0]

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def center(self) -> np.ndarray:
        return self.lo + 0.5 * (self.hi - self.lo)

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
    The divisor ``div`` (``eps`` with zeros replaced by 1), the mask
    ``hard`` of zero entries, and whether any entry is zero or infinite
    are computed once, for :func:`weighted_inf_norm`.
    """

    eps: np.ndarray
    div: np.ndarray = field(init=False, repr=False, compare=False)
    hard: np.ndarray = field(init=False, repr=False, compare=False)
    _any_hard: bool = field(init=False, repr=False, compare=False)
    _any_free: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eps = _as_vector(self.eps, "eps")
        if np.isnan(eps).any() or (eps < 0).any():
            raise ValueError(f"eps must be non-negative (inf allowed), got {eps.tolist()}")
        hard = eps == 0
        div = np.where(hard, 1.0, eps)
        for name, a in (("eps", eps), ("div", div), ("hard", hard)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "_any_hard", bool(hard.any()))
        object.__setattr__(self, "_any_free", bool(np.isinf(eps).any()))

    @property
    def n(self) -> int:
        return self.eps.shape[0]


def weighted_inf_norm(x, eps):
    """Weighted max norm ``max_i |x_i| / eps_i``.

    An entry with infinite tolerance contributes 0.  A zero tolerance acts
    as a hard constraint: the result is ``inf`` as soon as the matching
    component is nonzero, and 0 otherwise.  ``eps`` is a
    :class:`ToleranceVector` or anything it accepts.  A ``(..., n)`` stack
    gives an array of one norm per vector, a single vector a float; each
    norm has the bits of the single-vector call.

    One division by ``eps.div`` gives every entry its value: ``|x_i| / inf``
    is ``+0.0``, and a hard axis divides by 1 before it is set to ``inf``.

    ``x`` must be finite, and that is checked on the result: a NaN entry
    stays NaN through the division and the ``max``, an infinite one gives
    ``inf``, or NaN on an axis of infinite tolerance (``inf / inf``, whose
    warning is silenced), so a finite norm proves its vector finite.  Only
    a non-finite norm pays for the check of ``x`` itself, which tells a
    non-finite entry (an error) from a hard axis or an overflowing quotient
    (a legitimate ``inf``).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        raise ValueError("x must be a vector or a stack of vectors, got a scalar")
    if not isinstance(eps, ToleranceVector):
        eps = ToleranceVector(eps)
    if x.shape[-1:] != eps.eps.shape:
        raise ValueError("x and eps must have the same length")
    ax = np.abs(x)
    if eps._any_free:
        with np.errstate(invalid="ignore"):  # inf / inf is NaN, caught below
            out = ax / eps.div
    else:
        out = ax / eps.div
    if eps._any_hard:
        out[eps.hard & (ax > 0)] = np.inf
    # every entry is NaN or at least +0.0, so the initial 0 only gives n = 0 its norm
    out = np.maximum.reduce(out, axis=-1, initial=0.0)
    if x.ndim == 1:
        out = float(out)
        finite = math.isfinite(out)
    else:
        finite = np.isfinite(out).all()
    if not finite and not np.isfinite(x).all():
        raise ValueError("x must be finite")
    return out


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


@functools.cache
def _child_bits(n: int) -> np.ndarray:
    """``(2**n, 1, n)`` table: entry ``[k, 0, i]`` is bit ``i`` of ``k``."""
    bits = ((np.arange(1 << n)[:, None, None] >> np.arange(n)) & 1).astype(bool)
    bits.setflags(write=False)
    return bits


def uniform_divide(box: IntervalVector) -> list[IntervalVector]:
    """Bisect every axis at its midpoint, producing ``2**n`` sub-boxes.

    Child ``k`` takes the upper half of axis ``i`` iff bit ``i`` of ``k``
    is set; the union of the children is exactly the input box.  All
    children come from one selection between the ends ``(mid, hi)`` and
    ``(lo, mid)``, so every endpoint is an exact copy.
    """
    lo, hi = box.lo, box.hi
    mid = lo + (hi - lo) / 2.0
    return IntervalVector.from_stack(
        np.where(_child_bits(box.n), np.array((mid, hi)), np.array((lo, mid))))


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


# cos reaches its minimum -1 at pi + 2 k pi and its maximum +1 at 2 k pi:
# one row per extremum, shift and value
_COS_SHIFTS = np.array([[math.pi], [0.0]])
_COS_PEAKS = np.array([[-1.0], [1.0]])


def _cos_range(x) -> np.ndarray:
    """Exact ranges of cos over stacked intervals ``[x[0], x[1]]``.

    ``x`` is a ``(2, ...)`` float array of lower and upper ends; the result
    is stacked the same way.  One ``cos`` covers both ends, and one
    ``floor`` over ``q = (x - shift) / 2 pi`` tests both extrema: an
    extremum lies in the interval iff ``floor(q_hi) >= ceil(q_lo)``, which,
    as ``floor(q_hi)`` is an integer (or infinite, or NaN), is exactly
    ``floor(q_hi) >= q_lo``.  As ``x - 0.0`` is ``x`` exactly, every
    quotient has the bits of the plain ``x / 2 pi`` and ``(x - pi) / 2 pi``.
    """
    shape = x.shape
    x = x.reshape(2, -1)
    c = np.cos(x)
    q = (x[:, None] - _COS_SHIFTS) / _TWO_PI  # (end, extremum, element)
    out = np.empty_like(c)
    clo, chi = c
    np.minimum(clo, chi, out=out[0])
    np.maximum(clo, chi, out=out[1])
    np.copyto(out, _COS_PEAKS, where=np.floor(q[1]) >= q[0])
    return out.reshape(shape)


def interval_cos(lo, hi):
    """Exact range of cos over ``[lo, hi]`` (elementwise; 0-d arrays on scalar ends)."""
    out = _cos_range(np.array(np.broadcast_arrays(lo, hi), dtype=float))
    return out[0, ...], out[1, ...]


def interval_sin(lo, hi):
    """Exact range of sin over ``[lo, hi]`` (elementwise)."""
    half_pi = 0.5 * math.pi
    return interval_cos(np.asarray(lo, dtype=float) - half_pi,
                        np.asarray(hi, dtype=float) - half_pi)
