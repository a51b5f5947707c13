"""Contraction-rate and Lipschitz estimates with the associated error bounds.

All suprema are taken over finite deterministic sample sets (axis grids
for low dimensions, Halton points otherwise), so every figure reported
here is an *estimate from below* of the true supremum.  The closed-loop
field analysed here applies the network relaxation continuously at the
evaluation state (the analysis object behind the error bounds); the
integration engine instead freezes face caches per control interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .intervals import IntervalVector, interval_hull, matrix_measure_inf

__all__ = [
    "ContractionEstimate",
    "estimate_contraction",
    "error_bound",
    "composite_rate_bound",
    "fd_jacobian",
    "halton",
]

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def halton(count: int, dims: int, skip: int = 20) -> np.ndarray:
    """Deterministic low-discrepancy points in ``[0, 1)^dims``."""
    if dims > len(_PRIMES):
        raise ValueError(f"halton supports at most {len(_PRIMES)} dimensions")
    out = np.empty((count, dims))
    for d in range(dims):
        base = _PRIMES[d]
        for i in range(count):
            k = i + skip + 1
            f = 1.0
            r = 0.0
            while k > 0:
                f /= base
                r += f * (k % base)
                k //= base
            out[i, d] = r
    return out


def fd_jacobian(fun, x, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of ``fun`` at ``x``."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fun(x), dtype=float)
    J = np.empty((f0.shape[0], x.shape[0]))
    for k in range(x.shape[0]):
        h = rel_step * max(1.0, abs(x[k]))
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        J[:, k] = (np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2.0 * h)
    return J


@dataclass
class ContractionEstimate:
    """Sampled contraction/Lipschitz figures over a state-space region.

    Every field is the maximum over a finite sample set and therefore a
    lower bound of the corresponding supremum; treat them as estimates.
    """

    c_x: float
    c_x_open: float
    l_u: float
    l_w: float
    lip_inf: float
    region: list = field(default_factory=list)
    method: str = "grid"
    sample_count: int = 0

    @property
    def composite_bound(self) -> float:
        return composite_rate_bound(self.c_x_open, self.l_u, self.lip_inf)


def composite_rate_bound(c_x_open: float, l_u_open: float, lip_inf: float) -> float:
    """Composite upper bound on the closed-loop contraction rate."""
    return c_x_open + l_u_open * lip_inf


def _growth_factor(c: float, t: float) -> float:
    """``(e^{ct} - 1) / c`` continued by ``t`` at ``c = 0``."""
    if c == 0.0:
        return t
    ct = c * t
    if ct > 700.0:
        return math.inf
    return (math.exp(ct) - 1.0) / c


def error_bound(est, t: float, init_err: float, nn_err_sup: float,
                   w_err_sup: float = 0.0) -> float:
    """Worst-case embedding error at time ``t``.

    ``est`` may be a :class:`ContractionEstimate` or a ``(c_x, l_u, l_w)``
    triple.  The three terms: exponential propagation of the initial
    error, accumulated network approximation error, and accumulated
    disturbance width.
    """
    if isinstance(est, ContractionEstimate):
        c, lu, lw = est.c_x, est.l_u, est.l_w
    else:
        c, lu, lw = est
    ct = c * t
    expct = math.inf if ct > 700.0 else max(math.exp(ct), 0.0)
    return expct * init_err + lu * _growth_factor(c, t) * nn_err_sup \
        + lw * _growth_factor(c, t) * w_err_sup


# ---------------------------------------------------------------------------
# Sampling and analysis fields.

def _sample_pairs(box: IntervalVector, grid_density: int, samples_per_box: int):
    """Deterministic ordered pairs ``(a, b)`` with ``a <= b`` inside ``box``.

    Uses per-axis endpoint grids when the combinatorics stay small and
    Halton points otherwise.  Pairs keep a positive separation on every
    axis of positive width so finite differences do not cross the
    ordering boundary.
    """
    n = box.n
    lo, hi = box.lo, box.hi
    w = hi - lo
    pairs = []
    n_axis_pairs = grid_density * (grid_density + 1) // 2
    if n_axis_pairs ** n <= 512:
        g = np.linspace(0.0, 0.9, grid_density)
        # fractions (fa, fb) with fb - fa >= 0.1 so pairs stay separated
        axis_pairs = [(fa, fa + 0.1 + 0.9 * (fb - fa)) for i, fa in enumerate(g)
                      for fb in g[i:]]
        total = n_axis_pairs ** n
        for flat in range(total):
            rem = flat
            a = np.empty(n)
            b = np.empty(n)
            for ax in range(n):
                rem, sel = divmod(rem, n_axis_pairs)
                fa, fb = axis_pairs[sel]
                a[ax] = lo[ax] + fa * w[ax]
                b[ax] = lo[ax] + fb * w[ax]
            pairs.append((a, b))
    else:
        pts = halton(samples_per_box, 2 * n)
        for row in pts:
            f1, f2 = row[:n], row[n:]
            fa = np.minimum(f1, f2) * 0.45
            fb = 1.0 - (1.0 - np.maximum(f1, f2)) * 0.45
            pairs.append((lo + fa * w, lo + fb * w))
    return pairs


def _closed_field(emb):
    """Embedding field with the relaxation applied at the evaluation state."""
    incl = emb.incl
    if incl is None:
        raise RuntimeError("embedding has no inclusion function; call refresh_control")
    n = emb.n

    def closed_field(s):
        a, b = s[:n], s[n:]
        ulo, uhi = incl(a, b, check=False)
        return emb.open_field(a, b, ulo, uhi, emb.w_lo, emb.w_hi)

    return closed_field


def estimate_contraction(emb, region, grid_density: int = 5,
                         samples_per_box: int = 32,
                         fd_step: float = 1e-6) -> ContractionEstimate:
    """Sample every contraction/Lipschitz figure over one shared sample set.

    The closed-loop rate, the open-loop rate, and the input/disturbance
    Lipschitz estimates are evaluated at identical state pairs, so the
    composite bound is directly comparable against the closed-loop
    estimate.  ``emb`` is either embedding after ``refresh_control``; it
    supplies the dimensions, the disturbance box and ``open_field``.
    """
    region = list(region)
    if not region:
        raise ValueError("region must contain at least one box")
    closed_field = _closed_field(emb)
    open_field = emb.open_field
    n, p, q, wlo, whi = emb.n, emb.p, emb.q, emb.w_lo, emb.w_hi
    domain = emb.incl.domain
    for box in region:
        if not domain.contains_box(box, slack=1e-9):
            raise ValueError("region leaves the inclusion function's domain")

    incl = emb.incl
    c_x = -math.inf
    c_x_open = -math.inf
    l_u = 0.0
    l_w = 0.0
    count = 0
    for box in region:
        for a, b in _sample_pairs(box, grid_density, samples_per_box):
            count += 1
            s = np.concatenate([a, b])
            J_closed = fd_jacobian(closed_field, s, fd_step)
            c_x = max(c_x, matrix_measure_inf(J_closed))
            ulo, uhi = incl(a, b, check=False)
            umid = 0.5 * (ulo + uhi)
            # the suprema range over every input pair inside the network
            # bounds, so probe interior pairs besides the extreme one
            u_pairs = [(ulo, uhi), (umid, umid),
                       (0.5 * (ulo + umid), 0.5 * (uhi + umid))]

            for u_pair in u_pairs:
                def open_at_state(sv, _u=u_pair):
                    return open_field(sv[:n], sv[n:], _u[0], _u[1], wlo, whi)

                J_open = fd_jacobian(open_at_state, s, fd_step)
                c_x_open = max(c_x_open, matrix_measure_inf(J_open))

                if p:
                    def open_at_u(uv, _s=(a, b)):
                        return open_field(_s[0], _s[1], uv[:p], uv[p:], wlo, whi)

                    J_u = fd_jacobian(open_at_u, np.concatenate(u_pair), fd_step)
                    l_u = max(l_u, float(np.abs(J_u).sum(axis=1).max()))
            if q:
                def open_at_w(wv, _s=(a, b), _u=(ulo, uhi)):
                    return open_field(_s[0], _s[1], _u[0], _u[1], wv[:q], wv[q:])

                J_w = fd_jacobian(open_at_w, np.concatenate([wlo, whi]), fd_step)
                l_w = max(l_w, float(np.abs(J_w).sum(axis=1).max()))

    lip = incl.state_lipschitz_inf()
    n_axis_pairs = grid_density * (grid_density + 1) // 2
    return ContractionEstimate(
        c_x=float(c_x), c_x_open=float(c_x_open), l_u=float(l_u),
        l_w=float(l_w), lip_inf=float(lip), region=region,
        method="grid" if n_axis_pairs ** n <= 512 else "sample",
        sample_count=count,
    )


def region_from_tube(tube, stride: int = 1):
    """Per-time hull boxes of a reach tube (the analysis region)."""
    ks = list(range(0, len(tube.times), max(1, stride)))
    if ks[-1] != len(tube.times) - 1:
        ks.append(len(tube.times) - 1)
    return [tube.hull_at(k) for k in ks]


def region_domain(region) -> IntervalVector:
    return interval_hull(region)
