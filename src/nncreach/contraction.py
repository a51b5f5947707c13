"""Contraction-rate and Lipschitz estimates with the associated error bounds.

All suprema are taken over finite deterministic sample sets (axis grids
for low dimensions, Halton points otherwise), so every figure reported
here is an *estimate from below* of the true supremum.  The closed-loop
field analysed here applies the network relaxation continuously at the
evaluation state (the analysis object behind the error bounds); the
integration engine instead freezes face caches per control interval.  Both
evaluate the one relaxation map of the inclusion function.
:func:`diagnose` gathers every figure ``nncreach bounds`` reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .intervals import IntervalVector, interval_hull, matrix_measure_inf
from .montecarlo import sample_trajectories

__all__ = [
    "ContractionEstimate",
    "estimate_contraction",
    "diagnose",
    "error_bound",
    "composite_rate_bound",
    "fd_jacobian",
    "halton",
]

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_GRID_DENSITY = 5  # grid fractions per axis in low dimensions
_FD_STEP = 1e-6    # central-difference step relative to max(1, |x|)
_HALTON_SKIP = 20  # leading points of the sequence left out


def halton(count: int, dims: int) -> np.ndarray:
    """Deterministic low-discrepancy points in ``[0, 1)^dims``.

    Point ``i`` is the radical inverse of ``i + 21`` (the first 20 points
    are skipped) in the ``d``-th prime base on axis ``d``, summed digit by
    digit from the least significant one; all points and axes take each
    digit position at once.
    """
    if dims > len(_PRIMES):
        raise ValueError(f"halton supports at most {len(_PRIMES)} dimensions")
    base = np.array(_PRIMES[:dims])
    k = np.repeat(np.arange(_HALTON_SKIP + 1, _HALTON_SKIP + 1 + count)[:, None], dims,
                  axis=1)
    f = np.ones(dims)
    r = np.zeros((count, dims))
    while k.any():
        f /= base
        # a finished index adds f * 0, which leaves its sum unchanged
        r += f * (k % base)
        k //= base
    return r


def fd_jacobian(fun, X) -> np.ndarray:
    """Central-difference Jacobians of ``fun`` at every row of ``X``.

    ``X`` is ``(m, d)``.  ``fun(rows, idx)`` maps a ``(k, d)`` row stack to
    ``(k, out)``; ``idx[r]`` is the row of ``X`` that row ``r`` perturbs, so
    ``fun`` can pair it with that sample's other arguments.  All ``2 d m``
    perturbed rows go to ``fun`` in one call, each axis moved by
    ``h = 1e-6 * max(1, |x|)``.  Returns ``(m, out, d)``.
    """
    X = np.asarray(X, dtype=float)
    m, d = X.shape
    h = (_FD_STEP * np.maximum(1.0, np.abs(X))).T  # (d, m)
    # rows [sign, axis, sample]: X with axis k of its sample moved by +h / -h
    rows = np.broadcast_to(X, (2, d, m, d)).copy()
    axes = np.arange(d)
    rows[0, axes, :, axes] += h
    rows[1, axes, :, axes] -= h
    F = np.asarray(fun(rows.reshape(-1, d), np.tile(np.arange(m), 2 * d)), dtype=float)
    F = F.reshape(2, d, m, -1)
    J = (F[0] - F[1]) / (2.0 * h[..., None])  # (d, m, out)
    return np.ascontiguousarray(J.transpose(1, 2, 0))


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

def _sample_pairs(box: IntervalVector, samples_per_box: int):
    """Deterministic ordered pairs ``(A, B)``, ``(S, n)`` arrays with ``A <= B`` inside ``box``.

    Uses per-axis endpoint grids when the combinatorics stay small and
    Halton points otherwise.  Pairs keep a positive separation on every
    axis of positive width so finite differences do not cross the
    ordering boundary.
    """
    n = box.n
    n_axis_pairs = _GRID_DENSITY * (_GRID_DENSITY + 1) // 2
    if n_axis_pairs ** n <= 512:
        g = np.linspace(0.0, 0.9, _GRID_DENSITY)
        # fractions (fa, fb) with fb - fa >= 0.1 so pairs stay separated
        i, j = np.triu_indices(_GRID_DENSITY)
        pair_fa = g[i]
        pair_fb = pair_fa + 0.1 + 0.9 * (g[j] - pair_fa)
        # sample s takes axis pair (s // n_axis_pairs**ax) % n_axis_pairs on axis ax
        sel = (np.arange(n_axis_pairs ** n)[:, None]
               // n_axis_pairs ** np.arange(n)) % n_axis_pairs
        fa, fb = pair_fa[sel], pair_fb[sel]
    else:
        pts = halton(samples_per_box, 2 * n)
        f1, f2 = pts[:, :n], pts[:, n:]
        fa = np.minimum(f1, f2) * 0.45
        fb = 1.0 - (1.0 - np.maximum(f1, f2)) * 0.45
    w = box.hi - box.lo
    return box.lo + fa * w, box.lo + fb * w


def _sup(start: float, values) -> float:
    """``max(start, v_0, v_1, ...)`` over ``values`` in C order, as a running max takes them."""
    return max([start, *np.ravel(values).tolist()])


def estimate_contraction(emb, region, samples_per_box: int = 32) -> ContractionEstimate:
    """Sample every contraction/Lipschitz figure over one shared sample set.

    The closed-loop rate, the open-loop rate, and the input/disturbance
    Lipschitz estimates are evaluated at identical state pairs, so the
    composite bound is directly comparable against the closed-loop
    estimate.  ``emb`` is either embedding after ``refresh_control``; it
    supplies the dimensions, the disturbance box and ``open_field``.

    Every sample pair of the region is differenced at once: each Jacobian
    below is one :func:`fd_jacobian` call over all samples, with the row
    stacks that ``open_field`` and the inclusion function accept.  A region
    box that leaves the relaxation's domain raises ``DomainError``.
    """
    region = list(region)
    if not region:
        raise ValueError("region must contain at least one box")
    if samples_per_box < 1:
        # no sample pairs: the maxima would report an infinite contraction rate
        raise ValueError("samples_per_box must be at least 1")
    incl = emb.incl
    if incl is None:
        raise RuntimeError("embedding has no inclusion function; call refresh_control")
    open_field = emb.open_field
    n, p, q = emb.n, emb.p, emb.q
    for box in region:
        incl.check_domain(box.lo, box.hi)

    pairs = [_sample_pairs(box, samples_per_box) for box in region]
    A = np.concatenate([a for a, _ in pairs])
    B = np.concatenate([b for _, b in pairs])
    states = np.concatenate([A, B], axis=1)
    count = A.shape[0]
    Wlo = np.broadcast_to(emb.w_lo, (count, q))
    Whi = np.broadcast_to(emb.w_hi, (count, q))

    def closed_field(rows, idx):
        # the relaxation applied at the evaluation state
        a, b = rows[:, :n], rows[:, n:]
        return open_field(a, b, *incl(a, b, check=False), Wlo[idx], Whi[idx])

    c_x = _sup(-math.inf, matrix_measure_inf(fd_jacobian(closed_field, states)))

    ulo, uhi = incl(A, B, check=False)
    umid = 0.5 * (ulo + uhi)
    # the suprema range over every input pair inside the network
    # bounds, so probe interior pairs besides the extreme one
    u_pairs = [(ulo, uhi), (umid, umid), (0.5 * (ulo + umid), 0.5 * (uhi + umid))]
    open_rates = []
    u_gains = []
    for Ulo, Uhi in u_pairs:
        def open_at_state(rows, idx):
            return open_field(rows[:, :n], rows[:, n:], Ulo[idx], Uhi[idx], Wlo[idx], Whi[idx])

        open_rates.append(matrix_measure_inf(fd_jacobian(open_at_state, states)))
        if p:
            def open_at_u(rows, idx):
                return open_field(A[idx], B[idx], rows[:, :p], rows[:, p:], Wlo[idx], Whi[idx])

            J_u = fd_jacobian(open_at_u, np.concatenate([Ulo, Uhi], axis=1))
            u_gains.append(np.abs(J_u).sum(axis=-1).max(axis=-1))
    # rows are samples and columns input pairs: a per-sample loop's order
    c_x_open = _sup(-math.inf, np.stack(open_rates, axis=1))
    l_u = _sup(0.0, np.stack(u_gains, axis=1)) if p else 0.0
    l_w = 0.0
    if q:
        def open_at_w(rows, idx):
            return open_field(A[idx], B[idx], ulo[idx], uhi[idx], rows[:, :q], rows[:, q:])

        J_w = fd_jacobian(open_at_w, np.concatenate([Wlo, Whi], axis=1))
        l_w = _sup(0.0, np.abs(J_w).sum(axis=-1).max(axis=-1))

    lip = incl.state_lipschitz_inf()
    return ContractionEstimate(
        c_x=float(c_x), c_x_open=float(c_x_open), l_u=float(l_u),
        l_w=float(l_w), lip_inf=float(lip), sample_count=count,
    )


def region_from_tube(tube, stride: int = 1):
    """Per-time hull boxes of a reach tube (the analysis region)."""
    ks = list(range(0, len(tube.times), max(1, stride)))
    if ks[-1] != len(tube.times) - 1:
        ks.append(len(tube.times) - 1)
    return [tube.hull_at(k) for k in ks]


def region_domain(region) -> IntervalVector:
    return interval_hull(region)


def diagnose(exp, tube) -> dict:
    """The contraction diagnostics of a computed tube, as ``bounds.json`` holds them.

    The region is the tube's hulls at about 16 evenly strided steps and the
    last one; the experiment's model is verified once on its hull, and that
    relaxation drives the estimate and the sampled network approximation
    error.  The error-bound curve is set against the tube hull's deviation
    from the trajectory of the initial box's center.
    """
    cfg = exp.config
    region = region_from_tube(tube, stride=max(1, (len(tube.times) - 1) // 16))
    domain = region_domain(region)
    incl = exp.model.verify(domain)
    emb = exp.model.make_embedding()
    emb.refresh_control(domain, reverify=False, inherited=incl)
    est = estimate_contraction(emb, region)

    # network approximation error over the analysis region (sampled)
    nn_err = 0.0
    for box in region:
        pts = box.lo + halton(32, box.n) * (box.hi - box.lo)
        outputs = exp.net(pts)
        zlo, zhi = incl(pts, pts, check=False)
        # per-point maxima; a NaN one is skipped, as a running max skips it
        nn_err = max(nn_err, *np.abs(zlo - outputs).max(axis=1).tolist(),
                     *np.abs(zhi - outputs).max(axis=1).tolist())
    init_err = float(np.max(exp.root_box.width / 2.0))
    w_err = (float(np.max((np.array(cfg.disturbance_hi) - np.array(cfg.disturbance_lo)) / 2.0))
             if cfg.disturbance_lo else 0.0)

    center = exp.root_box.center
    _, center_traj = sample_trajectories(exp.model, IntervalVector(center, center),
                                         1, cfg.seed)
    ref = center_traj[0]
    curve = []
    for k, t in enumerate(tube.times):
        hull = tube.hull_at(k)
        empirical = max(float(np.max(np.abs(hull.lo - ref[k]))),
                        float(np.max(np.abs(hull.hi - ref[k]))))
        curve.append({"t": float(t), "empirical": empirical,
                      "bound": error_bound(est, float(t), init_err, nn_err, w_err)})
    return {
        "schema": 1, "c_x_estimate": est.c_x, "c_x_open_estimate": est.c_x_open,
        "l_u_estimate": est.l_u, "l_w_estimate": est.l_w, "lip_inf": est.lip_inf,
        "composite_bound": est.composite_bound,
        "dominance_gap": est.c_x - est.composite_bound, "sample_count": est.sample_count,
        "nn_err_sup_estimate": nn_err, "init_err": init_err, "w_err_sup": w_err,
        "error_bound_curve": curve,
    }
