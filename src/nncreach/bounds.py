"""Interval output bounds for feed-forward networks.

Two bounding modes are provided:

* :func:`ibp_bounds` pushes a box through the network layer by layer
  (fast, coarse).
* :func:`crown_bounds` back-propagates affine envelopes through the
  network, yielding linear lower/upper bounds that are valid over the
  whole input box and can be re-evaluated cheaply on any sub-box via
  :func:`make_inclusion`.

ReLU envelopes follow the standard triangle relaxation.  For an unstable
neuron with pre-activation range ``[l, u]`` the upper line has slope
``u/(u-l)`` and intercept ``-l*u/(u-l)``; the lower line has slope 1 when
``u >= |l|`` and 0 otherwise (ties go to 1).  Pre-activation ranges come
from a forward interval pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .intervals import IntervalVector
from .networks import MLPNetwork

__all__ = [
    "LinearBounds",
    "InclusionFunction",
    "ibp_bounds",
    "crown_bounds",
    "make_inclusion",
    "DomainError",
]

_DOMAIN_SLACK = 1e-12


class DomainError(ValueError):
    """Raised when a query box leaves the domain a relaxation was built on."""


def _pos_neg(M: np.ndarray):
    return np.maximum(M, 0.0), np.minimum(M, 0.0)


def _affine_interval(W, b, lo, hi):
    Wp, Wn = _pos_neg(W)
    return Wp @ lo + Wn @ hi + b, Wp @ hi + Wn @ lo + b


def _activation_interval(name, lo, hi):
    if name == "relu":
        return np.maximum(lo, 0.0), np.maximum(hi, 0.0)
    if name == "tanh":
        return np.tanh(lo), np.tanh(hi)
    if name == "identity":
        return lo, hi
    raise ValueError(f"unsupported activation {name!r}")


def _preactivation_bounds(net: MLPNetwork, box: IntervalVector):
    """Forward interval pass; returns per-layer pre-activation ranges."""
    lo, hi = box.lo, box.hi
    pre = []
    for layer in net.layers:
        zlo, zhi = _affine_interval(layer.weights, layer.bias, lo, hi)
        pre.append((zlo, zhi))
        lo, hi = _activation_interval(layer.activation, zlo, zhi)
    return pre


def ibp_bounds(net: MLPNetwork, box: IntervalVector) -> IntervalVector:
    """Layer-wise interval propagation; contains ``net(x)`` for all x in box."""
    if box.n != net.input_dim:
        raise ValueError(
            f"box has dimension {box.n}, network expects {net.input_dim}"
        )
    lo, hi = box.lo, box.hi
    for layer in net.layers:
        zlo, zhi = _affine_interval(layer.weights, layer.bias, lo, hi)
        lo, hi = _activation_interval(layer.activation, zlo, zhi)
    return IntervalVector(lo, hi)


@dataclass(frozen=True)
class LinearBounds:
    """Affine envelopes ``C_lo x + d_lo <= N(x) <= C_hi x + d_hi`` over ``domain``."""

    C_lo: np.ndarray
    d_lo: np.ndarray
    C_hi: np.ndarray
    d_hi: np.ndarray
    domain: IntervalVector


def _relu_relaxation(zlo, zhi):
    """Slopes/intercepts of the upper and lower ReLU envelopes per neuron."""
    zlo = np.asarray(zlo)
    zhi = np.asarray(zhi)
    active = zlo >= 0.0
    inactive = zhi <= 0.0
    unstable = ~(active | inactive)
    su = np.where(active, 1.0, 0.0)
    tu = np.zeros_like(zlo)
    sl = np.where(active, 1.0, 0.0)
    tl = np.zeros_like(zlo)
    if np.any(unstable):
        l = zlo[unstable]
        u = zhi[unstable]
        slope = u / (u - l)
        su[unstable] = slope
        tu[unstable] = -l * slope
        sl[unstable] = np.where(u >= -l, 1.0, 0.0)
    return su, tu, sl, tl


def check_relaxable(net: MLPNetwork) -> None:
    """Raise ``ValueError`` unless :func:`crown_bounds` relaxes every layer of ``net``."""
    for layer in net.layers:
        if layer.activation not in ("relu", "identity"):
            raise ValueError(
                f"linear relaxation does not support activation {layer.activation!r}"
            )


def crown_bounds(net: MLPNetwork, box: IntervalVector) -> LinearBounds:
    """Backward propagation of affine envelopes over ``box``.

    Exact for purely affine networks.  ReLU layers use the triangle
    relaxation with pre-activation ranges from a forward interval pass.
    """
    if box.n != net.input_dim:
        raise ValueError(
            f"box has dimension {box.n}, network expects {net.input_dim}"
        )
    check_relaxable(net)
    pre = _preactivation_bounds(net, box)

    last = net.layers[-1]
    Cu = last.weights.copy()
    du = last.bias.copy()
    Cl = last.weights.copy()
    dl = last.bias.copy()
    # walk backwards; coefficients are in terms of layer k's inputs
    for k in range(len(net.layers) - 2, -1, -1):
        layer = net.layers[k]
        zlo, zhi = pre[k]
        if layer.activation == "relu":
            su, tu, sl, tl = _relu_relaxation(zlo, zhi)
        else:  # identity
            su = sl = np.ones_like(zlo)
            tu = tl = np.zeros_like(zlo)
        Cup, Cun = _pos_neg(Cu)
        Clp, Cln = _pos_neg(Cl)
        du = du + Cup @ tu + Cun @ tl
        dl = dl + Clp @ tl + Cln @ tu
        Cu = Cup * su + Cun * sl
        Cl = Clp * sl + Cln * su
        du = du + Cu @ layer.bias
        dl = dl + Cl @ layer.bias
        Cu = Cu @ layer.weights
        Cl = Cl @ layer.weights
    return LinearBounds(C_lo=Cl, d_lo=dl, C_hi=Cu, d_hi=du, domain=box)


class InclusionFunction:
    """Paired output bounds driven by affine envelopes.

    Evaluating at an ordered pair ``a <= b`` returns::

        lo = [C_lo]+ a + [C_lo]- b + d_lo
        hi = [C_hi]+ b + [C_hi]- a + d_hi

    which encloses ``N(x)`` for every ``x in [a, b]``.  Reversed pairs
    (``b <= a``) are legal and swap the endpoint roles, so the result is
    the same enclosure over the spanned box; the face terms of the
    closed-loop decomposition rely on this.
    """

    def __init__(self, bounds: LinearBounds):
        self.bounds = bounds
        self._Clp, self._Cln = _pos_neg(bounds.C_lo)
        self._Chp, self._Chn = _pos_neg(bounds.C_hi)

    @property
    def domain(self) -> IntervalVector:
        return self.bounds.domain

    def check_domain(self, lo, hi) -> None:
        d = self.bounds.domain
        span_lo = np.minimum(lo, hi)
        span_hi = np.maximum(lo, hi)
        if np.any(span_lo < d.lo - _DOMAIN_SLACK) or np.any(span_hi > d.hi + _DOMAIN_SLACK):
            raise DomainError("query box not contained in the relaxation domain")

    def __call__(self, a, b, check: bool = True):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if check:
            self.check_domain(a, b)
        lo_in = np.minimum(a, b)
        hi_in = np.maximum(a, b)
        lo = self._Clp @ lo_in + self._Cln @ hi_in + self.bounds.d_lo
        hi = self._Chp @ hi_in + self._Chn @ lo_in + self.bounds.d_hi
        return lo, hi

    def batch(self, A, B, check: bool = True):
        """Row-wise evaluation for stacks of argument pairs ``(m, n)``."""
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        lo_in = np.minimum(A, B)
        hi_in = np.maximum(A, B)
        if check:
            d = self.bounds.domain
            if np.any(lo_in < d.lo - _DOMAIN_SLACK) or np.any(hi_in > d.hi + _DOMAIN_SLACK):
                raise DomainError("query box not contained in the relaxation domain")
        lo = lo_in @ self._Clp.T + hi_in @ self._Cln.T + self.bounds.d_lo
        hi = hi_in @ self._Chp.T + lo_in @ self._Chn.T + self.bounds.d_hi
        return lo, hi

    def output_box(self, box: IntervalVector) -> IntervalVector:
        lo, hi = self(box.lo, box.hi)
        return IntervalVector(lo, hi)

    def state_lipschitz_inf(self) -> float:
        """Induced max-norm bound of the (affine) pair map's Jacobian."""
        rows_lo = np.abs(self.bounds.C_lo).sum(axis=1)
        rows_hi = np.abs(self.bounds.C_hi).sum(axis=1)
        if rows_lo.size == 0:
            return 0.0
        return float(max(rows_lo.max(), rows_hi.max()))


def make_inclusion(lb: LinearBounds) -> InclusionFunction:
    """Wrap affine envelopes into an evaluable inclusion function."""
    return InclusionFunction(lb)
