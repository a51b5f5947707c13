"""Benchmark plant models and a small system registry.

Ships the kinematic bicycle vehicle (continuous time, 4 states, 2 inputs)
and the zero-order-hold double integrator (discrete time, 2 states, 1
input), plus a continuous-time affine-system helper used heavily by tests
and diagnostics.
"""

from __future__ import annotations

import math

import numpy as np

from .embedding import DiscreteLTIEmbedding, OpenLoopSystem
from .intervals import _cos_range, _matvec
from .partition import DiscreteLTIModel

__all__ = [
    "VehicleSystem",
    "DoubleIntegratorSystem",
    "affine_system",
    "register_system",
    "get_system",
]

_HALF_PI = 0.5 * math.pi
# shifts of the vehicle heading whose cos ranges are its cos and sin ranges;
# t - 0.0 is t exactly
_TRIG_SHIFTS = np.array([[0.0], [_HALF_PI]])


class VehicleSystem:
    """Kinematic bicycle model with saturating actuators.

    State ``(p_x, p_y, phi, v)``: planar position, heading, speed.  Inputs
    ``(u1, u2)``: applied force and front wheel angle, clipped by the plant
    to ``[-u1_max, u1_max]`` and ``[-u2_max, u2_max]``.  The slip angle
    ``beta(u2) = arctan(l_f / (l_f + l_r) * tan(u2))`` is odd and strictly
    increasing on ``(-pi/2, pi/2)``; the wheel-angle saturation keeps the
    model inside that range no matter how loose the controller bounds get.

    The interval extension below is exact: every state/input variable
    occurs once per component, clipping is monotone, and sin/cos ranges
    are computed exactly, so the synthesized decomposition is the tight
    one.
    """

    n = 4
    p = 2
    q = 0

    def __init__(self, l_f: float = 1.0, l_r: float = 1.0,
                 u1_max: float = 20.0, u2_max: float = math.pi / 4):
        # the chained comparisons are False on NaN, so NaN is rejected too
        if not (0 < l_f < math.inf and 0 < l_r < math.inf):
            raise ValueError("axle distances must be positive and finite")
        if not 0 < u2_max < _HALF_PI:
            raise ValueError("wheel-angle limit must lie in (0, pi/2)")
        if not 0 < u1_max < math.inf:
            raise ValueError("force limit must be positive and finite")
        self.l_f = float(l_f)
        self.l_r = float(l_r)
        self.u1_max = float(u1_max)
        self.u2_max = float(u2_max)
        self._k = self.l_f / (self.l_f + self.l_r)
        # saturation limits of the (u1, u2) columns of the extension's inputs
        self._u_lim = np.array([self.u1_max, self.u2_max])
        self._u_neg_lim = -self._u_lim
        # divisors of the speed for the factors (v, v, v / l_r); v / 1.0 is exact
        self._factor_divisors = np.array([[1.0], [1.0], [self.l_r]])

    def beta(self, u2):
        u2 = np.clip(np.asarray(u2, dtype=float), -self.u2_max, self.u2_max)
        return np.arctan(self._k * np.tan(u2))

    def f(self, x, u, w=None):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        phi = x[..., 2]
        v = x[..., 3]
        u1 = np.clip(u[..., 0], -self.u1_max, self.u1_max)
        b = self.beta(u[..., 1])
        return np.stack([
            v * np.cos(phi + b),
            v * np.sin(phi + b),
            v / self.l_r * np.sin(b),
            u1 + np.zeros_like(v),
        ], axis=-1)

    def prepare(self, Ulo, Uhi, Wlo, Whi):
        """The input-only part of :meth:`extension`, done once per control interval.

        Both input ends are saturated as one ``(2, m, 2)`` block.  Returns
        the slip angles, shaped ``(end, 1, row)`` to broadcast against the
        cos and sin rows, and a ``(2, n, m)`` (end, component, row) output
        block whose last two rows hold the sine of the slip angle, the
        factor of ``f_2``, and the force ``f_3``; the extension starts
        each call from a copy of it.
        """
        U = np.minimum(np.maximum(np.array((Ulo, Uhi)), self._u_neg_lim), self._u_lim)
        b = np.arctan(self._k * np.tan(U[:, None, :, 1]))
        block = np.zeros((2, self.n, b.shape[2]))
        block[:, 2:3] = np.sin(b)
        block[:, 3] = U[..., 0]
        return b, block

    def extension(self, Xlo, Xhi, inputs):
        """Exact componentwise enclosure over row-stacked boxes, given :meth:`prepare`'s inputs.

        Both enclosure ends are written into one ``(2, n, m)`` (end,
        component, row) block, a copy of the prepared one, and returned as
        its transposed ``(m, n)`` views, so that the cost of a call is a
        fixed number of numpy operations whatever the row count.  The cos
        and sin ranges of the heading come from one cos range over the
        stacked ends of ``[t, t - pi/2]`` and fill rows 0 and 1.  Rows 0-2
        then hold the ranges ``c`` of ``(cos, sin, sin(beta))``, and one
        broadcast product of the ends of the factors ``a = (v, v, v /
        l_r)`` against them gives the ``(2, 2, 3, m)`` stack of ``a_i *
        c_j``, whose minimum and maximum over the four end pairs overwrite
        the rows with the products ``(f_0, f_1, f_2)``.
        """
        b, block = inputs
        f = block.copy()
        # (end, row, state); heading plus slip t, and t - pi/2 has the sin range of t
        x = np.array((Xlo, Xhi))
        f[:, :2] = _cos_range(x[:, None, :, 2] + b - _TRIG_SHIFTS)
        # (a end, c end, component, row), a end outer, as interval_mul pairs
        # them; beta stays in (-pi/2, pi/2), where sin is increasing
        prod = (x[:, None, None, :, 3] / self._factor_divisors) * f[:, :3]
        np.minimum.reduce(prod, axis=(0, 1), out=f[0, :3])
        np.maximum.reduce(prod, axis=(0, 1), out=f[1, :3])
        return f[0].T, f[1].T

    def open_loop(self) -> OpenLoopSystem:
        return OpenLoopSystem(self.n, self.p, self.q, self.f, extension=self.extension,
                              prepare=self.prepare, name="vehicle")

    def build_model(self, net, horizon: float, dt: float, control_period: float,
                    w_box=None):
        """Sampled-data loop of the open-loop vehicle with controller ``net``."""
        return self.open_loop().build_model(net, horizon, dt, control_period, w_box)


class DoubleIntegratorSystem:
    """Zero-order-hold double integrator with unit step size.

    ``x+ = A x + B u`` with ``A = [[1, 1], [0, 1]]`` and ``B = [0.5, 1]``.
    """

    n = 2
    p = 1
    q = 0

    def __init__(self):
        self.A = np.array([[1.0, 1.0], [0.0, 1.0]])
        self.B = np.array([[0.5], [1.0]])
        self.A.setflags(write=False)
        self.B.setflags(write=False)

    def f(self, x, u, w=None):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return x @ self.A.T + u @ self.B.T

    def open_loop(self) -> OpenLoopSystem:
        """Decomposition view of the one-step map: :meth:`DiscreteLTIEmbedding.d`."""
        d = DiscreteLTIEmbedding(self.A, self.B).d
        return OpenLoopSystem(self.n, self.p, self.q, self.f, d=d, name="double-integrator")

    def build_model(self, net, horizon: float, dt: float, control_period: float,
                    w_box=None) -> DiscreteLTIModel:
        """Discrete loop with one control update per unit map step.

        The map has a fixed unit step, so ``dt`` and the control period
        must both be 1.
        """
        if dt != 1 or control_period != 1:
            raise ValueError(
                "the double integrator needs dt = 1 and control period 1 "
                f"(got dt={dt}, period={control_period})"
            )
        if abs(horizon - round(horizon)) > 1e-9:
            raise ValueError("horizon must be a whole number of steps")
        return DiscreteLTIModel(self.A, self.B, net, int(round(horizon)), w_box=w_box)


def affine_system(A, B=None, D=None, const=None, name: str = "affine") -> OpenLoopSystem:
    """Continuous-time open-loop system for ``f(x, u, w) = A x + B u + D w + const``.

    The decomposition keeps the diagonal of ``A`` with the first state
    argument and splits only the off-diagonal entries by sign.  It takes
    single vectors or ``(m, ·)`` row stacks; each row gets the bits of the
    single-vector products.
    """
    # copies, so that later writes to the caller's arrays reach neither f nor d
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    B = np.zeros((n, 0)) if B is None else np.array(B, dtype=float).reshape(n, -1)
    D = np.zeros((n, 0)) if D is None else np.array(D, dtype=float).reshape(n, -1)
    c = np.zeros(n) if const is None else np.array(const, dtype=float)
    for a in (A, B, D, c):
        a.setflags(write=False)

    diag = np.diag(np.diag(A))
    off = A - diag
    Ap = np.maximum(off, 0.0) + diag
    An = np.minimum(off, 0.0)
    Bp, Bn = np.maximum(B, 0.0), np.minimum(B, 0.0)
    Dp, Dn = np.maximum(D, 0.0), np.minimum(D, 0.0)

    def f(x, u, w=None):
        x = np.asarray(x, dtype=float)
        out = x @ A.T + c
        if B.shape[1]:
            out = out + np.asarray(u, dtype=float) @ B.T
        if D.shape[1] and w is not None:
            out = out + np.asarray(w, dtype=float) @ D.T
        return out

    def d(x, xh, u, uh, w, wh):
        out = _matvec(Ap, x) + _matvec(An, xh) + c
        if B.shape[1]:
            out = out + _matvec(Bp, u) + _matvec(Bn, uh)
        if D.shape[1]:
            out = out + _matvec(Dp, w) + _matvec(Dn, wh)
        return out

    return OpenLoopSystem(n, B.shape[1], D.shape[1], f, d=d, name=name)


_REGISTRY = {}


def register_system(name: str, factory) -> None:
    """Register a system factory; ``factory(**params)`` builds the model."""
    _REGISTRY[name] = factory


def get_system(name: str, **params):
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown system {name!r} (known: {known})") from None
    return factory(**params)


register_system("vehicle", VehicleSystem)
register_system("double-integrator", DoubleIntegratorSystem)
