"""Mixed-monotone decomposition functions and embedding dynamics.

An open-loop system ``xdot = f(x, u, w)`` is embedded into a monotone
system of doubled dimension through a decomposition function ``d``.  A
single trajectory of the embedding then bounds every trajectory of the
original system that starts inside the initial box.

Systems can supply either a closed-form decomposition or a batched
interval extension of ``f``; in the latter case the tight decomposition is
synthesized by pinning one coordinate at a time and taking the matching
end of the enclosure.

The closed loop with a sampled neural-network controller is handled by
:class:`ClosedLoopEmbedding`: at every control instant the network is
relaxed over the current box and the resulting output intervals are
evaluated on the ``2n`` faces of that box.  Those face intervals stay
frozen while the embedding is integrated across the control interval.

The face layout (row ``i`` pins coordinate ``i`` at its lower end, row
``n + i`` at its upper end) is built by ``_face_rows`` and read back by
``_face_field``.  Every field of a system with an interval extension goes
through ``_extension_face_field``, one extension call on those rows: the
open-loop field :meth:`ClosedLoopEmbedding.open_field` repeats its input
and disturbance pairs on each face block, and the closed-loop
:meth:`ClosedLoopEmbedding.field` passes the per-face control intervals
frozen at the control instant.  ``ClosedLoopEmbedding._face_d`` is the
per-face loop for systems with only a decomposition ``d``.  Only the
reference :func:`build_tight_decomposition` lays out faces on its own.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import InclusionFunction, crown_bounds, make_inclusion
from .intervals import IntervalVector, _matvec

__all__ = [
    "OpenLoopSystem",
    "ClosedLoopEmbedding",
    "DiscreteLTIEmbedding",
    "EmbeddingOrderError",
    "build_tight_decomposition",
]

_EXTENSION_TOL = 1e-9


class EmbeddingOrderError(RuntimeError):
    """The integrated embedding state lost its ordering (numeric failure)."""


def _orientation(x, xh, u, uh, w, wh) -> bool:
    """True when the argument pattern selects the lower end of the enclosure.

    The state pair decides; fully degenerate groups defer to the input and
    then the disturbance pair.  Mixed orderings are rejected.
    """
    for a, b in ((x, xh), (u, uh), (w, wh)):
        if a.size == 0 or np.array_equal(a, b):
            continue
        if np.all(a <= b):
            return True
        if np.all(b <= a):
            return False
        raise ValueError("mixed-order arguments passed to a decomposition function")
    return True


def build_tight_decomposition(extension):
    """Decomposition function from a sound enclosure oracle for ``f``.

    ``extension(Xlo, Xhi, Ulo, Uhi, Wlo, Whi)`` receives row-stacked boxes
    (all arguments shaped ``(m, dim)``) and must return componentwise
    enclosures ``(Flo, Fhi)`` of ``f`` over each row's box, exact on
    degenerate boxes and isotone under box inclusion.  Extensions must not
    modify their argument arrays (the engine reuses its per-interval input
    and disturbance rows across calls).

    The returned ``d(x, xh, u, uh, w, wh)`` pins coordinate ``i`` of the
    state span at ``x_i`` and takes the lower (forward argument order) or
    upper (reversed order) end of the enclosure of ``f_i``.
    """

    def d(x, xh, u, uh, w, wh):
        x = np.asarray(x, dtype=float)
        xh = np.asarray(xh, dtype=float)
        u = np.asarray(u, dtype=float)
        uh = np.asarray(uh, dtype=float)
        w = np.asarray(w, dtype=float)
        wh = np.asarray(wh, dtype=float)
        lower = _orientation(x, xh, u, uh, w, wh)
        n = x.shape[0]
        idx = np.arange(n)
        Xlo = np.tile(np.minimum(x, xh), (n, 1))
        Xhi = np.tile(np.maximum(x, xh), (n, 1))
        Xlo[idx, idx] = x
        Xhi[idx, idx] = x
        Ulo = np.tile(np.minimum(u, uh), (n, 1))
        Uhi = np.tile(np.maximum(u, uh), (n, 1))
        Wlo = np.tile(np.minimum(w, wh), (n, 1))
        Whi = np.tile(np.maximum(w, wh), (n, 1))
        flo, fhi = extension(Xlo, Xhi, Ulo, Uhi, Wlo, Whi)
        # written so that a NaN enclosure fails the check too
        if not (fhi - flo >= -_EXTENSION_TOL).all():
            raise ValueError("interval extension returned crossed enclosures")
        return flo[idx, idx] if lower else fhi[idx, idx]

    return d


class OpenLoopSystem:
    """Open-loop dynamics plus the machinery to embed them.

    Parameters
    ----------
    n, p, q:
        State, input, and disturbance dimensions (``q`` may be 0).
    f:
        Vector field ``f(x, u, w) -> xdot``; must accept batches with
        leading dimension ``m``.
    d:
        Optional closed-form decomposition ``d(x, xh, u, uh, w, wh)``.
    extension:
        Optional batched interval enclosure of ``f`` (see
        :func:`build_tight_decomposition`).  At least one of ``d`` and
        ``extension`` is required; with only ``extension`` the tight
        decomposition is synthesized.
    """

    def __init__(self, n, p, q, f, d=None, extension=None, name=""):
        if d is None and extension is None:
            raise ValueError("supply a decomposition function or an interval extension")
        self.n = int(n)
        self.p = int(p)
        self.q = int(q)
        self.f = f
        self.extension = extension
        self.d = d if d is not None else build_tight_decomposition(extension)
        self.name = name

    def __repr__(self):
        tag = self.name or "anonymous"
        return f"OpenLoopSystem({tag}, n={self.n}, p={self.p}, q={self.q})"

    def build_model(self, net, horizon: float, dt: float, control_period=None,
                    control_instants=None, w_box=None):
        """Sampled-data loop of this plant with controller ``net``, Euler-integrated."""
        from .partition import ContinuousClosedLoopModel  # partition imports this module

        return ContinuousClosedLoopModel(self, net, horizon=horizon, dt=dt,
                                         control_period=control_period,
                                         control_instants=control_instants,
                                         w_box=w_box)


def _require_pair(pair, dim, what):
    if isinstance(pair, IntervalVector):
        lo, hi = pair.lo, pair.hi
    else:
        lo, hi = (np.asarray(v, dtype=float) for v in pair)
    if lo.shape != (dim,) or hi.shape != (dim,):
        raise ValueError(f"{what} pair must have dimension {dim}")
    return lo, hi


def _face_rows(span_lo, span_hi, a, b):
    """The ``2n`` faces of a span as row-stacked boxes ``(Xlo, Xhi)``.

    Row ``i`` is the span with coordinate ``i`` pinned at ``a_i``, row
    ``n + i`` the span with it pinned at ``b_i``.  The pins may carry
    leading axes, ``(..., n)``, giving ``(..., 2n, n)`` face blocks; the
    spans broadcast against those blocks, so a stack of spans is passed as
    ``(..., 1, n)``.
    """
    lead, n = a.shape[:-1], a.shape[-1]
    out = (np.empty(lead + (2 * n, n)), np.empty(lead + (2 * n, n)))
    for X, span in zip(out, (span_lo, span_hi)):
        X[...] = span
        flat = X.reshape(lead + (-1,))  # a view, so the diagonals are pinned in place
        flat[..., :n * n:n + 1] = a
        flat[..., n * n::n + 1] = b
    return out


def _face_field(flo, fhi) -> np.ndarray:
    """Embedding field from an enclosure over :func:`_face_rows`.

    Face ``i`` contributes the lower end of ``f_i``, face ``n + i`` the
    upper end; ``(..., 2n, n)`` blocks give ``(..., 2n)`` fields.
    """
    n = flo.shape[-1]
    return np.concatenate([flo.diagonal(0, -2, -1), fhi.diagonal(-n, -2, -1)], axis=-1)


def _extension_face_field(sys: OpenLoopSystem, span_lo, span_hi, a, b,
                          u_rows, w_rows) -> np.ndarray:
    """Embedding field from one extension call on the faces.

    The faces are :func:`_face_rows` of the state span pinned at ``a`` and
    ``b``; ``u_rows`` and ``w_rows`` are ordered ``(lo, hi)`` pairs of
    input and disturbance rows, one row per face row.  With ``(m, ·)`` pin
    stacks (spans as ``(m, 1, n)``) the ``m`` face blocks go to the
    extension as one ``(m * 2n, n)`` call.
    """
    Xlo, Xhi = _face_rows(span_lo, span_hi, a, b)
    rows = u_rows[0].shape[0]
    flo, fhi = sys.extension(Xlo.reshape(rows, sys.n), Xhi.reshape(rows, sys.n),
                             *u_rows, *w_rows)
    return _face_field(flo.reshape(Xlo.shape), fhi.reshape(Xhi.shape))


class _FrozenControlEmbedding:
    """What both embeddings share: a controller relaxation frozen over one
    control interval and the fixed-step integration loop.

    Subclasses provide ``n``, ``incl`` and ``_step_into(cur, out, dt)``,
    which writes the ``(2, n)`` state one step after ``cur`` into ``out``.
    """

    def _control_inclusion(self, box: IntervalVector, reverify: bool, net,
                           inherited: InclusionFunction | None) -> InclusionFunction:
        """Relaxation for a refresh at ``box`` (see ``refresh_control``)."""
        if reverify:
            if net is None:
                raise ValueError("re-verification requires the network")
            return make_inclusion(crown_bounds(net, box))
        incl = inherited if inherited is not None else self.incl
        if incl is None:
            raise ValueError("no inclusion function available to inherit")
        incl.check_domain(box.lo, box.hi)
        return incl

    def integrate(self, lo, hi, dt: float, steps: int, order_tol: float = 1e-9) -> np.ndarray:
        """Integrate the embedding ``steps`` steps; returns ``(steps+1, 2, n)``.

        Raises :class:`EmbeddingOrderError` at the first step whose state
        loses its ordering or is not a number.
        """
        traj = np.empty((steps + 1, 2, self.n))
        traj[0, 0] = lo
        traj[0, 1] = hi
        for k in range(steps):
            nxt = traj[k + 1]
            self._step_into(traj[k], nxt, dt)
            # written so that a NaN width fails the check too
            if not (nxt[1] - nxt[0] >= -order_tol).all():
                raise EmbeddingOrderError(
                    f"embedding state lost ordering at step {k + 1}"
                )
        return traj


class ClosedLoopEmbedding(_FrozenControlEmbedding):
    """Embedding dynamics of the sampled-data neural-network loop.

    Holds the network inclusion function frozen over one control interval
    together with the per-face output intervals (``eta`` for the lower
    faces, ``nu`` for the upper faces) that feed the hybrid closed-loop
    decomposition.  Caches are rebuilt by :meth:`refresh_control` whenever
    a new control instant begins or the owning partition re-verifies.
    """

    def __init__(self, sys: OpenLoopSystem, w_box=None):
        self.sys = sys
        self.n, self.p, self.q = sys.n, sys.p, sys.q
        if w_box is None:
            self.w_lo = np.zeros(sys.q)
            self.w_hi = np.zeros(sys.q)
        else:
            self.w_lo, self.w_hi = _require_pair(w_box, sys.q, "disturbance")
        self.incl: InclusionFunction | None = None
        self.interval_index: int | None = None
        self.eta_lo = self.eta_hi = None  # (n, p) lower-face output bounds
        self.nu_lo = self.nu_hi = None    # (n, p) upper-face output bounds
        # per-interval face rows of the input and disturbance, passed to every
        # extension call of the interval (so extensions must not write into them)
        self._u_spans = None
        self._w_rows = None

    def refresh_control(self, box: IntervalVector, reverify: bool, net=None,
                        inherited: InclusionFunction | None = None,
                        interval_index: int = 0) -> None:
        """Recompute the face caches at a control instant.

        With ``reverify`` the network is re-relaxed over ``box``; otherwise
        the inherited inclusion function is reused, which requires ``box``
        to lie inside its domain.
        """
        self.incl = self._control_inclusion(box, reverify, net, inherited)
        n = self.n
        # lower faces pin coordinate i down to lo_i, upper faces up to hi_i
        rows_lo, rows_hi = self.incl.batch(*_face_rows(box.lo, box.hi, box.lo, box.hi))
        self.eta_lo, self.eta_hi = rows_lo[:n], rows_hi[:n]
        self.nu_lo, self.nu_hi = rows_lo[n:], rows_hi[n:]
        if self.sys.extension is not None:
            self._u_spans = (
                np.concatenate([self.eta_lo, np.minimum(self.nu_lo, self.nu_hi)]),
                np.concatenate([self.eta_hi, np.maximum(self.nu_lo, self.nu_hi)]),
            )
            self._w_rows = (np.tile(self.w_lo, (2 * n, 1)),
                            np.tile(self.w_hi, (2 * n, 1)))
        self.interval_index = interval_index

    def field(self, lo, hi) -> np.ndarray:
        """Closed-loop embedding field at an ordered state ``lo <= hi``."""
        if self.eta_lo is None:
            raise RuntimeError("control caches not initialized; call refresh_control")
        if self.sys.extension is not None:
            return _extension_face_field(self.sys, lo, hi, lo, hi, self._u_spans, self._w_rows)
        return np.concatenate([self._face_d(lo, hi, upper=False),
                               self._face_d(hi, lo, upper=True)])

    def _face_d(self, a, b, upper: bool) -> np.ndarray:
        """Component ``i`` of ``d(a, b, ...)`` under face ``i``'s frozen control.

        Lower faces enter with ``eta`` in forward order, upper faces with
        ``nu`` reversed: the two branches of the hybrid decomposition.
        """
        if upper:
            u, uh, w, wh = self.nu_hi, self.nu_lo, self.w_hi, self.w_lo
        else:
            u, uh, w, wh = self.eta_lo, self.eta_hi, self.w_lo, self.w_hi
        return np.array([self.sys.d(a, b, u[i], uh[i], w, wh)[i] for i in range(self.n)])

    def _step_into(self, cur, out, dt):
        np.add(cur, dt * self.field(cur[0], cur[1]).reshape(2, self.n), out=out)

    def open_field(self, a, b, ulo, uhi, wlo, whi) -> np.ndarray:
        """Open-loop embedding field ``(d(a,b,u,uh,w,wh), d(b,a,uh,u,wh,w))``.

        Tolerant of slightly crossed pairs: finite differencing perturbs one
        endpoint at a time, which can cross a degenerate axis, so spans are
        formed with componentwise min/max while the face pins keep the true
        endpoint values.  Input and disturbance pairs may be unordered, as
        in ``sys.d``.

        The arguments are single vectors or ``(m, ·)`` row stacks, all six
        alike; a stack gives the ``(m, 2n)`` fields of its rows, with one
        extension call, or one ``sys.d`` pair per row for a system without
        an extension.
        """
        sys = self.sys
        if sys.extension is not None:
            block = a.shape[:-1] + (2 * self.n,)
            rows = math.prod(block)  # explicit: reshape(-1, 0) fails when q = 0

            def per_face(v, vh):  # the ordered pair repeated on the 2n rows of its block
                return tuple(np.broadcast_to(e[..., None, :], block + e.shape[-1:])
                             .reshape(rows, e.shape[-1])
                             for e in (np.minimum(v, vh), np.maximum(v, vh)))

            return _extension_face_field(sys, np.minimum(a, b)[..., None, :],
                                         np.maximum(a, b)[..., None, :], a, b,
                                         per_face(ulo, uhi), per_face(wlo, whi))
        if np.ndim(a) == 2:
            return np.array([self.open_field(*row) for row in zip(a, b, ulo, uhi, wlo, whi)])
        return np.concatenate([sys.d(a, b, ulo, uhi, wlo, whi),
                               sys.d(b, a, uhi, ulo, whi, wlo)])


class DiscreteLTIEmbedding(_FrozenControlEmbedding):
    """One-step interval map for ``x+ = A x + B N(x)``.

    Uses the per-step linear relaxation of the controller to form
    ``M_lo = A + B+ C_lo + B- C_hi`` and ``M_hi = A + B+ C_hi + B- C_lo``;
    the update splits both into positive and negative parts.  The map
    takes no disturbance (``q = 0``).
    """

    q = 0

    def __init__(self, A, B):
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")
        if self.B.ndim != 2 or self.B.shape[0] != self.A.shape[0]:
            raise ValueError("B must be n x p")
        self._Ap = np.maximum(self.A, 0.0)
        self._An = np.minimum(self.A, 0.0)
        self._Bp = np.maximum(self.B, 0.0)
        self._Bn = np.minimum(self.B, 0.0)
        self.w_lo = self.w_hi = np.zeros(0)
        self.incl: InclusionFunction | None = None
        self.interval_index: int | None = None
        self._update = None

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    def refresh_control(self, box: IntervalVector, reverify: bool, net=None,
                        inherited: InclusionFunction | None = None,
                        interval_index: int = 0) -> None:
        """Refresh the relaxation tuple and rebuild the split update matrices."""
        self.incl = self._control_inclusion(box, reverify, net, inherited)
        lb = self.incl.bounds
        M_lo = self.A + self._Bp @ lb.C_lo + self._Bn @ lb.C_hi
        M_hi = self.A + self._Bp @ lb.C_hi + self._Bn @ lb.C_lo
        self._update = (
            np.maximum(M_lo, 0.0), np.minimum(M_lo, 0.0),
            np.maximum(M_hi, 0.0), np.minimum(M_hi, 0.0),
            self._Bp @ lb.d_lo + self._Bn @ lb.d_hi,
            self._Bn @ lb.d_lo + self._Bp @ lb.d_hi,
        )
        self.interval_index = interval_index

    def step(self, lo, hi):
        if self._update is None:
            raise RuntimeError("control caches not initialized; call refresh_control")
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if np.any(lo > hi):
            raise EmbeddingOrderError("discrete embedding step requires an ordered state")
        Mlp, Mln, Mhp, Mhn, blo, bhi = self._update
        new_lo = Mlp @ lo + Mln @ hi + blo
        new_hi = Mhn @ lo + Mhp @ hi + bhi
        return new_lo, new_hi

    def _step_into(self, cur, out, dt):
        out[0], out[1] = self.step(cur[0], cur[1])

    def open_field(self, a, b, ulo, uhi, wlo, whi) -> np.ndarray:
        """Open-loop one-step map on a pair, or row by row on ``(m, ·)`` stacks.

        The disturbance arguments are unused.
        """
        Ap, An, Bp, Bn = self._Ap, self._An, self._Bp, self._Bn
        return np.concatenate([
            _matvec(Ap, a) + _matvec(An, b) + _matvec(Bp, ulo) + _matvec(Bn, uhi),
            _matvec(An, a) + _matvec(Ap, b) + _matvec(Bn, ulo) + _matvec(Bp, uhi),
        ], axis=-1)
