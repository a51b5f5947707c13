"""Mixed-monotone decomposition functions and embedding dynamics.

An open-loop system ``xdot = f(x, u, w)`` is embedded into a monotone
system of doubled dimension through a decomposition function ``d``.  A
single trajectory of the embedding then bounds every trajectory of the
original system that starts inside the initial box.

Systems can supply either a closed-form decomposition or a batched
interval extension of ``f``.  An extension comes in two stages:
``prepare(Ulo, Uhi, Wlo, Whi) -> inputs`` does the work that depends only
on the input and disturbance rows, and ``extension(Xlo, Xhi, inputs)``
the state-dependent rest; without a ``prepare`` the inputs are the row
tuple itself.  Given only an extension, the tight decomposition is read
from the plant's open-loop field :meth:`OpenLoopSystem.open_field`, which
pins one coordinate at a time and takes the matching end of the
enclosure; given only a decomposition, it is wrapped once as an extension
(with the row tuple as its inputs) that is read on face rows, where the
pinned component is the decomposition's bound for that face.

The closed loop with a sampled neural-network controller is handled by
:class:`ClosedLoopEmbedding`: at every control instant the network is
relaxed over the current box and the resulting output intervals are
evaluated on the ``2n`` faces of that box in one call, whose bits hold
per ``2n``-row face block (a lone row may differ in the last place).
Those face intervals stay frozen while the embedding is integrated
across the control interval, so they go through ``prepare`` once, at the
control instant, and every Euler step makes one ``extension`` call.

The face layout (row ``i`` pins coordinate ``i`` at its lower end, row
``n + i`` at its upper end) is built by ``_face_rows``, as one gather from
the stacked endpoints through an index table made once per dimension.
The field is read back through a second such table, ``_field_index``:
with the enclosure ends of a face block side by side, ``[Flo | Fhi]``,
face ``r`` contributes entry ``(r, r)``, so the field is one gather from
that block.  Every field goes through ``_faces_field``, one extension call
on the face rows and that one gather, whichever of the two a plant
supplies: the open-loop field :meth:`OpenLoopSystem.open_field` (and the
synthesized ``d``, which reads it) prepares its input and disturbance
pairs repeated on each face block, and the closed-loop
:meth:`ClosedLoopEmbedding.field` passes the inputs prepared from the
per-face control intervals at the control instant.  A closed-loop state
is pinned at its own ends, so its faces are gathered straight from the
flat state ``[lo, hi]`` through the same table taken modulo ``2n``:
faces are laid out only by ``_face_index``.  The Euler step adds ``dt``
times that field to the flat state in place.

The discrete-time map of :class:`DiscreteLTIEmbedding` is one in-place
step too: one broadcast product of the split update matrices, packed once
per relaxation, against the two halves of the flat state, then the two
partial sums and the bias added left to right into the next flat state.
``integrate`` checks its start once per call (the caches are set, and for
the discrete map the start is ordered) and every state it produces.
"""

from __future__ import annotations

import functools
import inspect
import math

import numpy as np

from .bounds import InclusionFunction, crown_bounds, make_inclusion
from .intervals import IntervalVector, _matvec

__all__ = [
    "OpenLoopSystem",
    "ClosedLoopEmbedding",
    "DiscreteLTIEmbedding",
    "EmbeddingOrderError",
]

_EXTENSION_TOL = 1e-9
_ORDER_TOL = 1e-9


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


def _row_inputs(Ulo, Uhi, Wlo, Whi):
    """The default ``prepare``: the input and disturbance rows as given."""
    return Ulo, Uhi, Wlo, Whi


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
        Optional closed-form decomposition ``d(x, xh, u, uh, w, wh)``.  It
        must accept ``(m, ·)`` row stacks, as ``f`` does, as well as single
        vectors; the shapes of one call on ``2n`` rows are checked here.
    extension, prepare:
        Optional batched interval enclosure of ``f`` in two stages,
        ``extension(Xlo, Xhi, prepare(Ulo, Uhi, Wlo, Whi))``, on row-stacked
        boxes (all arrays shaped ``(m, dim)``); ``prepare`` defaults to the
        row tuple ``(Ulo, Uhi, Wlo, Whi)``.  The extension must return
        componentwise enclosures ``(Flo, Fhi)`` of ``f`` over each row's
        box, exact on degenerate boxes and isotone under box inclusion.
        Neither stage may modify its arguments: the engine prepares the
        input and disturbance rows once per control interval and passes the
        prepared inputs to every extension call of that interval.

    At least one of ``d`` and ``extension`` is required.  With only
    ``extension``, ``d`` is the tight decomposition read from
    :meth:`open_field`: ``d(x, xh, u, uh, w, wh)`` pins coordinate ``i`` of
    the state span at ``x_i`` and takes the lower (forward argument order)
    or upper (reversed order) end of the enclosure of ``f_i``, on single
    vectors or ``(m, ·)`` row stacks; it raises ``ValueError`` when the
    extension returns crossed or NaN enclosures.  With only ``d``,
    ``self.extension`` stays ``None`` and the embedding reads ``d`` in
    forward (lower ends) and reversed (upper ends) argument order instead,
    which bounds only component ``i`` of a row that pins coordinate ``i``,
    the one component the face kernel reads.
    """

    def __init__(self, n, p, q, f, d=None, extension=None, prepare=None, name=""):
        if d is None and extension is None:
            raise ValueError("supply a decomposition function or an interval extension")
        if prepare is not None and extension is None:
            raise ValueError("prepare is the first stage of an interval extension")
        if extension is not None:
            _check_arity(extension, "extension", "Xlo", "Xhi", "inputs")
        if prepare is not None:
            _check_arity(prepare, "prepare", "Ulo", "Uhi", "Wlo", "Whi")
        self.n = int(n)
        self.p = int(p)
        self.q = int(q)
        self.f = f
        self.prepare = _row_inputs if prepare is None else prepare
        self.d = d if d is not None else self._tight_d
        self.extension = extension
        if extension is None:
            def extension(Xlo, Xhi, inputs):
                Ulo, Uhi, Wlo, Whi = inputs
                return d(Xlo, Xhi, Ulo, Uhi, Wlo, Whi), d(Xhi, Xlo, Uhi, Ulo, Whi, Wlo)

            _check_face_stack(extension, self.n, self.p, self.q)
        # what the face kernel calls: the enclosure, or the wrapped d
        self._face_extension = extension
        self.name = name

    def __repr__(self):
        tag = self.name or "anonymous"
        return f"OpenLoopSystem({tag}, n={self.n}, p={self.p}, q={self.q})"

    def build_model(self, net, horizon: float, dt: float, control_period: float,
                    w_box=None):
        """Sampled-data loop of this plant with controller ``net``, Euler-integrated."""
        from .partition import ContinuousClosedLoopModel  # partition imports this module

        return ContinuousClosedLoopModel(self, net, horizon=horizon, dt=dt,
                                         control_period=control_period, w_box=w_box)

    def open_field(self, a, b, ulo, uhi, wlo, whi) -> np.ndarray:
        """Open-loop embedding field ``(d(a,b,u,uh,w,wh), d(b,a,uh,u,wh,w))``.

        Component ``i`` of each half bounds ``f_i`` on the face of the span
        that pins coordinate ``i`` at ``a_i`` (lower half) or ``b_i``.
        Tolerant of slightly crossed pairs: finite differencing perturbs one
        endpoint at a time, which can cross a degenerate axis, so spans are
        formed with componentwise min/max while the face pins keep the true
        endpoint values.  Input and disturbance pairs are spanned the same way.

        The arguments are single vectors or ``(m, ·)`` row stacks, all six
        alike; a stack gives the ``(m, 2n)`` fields of its rows with one
        ``prepare`` and one extension call.
        """
        return self._open_field(self._face_extension, a, b, ulo, uhi, wlo, whi)

    def _open_field(self, extension, a, b, ulo, uhi, wlo, whi) -> np.ndarray:
        """:meth:`open_field` with its one face call made through ``extension``."""
        block = a.shape[:-1] + (2 * self.n,)
        rows = math.prod(block)  # explicit: reshape(-1, 0) fails when q = 0

        def per_face(v, vh):  # the ordered pair repeated on the 2n rows of its block
            return tuple(np.broadcast_to(e[..., None, :], block + e.shape[-1:])
                         .reshape(rows, e.shape[-1])
                         for e in (np.minimum(v, vh), np.maximum(v, vh)))

        faces = _face_rows(np.minimum(a, b)[..., None, :], np.maximum(a, b)[..., None, :],
                           a, b)
        inputs = self.prepare(*per_face(ulo, uhi), *per_face(wlo, whi))
        return _faces_field(extension, *faces, inputs)

    def _tight_d(self, x, xh, u, uh, w, wh) -> np.ndarray:
        """The decomposition synthesized from ``extension``: a half of :meth:`open_field`."""
        args = [np.asarray(v, dtype=float) for v in (x, xh, u, uh, w, wh)]
        if _orientation(*args):
            return self._open_field(self._checked_extension, *args)[..., :self.n]
        x, xh, u, uh, w, wh = args
        return self._open_field(self._checked_extension, xh, x, uh, u, wh, w)[..., self.n:]

    def _checked_extension(self, Xlo, Xhi, inputs):
        """``extension``, raising ``ValueError`` on a crossed or NaN enclosure."""
        flo, fhi = self.extension(Xlo, Xhi, inputs)
        # written so that a NaN enclosure fails the check too
        if not (fhi - flo >= -_EXTENSION_TOL).all():
            raise ValueError("interval extension returned crossed enclosures")
        return flo, fhi


def _check_arity(stage, what, *params) -> None:
    """Raise ``ValueError`` unless ``stage`` takes ``params``; makes no call."""
    try:
        signature = inspect.signature(stage)
    except (TypeError, ValueError):  # a signature that cannot be read passes
        return
    try:
        signature.bind(*params)
    except TypeError as exc:
        raise ValueError(f"{what} must take ({', '.join(params)}): {exc}") from None


def _check_face_stack(extension, n, p, q) -> None:
    """Raise ``ValueError`` unless ``extension`` maps ``2n`` rows to a ``(2n, n)`` pair.

    Only shapes are checked: a sound plant may be undefined at the probe.
    """
    Xlo, Xhi, *rows = (np.zeros((2 * n, k)) for k in (n, n, p, p, q, q))
    with np.errstate(all="ignore"):
        try:
            shapes = [np.shape(v) for v in extension(Xlo, Xhi, _row_inputs(*rows))]
        except ValueError as exc:
            raise ValueError(f"d must accept (m, ·) row stacks: {exc}") from None
    if shapes != [(2 * n, n)] * 2:
        raise ValueError(f"d must map (2n, ·) row stacks to (2n, n), got {shapes}")


def _require_pair(pair, dim, what):
    """``(lo, hi)`` arrays of length ``dim`` from a pair; ``None`` is the zero pair."""
    if pair is None:
        return np.zeros(dim), np.zeros(dim)
    if isinstance(pair, IntervalVector):
        lo, hi = pair.lo, pair.hi
    else:
        lo, hi = (np.asarray(v, dtype=float) for v in pair)
    if lo.shape != (dim,) or hi.shape != (dim,):
        raise ValueError(f"{what} pair must have dimension {dim}")
    return lo, hi


@functools.cache
def _face_index(n: int) -> np.ndarray:
    """Gather table of :func:`_face_rows` for dimension ``n``.

    Entry ``[k, r, j]`` is the position, in the endpoints stacked as
    ``[span_lo, span_hi, a, b]``, of coordinate ``j`` of face row ``r`` in
    ``Xlo`` (``k = 0``) or ``Xhi`` (``k = 1``).
    """
    cols = np.arange(n)
    index = np.empty((2, 2 * n, n), dtype=np.intp)
    index[0] = cols
    index[1] = n + cols
    index[:, cols, cols] = 2 * n + cols
    index[:, n + cols, cols] = 3 * n + cols
    index.setflags(write=False)
    return index


def _face_rows(span_lo, span_hi, a, b):
    """The ``2n`` faces of a span as row-stacked boxes ``(Xlo, Xhi)``.

    Row ``i`` is the span with coordinate ``i`` pinned at ``a_i``, row
    ``n + i`` the span with it pinned at ``b_i``.  The pins may carry
    leading axes, ``(..., n)``, giving ``(..., 2n, n)`` face blocks; the
    spans come in the pins' shape or as ``(..., 1, n)``, the form that
    broadcasts against the blocks.  Both blocks are one gather from the
    stacked endpoints, so their entries are exact copies.
    """
    ends = np.concatenate((span_lo.reshape(a.shape), span_hi.reshape(a.shape), a, b),
                          axis=-1)
    faces = ends.take(_face_index(a.shape[-1]), axis=-1)
    return faces[..., 0, :, :], faces[..., 1, :, :]


@functools.cache
def _field_index(n: int) -> np.ndarray:
    """Gather table of the field from an enclosure over :func:`_face_rows`.

    Face ``i`` contributes the lower end of ``f_i``, face ``n + i`` the
    upper end.  With the ends of a ``2n``-row face block side by side,
    ``[flo | fhi]`` of shape ``(2n, 2n)``, both are entry ``(r, r)``, so
    entry ``r`` of the table is the flat position ``r * (2n + 1)``.
    """
    index = np.arange(2 * n) * (2 * n + 1)
    index.setflags(write=False)
    return index


def _faces_field(extension, Xlo, Xhi, inputs) -> np.ndarray:
    """Embedding field from one ``extension`` call on face blocks ``(Xlo, Xhi)``.

    ``inputs`` is ``prepare`` of the ordered input and disturbance rows,
    one row per face row; ``(m, 2n, n)`` blocks go to the extension as one
    ``(m * 2n, n)`` call and give ``(m, 2n)`` fields, one
    :func:`_field_index` gather per block.
    """
    n = Xlo.shape[-1]
    flo, fhi = extension(Xlo.reshape(-1, n), Xhi.reshape(-1, n), inputs)
    ends = np.concatenate((flo, fhi), axis=1).reshape(Xlo.shape[:-2] + (-1,))
    return ends.take(_field_index(n), axis=-1)


class _FrozenControlEmbedding:
    """What both embeddings share: a controller relaxation frozen over one
    control interval and the fixed-step integration loop.

    Subclasses provide ``n``, ``incl``, ``_check_start(state)``, which
    raises unless the embedding can step from the flat ``(2n,)`` state
    ``[lo, hi]``, and ``_step_into(cur, out, dt)``, which writes the flat
    state one step after ``cur`` into ``out``.
    """

    def _control_inclusion(self, box: IntervalVector, reverify: bool, net,
                           inherited: InclusionFunction | None) -> InclusionFunction:
        """Relaxation for a refresh at ``box`` (see ``refresh_control``)."""
        if reverify:
            if net is None:
                raise ValueError("re-verification requires the network")
            return make_inclusion(crown_bounds(net, box))
        if inherited is None:
            raise ValueError("no inclusion function passed to inherit")
        inherited._check_ordered(box.lo, box.hi)  # a box's ends are ordered
        return inherited

    def integrate(self, lo, hi, dt: float, steps: int) -> np.ndarray:
        """Integrate the embedding ``steps`` steps; returns ``(steps+1, 2, n)``.

        The start is checked once, by ``_check_start``; then every step's
        state is.  Raises :class:`EmbeddingOrderError` at the first step
        whose state loses its ordering or is not a number.
        """
        n = self.n
        traj = np.empty((steps + 1, 2, n))
        traj[0, 0] = lo
        traj[0, 1] = hi
        flat = traj.reshape(steps + 1, 2 * n)  # the states [lo, hi]
        step_into = self._step_into
        cur = flat[0]
        self._check_start(cur)
        for k in range(1, steps + 1):
            nxt = flat[k]
            step_into(cur, nxt, dt)
            # the minimum of a NaN width is NaN, which fails the check too
            if not np.minimum.reduce(nxt[n:] - nxt[:n], initial=math.inf) >= -_ORDER_TOL:
                raise EmbeddingOrderError(f"embedding state lost ordering at step {k}")
            cur = nxt
        return traj


class ClosedLoopEmbedding(_FrozenControlEmbedding):
    """Embedding dynamics of the sampled-data neural-network loop.

    Holds the network inclusion function frozen over one control interval
    together with the per-face output intervals (the lower faces' rows
    first, then the upper faces') that feed the hybrid closed-loop
    decomposition.  Caches are rebuilt by :meth:`refresh_control` whenever
    a new control instant begins or the owning partition re-verifies.
    """

    def __init__(self, sys: OpenLoopSystem, w_box=None):
        self.sys = sys
        self.n, self.p, self.q = sys.n, sys.p, sys.q
        self.w_lo, self.w_hi = _require_pair(w_box, sys.q, "disturbance")
        self.incl: InclusionFunction | None = None
        # what sys.prepare makes of the face rows of the input (per refresh)
        # and of the disturbance (tiled once per embedding), passed to every
        # extension call of the interval (so extensions must not write into it)
        self._inputs = None
        self._w_rows = tuple(np.tile(w, (2 * self.n, 1)) for w in (self.w_lo, self.w_hi))
        # _face_rows of a state pinned at its own ends, gathered from the
        # (2n,) state [lo, hi] instead of from [lo, hi, lo, hi]
        self._state_faces = _face_index(self.n) % (2 * self.n)

    def refresh_control(self, box: IntervalVector, reverify: bool, net=None,
                        inherited: InclusionFunction | None = None,
                        interval_index: int = 0) -> None:
        """Recompute the face caches at a control instant.

        With ``reverify`` the network is re-relaxed over ``box``; otherwise
        ``inherited`` is used, which requires ``box`` to lie inside its
        domain.  ``interval_index`` is not read: every control interval
        has the same grid, and the keyword stays for callers that pass it.
        """
        self.incl = self._control_inclusion(box, reverify, net, inherited)
        n = self.n
        # lower faces pin coordinate i down to lo_i, upper faces up to hi_i; the
        # faces lie inside the box the relaxation was built on or checked against
        faces = np.concatenate((box.lo, box.hi)).take(self._state_faces)
        rows_lo, rows_hi = self.incl(*faces, check=False)
        self._inputs = self.sys.prepare(
            np.concatenate([rows_lo[:n], np.minimum(rows_lo[n:], rows_hi[n:])]),
            np.concatenate([rows_hi[:n], np.maximum(rows_lo[n:], rows_hi[n:])]),
            *self._w_rows,
        )

    def _check_start(self, state) -> None:
        if self._inputs is None:
            raise RuntimeError("control caches not initialized; call refresh_control")

    def _state_field(self, state) -> np.ndarray:
        """Closed-loop field at a flat ordered state ``[lo, hi]``: one extension call."""
        faces = state.take(self._state_faces)
        return _faces_field(self.sys._face_extension, faces[0], faces[1], self._inputs)

    def field(self, lo, hi) -> np.ndarray:
        """Closed-loop embedding field at an ordered state ``lo <= hi``."""
        state = np.concatenate((lo, hi))
        self._check_start(state)
        return self._state_field(state)

    def _step_into(self, cur, out, dt):
        np.add(cur, dt * self._state_field(cur), out=out)

    def open_field(self, a, b, ulo, uhi, wlo, whi) -> np.ndarray:
        """The plant's :meth:`OpenLoopSystem.open_field`."""
        return self.sys.open_field(a, b, ulo, uhi, wlo, whi)


class DiscreteLTIEmbedding(_FrozenControlEmbedding):
    """One-step interval map for ``x+ = A x + B N(x)``.

    Uses the per-step linear relaxation of the controller to form
    ``M_lo = A + B+ C_lo + B- C_hi`` and ``M_hi = A + B+ C_hi + B- C_lo``;
    the update splits both into positive and negative parts.  The map
    takes no disturbance (``q = 0``).  ``A`` and ``B`` are kept as
    read-only copies, so that later writes to the caller's arrays reach
    neither the map nor its split parts.

    There is one map, ``_step_into``: it writes ``Mlp @ lo + Mln @ hi +
    blo`` and ``Mhn @ lo + Mhp @ hi + bhi`` into the two halves of the next
    flat state.  ``refresh_control`` packs the four matrices once per
    relaxation as ``M = [[Mlp, Mhn], [Mln, Mhp]]`` (state half, output half,
    ``n``, ``n``) and the biases as ``b = [blo, bhi]``, both read-only, and
    the step is one ``matmul`` of ``M`` against the halves.  That stacks
    whole matrices, so each ``(n, n)`` item is its own matrix-vector
    product with the bits of ``Mlp @ lo``; stacking matrix rows into one
    ``(2n, n)`` product instead can differ in the last place (it does at
    ``n = 17``).  ``integrate`` checks the start once and its states after
    every step; the map itself checks nothing.
    """

    q = 0

    def __init__(self, A, B):
        # copies, so that freezing them leaves the caller's arrays writable
        A = np.array(A, dtype=float)
        B = np.array(B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ValueError("B must be n x p")
        for name, a in (("A", A), ("B", B),
                        ("_Ap", np.maximum(A, 0.0)), ("_An", np.minimum(A, 0.0)),
                        ("_Bp", np.maximum(B, 0.0)), ("_Bn", np.minimum(B, 0.0))):
            a.setflags(write=False)
            setattr(self, name, a)
        self.w_lo = self.w_hi = np.zeros(0)
        self.incl: InclusionFunction | None = None
        self._update = None  # the packed (M, b), shared by every leaf of a relaxation

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    def refresh_control(self, box: IntervalVector, reverify: bool, net=None,
                        inherited: InclusionFunction | None = None,
                        interval_index: int = 0) -> None:
        """Refresh the relaxation and the packed update built from it.

        The domain check runs on every refresh; the update is rebuilt only
        when the relaxation differs from the one it was built from.  Its
        arrays are read-only: every leaf stepped under the relaxation
        reads them.  ``interval_index`` is not read, as in
        :meth:`ClosedLoopEmbedding.refresh_control`.
        """
        incl = self._control_inclusion(box, reverify, net, inherited)
        if incl is self.incl:
            return
        self.incl = incl
        lb = incl.bounds
        M_lo = self.A + self._Bp @ lb.C_lo + self._Bn @ lb.C_hi
        M_hi = self.A + self._Bp @ lb.C_hi + self._Bn @ lb.C_lo
        M = np.array([[np.maximum(M_lo, 0.0), np.minimum(M_hi, 0.0)],
                      [np.minimum(M_lo, 0.0), np.maximum(M_hi, 0.0)]])
        b = np.array([self._Bp @ lb.d_lo + self._Bn @ lb.d_hi,
                      self._Bn @ lb.d_lo + self._Bp @ lb.d_hi])
        M.setflags(write=False)
        b.setflags(write=False)
        self._update = (M, b)

    def _check_start(self, state) -> None:
        if self._update is None:
            raise RuntimeError("control caches not initialized; call refresh_control")
        n = state.shape[0] // 2
        if (state[:n] > state[n:]).any():
            raise EmbeddingOrderError("discrete embedding step requires an ordered state")

    def _step_into(self, cur, out, dt):
        """The map, unchecked and in place; the sums run left to right."""
        M, b = self._update
        n = b.shape[1]
        # prod[s, o] is the product of M[s, o] with state half s for output half o
        prod = np.matmul(M, cur.reshape(2, 1, n, 1))[..., 0]
        halves = out.reshape(2, n)
        np.add(prod[0], prod[1], out=halves)
        np.add(halves, b, out=halves)

    def d(self, x, xh, u, uh, w=None, wh=None):
        """Decomposition ``A+ x + A- xh + B+ u + B- uh`` of the one-step map.

        Takes single vectors or ``(m, ·)`` row stacks; each row gets the
        bits of the single-vector products.  The disturbance pair is unused.
        """
        return (_matvec(self._Ap, x) + _matvec(self._An, xh)
                + _matvec(self._Bp, u) + _matvec(self._Bn, uh))

    def open_field(self, a, b, ulo, uhi, wlo, whi) -> np.ndarray:
        """Open-loop one-step map ``(d(a, b, u, uh), d(b, a, uh, u))``.

        On a pair, or row by row on ``(m, ·)`` stacks; the disturbance
        arguments are unused.
        """
        return np.concatenate([self.d(a, b, ulo, uhi), self.d(b, a, uhi, ulo)], axis=-1)
