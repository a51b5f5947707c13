import math

import numpy as np
import pytest

from nncreach import (
    ClosedLoopEmbedding,
    ContinuousClosedLoopModel,
    DiscreteLTIEmbedding,
    DomainError,
    EmbeddingOrderError,
    IntervalVector,
    LinearBounds,
    MLPNetwork,
    OpenLoopSystem,
    VehicleSystem,
    affine_system,
    crown_bounds,
    make_inclusion,
)

from nncreach.embedding import _face_rows, _faces_field

from conftest import random_box, random_relu_network, zero_network


def scalar_leak():
    """xdot = -x + u."""
    return affine_system(np.array([[-1.0]]), np.array([[1.0]]), name="leak")


def open_field(sys, lo, hi, u_pair, w_pair=None):
    """Open-loop field of ``sys`` at ``(lo, hi)``, disturbance 0 unless given."""
    w_pair = (np.zeros(sys.q),) * 2 if w_pair is None else w_pair
    return sys.open_field(lo, hi, *u_pair, *w_pair)


def reference_tight_d(sys):
    """The tight decomposition of an extension plant, built row by row.

    ``n`` rows, row ``i`` the state span with coordinate ``i`` pinned at
    ``x_i``, under the spanned input and disturbance pairs; one extension
    call, whose diagonal is the lower end when ``x <= xh`` and the upper
    end otherwise (so the state pair must not be degenerate).
    """
    def d(x, xh, u, uh, w, wh):
        n = x.shape[0]
        idx = np.arange(n)
        Xlo = np.tile(np.minimum(x, xh), (n, 1))
        Xhi = np.tile(np.maximum(x, xh), (n, 1))
        Xlo[idx, idx] = Xhi[idx, idx] = x
        rows = [np.tile(v, (n, 1)) for v in (np.minimum(u, uh), np.maximum(u, uh),
                                             np.minimum(w, wh), np.maximum(w, wh))]
        flo, fhi = sys.extension(Xlo, Xhi, sys.prepare(*rows))
        return flo[idx, idx] if (x <= xh).all() else fhi[idx, idx]

    return d


def reference_face_field(emb, lo, hi):
    """Reference closed-loop field halves: one decomposition call per face.

    Lower (upper) face ``i`` is the box ``[lo, hi]`` with coordinate ``i``
    pinned at ``lo_i`` (``hi_i``), under the controller bounds on that face;
    it contributes component ``i`` of ``d`` in forward (reversed) order,
    where ``d`` is :func:`reference_tight_d` for an extension plant.
    """
    sys, n = emb.sys, emb.n
    d = sys.d if sys.extension is None else reference_tight_d(sys)
    out = np.empty(2 * n)
    for i in range(n):
        for k, pin in ((i, lo[i]), (n + i, hi[i])):
            x, xh = lo.copy(), hi.copy()
            x[i] = xh[i] = pin
            u, uh = emb.incl(x, xh)
            if k < n:
                out[k] = d(x, xh, u, uh, emb.w_lo, emb.w_hi)[i]
            else:
                out[k] = d(xh, x, uh, u, emb.w_hi, emb.w_lo)[i]
    return out[:n], out[n:]


def exact_linear_inclusion(K, domain, offset=0.0):
    K = np.atleast_2d(K)
    p = K.shape[0]
    lb = LinearBounds(C_lo=K, d_lo=np.full(p, -offset), C_hi=K,
                      d_hi=np.full(p, offset), domain=domain)
    return make_inclusion(lb)


class TestOpenEmbeddingField:
    def test_scalar_leak_example(self):
        out = open_field(scalar_leak(), np.array([-1.0]), np.array([1.0]),
                         (np.array([-0.1]), np.array([0.1])))
        assert np.allclose(out, [0.9, -0.9])

    def test_degenerate_arguments_reproduce_field(self):
        sys = affine_system(np.array([[0.5, -2.0], [1.0, -1.0]]),
                            np.array([[1.0], [-0.5]]),
                            np.array([[0.3], [0.0]]))
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.normal(size=2)
            u = rng.normal(size=1)
            w = rng.normal(size=1)
            out = open_field(sys, x, x, (u, u), (w, w))
            f = sys.f(x, u, w)
            assert np.allclose(out[:2], f, atol=1e-9)
            assert np.allclose(out[2:], f, atol=1e-9)

    def test_vehicle_degenerate_matches_dynamics(self):
        veh = VehicleSystem()
        sys = veh.open_loop()
        x = np.array([8.0, 8.0, -2 * math.pi / 3, 2.0])
        u = np.zeros(2)
        out = open_field(sys, x, x, (u, u))
        want = np.array([-1.0, -math.sqrt(3.0), 0.0, 0.0])
        assert np.allclose(out[:4], want, atol=1e-12)
        assert np.allclose(out[4:], want, atol=1e-12)

    def test_fast_path_matches_componentwise_path(self):
        veh = VehicleSystem()
        sys = veh.open_loop()
        d = reference_tight_d(sys)
        rng = np.random.default_rng(4)
        for _ in range(20):
            lo = np.array([7.0, 7.0, -2.4, 1.5]) + rng.uniform(0, 0.3, 4)
            hi = lo + rng.uniform(0, 0.4, 4)
            ulo = rng.uniform(-1.0, 0.0, 2) * [3.0, 0.3]
            uhi = ulo + rng.uniform(0, 0.5, 2)
            fast = open_field(sys, lo, hi, (ulo, uhi))
            slow = np.concatenate([
                d(lo, hi, ulo, uhi, np.zeros(0), np.zeros(0)),
                d(hi, lo, uhi, ulo, np.zeros(0), np.zeros(0)),
            ])
            assert fast.tobytes() == slow.tobytes()

    def test_unordered_input_pair_matches_decomposition(self):
        # the extension path spans the input pair like ``sys.d`` does
        sys = VehicleSystem().open_loop()
        lo = np.array([7.0, 7.0, -2.4, 1.5])
        hi = lo + 0.3
        u, uh = np.array([0.5, 0.3]), np.array([-1.0, -0.2])
        w = np.zeros(0)
        out = open_field(sys, lo, hi, (u, uh))
        want = np.concatenate([sys.d(lo, hi, u, uh, w, w), sys.d(hi, lo, uh, u, w, w)])
        assert np.array_equal(out, want)
        assert np.array_equal(out[[3, 7]], [-1.0, 0.5])

    def test_decomposition_only_unordered_pairs_match_ordered(self):
        # a plant with only ``d`` spans crossed input and disturbance pairs
        # like the extension path does
        sys = affine_system(np.array([[-1.0, 0.5], [0.25, -2.0]]), np.array([[1.0], [-0.5]]),
                            np.array([[0.5, 0.0], [-0.25, 0.75]]))
        emb = ClosedLoopEmbedding(sys)
        lo = np.array([-1.0, 0.0])
        hi = lo + 0.3
        u, uh = np.array([0.5]), np.array([-1.0])
        w, wh = np.array([0.1, -0.2]), np.array([-0.1, 0.3])
        ordered = emb.open_field(lo, hi, uh, u, np.minimum(w, wh), np.maximum(w, wh))
        assert np.array_equal(emb.open_field(lo, hi, u, uh, w, wh), ordered)


def face_kernel_cases():
    """(system, box, constant control band, disturbance pair) per field path."""
    vehicle = VehicleSystem().open_loop()
    veh_box = IntervalVector(np.array([7.0, 7.2, -2.4, 1.5]),
                             np.array([7.4, 7.5, -2.1, 2.0]))
    affine = affine_system(np.array([[-0.5, 2.0, 0.0], [-1.0, -1.0, 0.5], [0.3, 0.0, -2.0]]),
                           np.array([[1.0, 0.0], [-0.5, 1.0], [0.0, -2.0]]),
                           np.array([[0.3], [-1.0], [0.0]]))
    aff_box = IntervalVector(np.array([-1.0, 0.5, 0.0]), np.array([0.5, 1.5, 0.25]))
    return [
        pytest.param(vehicle, veh_box, ([-1.0, -0.2], [0.5, 0.3]), None, id="extension"),
        pytest.param(affine, aff_box, ([-0.3, 0.1], [0.2, 0.4]), ([-0.1], [0.2]),
                     id="decomposition"),
    ]


@pytest.mark.parametrize("sys, box, band, w_pair", face_kernel_cases())
def test_constant_band_closed_field_equals_open_field(sys, box, band, w_pair):
    # with C = 0 every face sees the same control interval, so the closed-loop
    # face kernel must reduce exactly to the open-loop field under that band
    d_lo, d_hi = (np.array(v) for v in band)
    zero = np.zeros((sys.p, sys.n))
    incl = make_inclusion(LinearBounds(C_lo=zero, d_lo=d_lo, C_hi=zero, d_hi=d_hi,
                                       domain=box))
    emb = ClosedLoopEmbedding(sys, w_pair)
    emb.refresh_control(box, reverify=False, inherited=incl, interval_index=0)
    closed = emb.field(box.lo, box.hi)
    open_ = emb.open_field(box.lo, box.hi, d_lo, d_hi, emb.w_lo, emb.w_hi)
    assert np.array_equal(closed, open_)


class TestTightDecomposition:
    """The ``d`` an extension-only plant synthesizes from its open-loop field."""

    @staticmethod
    def tight_d(n, p, ext):
        return OpenLoopSystem(n, p, 0, lambda x, u, w=None: x, extension=ext).d

    def affine_extension(self, A, B):
        Ap, An = np.maximum(A, 0), np.minimum(A, 0)
        Bp, Bn = np.maximum(B, 0), np.minimum(B, 0)

        def ext(Xlo, Xhi, inputs):
            Ulo, Uhi, _, _ = inputs
            flo = Xlo @ Ap.T + Xhi @ An.T + Ulo @ Bp.T + Uhi @ Bn.T
            fhi = Xhi @ Ap.T + Xlo @ An.T + Uhi @ Bp.T + Ulo @ Bn.T
            return flo, fhi

        return ext

    def test_recovers_metzler_split_on_affine_field(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 1))
        d_tight = self.tight_d(2, 1, self.affine_extension(A, B))
        d_closed = affine_system(A, B).d
        for _ in range(200):
            x = rng.normal(size=2)
            xh = x + rng.uniform(0, 1, 2)
            u = rng.normal(size=1)
            uh = u + rng.uniform(0, 1, 1)
            w = np.zeros(0)
            assert np.allclose(d_tight(x, xh, u, uh, w, w),
                               d_closed(x, xh, u, uh, w, w), atol=1e-12)
            assert np.allclose(d_tight(xh, x, uh, u, w, w),
                               d_closed(xh, x, uh, u, w, w), atol=1e-12)

    def test_square_field_pinned_evaluation(self):
        def ext(Xlo, Xhi, inputs):
            lo = np.where((Xlo <= 0) & (Xhi >= 0), 0.0,
                          np.minimum(Xlo ** 2, Xhi ** 2))
            hi = np.maximum(Xlo ** 2, Xhi ** 2)
            return lo, hi

        d = self.tight_d(1, 0, ext)
        empty = np.zeros(0)
        # coordinate pinned at -1 makes the enclosure degenerate: f = 1
        assert d(np.array([-1.0]), np.array([2.0]), empty, empty, empty, empty)[0] == 1.0
        assert d(np.array([2.0]), np.array([-1.0]), empty, empty, empty, empty)[0] == 4.0

    def test_mixed_order_arguments_rejected(self):
        d = self.tight_d(2, 1, self.affine_extension(np.eye(2), np.zeros((2, 1))))
        empty = np.zeros(0)
        with pytest.raises(ValueError, match="mixed-order"):
            d(np.array([0.0, 1.0]), np.array([1.0, 0.0]),
              np.zeros(1), np.zeros(1), empty, empty)

    def test_crossed_extension_rejected(self):
        def bad_ext(Xlo, Xhi, inputs):
            return Xhi + 1.0, Xlo

        d = self.tight_d(1, 0, bad_ext)
        empty = np.zeros(0)
        with pytest.raises(ValueError, match="crossed enclosures"):
            d(np.array([0.0]), np.array([1.0]), empty, empty, empty, empty)

    def test_nan_enclosure_rejected(self):
        # f(x) = sqrt(x - 1) is NaN on [0.5, 0.6]: no end of it is a bound
        def ext(Xlo, Xhi, inputs):
            with np.errstate(invalid="ignore"):
                return np.sqrt(Xlo - 1.0), np.sqrt(Xhi - 1.0)

        d = self.tight_d(1, 0, ext)
        empty = np.zeros(0)
        with pytest.raises(ValueError, match="crossed enclosures"):
            d(np.array([0.5]), np.array([0.6]), empty, empty, empty, empty)

    @staticmethod
    def vehicle_tuple(rng):
        """A forward-ordered vehicle tuple whose headings often span a multiple of pi/2."""
        x = np.array([rng.uniform(3, 10), rng.uniform(3, 10),
                      0.5 * math.pi * rng.integers(-2, 1) - 0.1 * rng.uniform(),
                      rng.uniform(0.5, 4.0)])
        xh = x + rng.uniform(0, 1, 4) * [1.0, 1.0, 0.3, 2.0]
        u = rng.uniform(-5, 5, 2) * [1.0, 0.25]
        uh = u + rng.uniform(0, 2, 2) * [1.0, 0.25]
        return x, xh, u, uh

    def test_vehicle_matches_row_by_row_reference(self):
        sys = VehicleSystem().open_loop()
        ref = reference_tight_d(sys)
        rng = np.random.default_rng(29)
        w = np.zeros(0)
        for _ in range(4000):
            x, xh, u, uh = self.vehicle_tuple(rng)
            for args in ((x, xh, u, uh, w, w), (xh, x, uh, u, w, w)):
                assert sys.d(*args).tobytes() == ref(*args).tobytes()

    def test_vehicle_takes_row_stacks(self):
        sys = VehicleSystem().open_loop()
        rng = np.random.default_rng(31)
        x, xh, u, uh = (np.array(v) for v in zip(*(self.vehicle_tuple(rng) for _ in range(5))))
        w = np.zeros((5, 0))
        for args in ((x, xh, u, uh, w, w), (xh, x, uh, u, w, w)):
            got = sys.d(*args)
            assert got.shape == (5, 4)
            assert got.tobytes() == np.array([sys.d(*row) for row in zip(*args)]).tobytes()


def check_decomposition_properties(sys, rng, count, sampler, tol_i=1e-9, tol_ii=1e-12):
    """Properties of a valid decomposition on random tuples.

    (i) diagonal consistency with the field, (ii) monotone tightening in
    the state pair, (iii) monotonicity in each input pair.
    """
    n, p, q = sys.n, sys.p, sys.q
    for _ in range(count):
        x, u, w = sampler(rng)
        d_val = sys.d(x, x, u, u, w, w)
        f_val = sys.f(x, u, w if q else None)
        assert np.allclose(d_val, np.asarray(f_val).reshape(-1), atol=tol_i)

    for _ in range(count):
        xs = np.sort(np.stack([sampler(rng)[0] for _ in range(4)]), axis=0)
        x, y, yh, xh = xs
        u, w = sampler(rng)[1:]
        uh = u + np.abs(sampler(rng)[1])
        wh = w + np.abs(sampler(rng)[2]) if q else w
        i = int(rng.integers(0, n))
        y = y.copy()
        y[i] = x[i]
        lo_outer = sys.d(x, xh, u, uh, w, wh)[i]
        lo_inner = sys.d(y, yh, u, uh, w, wh)[i]
        assert lo_outer <= lo_inner + tol_ii

    for _ in range(count):
        x, u, w = sampler(rng)
        xh = x + np.abs(sampler(rng)[0])
        if p:
            us = np.sort(np.stack([sampler(rng)[1] for _ in range(4)]), axis=0)
            u0, v0, vh, uh = us
            d_wide = sys.d(x, xh, u0, uh, w, w)
            d_narrow = sys.d(x, xh, v0, vh, w, w)
            assert np.all(d_wide <= d_narrow + tol_i)
        if q:
            ws = np.sort(np.stack([sampler(rng)[2] for _ in range(4)]), axis=0)
            w0, v0, vh, wh = ws
            d_wide = sys.d(x, xh, u, u, w0, wh)
            d_narrow = sys.d(x, xh, u, u, v0, vh)
            assert np.all(d_wide <= d_narrow + tol_i)


class TestDecompositionProperties:
    def test_vehicle(self):
        sys = VehicleSystem().open_loop()
        rng = np.random.default_rng(13)

        def sampler(r):
            x = np.array([r.uniform(3, 10), r.uniform(3, 10),
                          r.uniform(-3.2, 0.2), r.uniform(0.5, 4.0)])
            u = np.array([r.uniform(-5, 5), r.uniform(-1.2, 1.2)])
            return x, u, np.zeros(0)

        check_decomposition_properties(sys, rng, 300, sampler)

    def test_continuous_affine(self):
        rng = np.random.default_rng(19)
        sys = affine_system(rng.normal(size=(3, 3)), rng.normal(size=(3, 2)),
                            rng.normal(size=(3, 1)))

        def sampler(r):
            return r.normal(size=3), r.normal(size=2), r.normal(size=1)

        check_decomposition_properties(sys, rng, 300, sampler)

    def test_discrete_double_integrator(self):
        from nncreach import DoubleIntegratorSystem
        sys = DoubleIntegratorSystem().open_loop()
        rng = np.random.default_rng(23)

        def sampler(r):
            return r.uniform(-5, 5, size=2), r.uniform(-2, 2, size=1), np.zeros(0)

        check_decomposition_properties(sys, rng, 300, sampler)


class TestClosedLoopEmbedding:
    def test_exact_bounds_degenerate_state_reduces_to_field(self):
        sys = scalar_leak()
        z = np.array([0.7])
        box = IntervalVector(z, z)
        incl = exact_linear_inclusion(np.array([[2.0]]), box)
        emb = ClosedLoopEmbedding(sys)
        emb.refresh_control(box, reverify=False, inherited=incl, interval_index=0)
        out = emb.field(z, z)
        # f(x, N(x)) with N(x) = 2x
        assert out[0] == pytest.approx(-0.7 + 2 * 0.7, abs=1e-12)
        assert np.array_equal(out[:1], reference_face_field(emb, z, z)[0])

    def test_matches_lti_continuous_analogue(self):
        # sign-aligned coefficients so the per-term split equals the
        # combined-matrix split
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = np.array([[0.5], [1.0]])
        C = np.array([[0.3, 0.2]])
        offset = 0.1
        sys = affine_system(A, B)
        box = IntervalVector(np.array([1.0, -0.5]), np.array([2.0, 0.5]))
        incl = exact_linear_inclusion(C, box, offset=offset)
        emb = ClosedLoopEmbedding(sys)
        emb.refresh_control(box, reverify=False, inherited=incl, interval_index=0)
        rate = emb.field(box.lo, box.hi)

        M = A + B @ C  # all entries non-negative here
        assert np.all(M >= 0)
        d_lo = np.full(1, -offset)
        d_hi = np.full(1, offset)
        want_lo = M @ box.lo + B @ d_lo
        want_hi = M @ box.hi + B @ d_hi
        assert np.allclose(rate[:2], want_lo, atol=1e-12)
        assert np.allclose(rate[2:], want_hi, atol=1e-12)

    def test_reference_and_fast_paths_agree(self, vehicle_net, vehicle_box):
        sys = VehicleSystem().open_loop()
        emb = ClosedLoopEmbedding(sys)
        emb.refresh_control(vehicle_box,
                            inherited=make_inclusion(crown_bounds(vehicle_net, vehicle_box)),
                            interval_index=0)
        lo, hi = vehicle_box.lo, vehicle_box.hi
        fast = emb.field(lo, hi)
        ref_lower, ref_upper = reference_face_field(emb, lo, hi)
        assert np.allclose(fast, np.concatenate([ref_lower, ref_upper]), atol=1e-12)

    def test_integration_preserves_order(self, vehicle_net, vehicle_box):
        sys = VehicleSystem().open_loop()
        emb = ClosedLoopEmbedding(sys)
        emb.refresh_control(vehicle_box,
                            inherited=make_inclusion(crown_bounds(vehicle_net, vehicle_box)),
                            interval_index=0)
        traj = emb.integrate(vehicle_box.lo, vehicle_box.hi, 0.01, 25)
        assert traj.shape == (26, 2, 4)
        assert np.all(traj[:, 1, :] - traj[:, 0, :] >= -1e-9)
        # lower half stays below upper half after the first step too
        assert np.all(traj[1, 0] <= traj[1, 1])

    def test_nan_state_raises_at_its_step(self):
        # f(x) = sqrt(x - 1) is NaN on [0.5, 0.6]: the first step must fail
        def ext(Xlo, Xhi, inputs):
            with np.errstate(invalid="ignore"):
                return np.sqrt(Xlo - 1.0), np.sqrt(Xhi - 1.0)

        sys = OpenLoopSystem(1, 1, 0, lambda x, u, w=None: np.sqrt(x - 1.0),
                             extension=ext)
        box = IntervalVector(np.array([0.5]), np.array([0.6]))
        emb = ClosedLoopEmbedding(sys)
        emb.refresh_control(box, reverify=False,
                            inherited=exact_linear_inclusion(np.array([[0.0]]), box),
                            interval_index=0)
        with pytest.raises(EmbeddingOrderError, match="step 1$"):
            emb.integrate(box.lo, box.hi, 0.1, 5)

    @staticmethod
    def narrowing_embedding(kind, rate, box):
        """A 1-state embedding whose upper end falls by ``rate`` per unit step.

        The lower end stays put, so the width shrinks by exactly ``rate``
        per step and crosses zero without ever being NaN.  The continuous
        loop gets it from an extension with the constant ends ``(0,
        -rate)``, the discrete map from a relaxation with ``d_hi = -rate``.
        """
        zero = np.array([[0.0]])
        incl = make_inclusion(LinearBounds(C_lo=zero, d_lo=np.zeros(1), C_hi=zero,
                                           d_hi=np.array([-rate]), domain=box))
        if kind == "continuous":
            def ext(Xlo, Xhi, inputs):
                return np.zeros_like(Xlo), np.full_like(Xhi, -rate)

            emb = ClosedLoopEmbedding(OpenLoopSystem(1, 1, 0, lambda x, u, w=None: 0.0 * x,
                                                     extension=ext))
        else:
            emb = DiscreteLTIEmbedding(np.eye(1), np.eye(1))
        emb.refresh_control(box, reverify=False, inherited=incl)
        return emb

    @pytest.mark.parametrize("kind", ["continuous", "discrete"])
    def test_crossed_state_raises_at_its_step(self, kind):
        box = IntervalVector(np.array([0.0]), np.array([2.5]))
        emb = self.narrowing_embedding(kind, 1.0, box)
        # widths 1.5 and 0.5 after steps 1 and 2, then -0.5
        assert (emb.integrate(box.lo, box.hi, 1.0, 2)[:, 1, 0] == [2.5, 1.5, 0.5]).all()
        with pytest.raises(EmbeddingOrderError, match="step 3$"):
            emb.integrate(box.lo, box.hi, 1.0, 5)

    @pytest.mark.parametrize("kind", ["continuous", "discrete"])
    def test_order_tolerance_is_inclusive(self, kind):
        box = IntervalVector(np.zeros(1), np.zeros(1))
        traj = self.narrowing_embedding(kind, 1e-9, box).integrate(box.lo, box.hi, 1.0, 1)
        assert traj[1, 1, 0] - traj[1, 0, 0] == -1e-9
        below = np.nextafter(1e-9, 1.0)
        with pytest.raises(EmbeddingOrderError, match="step 1$"):
            self.narrowing_embedding(kind, below, box).integrate(box.lo, box.hi, 1.0, 1)

    def test_refresh_control_inheritance_rules(self, di_net, di_box):
        from nncreach import crown_bounds
        sys = affine_system(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
        parent_incl = make_inclusion(crown_bounds(di_net, di_box))
        child = IntervalVector(di_box.lo, di_box.lo + 0.5 * di_box.width)
        emb = ClosedLoopEmbedding(sys)
        emb.refresh_control(child, reverify=False, inherited=parent_incl,
                            interval_index=3)
        assert emb.incl is parent_incl

        outside = IntervalVector(di_box.lo - 1.0, di_box.hi)
        with pytest.raises(DomainError, match="not contained"):
            emb.refresh_control(outside, reverify=False, inherited=parent_incl)

    def test_refresh_without_any_inclusion_errors(self):
        box = IntervalVector(np.zeros(1), np.ones(1))
        emb = ClosedLoopEmbedding(scalar_leak())
        with pytest.raises(ValueError, match="inclusion"):
            emb.refresh_control(box, reverify=False)
        # the relaxation of an earlier refresh is not reused either
        emb.refresh_control(box, reverify=False,
                            inherited=exact_linear_inclusion(np.array([[0.0]]), box))
        with pytest.raises(ValueError, match="inclusion"):
            emb.refresh_control(box, reverify=False)

    def test_field_before_refresh_errors(self):
        box = IntervalVector(np.array([7.0, 7.2, -2.4, 1.5]), np.array([7.4, 7.5, -2.1, 2.0]))
        for sys in (scalar_leak(), VehicleSystem().open_loop()):  # d-only and extension
            emb = ClosedLoopEmbedding(sys)
            lo, hi = box.lo[:sys.n], box.hi[:sys.n]
            with pytest.raises(RuntimeError, match="not initialized"):
                emb.field(lo, hi)
            with pytest.raises(RuntimeError, match="not initialized"):
                emb.integrate(lo, hi, 0.01, 3)

    def test_extension_attribute_is_only_a_given_enclosure(self):
        # a d-only plant is read on faces through a private wrapper; its
        # public extension stays None, since the wrapper encloses f only in
        # the pinned component of each face row
        assert scalar_leak().extension is None
        veh = VehicleSystem()
        assert veh.open_loop().extension == veh.extension

    def test_prepare_needs_an_extension(self):
        def f(x, u, w=None):
            return -x

        with pytest.raises(ValueError, match="first stage"):
            OpenLoopSystem(1, 1, 0, f, d=lambda x, xh, u, uh, w, wh: -xh,
                           prepare=lambda *rows: rows)

    def test_decomposition_shapes_checked_not_values(self):
        def f(x, u, w=None):
            return np.sqrt(x - 1.0)

        # undefined at the probe point, yet sound on its domain: accepted
        OpenLoopSystem(1, 1, 0, f, d=lambda x, xh, u, uh, w, wh: np.sqrt(x - 1.0))
        with pytest.raises(ValueError, match=r"to \(2n, n\)"):
            OpenLoopSystem(2, 1, 0, f, d=lambda x, xh, u, uh, w, wh: x[:, 0])


class TestDiscreteLTIEmbedding:
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.array([[0.5], [1.0]])

    def test_nonnegative_gain_reduces_to_matrix_product(self):
        K = np.array([[0.1, 0.1]])
        box = IntervalVector(np.array([1.0, 0.5]), np.array([2.0, 1.5]))
        emb = DiscreteLTIEmbedding(self.A, self.B)
        emb.refresh_control(box, reverify=False,
                            inherited=exact_linear_inclusion(K, box))
        M = self.A + self.B @ K
        assert np.all(M >= 0)
        lo, hi = emb.integrate(box.lo, box.hi, 1.0, 1)[1]
        assert np.allclose(lo, M @ box.lo, atol=1e-12)
        assert np.allclose(hi, M @ box.hi, atol=1e-12)

    def test_degenerate_state_with_exact_point_bounds(self):
        x = np.array([1.5, -0.7])
        box = IntervalVector(x, x)
        K = np.array([[-0.4, -1.1]])
        emb = DiscreteLTIEmbedding(self.A, self.B)
        emb.refresh_control(box, reverify=False,
                            inherited=exact_linear_inclusion(K, box))
        lo, hi = emb.integrate(x, x, 1.0, 1)[1]
        want = self.A @ x + self.B @ (K @ x)
        assert np.allclose(lo, want, atol=1e-12)
        assert np.allclose(hi, want, atol=1e-12)

    def test_zero_controller_benchmark_step(self, di_box):
        emb = DiscreteLTIEmbedding(self.A, self.B)
        net = zero_network(2, 1)
        emb.refresh_control(di_box, inherited=make_inclusion(crown_bounds(net, di_box)))
        lo, hi = emb.integrate(di_box.lo, di_box.hi, 1.0, 1)[1]
        assert np.allclose(lo, [2.25, -0.25])
        assert np.allclose(hi, [3.25, 0.25])

    def test_step_before_refresh_errors(self):
        emb = DiscreteLTIEmbedding(self.A, self.B)
        with pytest.raises(RuntimeError, match="not initialized"):
            emb.integrate(np.zeros(2), np.ones(2), 1.0, 2)

    def test_unordered_state_rejected(self):
        emb = DiscreteLTIEmbedding(self.A, self.B)
        box = IntervalVector(np.zeros(2), np.ones(2))
        emb.refresh_control(box, reverify=False,
                            inherited=exact_linear_inclusion(np.array([[0.0, 0.0]]), box))
        with pytest.raises(EmbeddingOrderError):
            emb.integrate(np.array([1.0, 1.0]), np.array([0.0, 0.0]), 1.0, 1)


def reference_lti_step(emb, lo, hi):
    """The one-step map as a formula on fresh arrays (oracle of the in-place map)."""
    M, (blo, bhi) = emb._update
    (Mlp, Mhn), (Mln, Mhp) = M
    return Mlp @ lo + Mln @ hi + blo, Mhn @ lo + Mhp @ hi + bhi


def test_discrete_update_is_read_only(di_box):
    """Every leaf of a relaxation reads the one packed update: a stray write
    into it raises instead of changing the later leaves' steps."""
    emb = DiscreteLTIEmbedding(TestDiscreteLTIEmbedding.A, TestDiscreteLTIEmbedding.B)
    emb.refresh_control(di_box, reverify=False,
                        inherited=exact_linear_inclusion(np.array([[-0.4, -1.1]]), di_box))
    M, b = emb._update
    assert M.shape == (2, 2, 2, 2) and b.shape == (2, 2)
    for a in (M, b, emb.A, emb.B):
        with pytest.raises(ValueError, match="read-only"):
            np.add(a, 1.0, out=a)


class TestDiscreteMapBits:
    """The in-place map writes the bits of the formula, whatever the size.

    ``n = 17`` is a size where a single stacked ``(2n, n)`` product would
    differ from the separate products in the last place; the packed
    ``(2, 2, n, n)`` stack of whole matrices does not.
    """

    SIZES = list(range(1, 25)) + [32]
    # finite endpoints whose bits are easy to get wrong: signed zeros, subnormals
    SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1.0, -3.0])

    @staticmethod
    def random_map(rng, n, inactive=False):
        """A map relaxed over a random box; with ``inactive`` every ReLU is off on it."""
        p = int(rng.integers(1, 4))
        A = rng.normal(0.0, 0.6 / math.sqrt(n), size=(n, n))
        B = rng.normal(0.0, 1.0, size=(n, p))
        if inactive:
            h = int(rng.integers(1, 6))
            net = MLPNetwork([(rng.normal(size=(h, n)), np.full(h, -1e3), "relu"),
                              (rng.normal(size=(p, h)), rng.normal(size=p), "identity")])
        else:
            net = random_relu_network(rng, n_in=n, n_out=p, depth=int(rng.integers(1, 4)))
        box = random_box(rng, n)  # widened to hold every SPECIAL-valued box
        box = IntervalVector(np.minimum(box.lo, -3.0), np.maximum(box.hi, 1.0))
        emb = DiscreteLTIEmbedding(A, B)
        emb.refresh_control(box, inherited=make_inclusion(crown_bounds(net, box)))
        return emb, box

    def special_box(self, rng, n):
        """Ordered ends drawn from ``SPECIAL``, degenerate (``lo == hi``) on some axes."""
        lo, hi = np.sort(rng.choice(self.SPECIAL, size=(2, n)), axis=0)
        same = rng.random(n) < 0.5
        hi[same] = lo[same]
        return lo, hi

    @pytest.mark.parametrize("n", SIZES)
    def test_integrate_and_step_match_the_formula(self, n):
        rng = np.random.default_rng(100 + n)
        for k in range(8):
            inactive = k % 4 == 3
            emb, box = self.random_map(rng, n, inactive=inactive)
            if inactive:  # no ReLU is on over the box: the relaxation has C = 0
                lb = emb.incl.bounds
                assert not lb.C_lo.any() and not lb.C_hi.any()
            inner_lo = box.lo + rng.uniform(0.0, 0.5, n) * box.width
            inner_hi = box.hi - rng.uniform(0.0, 0.5, n) * box.width
            point = rng.choice(self.SPECIAL, size=n)
            # boxes inside the relaxed one: itself, a random one, and
            # special-valued ones with lo == hi on every axis and on some axes
            boxes = [(box.lo, box.hi), (inner_lo, inner_hi), (point, point.copy()),
                     self.special_box(rng, n)]
            steps = int(rng.integers(1, 6))
            for lo, hi in boxes:
                want = [(lo, hi)]
                for _ in range(steps):
                    want.append(reference_lti_step(emb, *want[-1]))
                traj = emb.integrate(lo, hi, 1.0, steps)
                assert traj.tobytes() == np.array(want).tobytes()
                got = np.empty(2 * n)  # the unchecked map, on its own
                emb._step_into(np.concatenate((lo, hi)), got, 1.0)
                assert got.tobytes() == np.concatenate(want[1]).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 32])
    def test_leaf_stack_gets_the_per_leaf_bits(self, n):
        """The packed ``M`` against an ``(L, 2, 1, n, 1)`` stack of leaf states
        gives every leaf the bits of its own map step (what a leaf-batched
        round would compute)."""
        rng = np.random.default_rng(300 + n)
        emb, box = self.random_map(rng, n)
        M, b = emb._update
        L = 9
        states = np.empty((L, 2, n))
        for leaf in states[:-1]:
            inner = random_box(rng, n)
            leaf[0], leaf[1] = inner.lo, inner.hi
        states[-1] = self.special_box(rng, n)
        prod = np.matmul(M, states.reshape(L, 2, 1, n, 1))[..., 0]
        stacked = prod[:, 0] + prod[:, 1] + b
        for leaf, got in zip(states, stacked):
            want = np.empty(2 * n)
            emb._step_into(leaf.ravel(), want, 1.0)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_crossed_start_raises(self, n):
        emb, box = self.random_map(np.random.default_rng(n), n)
        lo, hi = box.lo.copy(), box.hi.copy()
        lo[n // 2] = hi[n // 2] + 1e-12
        for steps in (1, 3):
            with pytest.raises(EmbeddingOrderError, match="ordered state"):
                emb.integrate(lo, hi, 1.0, steps)


class TestRefreshDomainCheck:
    """A refresh that inherits a relaxation checks the leaf's box against the
    relaxation's domain, widened by ``_DOMAIN_SLACK`` on every side."""

    @staticmethod
    def embeddings():
        di = DiscreteLTIEmbedding(np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[0.5], [1.0]]))
        plant = affine_system(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
        return {"discrete": di, "continuous": ClosedLoopEmbedding(plant)}

    @pytest.mark.parametrize("kind", ["discrete", "continuous"])
    def test_box_leaving_the_slack_raises(self, kind, di_net, di_box):
        from nncreach import crown_bounds
        from nncreach.bounds import _DOMAIN_SLACK
        incl = make_inclusion(crown_bounds(di_net, di_box))
        emb = self.embeddings()[kind]
        edge_lo = di_box.lo - _DOMAIN_SLACK
        edge_hi = di_box.hi + _DOMAIN_SLACK
        for axis in range(di_box.n):
            for end in ("lo", "hi"):
                lo, hi = di_box.lo.copy(), di_box.hi.copy()
                if end == "lo":
                    lo[axis] = edge_lo[axis]  # on the widened domain's edge
                else:
                    hi[axis] = edge_hi[axis]
                emb.refresh_control(IntervalVector(lo, hi), reverify=False, inherited=incl)
                if end == "lo":
                    lo[axis] = np.nextafter(edge_lo[axis], -np.inf)
                else:
                    hi[axis] = np.nextafter(edge_hi[axis], np.inf)
                with pytest.raises(DomainError, match="not contained"):
                    emb.refresh_control(IntervalVector(lo, hi), reverify=False,
                                        inherited=incl)


class TestReusedEmbedding:
    """An embedding refreshed for leaf after leaf keeps no state from the
    earlier leaves: the engine builds one per interval."""

    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.array([[0.5], [1.0]])

    @staticmethod
    def bits(traj):
        return np.asarray(traj).tobytes()

    def test_discrete_update_follows_the_relaxation(self, di_net, di_box):
        from nncreach import crown_bounds, uniform_divide
        quarter = uniform_divide(di_box)[1]
        relax = {"A": (make_inclusion(crown_bounds(di_net, di_box)), di_box),
                 "B": (make_inclusion(crown_bounds(di_net, quarter)), quarter)}
        reused = DiscreteLTIEmbedding(self.A, self.B)
        for name in "ABA":
            incl, box = relax[name]
            reused.refresh_control(box, reverify=False, inherited=incl)
            fresh = DiscreteLTIEmbedding(self.A, self.B)
            fresh.refresh_control(box, reverify=False, inherited=incl)
            assert reused.incl is incl
            assert self.bits(reused.integrate(box.lo, box.hi, 1.0, 4)) == \
                self.bits(fresh.integrate(box.lo, box.hi, 1.0, 4)), name

    def test_same_relaxation_still_checks_the_domain(self, di_net, di_box):
        from nncreach import crown_bounds
        incl = make_inclusion(crown_bounds(di_net, di_box))
        emb = DiscreteLTIEmbedding(self.A, self.B)
        emb.refresh_control(di_box, reverify=False, inherited=incl)
        outside = IntervalVector(di_box.lo, di_box.hi + 0.1)
        with pytest.raises(DomainError, match="not contained"):
            emb.refresh_control(outside, reverify=False, inherited=incl)
        assert emb.incl is incl

    def test_closed_loop_field_matches_fresh_embeddings(self, vehicle_net, vehicle_box):
        from nncreach import crown_bounds, uniform_divide
        sys = VehicleSystem().open_loop()
        incl = make_inclusion(crown_bounds(vehicle_net, vehicle_box))
        children = uniform_divide(vehicle_box)
        reused = ClosedLoopEmbedding(sys)
        for box in (children[0], children[13], vehicle_box):
            reused.refresh_control(box, reverify=False, inherited=incl)
            fresh = ClosedLoopEmbedding(sys)
            fresh.refresh_control(box, reverify=False, inherited=incl)
            assert self.bits(reused.field(box.lo, box.hi)) == \
                self.bits(fresh.field(box.lo, box.hi))
            assert self.bits(reused.integrate(box.lo, box.hi, 0.01, 5)) == \
                self.bits(fresh.integrate(box.lo, box.hi, 0.01, 5))

    def test_discrete_update_built_once_per_relaxation(self, di_net, di_box, monkeypatch):
        from nncreach import (AlgorithmParams, DiscreteLTIModel, DoubleIntegratorSystem,
                              ToleranceVector, compute_reachable_set)
        di = DoubleIntegratorSystem()
        model = DiscreteLTIModel(di.A, di.B, di_net, horizon_steps=3)
        made = []
        make = model.make_embedding
        model.make_embedding = lambda: made.append(make()) or made[-1]
        refreshes = []  # (embedding, relaxation, update) after every refresh
        refresh = DiscreteLTIEmbedding.refresh_control

        def recording(emb, *args, **kwargs):
            refresh(emb, *args, **kwargs)
            refreshes.append((emb, emb.incl, emb._update))

        monkeypatch.setattr(DiscreteLTIEmbedding, "refresh_control", recording)
        params = AlgorithmParams(eps=ToleranceVector(np.zeros(2)), depth_max=3,
                                 nn_depth_max=1)
        stats = compute_reachable_set(di_box, params, model).interval_stats
        assert len(made) == len(stats)  # one embedding per interval
        for emb, st in zip(made, stats):
            seen = [(incl, update) for e, incl, update in refreshes if e is emb]
            assert len(seen) == st.leaf_count + st.subdivisions  # a split leaf refreshed once
            builds = [update for k, (incl, update) in enumerate(seen)
                      if k == 0 or update is not seen[k - 1][1]]
            relaxations = [incl for k, (incl, _) in enumerate(seen)
                           if k == 0 or incl is not seen[k - 1][0]]
            # every verified relaxation is built once and kept while it is reused
            assert len(builds) == len(relaxations) == st.nn_calls
            assert all((a is b) == (u is v) for (a, u), (b, v) in zip(seen, seen[1:]))


def loop_face_rows(span_lo, span_hi, a, b):
    """The face layout written span by span, then diagonal by diagonal (oracle)."""
    lead, n = a.shape[:-1], a.shape[-1]
    out = (np.empty(lead + (2 * n, n)), np.empty(lead + (2 * n, n)))
    for X, span in zip(out, (span_lo, span_hi)):
        X[...] = span
        flat = X.reshape(lead + (-1,))  # a view, so the diagonals are pinned in place
        flat[..., :n * n:n + 1] = a
        flat[..., n * n::n + 1] = b
    return out


class TestFaceRows:
    """The gathered face blocks are bit copies of the diagonal-write layout."""

    @staticmethod
    def signed_zeros(rng, x):
        """``x`` with about a third of its entries set to ``+0.0`` or ``-0.0``."""
        x = x.copy()
        hit = rng.uniform(size=x.shape) < 0.35
        x[hit] = np.where(rng.uniform(size=x.shape) < 0.5, 0.0, -0.0)[hit]
        return x

    @staticmethod
    def assert_same(got, want):
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_single_span(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(20):
            lo = self.signed_zeros(rng, rng.normal(size=n))
            hi = lo + self.signed_zeros(rng, rng.uniform(size=n))
            # the closed loop pins a box at its own ends
            self.assert_same(_face_rows(lo, hi, lo, hi), loop_face_rows(lo, hi, lo, hi))
            # crossed pins, as finite differencing passes them, spanned as (1, n)
            a, b = lo, self.signed_zeros(rng, lo + rng.normal(size=n))
            span = (np.minimum(a, b)[None], np.maximum(a, b)[None])
            self.assert_same(_face_rows(*span, a, b), loop_face_rows(*span, a, b))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_stacked_spans(self, n):
        rng = np.random.default_rng(50 + n)
        for L in (1, 2, 7):
            a = self.signed_zeros(rng, rng.normal(size=(L, n)))
            b = self.signed_zeros(rng, a + rng.normal(size=(L, n)))  # crossed on some axes
            span = (np.minimum(a, b)[:, None, :], np.maximum(a, b)[:, None, :])
            got = _face_rows(*span, a, b)
            self.assert_same(got, loop_face_rows(*span, a, b))
            assert got[0].shape == (L, 2 * n, n)

    def test_inputs_left_alone(self):
        lo, hi = np.array([-0.0, 1.0, 2.0]), np.array([0.0, 3.0, 2.0])
        before = lo.tobytes(), hi.tobytes()
        Xlo, Xhi = _face_rows(lo, hi, lo, hi)
        Xlo[...] = Xhi[...] = 7.0
        assert (lo.tobytes(), hi.tobytes()) == before


class TestGatheredStep:
    """The closed-loop step gathers its faces straight from the ``(2, n)``
    state; field and step keep the bits of the face rows built from
    ``[lo, hi, lo, hi]`` and of their one extension call."""

    @pytest.fixture(params=["vehicle", "affine"])
    def emb_box(self, request):
        """A refreshed embedding and its box: the vehicle (an extension) or
        a decomposition-only plant with a disturbance."""
        if request.param == "vehicle":
            net, box = (request.getfixturevalue(name) for name in ("vehicle_net", "vehicle_box"))
            emb = ClosedLoopEmbedding(VehicleSystem().open_loop())
        else:
            net, box = (request.getfixturevalue(name) for name in ("di_net", "di_box"))
            sys = affine_system(np.array([[-1.0, 0.5], [0.25, -2.0]]),
                                np.array([[1.0], [-0.5]]), np.array([[0.5, 0.0], [-0.25, 0.75]]))
            emb = ClosedLoopEmbedding(sys, w_box=(np.array([-0.1, -0.2]), np.array([0.1, 0.3])))
        emb.refresh_control(box, inherited=make_inclusion(crown_bounds(net, box)))
        return emb, box

    @staticmethod
    def states(rng, box):
        """Ordered states in and around ``box``, with signed zeros and flat axes."""
        for _ in range(30):
            lo = box.lo + rng.normal(size=box.n) * box.width
            hi = lo + np.abs(rng.normal(size=box.n)) * box.width
            flat = rng.random(box.n) < 0.2
            hi[flat] = lo[flat]
            zero = rng.random(box.n) < 0.15
            lo[zero] = -0.0
            hi[zero] = 0.0
            yield lo, hi

    def test_field_and_step_match_face_rows(self, emb_box):
        emb, box = emb_box
        dt = 0.01
        for lo, hi in self.states(np.random.default_rng(17), box):
            want = _faces_field(emb.sys._face_extension, *_face_rows(lo, hi, lo, hi),
                                emb._inputs)
            assert emb.field(lo, hi).tobytes() == want.tobytes()
            cur = np.concatenate((lo, hi))  # the step works on the flat state [lo, hi]
            out = np.empty_like(cur)
            emb._step_into(cur, out, dt)
            assert out.tobytes() == (cur + dt * want).tobytes()
            assert cur.tobytes() == np.concatenate((lo, hi)).tobytes()

    def test_face_caches_match_face_rows(self, emb_box):
        emb, box = emb_box
        n = emb.n
        rows_lo, rows_hi = emb.incl(*_face_rows(box.lo, box.hi, box.lo, box.hi), check=False)
        u_spans = (np.concatenate([rows_lo[:n], np.minimum(rows_lo[n:], rows_hi[n:])]),
                   np.concatenate([rows_hi[:n], np.maximum(rows_lo[n:], rows_hi[n:])]))
        w_rows = [np.tile(w, (2 * n, 1)) for w in (emb.w_lo, emb.w_hi)]
        want = emb.sys.prepare(*u_spans, *w_rows)
        assert len(emb._inputs) == len(want)
        for got, w in zip(emb._inputs, want):
            assert got.tobytes() == w.tobytes()

    def test_one_extension_call_per_step(self, emb_box, monkeypatch):
        """``prepare`` runs once per refresh, the extension once per Euler step on 2n rows."""
        emb, box = emb_box
        sys, prepared, rows = emb.sys, [], []
        prepare, ext = sys.prepare, sys._face_extension

        def counting_prepare(*args):
            prepared.append(args[0].shape)
            return prepare(*args)

        def counting(Xlo, *args):
            rows.append(Xlo.shape)
            return ext(Xlo, *args)

        monkeypatch.setattr(sys, "prepare", counting_prepare)
        monkeypatch.setattr(sys, "_face_extension", counting)
        for refresh in range(1, 3):
            emb.refresh_control(box, reverify=False, inherited=emb.incl)
            traj = emb.integrate(box.lo, box.hi, 0.01, 7)
            assert prepared == [(2 * emb.n, emb.p)] * refresh
            assert rows == [(2 * emb.n, emb.n)] * 7 * refresh
        state = traj[0]
        for k in range(7):  # the steps of the face-row field
            faces = _face_rows(state[0], state[1], state[0], state[1])
            field = _faces_field(ext, *faces, emb._inputs)
            state = state + 0.01 * field.reshape(2, emb.n)
            assert traj[k + 1].tobytes() == state.tobytes()


class TestStackedOpenField:
    """``open_field`` on ``(m, ·)`` row stacks gives each row's bits."""

    @staticmethod
    def assert_rows_match(emb, a, b, ulo, uhi, wlo, whi):
        got = emb.open_field(a, b, ulo, uhi, wlo, whi)
        assert got.shape == (a.shape[0], 2 * a.shape[1])
        rows = [emb.open_field(*row) for row in zip(a, b, ulo, uhi, wlo, whi)]
        assert got.tobytes() == np.array(rows).tobytes()
        return rows

    @pytest.mark.parametrize("n, p", [(2, 1), (3, 2), (5, 2)])
    def test_discrete_map(self, n, p):
        rng = np.random.default_rng(n)
        if n == 2:  # the double integrator
            A, B = TestDiscreteLTIEmbedding.A, TestDiscreteLTIEmbedding.B
        else:
            A, B = rng.normal(size=(n, n)), rng.normal(size=(n, p))
        emb = DiscreteLTIEmbedding(A, B)
        a = rng.normal(size=(50, n)) * 3.0
        b = a + rng.normal(size=(50, n))  # crossed on some axes
        ulo, uhi = rng.normal(size=(2, 50, p))
        rows = self.assert_rows_match(emb, a, b, ulo, uhi, np.zeros((50, 0)), np.zeros((50, 0)))
        # a single pair keeps the bits of the @ products
        Ap, An, Bp, Bn = emb._Ap, emb._An, emb._Bp, emb._Bn
        want = np.concatenate([Ap @ a[0] + An @ b[0] + Bp @ ulo[0] + Bn @ uhi[0],
                               An @ a[0] + Ap @ b[0] + Bn @ ulo[0] + Bp @ uhi[0]])
        assert rows[0].tobytes() == want.tobytes()

    def test_double_integrator_open_loop_d_is_the_map(self):
        from nncreach import DoubleIntegratorSystem
        di = DoubleIntegratorSystem()
        d = di.open_loop().d
        field = DiscreteLTIEmbedding(di.A, di.B).open_field
        rng = np.random.default_rng(41)
        for m in (1, 7, 64):
            a = rng.normal(size=(m, 2)) * 3.0
            b = a + rng.normal(size=(m, 2))  # crossed on some axes
            ulo, uhi = rng.normal(size=(2, m, 1))
            w = np.zeros((m, 0))
            want = field(a, b, ulo, uhi, w, w)
            assert d(a, b, ulo, uhi, w, w).tobytes() == want[:, :2].tobytes()
            assert d(b, a, uhi, ulo, w, w).tobytes() == want[:, 2:].tobytes()

    def test_vehicle_extension(self):
        emb = ClosedLoopEmbedding(VehicleSystem().open_loop())
        rng = np.random.default_rng(5)
        m = 64
        # headings just below multiples of pi/2, so most spans cross one
        heading = 0.5 * math.pi * rng.integers(-4, 5, size=m) - 0.05 * rng.uniform(size=m)
        a = np.column_stack([rng.normal(size=m) * 10.0, rng.normal(size=m), heading,
                             rng.normal(size=m) * 2.0])
        b = a + np.column_stack([rng.uniform(-0.01, 1.0, size=(m, 2)),
                                 rng.uniform(0.0, 0.2, size=m), rng.uniform(-0.01, 3.0, size=m)])
        ulo = rng.normal(size=(m, 2)) * [25.0, 1.0]  # beyond both limits on some rows
        uhi = rng.normal(size=(m, 2)) * [25.0, 1.0]
        self.assert_rows_match(emb, a, b, ulo, uhi, np.zeros((m, 0)), np.zeros((m, 0)))

    def test_decomposition_only_system(self):
        sys = affine_system(np.array([[-1.0, 0.5], [0.25, -2.0]]), np.array([[1.0], [-0.5]]),
                            np.array([[0.5, 0.0], [-0.25, 0.75]]))
        emb = ClosedLoopEmbedding(sys, w_box=(np.array([-0.1, -0.2]), np.array([0.1, 0.3])))
        rng = np.random.default_rng(6)
        a, b, wlo, whi = rng.normal(size=(4, 20, 2))
        ulo, uhi = rng.normal(size=(2, 20, 1))
        self.assert_rows_match(emb, a, b, ulo, uhi, wlo, whi)


class TestInclusionOfTrajectories:
    """Sampled closed-loop runs stay inside the integrated embedding."""

    def test_scalar_toy(self):
        sys = scalar_leak()
        net = zero_network(1, 1, bias=[0.3])
        model = ContinuousClosedLoopModel(sys, net, horizon=1.0, dt=0.01,
                                          control_period=0.5)
        box = IntervalVector(np.array([-1.0]), np.array([1.0]))
        emb = model.make_embedding()
        rng = np.random.default_rng(3)
        incl = model.verify(box)
        emb.refresh_control(box, reverify=False, inherited=incl, interval_index=1)
        traj = emb.integrate(box.lo, box.hi, 0.01, 50)
        for x0 in rng.uniform(-1, 1, size=20):
            x = x0
            for k in range(50):
                x = x + 0.01 * (-x + 0.3)
                assert traj[k + 1, 0, 0] - 1e-9 <= x <= traj[k + 1, 1, 0] + 1e-9

    def test_vehicle_short_horizon(self, vehicle_net, vehicle_box):
        from nncreach import compute_reachable_set, AlgorithmParams, ToleranceVector
        from nncreach import containment_check, sample_trajectories
        sys = VehicleSystem().open_loop()
        model = ContinuousClosedLoopModel(sys, vehicle_net, horizon=0.5, dt=0.01,
                                          control_period=0.25)
        params = AlgorithmParams(eps=ToleranceVector(np.full(4, np.inf)))
        tube = compute_reachable_set(vehicle_box, params, model)
        times, traj = sample_trajectories(model, vehicle_box, 50, seed=5)
        report = containment_check(tube, traj)
        assert report.violations == 0
