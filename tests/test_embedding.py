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
    build_tight_decomposition,
    make_inclusion,
)

from conftest import zero_network


def scalar_leak():
    """xdot = -x + u."""
    return affine_system(np.array([[-1.0]]), np.array([[1.0]]), name="leak")


def open_field(sys, lo, hi, u_pair, w_pair=None):
    """Open-loop field of ``sys`` at ``(lo, hi)``, disturbance 0 unless given."""
    emb = ClosedLoopEmbedding(sys, w_pair)
    return emb.open_field(lo, hi, *u_pair, emb.w_lo, emb.w_hi)


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
        rng = np.random.default_rng(4)
        for _ in range(20):
            lo = np.array([7.0, 7.0, -2.4, 1.5]) + rng.uniform(0, 0.3, 4)
            hi = lo + rng.uniform(0, 0.4, 4)
            ulo = rng.uniform(-1.0, 0.0, 2) * [3.0, 0.3]
            uhi = ulo + rng.uniform(0, 0.5, 2)
            fast = open_field(sys, lo, hi, (ulo, uhi))
            slow = np.concatenate([
                sys.d(lo, hi, ulo, uhi, np.zeros(0), np.zeros(0)),
                sys.d(hi, lo, uhi, ulo, np.zeros(0), np.zeros(0)),
            ])
            assert np.allclose(fast, slow, atol=1e-12)

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
    def affine_extension(self, A, B):
        Ap, An = np.maximum(A, 0), np.minimum(A, 0)
        Bp, Bn = np.maximum(B, 0), np.minimum(B, 0)

        def ext(Xlo, Xhi, Ulo, Uhi, Wlo, Whi):
            flo = Xlo @ Ap.T + Xhi @ An.T + Ulo @ Bp.T + Uhi @ Bn.T
            fhi = Xhi @ Ap.T + Xlo @ An.T + Uhi @ Bp.T + Ulo @ Bn.T
            return flo, fhi

        return ext

    def test_recovers_metzler_split_on_affine_field(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 1))
        d_tight = build_tight_decomposition(self.affine_extension(A, B))
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
        def ext(Xlo, Xhi, Ulo, Uhi, Wlo, Whi):
            lo = np.where((Xlo <= 0) & (Xhi >= 0), 0.0,
                          np.minimum(Xlo ** 2, Xhi ** 2))
            hi = np.maximum(Xlo ** 2, Xhi ** 2)
            return lo, hi

        d = build_tight_decomposition(ext)
        empty = np.zeros(0)
        # coordinate pinned at -1 makes the enclosure degenerate: f = 1
        assert d(np.array([-1.0]), np.array([2.0]), empty, empty, empty, empty)[0] == 1.0
        assert d(np.array([2.0]), np.array([-1.0]), empty, empty, empty, empty)[0] == 4.0

    def test_mixed_order_arguments_rejected(self):
        d = build_tight_decomposition(self.affine_extension(np.eye(2), np.zeros((2, 1))))
        empty = np.zeros(0)
        with pytest.raises(ValueError, match="mixed-order"):
            d(np.array([0.0, 1.0]), np.array([1.0, 0.0]),
              np.zeros(1), np.zeros(1), empty, empty)

    def test_crossed_extension_rejected(self):
        def bad_ext(Xlo, Xhi, Ulo, Uhi, Wlo, Whi):
            return Xhi + 1.0, Xlo

        d = build_tight_decomposition(bad_ext)
        empty = np.zeros(0)
        with pytest.raises(ValueError, match="crossed"):
            d(np.array([0.0]), np.array([1.0]), empty, empty, empty, empty)

    def test_nan_enclosure_rejected(self):
        # f(x) = sqrt(x - 1) is NaN on [0.5, 0.6]: no end of it is a bound
        def ext(Xlo, Xhi, Ulo, Uhi, Wlo, Whi):
            with np.errstate(invalid="ignore"):
                return np.sqrt(Xlo - 1.0), np.sqrt(Xhi - 1.0)

        d = build_tight_decomposition(ext)
        empty = np.zeros(0)
        with pytest.raises(ValueError, match="crossed enclosures"):
            d(np.array([0.5]), np.array([0.6]), empty, empty, empty, empty)


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
        out = emb._face_d(z, z, upper=False)
        # f(x, N(x)) with N(x) = 2x
        assert out[0] == pytest.approx(-0.7 + 2 * 0.7, abs=1e-12)

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
        emb.refresh_control(vehicle_box, reverify=True, net=vehicle_net,
                            interval_index=0)
        lo, hi = vehicle_box.lo, vehicle_box.hi
        fast = emb.field(lo, hi)
        ref_lower = emb._face_d(lo, hi, upper=False)
        ref_upper = emb._face_d(hi, lo, upper=True)
        assert np.allclose(fast, np.concatenate([ref_lower, ref_upper]), atol=1e-12)

    def test_integration_preserves_order(self, vehicle_net, vehicle_box):
        sys = VehicleSystem().open_loop()
        emb = ClosedLoopEmbedding(sys)
        emb.refresh_control(vehicle_box, reverify=True, net=vehicle_net,
                            interval_index=0)
        traj = emb.integrate(vehicle_box.lo, vehicle_box.hi, 0.01, 25)
        assert traj.shape == (26, 2, 4)
        assert np.all(traj[:, 1, :] - traj[:, 0, :] >= -1e-9)
        # lower half stays below upper half after the first step too
        assert np.all(traj[1, 0] <= traj[1, 1])

    def test_nan_state_raises_at_its_step(self):
        # f(x) = sqrt(x - 1) is NaN on [0.5, 0.6]: the first step must fail
        def ext(Xlo, Xhi, Ulo, Uhi, Wlo, Whi):
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

    def test_refresh_control_inheritance_rules(self, di_net, di_box):
        from nncreach import crown_bounds
        sys = affine_system(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
        parent_incl = make_inclusion(crown_bounds(di_net, di_box))
        child = IntervalVector(di_box.lo, di_box.lo + 0.5 * di_box.width)
        emb = ClosedLoopEmbedding(sys)
        emb.refresh_control(child, reverify=False, inherited=parent_incl,
                            interval_index=3)
        assert emb.eta_lo.shape == (2, 1)
        assert emb.interval_index == 3

        outside = IntervalVector(di_box.lo - 1.0, di_box.hi)
        with pytest.raises(DomainError, match="not contained"):
            emb.refresh_control(outside, reverify=False, inherited=parent_incl)

    def test_refresh_without_any_inclusion_errors(self):
        emb = ClosedLoopEmbedding(scalar_leak())
        with pytest.raises(ValueError, match="inclusion"):
            emb.refresh_control(IntervalVector(np.zeros(1), np.ones(1)),
                                reverify=False)

    def test_field_before_refresh_errors(self):
        box = IntervalVector(np.array([7.0, 7.2, -2.4, 1.5]), np.array([7.4, 7.5, -2.1, 2.0]))
        for sys in (scalar_leak(), VehicleSystem().open_loop()):  # d-only and extension
            emb = ClosedLoopEmbedding(sys)
            lo, hi = box.lo[:sys.n], box.hi[:sys.n]
            with pytest.raises(RuntimeError, match="not initialized"):
                emb.field(lo, hi)
            with pytest.raises(RuntimeError, match="not initialized"):
                emb.integrate(lo, hi, 0.01, 3)


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
        lo, hi = emb.step(box.lo, box.hi)
        assert np.allclose(lo, M @ box.lo, atol=1e-12)
        assert np.allclose(hi, M @ box.hi, atol=1e-12)

    def test_degenerate_state_with_exact_point_bounds(self):
        x = np.array([1.5, -0.7])
        box = IntervalVector(x, x)
        K = np.array([[-0.4, -1.1]])
        emb = DiscreteLTIEmbedding(self.A, self.B)
        emb.refresh_control(box, reverify=False,
                            inherited=exact_linear_inclusion(K, box))
        lo, hi = emb.step(x, x)
        want = self.A @ x + self.B @ (K @ x)
        assert np.allclose(lo, want, atol=1e-12)
        assert np.allclose(hi, want, atol=1e-12)

    def test_zero_controller_benchmark_step(self, di_box):
        emb = DiscreteLTIEmbedding(self.A, self.B)
        net = zero_network(2, 1)
        emb.refresh_control(di_box, reverify=True, net=net)
        lo, hi = emb.step(di_box.lo, di_box.hi)
        assert np.allclose(lo, [2.25, -0.25])
        assert np.allclose(hi, [3.25, 0.25])

    def test_step_before_refresh_errors(self):
        emb = DiscreteLTIEmbedding(self.A, self.B)
        with pytest.raises(RuntimeError, match="not initialized"):
            emb.step(np.zeros(2), np.ones(2))
        with pytest.raises(RuntimeError, match="not initialized"):
            emb.integrate(np.zeros(2), np.ones(2), 1.0, 2)

    def test_unordered_state_rejected(self):
        emb = DiscreteLTIEmbedding(self.A, self.B)
        box = IntervalVector(np.zeros(2), np.ones(2))
        emb.refresh_control(box, reverify=False,
                            inherited=exact_linear_inclusion(np.array([[0.0, 0.0]]), box))
        with pytest.raises(EmbeddingOrderError):
            emb.step(np.array([1.0, 1.0]), np.array([0.0, 0.0]))


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
