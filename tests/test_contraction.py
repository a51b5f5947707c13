import math

import numpy as np
import pytest

from nncreach import (
    ClosedLoopEmbedding,
    ContractionEstimate,
    DiscreteLTIEmbedding,
    DomainError,
    IntervalVector,
    LinearBounds,
    affine_system,
    crown_bounds,
    estimate_contraction,
    make_inclusion,
    error_bound,
    composite_rate_bound,
)
from nncreach.contraction import _growth_factor, fd_jacobian, halton

from conftest import random_box, random_relu_network, zero_network


def constant_inclusion(n, p, domain, value=0.0, halfband=0.0):
    lb = LinearBounds(
        C_lo=np.zeros((p, n)), d_lo=np.full(p, value - halfband),
        C_hi=np.zeros((p, n)), d_hi=np.full(p, value + halfband),
        domain=domain,
    )
    return make_inclusion(lb)


def embedding_for(sys, incl):
    emb = ClosedLoopEmbedding(sys)
    emb.refresh_control(incl.domain, reverify=False, inherited=incl,
                        interval_index=0)
    return emb


class TestEstimateCx:
    def test_scalar_leak_with_constant_controller(self):
        sys = affine_system(np.array([[-1.0]]), np.array([[1.0]]))
        domain = IntervalVector(np.array([-2.0]), np.array([2.0]))
        emb = embedding_for(sys, constant_inclusion(1, 1, domain))
        assert estimate_contraction(emb, [domain]).c_x == pytest.approx(-1.0, abs=1e-5)

    def test_linear_metzler_rearrangement(self):
        A = np.array([[-2.0, 1.0], [0.0, -3.0]])
        sys = affine_system(A, np.zeros((2, 1)))
        domain = IntervalVector(-np.ones(2), np.ones(2))
        emb = embedding_for(sys, constant_inclusion(2, 1, domain))
        assert estimate_contraction(emb, [domain]).c_x == pytest.approx(-1.0, abs=1e-5)

    def test_pure_integrator(self):
        sys = affine_system(np.zeros((1, 1)), np.array([[1.0]]))
        domain = IntervalVector(np.array([-1.0]), np.array([1.0]))
        emb = embedding_for(sys, constant_inclusion(1, 1, domain))
        assert estimate_contraction(emb, [domain]).c_x == pytest.approx(0.0, abs=1e-5)

    def test_discrete_step_map(self, di_box):
        emb = DiscreteLTIEmbedding(np.array([[1.0, 1.0], [0.0, 1.0]]),
                                   np.array([[0.5], [1.0]]))
        emb.refresh_control(di_box,
                            inherited=make_inclusion(crown_bounds(zero_network(2, 1), di_box)))
        # zero controller: the step Jacobian is blkdiag(A, A), row sum 2
        assert estimate_contraction(emb, [di_box]).c_x == pytest.approx(2.0, abs=1e-5)

    def test_region_outside_domain_rejected(self):
        sys = affine_system(np.array([[-1.0]]), np.array([[1.0]]))
        domain = IntervalVector(np.array([-1.0]), np.array([1.0]))
        emb = embedding_for(sys, constant_inclusion(1, 1, domain))
        outside = IntervalVector(np.array([0.0]), np.array([2.0]))
        with pytest.raises(ValueError, match="domain"):
            estimate_contraction(emb, [outside])
        # the relaxation's own domain rule: no slack beyond its 1e-12
        barely = IntervalVector(np.array([0.0]), np.array([1.0 + 1e-10]))
        with pytest.raises(DomainError):
            estimate_contraction(emb, [barely])

    def test_seven_states_take_the_halton_branch(self):
        # 2n = 14 Halton axes of pair fractions
        A = -2.0 * np.eye(7) + np.eye(7, k=1)
        sys = affine_system(A, np.ones((7, 1)))
        domain = IntervalVector(-np.ones(7), np.ones(7))
        est = estimate_contraction(embedding_for(sys, constant_inclusion(7, 1, domain)),
                                   [domain])
        assert est.sample_count > 0
        assert est.c_x == pytest.approx(-1.0, abs=1e-5)

    def test_empty_sample_set_rejected(self):
        sys = affine_system(-np.eye(3), np.ones((3, 1)))  # 3 states: the Halton branch
        domain = IntervalVector(-np.ones(3), np.ones(3))
        emb = embedding_for(sys, constant_inclusion(3, 1, domain))
        with pytest.raises(ValueError, match="at least 1"):
            estimate_contraction(emb, [domain], samples_per_box=0)

    def test_monotone_in_region(self):
        rng = np.random.default_rng(3)
        net = random_relu_network(rng, n_in=2, n_out=1, depth=2)
        sys = affine_system(rng.normal(size=(2, 2)), rng.normal(size=(2, 1)))
        domain = IntervalVector(np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
        emb = embedding_for(sys, make_inclusion(crown_bounds(net, domain)))
        small = IntervalVector(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        c_small = estimate_contraction(emb, [small]).c_x
        c_large = estimate_contraction(emb, [small, domain]).c_x
        assert c_large >= c_small - 1e-12


class TestEstimateLipschitz:
    def test_unit_input_gain(self):
        sys = affine_system(np.array([[-1.0]]), np.array([[1.0]]))
        domain = IntervalVector(np.array([-2.0]), np.array([2.0]))
        emb = embedding_for(sys, constant_inclusion(1, 1, domain))
        est = estimate_contraction(emb, [domain])
        assert est.l_u == pytest.approx(1.0, abs=1e-5)
        assert est.l_w == 0.0
        assert est.lip_inf == 0.0

    def test_disturbance_gain(self):
        sys = affine_system(np.array([[-1.0]]), np.array([[1.0]]),
                            np.array([[0.5]]))
        domain = IntervalVector(np.array([-2.0]), np.array([2.0]))
        emb = ClosedLoopEmbedding(sys, w_box=(np.array([-0.1]), np.array([0.1])))
        emb.refresh_control(domain, reverify=False,
                            inherited=constant_inclusion(1, 1, domain),
                            interval_index=0)
        est = estimate_contraction(emb, [domain])
        assert est.l_u == pytest.approx(1.0, abs=1e-5)
        assert est.l_w == pytest.approx(0.5, abs=1e-5)


class TestErrorBounds:
    def test_composite_arithmetic(self):
        assert composite_rate_bound(-1.0, 1.0, 0.5) == -0.5
        assert composite_rate_bound(-1.0, 1.0, 0.0) == -1.0

    def test_zero_errors_give_zero_bound(self):
        est = (-1.0, 1.0, 0.0)
        for t in (0.0, 1.0, 10.0):
            assert error_bound(est, t, 0.0, 0.0, 0.0) == 0.0

    def test_large_time_limit(self):
        val = error_bound((-1.0, 1.0, 0.0), 50.0, 0.0, 0.2)
        assert val == pytest.approx(0.2, abs=1e-9)

    def test_zero_rate_limit(self):
        assert error_bound((0.0, 2.0, 0.0), 3.0, 0.0, 0.1) == pytest.approx(0.6)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_growth_factor_is_continuous_through_zero_rate(self, sign):
        """``(e^{ct} - 1) / c`` tends to ``t`` without cancelling for tiny ``|c|``."""
        for c in (1e-12, 1e-14, 1e-17, 1e-100, 1e-300):
            for t in (0.3, 1.0, 7.5):
                want = t * (1.0 + sign * c * t / 2.0)  # the series, exact to rounding here
                assert _growth_factor(sign * c, t) == pytest.approx(want, rel=1e-14)

    def test_tiny_rate_keeps_the_network_and_disturbance_terms(self):
        assert error_bound((1e-17, 1.0, 0.0), 1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert error_bound((-1e-17, 0.0, 2.0), 1.0, 0.0, 0.0, 0.5) == \
            pytest.approx(1.0, rel=1e-14)

    def test_accepts_estimate_object(self):
        est = ContractionEstimate(c_x=-1.0, c_x_open=-1.0, l_u=1.0, l_w=0.0,
                                  lip_inf=0.0)
        assert error_bound(est, 1.0, 1.0, 0.0) == pytest.approx(math.exp(-1.0))

    def test_scalar_toy_bound_dominates_euler_run(self):
        """Embedding error stays below the analytic curve with c = -1, l_u = 1."""
        sys = affine_system(np.array([[-1.0]]), np.array([[1.0]]))
        domain = IntervalVector(np.array([-2.0]), np.array([2.0]))
        incl = constant_inclusion(1, 1, domain, value=0.0, halfband=0.1)
        emb = embedding_for(sys, incl)
        dt = 0.01
        traj = emb.integrate(np.array([-1.0]), np.array([1.0]), dt, 500)
        for t in (0.5, 1.0, 2.0, 5.0):
            k = int(round(t / dt))
            empirical = max(abs(traj[k, 0, 0]), abs(traj[k, 1, 0]))
            bound = error_bound((-1.0, 1.0, 0.0), t, 1.0, 0.1)
            assert empirical <= bound + 1e-9


class TestCompositeDominance:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_affine_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3))
        sys = affine_system(rng.normal(size=(n, n)), rng.normal(size=(n, 1)))
        net = random_relu_network(rng, n_in=n, n_out=1, depth=2, width_cap=8)
        domain = random_box(rng, n, scale=1.5)
        emb = embedding_for(sys, make_inclusion(crown_bounds(net, domain)))
        est = estimate_contraction(emb, [domain])
        assert est.c_x <= est.composite_bound + 1e-6

    def test_estimate_fields_populated(self):
        sys = affine_system(np.array([[-1.0]]), np.array([[1.0]]))
        domain = IntervalVector(np.array([-1.0]), np.array([1.0]))
        emb = embedding_for(sys, constant_inclusion(1, 1, domain))
        est = estimate_contraction(emb, [domain])
        assert est.sample_count > 0


class TestNumericHelpers:
    def test_fd_jacobian_on_quadratic(self):
        def f(x, idx):
            return np.stack([x[:, 0] ** 2 + x[:, 1], 3.0 * x[:, 1]], axis=1)

        J = fd_jacobian(f, np.array([[2.0, -1.0]]))[0]
        assert np.allclose(J, [[4.0, 1.0], [0.0, 3.0]], atol=1e-5)

    @pytest.mark.parametrize("m, d", [(1, 1), (1, 4), (7, 3), (12, 6)])
    def test_fd_jacobian_matches_per_point_loop(self, m, d):
        """The stacked differences equal a loop over points, one axis at a time."""
        rng = np.random.default_rng(m * 10 + d)
        X = rng.normal(size=(m, d)) * rng.choice([1e-3, 0.5, 1.0, 3.0, 1e4], size=(m, d))
        scale = rng.normal(size=(m, 2))  # per-sample data that fun looks up by idx

        def fun(rows, idx):
            return np.stack([np.sin(rows[:, 0]) * scale[idx, 0] + rows[:, -1] ** 2,
                             rows.sum(axis=1) * scale[idx, 1],
                             np.exp(0.1 * rows[:, 0] * rows[:, -1])], axis=1)

        def per_point(i):
            x = X[i].copy()
            J = np.empty((3, d))
            for k in range(d):
                h = 1e-6 * max(1.0, abs(x[k]))
                xp = x.copy()
                xm = x.copy()
                xp[k] += h
                xm[k] -= h
                J[:, k] = (fun(xp[None], [i])[0] - fun(xm[None], [i])[0]) / (2.0 * h)
            return J

        J = fd_jacobian(fun, X)
        assert J.shape == (m, 3, d)
        assert J.tobytes() == np.array([per_point(i) for i in range(m)]).tobytes()

    @pytest.mark.parametrize("count", [1, 32, 128])
    @pytest.mark.parametrize("skip", [20])  # the leading points halton leaves out
    def test_halton_matches_digit_loop(self, count, skip):
        """Digit positions taken for all points at once give the per-point loop's bits."""
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
        for dims in range(1, 13):
            want = np.empty((count, dims))
            for d in range(dims):
                base = primes[d]
                for i in range(count):
                    k = i + skip + 1
                    f = 1.0
                    r = 0.0
                    while k > 0:
                        f /= base
                        r += f * (k % base)
                        k //= base
                    want[i, d] = r
            assert halton(count, dims).tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [1, 32, 128])
    def test_halton_past_twelve_dimensions(self, count):
        """More axes append ones in the next primes; the first twelve keep their bits."""
        wide = halton(count, 14)
        assert wide[:, :12].tobytes() == halton(count, 12).tobytes()
        assert wide[0, 12:] == pytest.approx([21 / 41, 21 / 43])  # point 0 is index 21
        assert np.all((wide >= 0) & (wide < 1))

    def test_halton_spread(self):
        pts = halton(128, 3)
        assert pts.shape == (128, 3)
        assert np.all((pts >= 0) & (pts < 1))
        # low-discrepancy: each octant gets points
        for d in range(3):
            assert (pts[:, d] < 0.5).sum() > 40
