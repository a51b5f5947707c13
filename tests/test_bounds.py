import numpy as np
import pytest

from nncreach import (
    DomainError,
    IntervalVector,
    LinearBounds,
    MLPNetwork,
    crown_bounds,
    ibp_bounds,
    make_inclusion,
)
from nncreach.embedding import _face_rows

from conftest import random_box, random_relu_network


def scalar_relu_net():
    """N(x) = relu(x)."""
    return MLPNetwork([
        (np.array([[1.0]]), np.array([0.0]), "relu"),
        (np.array([[1.0]]), np.array([0.0]), "identity"),
    ])


class TestIBP:
    def test_single_affine_layer_exact(self):
        net = MLPNetwork([(np.array([[2.0]]), np.array([1.0]), "identity")])
        out = ibp_bounds(net, IntervalVector(np.array([0.0]), np.array([1.0])))
        assert np.allclose(out.as_array(), [[1.0], [3.0]])

    def test_dead_relu(self):
        out = ibp_bounds(scalar_relu_net(),
                         IntervalVector(np.array([-2.0]), np.array([-1.0])))
        assert np.allclose(out.as_array(), [[0.0], [0.0]])

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(42)
        net = random_relu_network(rng, n_in=2, n_out=1, depth=2, width_cap=4)
        box = random_box(rng, 2)
        out = ibp_bounds(net, box)
        xs = rng.uniform(box.lo, box.hi, size=(10000, 2))
        vals = net(xs)
        assert np.all(vals >= out.lo - 1e-9) and np.all(vals <= out.hi + 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            ibp_bounds(scalar_relu_net(), IntervalVector(np.zeros(2), np.ones(2)))

    def test_tanh_supported(self):
        net = MLPNetwork([
            (np.array([[1.0]]), np.array([0.0]), "tanh"),
            (np.array([[2.0]]), np.array([0.0]), "identity"),
        ])
        out = ibp_bounds(net, IntervalVector(np.array([-1.0]), np.array([1.0])))
        assert out.lo[0] == pytest.approx(-2 * np.tanh(1.0))
        assert out.hi[0] == pytest.approx(2 * np.tanh(1.0))


    def test_split_layer_weights_keep_the_bits(self):
        # the per-call split of each layer's weights and the per-activation
        # interval formulas, kept as the oracle
        ends = {
            "relu": lambda lo, hi: (np.maximum(lo, 0.0), np.maximum(hi, 0.0)),
            "tanh": lambda lo, hi: (np.tanh(lo), np.tanh(hi)),
            "identity": lambda lo, hi: (lo, hi),
        }
        rng = np.random.default_rng(23)
        nets = [random_relu_network(rng) for _ in range(30)]
        for _ in range(10):  # a tanh hidden layer, so every activation is pinned
            relu = random_relu_network(rng, depth=3)
            nets.append(MLPNetwork([(l.weights, l.bias, "tanh" if k == 0 else l.activation)
                                    for k, l in enumerate(relu.layers)]))
        for net in nets:
            box = random_box(rng, net.input_dim)
            lo, hi = box.lo, box.hi
            for layer in net.layers:
                Wp, Wn = np.maximum(layer.weights, 0.0), np.minimum(layer.weights, 0.0)
                zlo, zhi = Wp @ lo + Wn @ hi + layer.bias, Wp @ hi + Wn @ lo + layer.bias
                lo, hi = ends[layer.activation](zlo, zhi)
            got = ibp_bounds(net, box)
            assert got.lo.tobytes() == lo.tobytes() and got.hi.tobytes() == hi.tobytes()


class TestCrown:
    def test_affine_network_exact(self):
        W = np.array([[2.0, -1.0]])
        b = np.array([0.5])
        net = MLPNetwork([(W, b, "identity")])
        lb = crown_bounds(net, IntervalVector(np.zeros(2), np.ones(2)))
        assert np.allclose(lb.C_lo, W) and np.allclose(lb.C_hi, W)
        assert np.allclose(lb.d_lo, b) and np.allclose(lb.d_hi, b)

    def test_triangle_relaxation_on_symmetric_box(self):
        lb = crown_bounds(scalar_relu_net(),
                          IntervalVector(np.array([-1.0]), np.array([1.0])))
        # upper envelope 0.5 x + 0.5; lower envelope x (slope tie goes to 1)
        assert lb.C_hi[0, 0] == pytest.approx(0.5)
        assert lb.d_hi[0] == pytest.approx(0.5)
        assert lb.C_lo[0, 0] == pytest.approx(1.0)
        assert lb.d_lo[0] == pytest.approx(0.0)

    def test_stable_neuron_is_exact(self):
        lb = crown_bounds(scalar_relu_net(),
                          IntervalVector(np.array([1.0]), np.array([2.0])))
        assert lb.C_lo[0, 0] == 1.0 and lb.C_hi[0, 0] == 1.0
        assert lb.d_lo[0] == 0.0 and lb.d_hi[0] == 0.0

    def test_inactive_neuron_is_zero(self):
        lb = crown_bounds(scalar_relu_net(),
                          IntervalVector(np.array([-2.0]), np.array([-1.0])))
        assert lb.C_lo[0, 0] == 0.0 and lb.C_hi[0, 0] == 0.0

    def test_lower_slope_rule(self):
        # pre-activation range [-2, 1]: u < |l| selects slope 0
        net = MLPNetwork([
            (np.array([[1.0]]), np.array([-0.5]), "relu"),
            (np.array([[1.0]]), np.array([0.0]), "identity"),
        ])
        lb = crown_bounds(net, IntervalVector(np.array([-1.5]), np.array([1.5])))
        assert lb.C_lo[0, 0] == 0.0

    def test_tanh_unsupported(self):
        net = MLPNetwork([
            (np.array([[1.0]]), np.array([0.0]), "tanh"),
            (np.array([[1.0]]), np.array([0.0]), "identity"),
        ])
        with pytest.raises(ValueError, match="activation"):
            crown_bounds(net, IntervalVector(np.array([0.0]), np.array([1.0])))

    def test_envelope_soundness_sampled(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            net = random_relu_network(rng)
            box = random_box(rng, net.input_dim)
            lb = crown_bounds(net, box)
            xs = rng.uniform(box.lo, box.hi, size=(2000, box.n))
            vals = net(xs)
            lo_env = xs @ lb.C_lo.T + lb.d_lo
            hi_env = xs @ lb.C_hi.T + lb.d_hi
            assert np.all(lo_env <= vals + 1e-9)
            assert np.all(vals <= hi_env + 1e-9)

    def test_affine_exactness_tight(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n, p = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            W = rng.normal(size=(p, n))
            b = rng.normal(size=p)
            net = MLPNetwork([(W, b, "identity")])
            box = random_box(rng, n)
            lb = crown_bounds(net, box)
            xs = rng.uniform(box.lo, box.hi, size=(100, n))
            vals = net(xs)
            assert np.max(np.abs(xs @ lb.C_lo.T + lb.d_lo - vals)) < 1e-12
            assert np.max(np.abs(xs @ lb.C_hi.T + lb.d_hi - vals)) < 1e-12


class TestInclusionFunction:
    def test_positive_coefficients_select_endpoints(self):
        C = np.array([[1.0, 2.0]])
        lb = LinearBounds(C_lo=C, d_lo=np.array([-0.5]), C_hi=C, d_hi=np.array([0.5]),
                          domain=IntervalVector(np.zeros(2), np.ones(2)))
        incl = make_inclusion(lb)
        lo, hi = incl(np.array([0.1, 0.2]), np.array([0.3, 0.4]))
        assert lo[0] == pytest.approx(1.0 * 0.1 + 2.0 * 0.2 - 0.5)
        assert hi[0] == pytest.approx(1.0 * 0.3 + 2.0 * 0.4 + 0.5)

    def test_degenerate_pair_contains_value(self):
        rng = np.random.default_rng(5)
        net = random_relu_network(rng, n_in=2, n_out=2, depth=2)
        box = random_box(rng, 2)
        incl = make_inclusion(crown_bounds(net, box))
        z = box.center
        lo, hi = incl(z, z)
        val = net(z)
        assert np.all(lo <= val + 1e-9) and np.all(val <= hi + 1e-9)

    def test_reversed_pair_spans_same_box(self):
        rng = np.random.default_rng(6)
        net = random_relu_network(rng, n_in=2, n_out=1, depth=2)
        box = random_box(rng, 2)
        incl = make_inclusion(crown_bounds(net, box))
        a = box.lo + 0.25 * box.width
        b = box.lo + 0.75 * box.width
        fwd = incl(a, b)
        rev = incl(b, a)
        assert np.allclose(fwd[0], rev[0]) and np.allclose(fwd[1], rev[1])
        assert np.all(rev[0] <= rev[1])

    def test_monte_carlo_inclusion_on_benchmark(self, di_net, di_box):
        incl = make_inclusion(crown_bounds(di_net, di_box))
        rng = np.random.default_rng(99)
        xs = rng.uniform(di_box.lo, di_box.hi, size=(10000, 2))
        vals = di_net(xs)
        lo, hi = incl(di_box.lo, di_box.hi)
        assert np.all(vals >= lo - 1e-9) and np.all(vals <= hi + 1e-9)

    def test_domain_violation_raises(self):
        rng = np.random.default_rng(8)
        net = random_relu_network(rng, n_in=2, n_out=1, depth=1)
        box = IntervalVector(np.zeros(2), np.ones(2))
        incl = make_inclusion(crown_bounds(net, box))
        with pytest.raises(DomainError, match="not contained"):
            incl(np.array([-0.5, 0.0]), np.array([0.5, 0.5]))

    def test_check_domain_spans_reversed_pairs(self):
        """``check_domain`` accepts a pair iff the box it spans lies in the
        domain widened by ``_DOMAIN_SLACK``, whatever the order of its ends."""
        from nncreach.bounds import _DOMAIN_SLACK
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            box = random_box(rng, n)
            incl = make_inclusion(crown_bounds(random_relu_network(rng, n_in=n), box))
            edge_lo, edge_hi = box.lo - _DOMAIN_SLACK, box.hi + _DOMAIN_SLACK
            # ends on, just outside or well inside the widened domain's edges
            picks = [edge_lo, np.nextafter(edge_lo, -np.inf), edge_hi,
                     np.nextafter(edge_hi, np.inf), box.lo + 0.5 * box.width]
            a, b = (np.choose(rng.integers(0, len(picks), size=n), picks) for _ in "ab")
            inside = (np.minimum(a, b) >= edge_lo).all() and (np.maximum(a, b) <= edge_hi).all()
            for lo, hi in ((a, b), (b, a)):
                if inside:
                    incl.check_domain(lo, hi)
                else:
                    with pytest.raises(DomainError, match="not contained"):
                        incl.check_domain(lo, hi)

    def test_shrinking_mostly_tighter_on_subboxes(self):
        """Re-relaxing on the sub-box is rarely worse than inheriting."""
        rng = np.random.default_rng(31)
        wins = 0
        total = 0
        for _ in range(60):
            net = random_relu_network(rng, n_in=2, n_out=1, depth=2)
            outer = random_box(rng, 2)
            frac = rng.uniform(0.2, 0.6)
            start = rng.uniform(0.0, 1.0 - frac, size=2)
            lo = outer.lo + start * outer.width
            inner = IntervalVector(lo, lo + frac * outer.width)
            inherited = make_inclusion(crown_bounds(net, outer))
            local = make_inclusion(crown_bounds(net, inner))
            lo_i, hi_i = inherited(inner.lo, inner.hi)
            lo_l, hi_l = local(inner.lo, inner.hi)
            total += 1
            if np.max(hi_l - lo_l) <= np.max(hi_i - lo_i) + 1e-12:
                wins += 1
        assert wins / total >= 0.95

    @staticmethod
    def assert_stacked_blocks_match(incl, lo, hi):
        """One call over the ``(L, n)`` boxes' stacked face blocks equals the L calls."""
        L, n = lo.shape
        Xlo, Xhi = _face_rows(lo[:, None, :], hi[:, None, :], lo, hi)  # (L, 2n, n)
        stack_lo, stack_hi = incl(Xlo.reshape(-1, n), Xhi.reshape(-1, n))
        blocks = [incl(Xlo[k], Xhi[k]) for k in range(L)]
        assert stack_lo.tobytes() == np.concatenate([b[0] for b in blocks]).tobytes()
        assert stack_hi.tobytes() == np.concatenate([b[1] for b in blocks]).tobytes()

    def test_stacked_face_blocks_match_per_block_calls(self):
        """Face caches of several boxes can be one call: bits hold per ``2n``-row block.

        A lone row need not keep its bits inside a stack, so single rows are
        not compared.
        """
        rng = np.random.default_rng(21)
        for _ in range(300):
            n, p = int(rng.integers(1, 9)), int(rng.integers(1, 5))
            net = random_relu_network(rng, n_in=n, n_out=p, depth=int(rng.integers(1, 4)))
            box = random_box(rng, n)
            incl = make_inclusion(crown_bounds(net, box))
            L = int(rng.integers(1, 40))
            u, v = (rng.uniform(size=(2, L, n)) * box.width)
            self.assert_stacked_blocks_match(incl, box.lo + np.minimum(u, v),
                                             box.lo + np.maximum(u, v))

    def test_stacked_face_blocks_match_on_vehicle_relaxation(self, vehicle_net, vehicle_box):
        rng = np.random.default_rng(22)
        incl = make_inclusion(crown_bounds(vehicle_net, vehicle_box))
        u, v = rng.uniform(size=(2, 64, 4)) * vehicle_box.width
        self.assert_stacked_blocks_match(incl, vehicle_box.lo + np.minimum(u, v),
                                         vehicle_box.lo + np.maximum(u, v))

    def test_state_lipschitz_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        net = random_relu_network(rng, n_in=3, n_out=2, depth=2)
        box = random_box(rng, 3)
        incl = make_inclusion(crown_bounds(net, box))
        n = 3
        s0 = np.concatenate([box.lo + 0.3 * box.width, box.lo + 0.7 * box.width])

        def pair_map(s):
            lo, hi = incl(s[:n], s[n:], check=False)
            return np.concatenate([lo, hi])

        h = 1e-7
        J = np.empty((4, 6))
        for k in range(6):
            sp, sm = s0.copy(), s0.copy()
            sp[k] += h
            sm[k] -= h
            J[:, k] = (pair_map(sp) - pair_map(sm)) / (2 * h)
        fd_norm = np.abs(J).sum(axis=1).max()
        assert incl.state_lipschitz_inf() == pytest.approx(fd_norm, abs=1e-5)
