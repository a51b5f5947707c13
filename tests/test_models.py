import dataclasses
import math
import re

import numpy as np
import pytest

from nncreach import (
    AlgorithmParams,
    ContainmentReport,
    ContinuousClosedLoopModel,
    DiscreteLTIEmbedding,
    DiscreteLTIModel,
    DoubleIntegratorSystem,
    IntervalVector,
    ReachTube,
    ToleranceVector,
    VehicleSystem,
    affine_system,
    compute_reachable_set,
    config,
    containment_check,
    contraction,
    get_system,
    hull_volume,
    register_system,
    sample_trajectories,
    union_area_raster,
)
from nncreach import montecarlo
from nncreach.intervals import interval_mul
from nncreach.partition import StepStats

from conftest import CONFIGS, zero_network


def _columnwise_cos_range(lo, hi):
    """Exact cos range of each ``[lo, hi]``, written as the plain formula."""
    clo, chi = np.cos(lo), np.cos(hi)
    two_pi = 2 * math.pi
    has_max = np.floor(hi / two_pi) >= np.ceil(lo / two_pi)
    has_min = np.floor((hi - math.pi) / two_pi) >= np.ceil((lo - math.pi) / two_pi)
    return (np.where(has_min, -1.0, np.minimum(clo, chi)),
            np.where(has_max, 1.0, np.maximum(clo, chi)))


def _columnwise_extension(veh, Xlo, Xhi, Ulo, Uhi):
    """The vehicle enclosure one output column at a time (reference)."""
    u1lo = np.clip(Ulo[:, 0], -veh.u1_max, veh.u1_max)
    u1hi = np.clip(Uhi[:, 0], -veh.u1_max, veh.u1_max)
    u2lo = np.clip(Ulo[:, 1], -veh.u2_max, veh.u2_max)
    u2hi = np.clip(Uhi[:, 1], -veh.u2_max, veh.u2_max)
    k = veh.l_f / (veh.l_f + veh.l_r)
    blo = np.arctan(k * np.tan(u2lo))
    bhi = np.arctan(k * np.tan(u2hi))
    tlo = Xlo[:, 2] + blo
    thi = Xhi[:, 2] + bhi
    clo, chi = _columnwise_cos_range(tlo, thi)
    slo, shi = _columnwise_cos_range(tlo - 0.5 * math.pi, thi - 0.5 * math.pi)
    vlo, vhi = Xlo[:, 3], Xhi[:, 3]
    flo = np.empty_like(Xlo)
    fhi = np.empty_like(Xhi)
    flo[:, 0], fhi[:, 0] = interval_mul(vlo, vhi, clo, chi)
    flo[:, 1], fhi[:, 1] = interval_mul(vlo, vhi, slo, shi)
    flo[:, 2], fhi[:, 2] = interval_mul(vlo / veh.l_r, vhi / veh.l_r,
                                        np.sin(blo), np.sin(bhi))
    flo[:, 3] = u1lo
    fhi[:, 3] = u1hi
    return flo, fhi


class TestVehicleSystem:
    def test_field_at_benchmark_start(self):
        veh = VehicleSystem()
        x = np.array([8.0, 8.0, -2 * math.pi / 3, 2.0])
        f = veh.f(x, np.zeros(2))
        assert f[0] == pytest.approx(2 * math.cos(-2 * math.pi / 3))  # -1
        assert f[1] == pytest.approx(2 * math.sin(-2 * math.pi / 3))  # -1.732...
        assert f[2] == 0.0 and f[3] == 0.0

    def test_slip_angle_odd_and_increasing(self):
        veh = VehicleSystem()
        u = np.linspace(-0.7, 0.7, 101)
        b = veh.beta(u)
        assert np.allclose(b, -veh.beta(-u))
        assert np.all(np.diff(b) > 0)

    def test_wheel_angle_saturates(self):
        veh = VehicleSystem(u2_max=0.5)
        assert veh.beta(2.0) == pytest.approx(veh.beta(0.5))
        # the extension handles arbitrarily wide wheel-angle intervals
        inputs = veh.prepare(np.array([[0.0, -50.0]]), np.array([[0.0, 50.0]]),
                             np.zeros((1, 0)), np.zeros((1, 0)))
        flo, fhi = veh.extension(
            np.array([[0.0, 0.0, 0.0, 1.0]]), np.array([[0.0, 0.0, 0.0, 1.0]]), inputs)
        assert np.isfinite(flo).all() and np.isfinite(fhi).all()

    def test_extension_soundness_sampled(self):
        veh = VehicleSystem()
        rng = np.random.default_rng(21)
        for _ in range(30):
            xlo = np.array([rng.uniform(3, 9), rng.uniform(3, 9),
                            rng.uniform(-3, 0), rng.uniform(0.5, 3.5)])
            xhi = xlo + rng.uniform(0, 0.5, 4)
            ulo = np.array([rng.uniform(-4, 3), rng.uniform(-0.6, 0.4)])
            uhi = ulo + rng.uniform(0, 0.5, 2)
            inputs = veh.prepare(ulo[None], uhi[None], np.zeros((1, 0)), np.zeros((1, 0)))
            flo, fhi = veh.extension(xlo[None], xhi[None], inputs)
            xs = rng.uniform(xlo, xhi, size=(500, 4))
            us = rng.uniform(ulo, uhi, size=(500, 2))
            vals = veh.f(xs, us)
            assert np.all(vals >= flo[0] - 1e-9)
            assert np.all(vals <= fhi[0] + 1e-9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            VehicleSystem(l_f=0.0)
        with pytest.raises(ValueError):
            VehicleSystem(u2_max=2.0)
        for name in ("l_f", "l_r", "u1_max"):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError):
                    VehicleSystem(**{name: bad})

    # 8 rows per Euler step of one leaf; 128 and 2,048 rows as stacked faces
    @pytest.mark.parametrize("m", [1, 8, 64, 128, 2048])
    @pytest.mark.parametrize("params", [{}, {"l_f": 1.5, "l_r": 0.7, "u1_max": 3.0,
                                             "u2_max": 0.5}])
    def test_extension_bitwise_equals_columnwise_formula(self, m, params):
        """``extension(Xlo, Xhi, prepare(Ulo, Uhi, Wlo, Whi))`` has the reference's bits."""
        veh = VehicleSystem(**params)
        rng = np.random.default_rng(m)
        # heading boxes start at or near multiples of pi/2; widths from
        # degenerate to wider than 2 pi
        phi_lo = (rng.integers(-8, 9, m) * (math.pi / 2)
                  + rng.choice([0.0, 0.0, -1e-3, 1e-3, 0.3], m))
        phi_w = rng.choice([0.0, 1e-9, 0.05, 1.6, 3.2, 7.0], m)
        v_lo = np.where(rng.random(m) < 0.5, rng.choice([-1.0, -0.0, 0.0], m),
                        rng.uniform(-3, 3, m))
        v_w = rng.choice([0.0, 0.0, rng.uniform(0, 3)], m)
        xlo = np.column_stack([rng.uniform(-9, 9, m), rng.uniform(-9, 9, m),
                               phi_lo, v_lo])
        xhi = xlo + np.column_stack([rng.uniform(0, 1, m), np.zeros(m), phi_w, v_w])
        # inputs well beyond both limits, degenerate and signed-zero ends
        ulo = np.column_stack([rng.choice([-60.0, -25.0, -1.0, -0.0, 0.0, 2.0], m),
                               rng.choice([-2.0, -0.9, -0.3, -0.0, 0.0, 0.4], m)])
        uhi = ulo + np.column_stack([rng.choice([0.0, 0.5, 80.0], m),
                                     rng.choice([0.0, 0.2, 3.0], m)])
        w = np.zeros((m, 0))
        args = (xlo, xhi, ulo, uhi, w, w)
        before = [a.copy() for a in args]
        inputs = veh.prepare(ulo, uhi, w, w)
        prepared = [a.copy() for a in inputs]
        got = veh.extension(xlo, xhi, inputs)
        want = _columnwise_extension(veh, xlo, xhi, ulo, uhi)
        for g, r in zip(got, want):
            assert g.shape == (m, 4) and g.dtype == r.dtype
            assert g.tobytes() == r.tobytes()
        # arguments and prepared inputs are left untouched
        for a, b in zip([*args, *inputs], [*before, *prepared]):
            assert a.tobytes() == b.tobytes()

    def test_custom_axle_ratio_changes_slip(self):
        assert VehicleSystem(l_f=2.0, l_r=1.0).beta(0.3) > VehicleSystem().beta(0.3)


class TestRegistry:
    def test_builtin_names(self):
        assert isinstance(get_system("vehicle"), VehicleSystem)
        assert isinstance(get_system("double-integrator"), DoubleIntegratorSystem)

    def test_params_forwarded(self):
        veh = get_system("vehicle", l_f=1.5)
        assert veh.l_f == 1.5

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown system"):
            get_system("rocket")

    def test_custom_registration(self):
        register_system("test-dummy", lambda: DoubleIntegratorSystem())
        assert isinstance(get_system("test-dummy"), DoubleIntegratorSystem)


class TestDiscreteLTIModel:
    def test_matrix_shapes_are_checked_at_construction(self, di_net):
        di = DoubleIntegratorSystem()
        with pytest.raises(ValueError, match="A must be square"):
            DiscreteLTIModel(np.ones((2, 3)), di.B, di_net, 3)
        with pytest.raises(ValueError, match="B must be n x p"):
            DiscreteLTIModel(di.A, np.ones((3, 1)), di_net, 3)

    def test_disturbance_must_be_empty(self, di_net):
        di = DoubleIntegratorSystem()
        for empty in ((np.zeros(0), np.zeros(0)), IntervalVector(np.zeros(0), np.zeros(0))):
            DiscreteLTIModel(di.A, di.B, di_net, 3, w_box=empty)
        for pair in ((np.zeros(1), np.ones(1)), IntervalVector(np.zeros(2), np.ones(2))):
            with pytest.raises(ValueError, match="disturbance pair must have dimension 0"):
                DiscreteLTIModel(di.A, di.B, di_net, 3, w_box=pair)

    def test_later_writes_to_the_callers_arrays_reach_nothing(self, di_net, di_box):
        di = DoubleIntegratorSystem()
        A, B = di.A.copy(), di.B.copy()
        model = DiscreteLTIModel(A, B, di_net, horizon_steps=3)
        emb = DiscreteLTIEmbedding(A, B)
        A[0, 1] = -3.0  # after the map was built from them
        B[1, 0] = 7.0
        assert A.flags.writeable and B.flags.writeable
        pristine = DiscreteLTIModel(di.A, di.B, di_net, horizon_steps=3)
        x, xh = di_box.lo, di_box.hi
        u, uh = np.array([-0.5]), np.array([0.5])
        for got in (emb, model.make_embedding()):
            want = pristine.make_embedding()
            assert got.d(x, xh, u, uh).tobytes() == want.d(x, xh, u, uh).tobytes()
            for e in (got, want):
                e.refresh_control(di_box, reverify=True, net=di_net)
            assert got.integrate(x, xh, 1.0, 1).tobytes() == \
                want.integrate(x, xh, 1.0, 1).tobytes()
        points = np.array([x, xh, (x + xh) / 2])
        assert next(model.simulate_interval(points, None)).tobytes() == \
            next(pristine.simulate_interval(points, None)).tobytes()


@pytest.mark.parametrize("system, dims", [
    (DoubleIntegratorSystem(), (2, 2)), (DoubleIntegratorSystem(), (3, 1)),
    (VehicleSystem(), (4, 1)), (VehicleSystem(), (2, 2))])
def test_controller_size_is_checked_at_construction(system, dims):
    with pytest.raises(ValueError, match=f"network maps dimension {dims[0]} to {dims[1]}, "
                                         f"the plant needs {system.n} to {system.p}$"):
        system.build_model(zero_network(*dims), horizon=1, dt=1, control_period=1)


def test_affine_system_keeps_its_own_copies():
    """``f`` (what the audit samples) and ``d`` (what the reach uses) are one
    plant: later writes to the caller's arrays reach neither."""
    x, u, w = np.array([1.0, 2.0]), np.array([0.5]), np.array([0.75])
    A, B = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])
    plant = affine_system(A, B)
    A[0, 1] = -3.0
    assert plant.f(x, u).tolist() == plant.d(x, x, u, u, None, None).tolist() == [2.0, 0.5]

    arrays = [np.array([[-1.0, 1.0], [0.5, -2.0]]), np.array([[0.0], [1.0]]),
              np.array([[1.0], [-2.0]]), np.array([0.25, -0.5])]
    pristine = affine_system(*(a.copy() for a in arrays))
    plant = affine_system(*arrays)
    for a in arrays:
        a[0] = -3.0
        assert a.flags.writeable
    assert plant.f(x, u, w).tobytes() == pristine.f(x, u, w).tobytes()
    assert plant.d(x, x, u, u, w, w).tobytes() == pristine.d(x, x, u, u, w, w).tobytes()


class TestSampleTrajectories:
    def test_degenerate_box_single_deterministic(self, di_net):
        di = DoubleIntegratorSystem()
        model = DiscreteLTIModel(di.A, di.B, di_net, horizon_steps=3)
        x0 = np.array([2.75, 0.0])
        box = IntervalVector(x0, x0)
        _, t1 = sample_trajectories(model, box, 1, seed=0)
        _, t2 = sample_trajectories(model, box, 1, seed=99)
        assert np.array_equal(t1, t2)  # no randomness left

    def test_double_integrator_zero_controller_iterates(self):
        di = DoubleIntegratorSystem()
        model = DiscreteLTIModel(di.A, di.B, zero_network(2, 1), horizon_steps=2)
        box = IntervalVector(np.array([3.0, 0.25]), np.array([3.0, 0.25]))
        _, traj = sample_trajectories(model, box, 1, seed=1)
        assert np.allclose(traj[0, 1], [3.25, 0.25])
        assert np.allclose(traj[0, 2], [3.5, 0.25])

    def test_vehicle_euler_step_matches_field(self, vehicle_net, vehicle_box):
        sys = VehicleSystem().open_loop()
        model = ContinuousClosedLoopModel(sys, vehicle_net, horizon=0.25, dt=0.01,
                                          control_period=0.25)
        times, traj = sample_trajectories(model, vehicle_box, 3, seed=7)
        veh = VehicleSystem()
        x0 = traj[:, 0]
        u = vehicle_net(x0)
        manual = x0 + 0.01 * veh.f(x0, u)
        assert np.allclose(traj[:, 1], manual)

    def test_seed_reproducibility(self, di_net, di_box):
        di = DoubleIntegratorSystem()
        model = DiscreteLTIModel(di.A, di.B, di_net, horizon_steps=4)
        _, a = sample_trajectories(model, di_box, 20, seed=5)
        _, b = sample_trajectories(model, di_box, 20, seed=5)
        _, c = sample_trajectories(model, di_box, 20, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_disturbance_draws_piecewise_constant(self):
        from nncreach import affine_system
        sys = affine_system(np.zeros((1, 1)), np.zeros((1, 1)), np.array([[1.0]]))
        model = ContinuousClosedLoopModel(
            sys, zero_network(1, 1), horizon=1.0, dt=0.1, control_period=0.5,
            w_box=IntervalVector(np.array([-1.0]), np.array([1.0])))
        box = IntervalVector(np.zeros(1), np.zeros(1))
        _, traj = sample_trajectories(model, box, 5, seed=3)
        # xdot = w: increments within one control interval are identical
        inc = np.diff(traj[:, :, 0], axis=1)
        assert np.allclose(inc[:, 0], inc[:, 4])
        assert not np.allclose(inc[:, 0], inc[:, 5])


class TestContainment:
    def make_tube(self, di_net, di_box):
        di = DoubleIntegratorSystem()
        model = DiscreteLTIModel(di.A, di.B, di_net, horizon_steps=5)
        params = AlgorithmParams(eps=ToleranceVector(np.array([0.1, 0.1])),
                                 depth_max=3, nn_depth_max=1)
        return model, compute_reachable_set(di_box, params, model)

    def test_sampled_trajectories_contained(self, di_net, di_box):
        model, tube = self.make_tube(di_net, di_box)
        _, traj = sample_trajectories(model, di_box, 50, seed=11)
        report = containment_check(tube, traj)
        assert report.ok and report.violations == 0
        assert report.worst_deficit <= 1e-9

    def test_shifted_trajectory_violates_everywhere(self, di_net, di_box):
        model, tube = self.make_tube(di_net, di_box)
        _, traj = sample_trajectories(model, di_box, 1, seed=11)
        shifted = traj + np.array([10.0, 0.0])
        report = containment_check(tube, shifted)
        assert not report.ok
        assert report.violations == len(tube.times)
        assert report.first_violation == (0, 0)
        assert report.worst_deficit > 9.0

    def test_time_grid_mismatch(self, di_net, di_box):
        _, tube = self.make_tube(di_net, di_box)
        with pytest.raises(ValueError, match="time-grid"):
            containment_check(tube, np.zeros((1, 3, 2)))

    @pytest.mark.parametrize("n", [1, 3])
    def test_state_dimension_mismatch(self, di_net, di_box, n):
        _, tube = self.make_tube(di_net, di_box)
        with pytest.raises(ValueError, match="state-dimension mismatch"):
            containment_check(tube, np.zeros((1, len(tube.times), n)))

    def test_empty_step_rejected(self):
        tube = manual_tube([[[[0.0, 0.0], [1.0, 1.0]]], np.zeros((0, 2, 2))])
        with pytest.raises(ValueError, match="at least one box"):
            containment_check(tube, np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("bad_point", [[np.nan, 0.5], [0.5, np.inf], [-np.inf, np.nan]])
    def test_non_finite_point_is_violation(self, bad_point):
        tube = manual_tube([[[[0.0, 0.0], [1.0, 1.0]]]])
        report = containment_check(tube, np.array([[[0.5, 0.5]], [bad_point]]))
        assert not report.ok
        assert report.violations == 1
        assert report.first_violation == (0, 1)
        assert report.worst_deficit == np.inf

    def test_finite_points_keep_their_deficit_beside_a_nan_point(self):
        tube = manual_tube([[[[0.0, 0.0], [1.0, 1.0]]], [[[0.0, 0.0], [1.0, 1.0]]]])
        traj = np.array([[[0.5, 0.25], [0.5, 0.5]], [[0.5, 0.5], [np.nan, 0.5]]])
        report = containment_check(tube, traj)
        assert (report.violations, report.first_violation) == (1, (1, 1))
        assert report.worst_deficit == np.inf
        assert containment_check(tube, traj[:1]).worst_deficit == -0.25

    def test_per_coordinate_fold_matches_broadcast_formula(self):
        # Half-integer grids with signed zeros put many points exactly on box
        # faces, so deficits tie at +0.0 and -0.0 and the max/min order shows.
        rng = np.random.default_rng(12)

        def signed(a):
            return a * rng.choice([-1.0, 1.0], size=a.shape)

        zero_worst = 0
        for _ in range(300):
            n, K, count = (int(v) for v in rng.integers(1, [6, 4, 30]))
            stacks = []
            for _ in range(K):
                B = int(rng.integers(1, 41))
                lo = signed(rng.integers(0, 5, (B, n)) / 2.0)
                hi = lo + rng.integers(0, 3, (B, n)) / 2.0
                stacks.append(np.stack([lo, np.where(hi == 0, signed(hi), hi)], axis=1))
            traj = signed(rng.integers(0, 6, (count, K, n)) / 2.0)
            for k, stack in enumerate(stacks):
                picked = stack[rng.integers(0, len(stack), count)]
                on_face = picked[np.arange(count)[:, None], rng.integers(0, 2, (count, n)),
                                 np.arange(n)]
                pick = rng.random(count) < 0.7
                traj[pick, k] = on_face[pick]
            tube = manual_tube(stacks)
            slack = float(rng.choice([1e-9, 0.0, 0.5]))
            expected = broadcast_containment(tube, traj, slack)
            assert repr(containment_check(tube, traj, slack)) == repr(expected)
            zero_worst += expected.worst_deficit == 0.0
        assert zero_worst >= 20

    @pytest.mark.parametrize("count", [7, 200, 40000])
    def test_chunked_fold_matches_one_array_fold(self, count):
        # count never divides the fold size; B is one box short of a chunk, a
        # chunk, and three chunks and one box.  Clean cases put every point on
        # a face of a box with a zero-width first axis, so each point's best
        # deficit is +0.0 or -0.0 and the signs show the fold's order across
        # chunks; dirty cases add points off the faces, and non-finite box ends
        # and points, all past the first chunk.
        chunk = max(1, montecarlo._FOLD_ELEMENTS // count)
        rng = np.random.default_rng(count)

        def signed(a):
            return a * rng.choice([-1.0, 1.0], size=a.shape)

        zero_worst = violated = 0
        for B in sorted({max(1, chunk - 1), chunk, 3 * chunk + 1}):
            later = chunk if B > chunk else 0
            for clean in [True] * 6 + [False] * 2:
                n, K = int(rng.integers(1, 4)), 3
                traj = signed(rng.integers(0, 6, (count, K, n)) / 2.0)
                stacks = []
                for k in range(K):
                    lo = signed(rng.integers(0, 5, (B, n)) / 2.0)
                    hi = lo + rng.integers(0, 3, (B, n)) / 2.0
                    if clean:
                        hi[:, 0] = lo[:, 0]
                    stack = np.stack([lo, np.where(hi == 0, signed(hi), hi)], axis=1)
                    boxes = stack[rng.integers(later, B, count)]
                    on_face = boxes[np.arange(count)[:, None], rng.integers(0, 2, (count, n)),
                                    np.arange(n)]
                    pick = rng.random(count) < (1.0 if clean else 0.7)
                    traj[pick, k] = on_face[pick]
                    if k == 1 and later:  # the first chunk is far off
                        stack[:later, :, 0] += 100.0
                    stacks.append(stack)
                if not clean:  # (no inf - inf: it warns, and warnings are errors here)
                    stacks[1][B - 1, :, 0] = [-np.inf, np.inf]
                    traj[count - 1, 2, 0] = rng.choice([np.nan, np.inf, -np.inf])
                    if rng.random() < 0.5:
                        stacks[2][B - 1, int(rng.integers(0, 2)), n - 1] = np.nan
                tube = manual_tube(stacks)
                slack = float(rng.choice([1e-9, 0.0, 0.5]))
                expected = one_array_containment(tube, traj, slack)
                assert repr(containment_check(tube, traj, slack)) == repr(expected)
                zero_worst += expected.worst_deficit == 0.0
                violated += expected.violations > 0
        assert zero_worst >= 10 and violated >= 4


def broadcast_containment(tube, traj, slack):
    """Test oracle: the ``(B, count, n)`` broadcast form of the containment check."""
    violations, worst, first = 0, -np.inf, None
    for k, boxes in enumerate(tube.boxes):
        pts = traj[:, k]
        deficit = np.maximum(boxes[:, 0][:, None, :] - pts[None, :, :],
                             pts[None, :, :] - boxes[:, 1][:, None, :]).max(axis=2)
        best = deficit.min(axis=0)
        worst = max(worst, float(best.max()))
        bad = best > slack
        if bad.any():
            violations += int(bad.sum())
            if first is None:
                first = (k, int(np.argmax(bad)))
    return ContainmentReport(violations, worst, first)


def one_array_containment(tube, traj, slack):
    """Test oracle: the containment fold over one ``(B, count)`` array per step."""
    violations, worst, first = 0, -np.inf, None
    for k in range(traj.shape[1]):
        lo = tube.boxes[k][:, 0].T[:, :, None]  # (n, B, 1)
        hi = tube.boxes[k][:, 1].T[:, :, None]
        x = traj[:, k].T                        # (n, count)
        deficit = np.maximum(lo[0] - x[0], x[0] - hi[0])  # (B, count)
        for i in range(1, traj.shape[2]):
            np.maximum(deficit, np.maximum(lo[i] - x[i], x[i] - hi[i]), out=deficit)
        best = deficit.min(axis=0)
        top = float(best.max())
        worst = max(worst, np.inf if np.isnan(top) else top)
        bad = ~(best <= slack)
        if bad.any():
            violations += int(bad.sum())
            if first is None:
                first = (k, int(np.argmax(bad)))
    return ContainmentReport(violations, worst, first)

def per_box_raster(boxes, resolution):
    """Test oracle: the cell-centre raster of the union, one box at a time."""
    lo, hi = boxes[:, 0, :2], boxes[:, 1, :2]
    xmin, ymin = lo.min(axis=0)
    xmax, ymax = hi.max(axis=0)
    if xmax <= xmin or ymax <= ymin:
        return 0.0
    dx = (xmax - xmin) / resolution
    dy = (ymax - ymin) / resolution
    xs = xmin + (np.arange(resolution) + 0.5) * dx
    ys = ymin + (np.arange(resolution) + 0.5) * dy
    inside = np.zeros((resolution, resolution), dtype=bool)
    for (x0, y0), (x1, y1) in zip(lo, hi):
        mx = (xs >= x0) & (xs <= x1)
        my = (ys >= y0) & (ys <= y1)
        if mx.any() and my.any():
            inside |= mx[:, None] & my[None, :]
    return float(inside.sum()) * dx * dy


def manual_tube(box_stacks, times=None):
    times = np.arange(len(box_stacks), dtype=float) if times is None else times
    stats = [StepStats(i + 1, float(times[i + 1]), 1, 0, 0, 0)
             for i in range(len(box_stacks) - 1)]
    return ReachTube(times=np.asarray(times, dtype=float),
                     boxes=[np.asarray(b, dtype=float) for b in box_stacks],
                     interval_stats=stats)


class TestVolumes:
    def test_hull_volume_single_box(self):
        tube = manual_tube([[[[0.0, 0.0], [1.0, 1.0]]]])
        assert hull_volume(tube, 0.0) == 1.0

    def test_hull_volume_two_boxes(self):
        stack = [[[0.0, 0.0], [1.0, 1.0]], [[1.0, 0.0], [2.0, 1.0]]]
        tube = manual_tube([stack])
        assert hull_volume(tube, 0.0) == 2.0

    def test_off_grid_time_rejected(self):
        tube = manual_tube([[[[0.0], [1.0]]], [[[0.0], [1.0]]]])
        with pytest.raises(ValueError, match="grid"):
            hull_volume(tube, 0.5)

    def test_raster_unit_box(self):
        boxes = np.array([[[0.0, 0.0], [1.0, 1.0]]])
        assert union_area_raster(boxes, resolution=1000) == pytest.approx(1.0, abs=0.003)

    def test_raster_disjoint_union(self):
        boxes = np.array([[[0.0, 0.0], [1.0, 1.0]], [[2.0, 0.0], [3.0, 1.0]]])
        assert union_area_raster(boxes, resolution=1000) == pytest.approx(2.0, abs=0.006)

    def test_raster_nested_union(self):
        boxes = np.array([[[0.0, 0.0], [1.0, 1.0]], [[0.2, 0.2], [0.8, 0.8]]])
        assert union_area_raster(boxes, resolution=1000) == pytest.approx(1.0, abs=0.003)

    def test_raster_zero_resolution_rejected(self):
        with pytest.raises(ValueError, match="resolution"):
            union_area_raster(np.zeros((1, 2, 2)), resolution=0)

    def test_raster_never_exceeds_hull(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            lo = rng.uniform(-2, 1, size=(m, 2))
            hi = lo + rng.uniform(0.1, 2, size=(m, 2))
            boxes = np.stack([lo, hi], axis=1)
            hull_area = float(np.prod(hi.max(axis=0) - lo.min(axis=0)))
            assert union_area_raster(boxes, resolution=400) <= hull_area + 1e-9

    def test_degenerate_projection_is_zero(self):
        boxes = np.array([[[0.0, 0.0], [0.0, 1.0]]])
        assert union_area_raster(boxes) == 0.0

    @pytest.mark.parametrize("resolution", [1, 7, 400, 1000])
    def test_raster_matches_per_box_loop(self, resolution):
        rng = np.random.default_rng(resolution)
        for case in range(40):
            m = int(rng.integers(1, 30))
            # two point boxes at the frame's corners fix the hull, hence the
            # cell centres, and cover no centre themselves
            frame = np.sort(rng.uniform(-3, 3, size=(2, 2)), axis=0)
            cells = [frame[0, a] + (np.arange(resolution) + 0.5)
                     * ((frame[1, a] - frame[0, a]) / resolution) for a in range(2)]
            lo = rng.uniform(frame[0], frame[1], size=(m, 2))
            hi = lo + rng.uniform(0, 1, size=(m, 2)) * (frame[1] - lo)
            for a in range(2):
                # edges exactly on cell centres, on either side of the box
                on_lo, on_hi = rng.random(m) < 0.4, rng.random(m) < 0.4
                lo[on_lo, a] = rng.choice(cells[a], on_lo.sum())
                hi[on_hi, a] = np.maximum(lo[on_hi, a], rng.choice(cells[a], on_hi.sum()))
            flat = rng.random(m) < 0.15  # zero width along one axis
            hi[flat, case % 2] = lo[flat, case % 2]
            crossed = rng.random(m) < 0.1  # lo > hi: covers nothing
            lo[crossed], hi[crossed] = hi[crossed], lo[crossed]
            corners = np.stack([frame[[0, 0]], frame[[1, 1]]])
            boxes = np.concatenate([np.stack([lo, hi], axis=1), corners])
            if case % 4 == 0:  # two disjoint boxes in the frame's corners
                boxes = corners
                boxes[0, 1] += 0.25 * (frame[1] - frame[0])
                boxes[1, 0] -= 0.25 * (frame[1] - frame[0])
            assert union_area_raster(boxes, resolution=resolution) == \
                per_box_raster(boxes, resolution)

    def test_raster_matches_per_box_loop_on_shipped_tube(self):
        exp = config.build_experiment(
            config.ExperimentConfig.load(CONFIGS / "di_adaptive_d3n1.json"))
        tube = compute_reachable_set(exp.root_box, exp.params, exp.model)
        for boxes in tube.boxes:
            assert union_area_raster(boxes) == per_box_raster(boxes, 1000)


def readme_model_members():
    """The members README's plug-in paragraph says a closed-loop model must have."""
    readme = (CONFIGS.parent / "README.md").read_text()
    sentence = readme.split("The model it returns must have", 1)[1].split(";", 1)[0]
    return re.findall(r"`(\w+)", sentence)


class _ListedMembersOnly:
    """A model that answers only for the member names it is given."""

    def __init__(self, model, names):
        self._model, self._names = model, frozenset(names)

    def __getattr__(self, name):
        if name not in self._names:
            raise AttributeError(f"{name!r} is not a listed model member")
        return getattr(self._model, name)


@pytest.mark.parametrize("name, overrides", [
    ("di_adaptive_d3n1", []),
    ("vehicle_adaptive_d2n1", ["horizon=0.5"]),
])
def test_readme_model_protocol_is_what_is_read(name, overrides, tmp_path):
    members = readme_model_members()
    assert members == ["n", "steps", "num_intervals", "times", "make_embedding",
                       "verify", "advance", "simulate_interval"]
    cfg = config.ExperimentConfig.load(CONFIGS / f"{name}.json", overrides)
    exp = config.build_experiment(cfg)

    def run(names):
        proxied = dataclasses.replace(exp, model=_ListedMembersOnly(exp.model, names))
        tube, _ = config.run_experiment(proxied)
        tube.write_csv(tmp_path / "tube.csv")
        _, traj = sample_trajectories(proxied.model, proxied.root_box, 8, cfg.seed)
        assert containment_check(tube, traj).ok
        contraction.diagnose(proxied, tube)

    run(members)
    for hidden in members:
        with pytest.raises(AttributeError, match=hidden):
            run(set(members) - {hidden})
