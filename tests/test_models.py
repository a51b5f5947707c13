import math

import numpy as np
import pytest

from nncreach import (
    AlgorithmParams,
    ContinuousClosedLoopModel,
    DiscreteLTIModel,
    DoubleIntegratorSystem,
    IntervalVector,
    ReachTube,
    ToleranceVector,
    VehicleSystem,
    compute_reachable_set,
    containment_check,
    get_system,
    hull_volume,
    register_system,
    sample_trajectories,
    union_area_raster,
)
from nncreach.intervals import interval_mul
from nncreach.partition import StepStats

from conftest import zero_network


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
        flo, fhi = veh.extension(
            np.array([[0.0, 0.0, 0.0, 1.0]]), np.array([[0.0, 0.0, 0.0, 1.0]]),
            np.array([[0.0, -50.0]]), np.array([[0.0, 50.0]]),
            np.zeros((1, 0)), np.zeros((1, 0)))
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
            flo, fhi = veh.extension(xlo[None], xhi[None], ulo[None], uhi[None],
                                     np.zeros((1, 0)), np.zeros((1, 0)))
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

    @pytest.mark.parametrize("m", [1, 8, 64])
    @pytest.mark.parametrize("params", [{}, {"l_f": 1.5, "l_r": 0.7, "u1_max": 3.0,
                                             "u2_max": 0.5}])
    def test_extension_bitwise_equals_columnwise_formula(self, m, params):
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
        got = veh.extension(*args)
        want = _columnwise_extension(veh, xlo, xhi, ulo, uhi)
        for g, r in zip(got, want):
            assert g.shape == (m, 4) and g.dtype == r.dtype
            assert g.tobytes() == r.tobytes()
        for a, b in zip(args, before):  # arguments are left untouched
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

    def test_hull_volume_coordinate_subset(self):
        tube = manual_tube([[[[0.0, 0.0, -1.0], [1.0, 2.0, 1.0]]]])
        assert hull_volume(tube, 0.0, coords=(0, 1)) == 2.0

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
