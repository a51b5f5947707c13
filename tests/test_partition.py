import math

import numpy as np
import pytest

from nncreach import (
    AlgorithmParams,
    ContinuousClosedLoopModel,
    DiscreteLTIModel,
    DoubleIntegratorSystem,
    IntervalVector,
    OpenLoopSystem,
    ReachTube,
    ToleranceVector,
    affine_system,
    compute_reachable_set,
)
from nncreach import partition
from nncreach.intervals import interval_hull
from nncreach.partition import _predicate_fires, _probe_steps

from conftest import CONFIGS, awkward_floats, per_line_csv, zero_network

INF = np.inf


def _same_box(a, b):
    return np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)


def scalar_growth_model(rate=1.0, horizon=math.log(2.0), steps=100):
    """xdot = rate * x with a constant-zero controller."""
    sys = affine_system(np.array([[rate]]), np.array([[1.0]]))
    net = zero_network(1, 1)
    return ContinuousClosedLoopModel(sys, net, horizon=horizon, dt=horizon / steps,
                                     control_period=horizon)


def di_model(di_net, horizon=5):
    di = DoubleIntegratorSystem()
    return DiscreteLTIModel(di.A, di.B, di_net, horizon_steps=horizon)


def drifting_plant(lower_rate, upper_rate):
    """A 1-D plant whose enclosure has the constant ends ``lower_rate`` and
    ``upper_rate``: with ``lower_rate > upper_rate`` the embedding crosses
    at that rate, an infinite ``upper_rate`` sends the upper end to ``inf``."""
    def ext(Xlo, Xhi, inputs):
        return np.full(Xlo.shape, lower_rate), np.full(Xhi.shape, upper_rate)

    return OpenLoopSystem(1, 1, 0, lambda x, u, w=None: np.zeros_like(x), extension=ext,
                          name="drifting")


def params(eps, gamma=1.0, dp=0, dn=0, mode="adaptive"):
    return AlgorithmParams(eps=ToleranceVector(np.asarray(eps, dtype=float)),
                           gamma=gamma, depth_max=dp, nn_depth_max=dn, mode=mode)


class TestAlgorithmParams:
    def test_gamma_bounds(self):
        with pytest.raises(ValueError, match="gamma"):
            params([1.0], gamma=0.0)
        with pytest.raises(ValueError, match="gamma"):
            params([1.0], gamma=1.5)

    def test_warns_when_nn_depth_exceeds_partition_depth(self):
        with pytest.warns(UserWarning, match="nn_depth_max"):
            params([1.0], dp=1, dn=2)

    def test_mode_validated(self):
        with pytest.raises(ValueError, match="mode"):
            params([1.0], mode="greedy")

    @pytest.mark.parametrize("eps, kwargs, field", [
        ([-1.0], {}, "eps"), ([np.nan], {}, "eps"), ([1.0], {"gamma": 0.0}, "gamma"),
        ([1.0], {"dp": -1}, "depth_max"), ([1.0], {"dp": 1, "dn": -1}, "nn_depth_max"),
        ([1.0], {"mode": "greedy"}, "mode"),
    ])
    def test_messages_start_with_the_field_name(self, eps, kwargs, field):
        # so that a config error can prefix the message with the field's JSON path
        with pytest.raises(ValueError, match=f"^{field} must "):
            params(eps, **kwargs)

    @pytest.mark.parametrize("mode", ["adaptive", "uniform"])
    def test_nn_depth_beyond_partition_depth_is_capped(self, di_net, di_box, mode):
        at_cap = compute_reachable_set(
            di_box, params([0.1, 0.1], dp=2, dn=2, mode=mode), di_model(di_net))
        with pytest.warns(UserWarning, match="capped"):
            over = params([0.1, 0.1], dp=2, dn=3, mode=mode)
        tube = compute_reachable_set(di_box, over, di_model(di_net))
        assert tube.interval_stats == at_cap.interval_stats
        for a, b in zip(tube.boxes, at_cap.boxes):
            assert np.array_equal(a, b)


class TestPredicate:
    def test_zero_width_never_fires(self):
        assert not _predicate_fires(0.0, 0.0, 4.0)

    def test_infinite_weighted_width_always_fires(self):
        assert _predicate_fires(INF, INF, 4.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            w0 = float(rng.uniform(0.05, 3.0))
            wg = float(rng.uniform(0.05, 3.0))
            inv = float(rng.uniform(1.0, 10.0))
            direct = (wg / w0) ** inv * w0 > 1.0
            assert _predicate_fires(w0, wg, inv) == direct

    def test_probe_step_rounding(self):
        assert _probe_steps(1.0, 25) == 25
        assert _probe_steps(0.1, 25) == 3  # 2.5 rounds half-up
        assert _probe_steps(0.01, 25) == 1
        assert _probe_steps(0.5, 1) == 1


class TestTriggerSemantics:
    def test_infinite_eps_never_subdivides(self, di_net):
        model = di_model(di_net)
        box = IntervalVector(np.array([2.5, -0.25]), np.array([3.0, 0.25]))
        tube = compute_reachable_set(box, params([INF, INF], dp=3, dn=1), model)
        assert all(s.leaf_count == 1 for s in tube.interval_stats)
        assert all(s.subdivisions == 0 for s in tube.interval_stats)

    def test_zero_eps_uniform_initial_partitioning(self, di_net):
        model = di_model(di_net, horizon=2)
        box = IntervalVector(np.array([2.5, -0.25]), np.array([3.0, 0.25]))
        tube = compute_reachable_set(box, params([0.0, 0.0], dp=2, dn=1), model)
        first = tube.interval_stats[0]
        assert first.leaf_count == 4 ** 2  # full tree at the first instant
        assert first.max_depth == 2

    def test_expanding_scalar_subdivides_once(self):
        # xdot = x over an interval of length ln 2 doubles the width:
        # C = 2 (within Euler error), predicate 2 * 1 > 1 fires.
        model = scalar_growth_model(rate=1.0)
        box = IntervalVector(np.array([-0.5]), np.array([0.5]))
        tube = compute_reachable_set(box, params([1.0], gamma=1.0, dp=1, dn=0), model)
        assert tube.interval_stats[0].subdivisions == 1
        assert tube.interval_stats[0].leaf_count == 2

    def test_contracting_scalar_never_subdivides(self):
        model = scalar_growth_model(rate=-1.0)
        box = IntervalVector(np.array([-0.5]), np.array([0.5]))
        tube = compute_reachable_set(box, params([1.0], gamma=1.0, dp=3, dn=0), model)
        assert all(s.subdivisions == 0 for s in tube.interval_stats)
        assert tube.interval_stats[-1].leaf_count == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_gamma_one_equals_exact_width_check(self, seed):
        """With gamma = 1 the probe decision is the true final-width check."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3))
        A = rng.normal(scale=1.5, size=(n, n))
        sys = affine_system(A, np.zeros((n, 1)))
        net = zero_network(n, 1)
        horizon = float(rng.uniform(0.2, 0.8))
        model = ContinuousClosedLoopModel(sys, net, horizon=horizon, dt=horizon / 40,
                                          control_period=horizon)
        half = rng.uniform(0.1, 1.0, size=n)
        center = rng.normal(size=n)
        box = IntervalVector(center - half, center + half)
        eps = rng.uniform(0.5, 3.0, size=n)

        reference = compute_reachable_set(
            box, params([INF] * n, dp=0, dn=0), model)
        exact_decision = bool(np.max(reference.final_hull().width / eps) > 1.0)

        probing = compute_reachable_set(
            box, params(eps, gamma=1.0, dp=1, dn=0), model)
        algorithm_decision = probing.interval_stats[0].subdivisions > 0
        assert algorithm_decision == exact_decision


class TestBudgets:
    def test_depth_budget_respected(self, di_net):
        model = di_model(di_net)
        box = IntervalVector(np.array([2.5, -0.25]), np.array([3.0, 0.25]))
        tube = compute_reachable_set(box, params([0.01, 0.01], dp=4, dn=2), model)
        assert max(s.max_depth for s in tube.interval_stats) <= 4

    @pytest.mark.parametrize("mode", ["adaptive", "uniform"])
    @pytest.mark.parametrize("dp, dn", [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1),
                                        (2, 2), (3, 1), (3, 2), (2, 4)])
    @pytest.mark.filterwarnings("ignore:nn_depth_max")  # (2, 4) is capped
    def test_nn_depth_budget_and_call_counting(self, di_net, dp, dn, mode):
        model = di_model(di_net, horizon=3)
        box = IntervalVector(np.array([2.5, -0.25]), np.array([3.0, 0.25]))
        stats = compute_reachable_set(
            box, params([0.0, 0.0], dp=dp, dn=dn, mode=mode), model).interval_stats
        nn = min(dn, dp)
        if mode == "adaptive":
            # the first interval verifies every depth down to D_N before and
            # after each split, later intervals only the depth-D_N nodes
            first_calls = sum(4 ** d for d in range(nn + 1))
            first_splits = sum(4 ** d for d in range(dp))
        else:
            first_calls, first_splits = 4 ** nn, 0
        assert [s.nn_calls for s in stats] == [first_calls] + [4 ** nn] * 2
        assert [s.subdivisions for s in stats] == [first_splits, 0, 0]
        assert all(s.leaf_count == 4 ** dp for s in stats)
        assert all(s.max_depth == dp for s in stats)

    def test_verification_depth_assertion_guards_engine(self, di_net):
        # no CROWN call happens below D_N: in the first interval every
        # verified box is a fresh split of the initial box, so its width
        # gives its depth
        model = di_model(di_net, horizon=2)
        box = IntervalVector(np.array([2.5, -0.25]), np.array([3.0, 0.25]))
        verified = []
        verify = model.verify

        def recording_verify(b):
            verified.append(b)
            return verify(b)

        model.verify = recording_verify
        stats = compute_reachable_set(box, params([0.0, 0.0], dp=3, dn=1),
                                      model).interval_stats
        first = verified[:stats[0].nn_calls]
        depths = [int(round(math.log2(box.width[0] / b.width[0]))) for b in first]
        assert sorted(depths) == [0, 1, 1, 1, 1]
        assert stats[0].max_depth == 3

    @pytest.mark.parametrize("mode, eps, dp, dn", [
        ("uniform", INF, 3, 1), ("uniform", INF, 2, 0), ("adaptive", 0.0, 3, 2),
        ("adaptive", 0.7, 3, 0), ("adaptive", 0.7, 3, 3)])
    def test_later_intervals_verify_group_hulls(self, di_net, mode, eps, dp, dn):
        # from interval 2 on, each group of leaves under one depth-nn node
        # is verified once, on the hull of the previous interval's final
        # boxes of those leaves (tube.boxes[j - 1]; one DI step per interval)
        model = di_model(di_net, horizon=5)
        box = IntervalVector(np.array([2.5, -0.25]), np.array([3.0, 0.25]))
        verified = []
        verify = model.verify

        def recording_verify(b):
            verified.append(b)
            return verify(b)

        model.verify = recording_verify
        tube = compute_reachable_set(box, params([eps, eps], dp=dp, dn=dn, mode=mode),
                                     model)
        calls = iter(verified)
        per_interval = [[next(calls) for _ in range(s.nn_calls)]
                        for s in tube.interval_stats]
        nn = min(dp, dn)
        later_splits = 0
        for j, (stats, boxes) in enumerate(zip(tube.interval_stats, per_interval), 1):
            if j == 1:
                continue
            leaves = [IntervalVector(lo, hi) for lo, hi in tube.boxes[j - 1]]
            if eps in (0.0, INF):  # every leaf sits at depth dp: blocks of 4**(dp - nn)
                size = 4 ** (dp - nn)
                groups = [leaves[k:k + size] for k in range(0, len(leaves), size)]
                expected = [interval_hull(g) for g in groups]
                assert stats.subdivisions == 0
            elif nn == 0:  # one group; split children inherit its relaxation
                expected = [interval_hull(leaves)]
            else:  # nn == dp: each leaf verifies its own box, then each split child
                kept, owner, pending = [], None, iter(leaves)
                nxt = next(pending, None)
                for b in boxes:
                    if nxt is not None and _same_box(b, nxt):
                        kept.append(b)
                        owner, nxt = nxt, next(pending, None)
                    else:
                        assert owner is not None
                        assert (owner.lo <= b.lo).all() and (b.hi <= owner.hi).all()
                assert nxt is None, "a leaf of the previous interval was not verified"
                assert len(boxes) == len(leaves) + 4 * stats.subdivisions
                boxes, expected = kept, leaves
            later_splits += stats.subdivisions
            assert len(boxes) == len(expected)
            assert all(_same_box(b, e) for b, e in zip(boxes, expected))
        if eps == 0.7:
            assert later_splits > 0


class TestTreeStats:
    def test_after_one_subdivision_flags(self, di_net):
        box = IntervalVector(np.array([2.5, -0.25]), np.array([3.0, 0.25]))
        # D_N = 0: children inherit, root keeps providing
        model = di_model(di_net, horizon=1)
        tube = compute_reachable_set(box, params([0.0, 0.0], dp=1, dn=0), model)
        assert tube.interval_stats[0].leaf_count == 4
        # D_N = 1: children verify, root hands over
        model = di_model(di_net, horizon=1)
        tube = compute_reachable_set(box, params([0.0, 0.0], dp=1, dn=1), model)
        assert tube.interval_stats[0].nn_calls == 5  # root once + 4 children

    def test_deepening_is_monotone_in_time(self, di_net):
        model = di_model(di_net)
        box = IntervalVector(np.array([2.5, -0.25]), np.array([3.0, 0.25]))
        tube = compute_reachable_set(box, params([0.1, 0.1], dp=10, dn=2), model)
        depths = [s.max_depth for s in tube.interval_stats]
        assert depths == sorted(depths)


class TestRefinementMonotonicity:
    def test_volume_improves_with_depth_budgets(self, di_net, di_box):
        def final_volume(dp, dn):
            model = di_model(di_net)
            tube = compute_reachable_set(
                di_box, params([INF, INF], dp=dp, dn=dn, mode="uniform"), model)
            return float(np.prod(tube.final_hull().width))

        v11, v21, v31 = final_volume(1, 1), final_volume(2, 1), final_volume(3, 1)
        assert v21 <= v11 + 1e-9
        assert v31 <= v21 + 1e-9
        v32, v33 = final_volume(3, 2), final_volume(3, 3)
        assert v32 <= v31 + 1e-9
        assert v33 <= v32 + 1e-9


class TestDeterminism:
    def test_repeated_runs_identical(self, di_net, di_box):
        def run():
            model = di_model(di_net)
            return compute_reachable_set(di_box, params([0.1, 0.1], dp=3, dn=1), model)

        t1, t2 = run(), run()
        assert len(t1.boxes) == len(t2.boxes)
        for a, b in zip(t1.boxes, t2.boxes):
            assert np.array_equal(a, b)

    def test_probe_prefix_reuse_matches_plain_integration(self):
        # when the trigger never fires the probe prefix is kept, so the
        # tube equals the unpartitioned run step for step
        model = scalar_growth_model(rate=-1.0)
        box = IntervalVector(np.array([-0.5]), np.array([0.5]))
        probing = compute_reachable_set(box, params([10.0], gamma=0.3, dp=2, dn=0),
                                        scalar_growth_model(rate=-1.0))
        plain = compute_reachable_set(box, params([INF], dp=0, dn=0), model)
        for a, b in zip(probing.boxes, plain.boxes):
            assert np.array_equal(a, b)


def reference_continuous_grid(horizon, dt, period):
    """Oracle of the continuous grid, built interval by interval: instants
    ``j * period``, then each interval's step count and divisibility check
    from that interval's own length.  Returns ``(instants, steps, times)``."""
    m = max(1, math.ceil(horizon / period - 1e-9))
    instants = [float(j * period) for j in range(m + 1)]
    steps = []
    for a, b in zip(instants, instants[1:]):
        s = (b - a) / dt
        if abs((b - a) - round(s) * dt) > 1e-9:
            raise ValueError(f"dt={dt} does not divide the control interval [{a}, {b}]")
        steps.append(int(round(s)))
    times = instants[0] + float(dt) * np.arange(sum(steps) + 1)
    return instants, steps, times


def reference_discrete_grid(horizon_steps):
    """Oracle of the discrete grid: one unit step per interval."""
    times = np.arange(horizon_steps + 1, dtype=float)
    return list(times), [1] * horizon_steps, times


def assert_same_grid(model, grid):
    _, steps, times = grid
    assert model.times.tobytes() == times.tobytes()
    assert model.num_intervals == len(steps)
    assert [model.steps] * model.num_intervals == steps


class TestControlGrid:
    """The one grid both models build has the bits of the oracle grids and
    rejects the triples the interval-by-interval check rejects."""

    @staticmethod
    def random_triple(rng):
        dt = float(rng.choice([0.001, 0.01, 0.02, 0.05, 0.1, 0.25, 1 / 3, 1.0,
                               10.0 ** rng.uniform(-3.0, 0.0)]))
        period = int(rng.integers(1, 60)) * dt
        kind = rng.integers(4)
        if kind == 1:  # a decimal period, which dt may or may not divide
            period = round(period, int(rng.integers(1, 4))) or dt
        elif kind == 2:  # a period just off a multiple of dt
            period *= 1.0 + float(rng.choice([1e-13, 1e-10, 1e-7, -1e-7]))
        if rng.random() < 0.3:  # a horizon on the grid
            horizon = int(rng.integers(1, 40)) * period
        else:
            horizon = period * rng.uniform(0.01, 40.0)
        return horizon, dt, period

    def test_random_triples_match_the_reference_grid(self):
        rng = np.random.default_rng(2025)
        sys = affine_system(np.array([[0.0]]), np.array([[1.0]]))
        net = zero_network(1, 1)
        valid = 0
        for _ in range(3000):
            horizon, dt, period = self.random_triple(rng)
            try:
                grid = reference_continuous_grid(horizon, dt, period)
            except ValueError:
                with pytest.raises(ValueError, match="does not divide"):
                    ContinuousClosedLoopModel(sys, net, horizon=horizon, dt=dt,
                                              control_period=period)
                continue
            valid += 1
            model = ContinuousClosedLoopModel(sys, net, horizon=horizon, dt=dt,
                                              control_period=period)
            assert_same_grid(model, grid)
        assert 1500 < valid < 3000  # both kinds were drawn

    @pytest.mark.parametrize("horizon_steps", [1, 2, 5, 17, 200])
    def test_discrete_grid_matches_the_reference_grid(self, di_net, horizon_steps):
        assert_same_grid(di_model(di_net, horizon_steps), reference_discrete_grid(horizon_steps))

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_configs_match_the_reference_grid(self, path):
        from nncreach import config

        cfg = config.ExperimentConfig.load(path)
        model = config.build_experiment(cfg).model
        if isinstance(model, DiscreteLTIModel):
            grid = reference_discrete_grid(int(round(cfg.horizon)))
        else:
            grid = reference_continuous_grid(cfg.horizon, cfg.dt, cfg.control_period)
        assert_same_grid(model, grid)


class TestModelValidation:
    def test_dt_must_divide_interval(self):
        sys = affine_system(np.array([[0.0]]), np.array([[1.0]]))
        with pytest.raises(ValueError, match="divide"):
            ContinuousClosedLoopModel(sys, zero_network(1, 1), horizon=1.0,
                                      dt=0.3, control_period=1.0)

    def test_period_below_dt_rejected(self):
        # 0 steps per interval would pass the tolerance (period - 0 * dt <= 1e-9)
        sys = affine_system(np.array([[0.0]]), np.array([[1.0]]))
        with pytest.raises(ValueError, match="divide"):
            ContinuousClosedLoopModel(sys, zero_network(1, 1), horizon=1e-9,
                                      dt=1.0, control_period=5e-10)

    def test_final_instant_reaches_past_horizon(self):
        sys = affine_system(np.array([[0.0]]), np.array([[1.0]]))
        model = ContinuousClosedLoopModel(sys, zero_network(1, 1), horizon=1.1,
                                          dt=0.05, control_period=0.25)
        assert model.times[-1] == pytest.approx(1.25)  # smallest instant >= T

    @pytest.mark.parametrize("dt, period", [(0.01, 0.25), (0.05, 0.25), (1.0, 1.0)])
    def test_interval_ends_are_rows_of_the_tube_times(self, dt, period):
        sys = affine_system(np.array([[0.0]]), np.array([[1.0]]))
        model = ContinuousClosedLoopModel(sys, zero_network(1, 1), horizon=5 * period - 0.1,
                                          dt=dt, control_period=period)
        box = IntervalVector(np.array([-0.5]), np.array([0.5]))
        tube = compute_reachable_set(box, params([INF]), model)
        ends = [s.t_end for s in tube.interval_stats]
        assert all(t in tube.times.tolist() for t in ends)
        assert ends == tube.times[model.steps::model.steps].tolist()
        assert ends == [j * period for j in range(1, 6)]  # also the bits of j * period

    def test_grid_size_is_bounded_before_allocation(self, di_net, monkeypatch):
        # only bounded grids are built here: an unbounded one would take terabytes
        sys = affine_system(np.array([[0.0]]), np.array([[1.0]]))
        net = zero_network(1, 1)
        for horizon, dt, period in [(INF, 0.01, 0.25), (1e12, 0.01, 0.25), (INF, 1.0, 1.0),
                                    (1e-9, 1e-300, 1.0)]:
            with pytest.raises(ValueError, match="more than 10000000 steps"):
                ContinuousClosedLoopModel(sys, net, horizon=horizon, dt=dt,
                                          control_period=period)
        with pytest.raises(ValueError, match="more than 10000000 steps"):
            di_model(di_net, horizon=10 ** 12)
        monkeypatch.setattr(partition, "_MAX_GRID_STEPS", 100)
        model = ContinuousClosedLoopModel(sys, net, horizon=1.0, dt=0.01, control_period=0.25)
        assert len(model.times) == 101
        with pytest.raises(ValueError, match="more than 100 steps"):
            ContinuousClosedLoopModel(sys, net, horizon=1.01, dt=0.01, control_period=0.25)

    def test_dimension_mismatch_rejected(self, di_net):
        model = di_model(di_net)
        box = IntervalVector(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="dimension"):
            compute_reachable_set(box, params([1.0] * 3, dp=0), model)

    def test_eps_length_checked(self, di_net, di_box):
        model = di_model(di_net)
        with pytest.raises(ValueError, match="eps"):
            compute_reachable_set(di_box, params([1.0], dp=0), model)

    def test_tube_csv_layout(self, di_net, di_box, tmp_path):
        model = di_model(di_net, horizon=2)
        tube = compute_reachable_set(di_box, params([INF, INF]), model)
        path = tmp_path / "tube.csv"
        tube.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,partition,lo0,hi0,lo1,hi1"
        assert len(lines) == 1 + 3  # header + one box at each of t = 0, 1, 2


class TestSuccessorValidation:
    """A successor leaf that ``integrate`` lets through but that is no box
    (non-finite, or crossed within integrate's 1e-9 tolerance) still stops
    the run with the single-box message."""

    @staticmethod
    def run(lower_rate, upper_rate, **kw):
        # five Euler steps of 0.1 per interval from the point box [0, 0]
        model = ContinuousClosedLoopModel(drifting_plant(lower_rate, upper_rate),
                                          zero_network(1, 1), horizon=1.0, dt=0.1,
                                          control_period=0.5)
        box = IntervalVector(np.zeros(1), np.zeros(1))
        return compute_reachable_set(box, params([1.0], **kw), model)

    @pytest.mark.parametrize("kw", [{}, {"dp": 1, "mode": "uniform"}])
    def test_crossed_within_tolerance_rejected(self, kw):
        # each interval crosses the state by 2 * 5 * 0.1 * 4e-10 = 4e-10 < 1e-9
        with pytest.raises(ValueError, match=r"^box endpoints are crossed \(lo > hi\)$"):
            self.run(4e-10, -4e-10, **kw)

    @pytest.mark.parametrize("kw", [{}, {"dp": 1, "mode": "uniform"}])
    def test_non_finite_rejected(self, kw):
        with pytest.raises(ValueError, match="^state boxes must have finite endpoints$"):
            self.run(0.0, INF, **kw)

    def test_ordered_drift_passes(self):
        tube = self.run(-1.0, 1.0)
        assert tube.final_hull().hi[0] == pytest.approx(1.0)


class TestFrontierArrays:
    def test_successors_validated_once_per_interval(self, monkeypatch):
        # boxes are validated once per interval (the successor frontier) and
        # once per split (the children), never once per leaf; the only
        # single-box constructions left are the verified group hulls
        from nncreach import config

        exp = config.build_experiment(
            config.ExperimentConfig.load(CONFIGS / "di_adaptive_d3n1.json"))
        singles, stacked, verified = [], [], []
        post_init = IntervalVector.__post_init__
        from_stack = IntervalVector.from_stack.__func__
        verify = exp.model.verify

        def counting_post_init(self):
            singles.append(self)
            post_init(self)

        def counting_from_stack(cls, ends):
            boxes = from_stack(cls, ends)
            stacked.append(boxes)
            return boxes

        def recording_verify(box):
            verified.append(box)
            return verify(box)

        monkeypatch.setattr(IntervalVector, "__post_init__", counting_post_init)
        monkeypatch.setattr(IntervalVector, "from_stack", classmethod(counting_from_stack))
        exp.model.verify = recording_verify
        tube = compute_reachable_set(exp.root_box, exp.params, exp.model)
        stats = tube.interval_stats
        splits = sum(s.subdivisions for s in stats)
        assert splits > 0
        assert len(stacked) == len(stats) + splits
        assert sorted(map(len, stacked)) == sorted(
            [2 ** exp.model.n] * splits + [s.leaf_count for s in stats])
        from_stacks = {id(box) for boxes in stacked for box in boxes}
        hulls = [box for box in verified if id(box) not in from_stacks]
        assert [id(b) for b in singles] == [id(b) for b in hulls]
        assert len(singles) < sum(s.nn_calls for s in stats) < sum(s.leaf_count for s in stats)


class TestTubeCsvBlocks:
    """``write_csv`` writes a time step per block; the bytes are those of one
    ``%.17g`` line per box."""

    @staticmethod
    def per_line_text(tube):
        n = tube.n
        times, ids, values = [], [], []
        for t, arr in zip(tube.times.tolist(), tube.boxes):
            times += [t] * len(arr)
            ids += range(len(arr))
            values += arr.transpose(0, 2, 1).reshape(len(arr), 2 * n).tolist()
        return per_line_csv("time,partition," + ",".join(f"lo{i},hi{i}" for i in range(n)),
                            times, ids, values)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_matches_per_line_formatter(self, tmp_path, n):
        rng = np.random.default_rng(23 + n)
        path = tmp_path / "tube.csv"
        for _ in range(30):
            K = int(rng.integers(1, 9))
            # counts repeat and change from step to step, as leaves split
            counts = rng.choice([1, 2, 3, 7, 16], size=K)
            boxes = [awkward_floats(rng, (int(c), 2, n)) for c in counts]
            tube = ReachTube(times=awkward_floats(rng, K, share=0.3), boxes=boxes,
                             interval_stats=[])
            tube.write_csv(path)
            assert path.read_bytes() == self.per_line_text(tube).encode()
