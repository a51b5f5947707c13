import numpy as np
import pytest

from nncreach.intervals import (
    IntervalVector,
    ToleranceVector,
    interval_cos,
    interval_hull,
    interval_mul,
    interval_sin,
    matrix_measure_inf,
    uniform_divide,
    weighted_inf_norm,
)

from conftest import random_box

INF = np.inf


class TestIntervalVector:
    def test_rejects_crossed_endpoints(self):
        with pytest.raises(ValueError, match="crossed"):
            IntervalVector(np.array([1.0]), np.array([0.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            IntervalVector(np.array([-INF]), np.array([0.0]))

    def test_width_and_center(self):
        box = IntervalVector(np.array([0.0, -1.0]), np.array([2.0, 3.0]))
        assert np.allclose(box.width, [2.0, 4.0])
        assert np.allclose(box.center, [1.0, 1.0])

    def test_immutable(self):
        box = IntervalVector(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            box.lo[0] = 5.0


class TestToleranceVector:
    def test_zero_and_inf_legal(self):
        ToleranceVector(np.array([0.0, INF, 1.0]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ToleranceVector(np.array([-1.0]))


class TestWeightedInfNorm:
    def test_reduces_to_max_norm(self):
        assert weighted_inf_norm([1.0, 2.0], [1.0, 1.0]) == 2.0

    def test_diagonal_scaling(self):
        assert weighted_inf_norm([1.0, 2.0], [2.0, 4.0]) == 0.5

    def test_infinite_tolerance_masks(self):
        assert weighted_inf_norm([5.0, 1.0], [INF, 1.0]) == 1.0

    def test_zero_tolerance_sentinel(self):
        assert weighted_inf_norm([0.5, 0.0], [0.0, 1.0]) == INF
        assert weighted_inf_norm([0.0, 0.5], [0.0, 1.0]) == 0.5

    def test_homogeneous_and_antitone(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            x = rng.normal(size=n)
            eps = rng.uniform(0.1, 3.0, size=n)
            c = float(rng.uniform(0.1, 10.0))
            assert weighted_inf_norm(c * x, eps) == pytest.approx(
                c * weighted_inf_norm(x, eps), rel=1e-12)
            bigger = eps.copy()
            bigger[rng.integers(0, n)] *= 2.0
            assert weighted_inf_norm(x, bigger) <= weighted_inf_norm(x, eps) + 1e-15

    def test_empty_vector(self):
        assert weighted_inf_norm(np.zeros(0), np.zeros(0)) == 0.0


class TestMatrixMeasure:
    def test_identity(self):
        assert matrix_measure_inf(np.eye(2)) == 1.0

    def test_zero(self):
        assert matrix_measure_inf(np.zeros((3, 3))) == 0.0

    def test_row_evaluation(self):
        assert matrix_measure_inf(np.array([[-2.0, 1.0], [0.0, -3.0]])) == -1.0

    def test_subadditive(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            A = rng.normal(size=(n, n))
            B = rng.normal(size=(n, n))
            assert matrix_measure_inf(A + B) <= (
                matrix_measure_inf(A) + matrix_measure_inf(B) + 1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            matrix_measure_inf(np.zeros((2, 3)))

    @pytest.mark.parametrize("n", range(0, 10))
    def test_stacked_matches_per_matrix(self, n):
        rng = np.random.default_rng(n)
        A = rng.normal(size=(2, 5, n, n)) * rng.choice([1e-6, 1.0, 1e6], size=(2, 5, n, n))
        got = matrix_measure_inf(A)
        assert got.shape == (2, 5)
        want = np.array([[matrix_measure_inf(M) for M in row] for row in A])
        assert got.tobytes() == want.tobytes()
        assert isinstance(matrix_measure_inf(A[0, 0]), float)


class TestUniformDivide:
    def test_unit_square(self):
        box = IntervalVector(np.zeros(2), np.ones(2))
        got = {tuple(np.concatenate([b.lo, b.hi])) for b in uniform_divide(box)}
        want = {
            (0.0, 0.0, 0.5, 0.5), (0.5, 0.0, 1.0, 0.5),
            (0.0, 0.5, 0.5, 1.0), (0.5, 0.5, 1.0, 1.0),
        }
        assert got == want

    def test_one_dimensional(self):
        box = IntervalVector(np.array([0.0]), np.array([2.0]))
        kids = uniform_divide(box)
        assert np.allclose(kids[0].as_array(), [[0.0], [1.0]])
        assert np.allclose(kids[1].as_array(), [[1.0], [2.0]])

    def test_benchmark_initial_set_split(self):
        box = IntervalVector(np.array([2.5, -0.25]), np.array([3.0, 0.25]))
        kids = uniform_divide(box)
        mids = np.array([k.center for k in kids])
        assert len(kids) == 4
        for k in kids:
            assert k.lo[0] in (2.5, 2.75) and k.hi[0] in (2.75, 3.0)
            assert k.lo[1] in (-0.25, 0.0) and k.hi[1] in (0.0, 0.25)
        assert np.allclose(sorted(mids[:, 0]), [2.625, 2.625, 2.875, 2.875])

    def test_hull_roundtrip_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            box = random_box(rng, int(rng.integers(1, 5)))
            hull = interval_hull(uniform_divide(box))
            assert np.max(np.abs(hull.lo - box.lo)) <= 1e-12
            assert np.max(np.abs(hull.hi - box.hi)) <= 1e-12

    def test_degenerate_axis(self):
        box = IntervalVector(np.array([0.0, 1.0]), np.array([2.0, 1.0]))
        kids = uniform_divide(box)
        assert len(kids) == 4
        assert all(k.width[1] == 0.0 for k in kids)


class TestIntervalHull:
    def test_single(self):
        box = IntervalVector(np.array([0.0]), np.array([1.0]))
        assert np.allclose(interval_hull([box]).as_array(), box.as_array())

    def test_two_disjoint(self):
        a = IntervalVector(np.array([0.0]), np.array([1.0]))
        b = IntervalVector(np.array([2.0]), np.array([3.0]))
        assert np.allclose(interval_hull([a, b]).as_array(), [[0.0], [3.0]])

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            interval_hull([])


class TestTrigRanges:
    """Sampled oracle: dense evaluation inside each interval."""

    @pytest.mark.parametrize("fn,ref", [(interval_cos, np.cos), (interval_sin, np.sin)])
    def test_matches_dense_sampling(self, fn, ref):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.uniform(-10, 10)
            b = a + rng.uniform(0, 9)
            lo, hi = fn(np.array([a]), np.array([b]))
            zs = ref(np.linspace(a, b, 2000))
            assert lo[0] <= zs.min() + 1e-12 and hi[0] >= zs.max() - 1e-12
            assert lo[0] >= zs.min() - 1e-4 and hi[0] <= zs.max() + 1e-4

    def test_interval_mul_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            a = np.sort(rng.normal(size=2) * 3)
            b = np.sort(rng.normal(size=2) * 3)
            lo, hi = interval_mul(a[0], a[1], b[0], b[1])
            vals = np.outer(np.linspace(a[0], a[1], 50),
                            np.linspace(b[0], b[1], 50))
            assert lo <= vals.min() + 1e-12 and hi >= vals.max() - 1e-12
