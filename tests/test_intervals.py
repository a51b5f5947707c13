import math

import numpy as np
import pytest

from nncreach.intervals import (
    IntervalVector,
    _as_vector,
    _cos_range,
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
from test_models import _columnwise_cos_range

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

    def test_caller_arrays_stay_writable(self):
        lo, hi = np.zeros(2), np.ones(2)
        box = IntervalVector(lo, hi)
        lo[0] = 0.5
        hi[1] = 2.0
        assert box.lo.tolist() == [0.0, 0.0] and box.hi.tolist() == [1.0, 1.0]
        assert not (box.lo.flags.writeable or box.hi.flags.writeable)
        with pytest.raises(ValueError):
            box.hi[0] = 5.0

    def test_equality_is_identity_and_boxes_hash(self):
        a = IntervalVector(np.zeros(2), np.ones(2))
        b = IntervalVector(np.zeros(2), np.ones(2))
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a)
        boxes = {a, b, a}
        assert len(boxes) == 2 and a in boxes and b in boxes
        stacked = IntervalVector.from_stack(np.stack([a.as_array(), b.as_array()]))
        assert len(set(stacked)) == 2


class TestFromStack:
    """The bulk constructor validates a whole ``(L, 2, n)`` stack at once."""

    def test_boxes_view_one_read_only_copy(self):
        ends = np.array([[[0.0, -1.0], [1.0, 2.0]], [[-0.0, 3.0], [0.0, 3.0]]])
        before = ends.tobytes()
        boxes = IntervalVector.from_stack(ends)
        assert len(boxes) == 2 and all(type(b) is IntervalVector for b in boxes)
        for box, row in zip(boxes, ends):
            assert box.lo.tobytes() == row[0].tobytes()
            assert box.hi.tobytes() == row[1].tobytes()
            assert not (box.lo.flags.writeable or box.hi.flags.writeable)
            with pytest.raises(ValueError):
                box.lo[0] = 5.0
        assert boxes[0].lo.base is boxes[1].hi.base  # one copy for the stack
        # the caller's array stays writable and its later writes do not reach the boxes
        assert ends.flags.writeable
        assert not np.shares_memory(ends, boxes[0].lo)
        ends[...] = 9.0
        assert np.stack([b.as_array() for b in boxes]).tobytes() == before

    def test_boxes_behave_like_single_boxes(self):
        lo, hi = np.array([0.0, -1.0]), np.array([1.0, 2.0])
        box, = IntervalVector.from_stack(np.stack((lo, hi))[None])
        single = IntervalVector(lo, hi)
        assert box.as_array().tobytes() == single.as_array().tobytes()
        assert repr(box) == repr(single)
        assert box.n == 2 and box.width.tolist() == [1.0, 3.0]

    @pytest.mark.parametrize("lo, hi, match", [
        ([0.0, 1.0], [1.0, 0.5], r"box endpoints are crossed \(lo > hi\)"),
        ([0.0, 1.0], [1.0, INF], "state boxes must have finite endpoints"),
        ([np.nan, 1.0], [1.0, 2.0], "state boxes must have finite endpoints"),
    ])
    def test_single_box_messages(self, lo, hi, match):
        good = [[0.0, 0.0], [1.0, 1.0]]
        with pytest.raises(ValueError, match=match):
            IntervalVector(np.array(lo), np.array(hi))
        with pytest.raises(ValueError, match=match):
            IntervalVector.from_stack([good, [lo, hi], good])

    def test_crossed_by_a_tolerance_still_rejected(self):
        # integrate tolerates crossings up to 1e-9; a box does not
        with pytest.raises(ValueError, match="crossed"):
            IntervalVector.from_stack([[[1.0], [1.0 - 5e-10]]])

    @pytest.mark.parametrize("shape", [(2, 3), (4, 3, 2), (1, 2, 3, 1)])
    def test_shape_checked(self, shape):
        with pytest.raises(ValueError, match=r"\(L, 2, n\)"):
            IntervalVector.from_stack(np.zeros(shape))

    def test_empty_stack(self):
        assert IntervalVector.from_stack(np.zeros((0, 2, 3))) == []


class TestToleranceVector:
    def test_zero_and_inf_legal(self):
        ToleranceVector(np.array([0.0, INF, 1.0]))

    def test_caller_array_stays_writable(self):
        eps = np.array([0.0, INF, 1.0])
        tol = ToleranceVector(eps)
        eps[2] = 2.0
        assert tol.eps.tolist() == [0.0, INF, 1.0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ToleranceVector(np.array([-1.0]))


class TestWeightedInfNorm:
    def test_reduces_to_max_norm(self):
        assert weighted_inf_norm([1.0, 2.0], [1.0, 1.0]) == 2.0

    def test_float_array_taken_without_copy(self):
        x = np.array([1.0, -3.0])
        assert weighted_inf_norm(x, [1.0, 2.0]) == 1.5
        assert x.flags.writeable and x.tolist() == [1.0, -3.0]
        copied = _as_vector(x, "x")
        assert copied is not x and not np.shares_memory(copied, x)

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

    @staticmethod
    def masked_oracle(x, e):
        """The per-call mask formula: divide where ``0 < eps < inf`` only."""
        x = np.asarray(x, dtype=float)
        e = np.asarray(e, dtype=float)
        if x.size == 0:
            return 0.0
        ax = np.abs(x)
        out = np.zeros_like(ax)
        finite = np.isfinite(e) & (e > 0)
        out[finite] = ax[finite] / e[finite]
        out[(e == 0) & (ax > 0)] = np.inf
        return float(out.max())

    def test_divisor_form_matches_mask_formula_bit_for_bit(self):
        rng = np.random.default_rng(13)
        kinds = np.array([0.0, INF, 5e-324, 1e-300, 1e-12, 1.0])
        for _ in range(2000):
            n = int(rng.integers(0, 7))
            eps = rng.uniform(0.01, 10.0, size=n)
            pick = rng.random(n) < 0.6
            eps[pick] = rng.choice(kinds, size=int(pick.sum()))
            x = rng.normal(size=n) * 10.0 ** rng.integers(-320, 3, size=n)
            x[rng.random(n) < 0.3] = rng.choice([0.0, -0.0])
            with np.errstate(over="ignore"):  # a tiny eps may overflow to inf
                want = self.masked_oracle(x, eps).hex()
                tol = ToleranceVector(eps)
                assert weighted_inf_norm(x, tol).hex() == want, (x, eps)
                assert weighted_inf_norm(x, eps).hex() == want, (x, eps)
                assert weighted_inf_norm(list(x), list(eps)).hex() == want

    def test_raw_eps_is_validated_and_left_writable(self):
        eps = np.array([1.0, 0.0])
        assert weighted_inf_norm([0.5, 0.0], eps) == 0.5
        assert eps.flags.writeable
        with pytest.raises(ValueError, match="non-negative"):
            weighted_inf_norm([1.0], [-1.0])
        with pytest.raises(ValueError, match="same length"):
            weighted_inf_norm([1.0, 2.0], ToleranceVector([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, INF, -INF])
    def test_nonfinite_x_raises(self, bad):
        for eps in ([1.0, 0.0, INF], ToleranceVector([1.0, 0.0, INF])):
            with pytest.raises(ValueError, match="x must be finite"):
                weighted_inf_norm([0.0, bad, 1.0], eps)


    @staticmethod
    def stack_cases(rng, m, n):
        kinds = np.array([0.0, INF, 5e-324, 1e-300, 1e-12, 1.0])
        eps = rng.uniform(0.01, 10.0, size=n)
        pick = rng.random(n) < 0.6
        eps[pick] = rng.choice(kinds, size=int(pick.sum()))
        x = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-320, 3, size=(m, n))
        x[rng.random((m, n)) < 0.3] = 0.0
        x[rng.random((m, n)) < 0.2] *= -1.0  # signed zeros as well
        return x, eps

    def test_stack_matches_per_row_calls_bit_for_bit(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            n = int(rng.integers(0, 7))
            m = int(rng.integers(1, 20))
            x, eps = self.stack_cases(rng, m, n)
            with np.errstate(over="ignore"):  # a tiny eps may overflow to inf
                for tol in (eps, ToleranceVector(eps)):
                    got = weighted_inf_norm(x, tol)
                    assert isinstance(got, np.ndarray) and got.shape == (m,)
                    want = [weighted_inf_norm(row, tol).hex() for row in x]
                    assert [v.hex() for v in got.tolist()] == want, (x, eps)
                # deeper stacks reduce the last axis only
                deep = weighted_inf_norm(x.reshape(1, m, n), eps)
                assert deep.shape == (1, m) and deep.tobytes() == got.tobytes()

    def test_single_vector_still_a_float(self):
        got = weighted_inf_norm(np.array([1.0, -3.0]), [1.0, 2.0])
        assert type(got) is float and got == 1.5
        assert weighted_inf_norm(np.zeros((0, 2)), [1.0, 0.0]).shape == (0,)
        assert weighted_inf_norm(np.zeros((3, 0)), np.zeros(0)).tolist() == [0.0] * 3

    @pytest.mark.parametrize("bad", [np.nan, INF, -INF])
    def test_nonfinite_stack_raises(self, bad):
        x = np.ones((4, 3))
        x[2, 1] = bad
        for eps in ([1.0, 0.0, INF], ToleranceVector([1.0, 0.0, INF])):
            with pytest.raises(ValueError, match="x must be finite"):
                weighted_inf_norm(x, eps)

    def test_stack_shape_checked(self):
        with pytest.raises(ValueError, match="same length"):
            weighted_inf_norm(np.ones((4, 3)), [1.0, 1.0])
        with pytest.raises(ValueError, match="scalar"):
            weighted_inf_norm(1.0, [1.0])

    @staticmethod
    def checked_first(x, eps):
        """The norm with its finite check made on ``x`` before the division (oracle)."""
        x = np.asarray(x, dtype=float)
        tol = ToleranceVector(eps)
        if not np.isfinite(x).all():
            raise ValueError("x must be finite")
        if x.shape[-1] == 0:
            out = np.zeros(x.shape[:-1])
        else:
            ax = np.abs(x)
            out = ax / tol.div
            out[tol.hard & (ax > 0)] = np.inf
            out = out.max(axis=-1)
        return float(out) if x.ndim == 1 else out

    def test_finite_check_after_division_keeps_the_bits(self):
        rng = np.random.default_rng(41)
        for _ in range(600):
            n = int(rng.integers(0, 7))
            shape = (n,) if rng.random() < 0.5 else (int(rng.integers(0, 6)), n)
            x, eps = self.stack_cases(rng, int(np.prod(shape[:-1], dtype=int)), n)
            x = x.reshape(shape)
            with np.errstate(over="ignore"):  # a tiny eps may overflow to inf
                want = np.asarray(self.checked_first(x, eps)).tobytes()
                for tol in (eps, ToleranceVector(eps)):
                    assert np.asarray(weighted_inf_norm(x, tol)).tobytes() == want, (x, eps)

    @pytest.mark.parametrize("bad", [np.nan, INF, -INF])
    @pytest.mark.parametrize("axis_eps", [1.0, INF, 0.0])
    def test_nonfinite_entry_raises_on_every_kind_of_axis(self, bad, axis_eps):
        # the bad entry sits on a finite, an infinite or a hard axis, next to
        # a hard axis whose nonzero entry alone would make the norm inf
        eps = [axis_eps, 0.0, 1.0]
        for x in ([bad, 0.0, 1.0], [bad, 2.0, 1.0]):
            with pytest.raises(ValueError, match="x must be finite"):
                weighted_inf_norm(x, eps)
            stack = np.array([[0.5, 0.0, 0.5], x, [0.0, 0.0, 0.0]])
            with pytest.raises(ValueError, match="x must be finite"):
                weighted_inf_norm(stack, ToleranceVector(eps))

    def test_legitimate_inf_does_not_raise(self):
        # a nonzero entry on a hard axis, and a quotient that overflows
        assert weighted_inf_norm([0.0, 1e-300], [1.0, 0.0]) == INF
        got = weighted_inf_norm(np.array([[0.0, 1e-300], [0.5, 0.0]]), [1.0, 0.0])
        assert got.tolist() == [INF, 0.5]
        with np.errstate(over="ignore"):
            assert weighted_inf_norm([1e300, 0.0], [1e-300, INF]) == INF

    def test_empty_vectors_have_norm_zero(self):
        assert weighted_inf_norm(np.zeros(0), ToleranceVector(np.zeros(0))) == 0.0
        assert weighted_inf_norm(np.zeros((2, 0)), np.zeros(0)).tolist() == [0.0, 0.0]
        assert weighted_inf_norm(np.zeros((0, 0)), np.zeros(0)).shape == (0,)


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


def loop_uniform_divide(box):
    """The per-child loop :func:`uniform_divide` replaced, kept as its oracle."""
    lo, hi = box.lo, box.hi
    mid = lo + (hi - lo) / 2.0
    out = []
    for k in range(1 << box.n):
        clo = lo.copy()
        chi = hi.copy()
        for i in range(box.n):
            if (k >> i) & 1:
                clo[i] = mid[i]
            else:
                chi[i] = mid[i]
        out.append(IntervalVector(clo, chi))
    return out


class TestUniformDivideBits:
    """The bit-table children are bit copies of the per-child loop's."""

    @staticmethod
    def boxes(rng, n):
        """Boxes with signed zeros, degenerate axes and huge and tiny ends."""
        for _ in range(25):
            lo = rng.normal(size=n) * 10.0 ** rng.integers(-310, 300, size=n)
            width = np.abs(rng.normal(size=n)) * 10.0 ** rng.integers(-320, 300, size=n)
            width[rng.random(n) < 0.25] = 0.0  # degenerate axes
            lo[rng.random(n) < 0.25] = rng.choice([0.0, -0.0])
            hi = lo + width
            zero = rng.random(n) < 0.15  # [-0.0, 0.0], [0.0, -0.0], ...
            lo[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
            hi[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
            yield IntervalVector(lo, hi)
        big = np.finfo(float).max
        yield IntervalVector(np.full(n, big / 2), np.full(n, big))
        yield IntervalVector(np.full(n, 5e-324), np.full(n, 1e-323))
        yield IntervalVector(np.full(n, -1e-323), np.full(n, 5e-324))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_per_child_loop(self, n):
        rng = np.random.default_rng(70 + n)
        for box in self.boxes(rng, n):
            got, want = uniform_divide(box), loop_uniform_divide(box)
            assert len(got) == len(want) == 1 << n
            for g, w in zip(got, want):
                assert g.lo.tobytes() == w.lo.tobytes()
                assert g.hi.tobytes() == w.hi.tobytes()
            # the engine reads the children's widths from their one stacked copy
            stacked = np.array([(w.lo, w.hi) for w in want])
            assert got[0].lo.base.tobytes() == stacked.tobytes()

    def test_overflowing_midpoint_raises_as_before(self):
        big = np.finfo(float).max
        box = IntervalVector(np.array([-big, 0.0]), np.array([big, 1.0]))
        for divide in (uniform_divide, loop_uniform_divide):
            with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                           match="finite endpoints"):
                divide(box)

    def test_children_are_read_only_and_box_untouched(self):
        box = IntervalVector(np.array([-0.0, 1.0, 2.0]), np.array([0.0, 3.0, 2.0]))
        before = box.as_array().tobytes()
        for kid in uniform_divide(box):
            assert not (kid.lo.flags.writeable or kid.hi.flags.writeable)
        assert box.as_array().tobytes() == before


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


class TestStackedCosRangeBits:
    """The stacked cos range keeps the bits of the plain formula."""

    @staticmethod
    def trig_cases():
        """Ends at multiples of pi/2 and 2 pi, one ulp either side, signed
        zeros, and widths from 0 to beyond 2 pi."""
        marks = np.concatenate([0.5 * math.pi * np.arange(-9, 10),
                                2.0 * math.pi * np.arange(-3, 4), [0.0, -0.0]])
        ends = np.concatenate([marks, np.nextafter(marks, INF), np.nextafter(marks, -INF)])
        widths = np.array([0.0, 5e-324, 1e-12, 0.3, 0.5 * math.pi, math.pi,
                           2.0 * math.pi, np.nextafter(2.0 * math.pi, INF), 7.5])
        lo = np.repeat(ends, widths.size)
        hi = lo + np.tile(widths, ends.size)
        # and upper ends on the marks, reached from below
        lo2 = np.repeat(marks, widths.size) - np.tile(widths, marks.size)
        hi2 = np.repeat(marks, widths.size)
        return np.concatenate([lo, lo2, [-0.0, 0.0]]), np.concatenate([hi, hi2, [0.0, -0.0]])

    @pytest.mark.parametrize("fn,shift", [(interval_cos, 0.0), (interval_sin, 0.5 * math.pi)])
    def test_trig_ranges_match_plain_formula(self, fn, shift):
        lo, hi = self.trig_cases()
        assert (lo <= hi).all()
        before = lo.tobytes(), hi.tobytes()
        want = _columnwise_cos_range(lo - shift, hi - shift)
        got = fn(lo, hi)
        assert (lo.tobytes(), hi.tobytes()) == before
        for g, w in zip(got, want):
            assert g.shape == lo.shape and g.tobytes() == w.tobytes()
        # a (k, m) stack and read-only inputs give the same bits
        lo.setflags(write=False)
        hi.setflags(write=False)
        got = fn(lo[:-2].reshape(-1, 9), hi[:-2].reshape(-1, 9))
        for g, w in zip(got, want):
            assert g.tobytes() == w[:-2].tobytes()

    @pytest.mark.parametrize("fn,shift", [(interval_cos, 0.0), (interval_sin, 0.5 * math.pi)])
    def test_scalar_ends_give_0d_arrays(self, fn, shift):
        lo, hi = self.trig_cases()
        for a, b in zip(lo[::37], hi[::37]):
            got = fn(float(a), float(b))
            want = _columnwise_cos_range(np.float64(a) - shift, np.float64(b) - shift)
            for g, w in zip(got, want):
                assert isinstance(g, np.ndarray) and g.shape == ()
                assert g.tobytes() == np.asarray(w).tobytes()

    def test_floor_only_test_matches_floor_ceil_formula(self):
        """``_cos_range``'s ``floor(q_hi) >= q_lo`` test has the bits of ``floor >= ceil``.

        Every ordered, crossed and degenerate pair of ends is checked: ends
        whose quotient by 2 pi is an integer (a degenerate interval at a large
        multiple of pi sits on an extremum that its own cos misses), infinite
        and NaN ends and signed zeros.
        """
        pi, two_pi = math.pi, 2 * math.pi
        ends = [0.0, -0.0, pi, -pi, two_pi, -two_pi, 3 * pi, -3 * pi, 2 ** 20 * two_pi,
                -(2 ** 20) * two_pi, 2 ** 40 * pi, 1e17, -1e17, 2.0 ** 60,
                np.nextafter(two_pi, 0.0), np.nextafter(two_pi, 7.0),
                np.nextafter(pi, 0.0), np.nextafter(pi, 4.0), 1.0, -2.5, 5e-324,
                math.inf, -math.inf, math.nan]
        lo, hi = (a.ravel() for a in np.meshgrid(ends, ends, indexing="ij"))
        with np.errstate(invalid="ignore"):  # cos of an infinite end is NaN
            got = _cos_range(np.array((lo, hi)))
            want = _columnwise_cos_range(lo, hi)
        assert got.tobytes() == np.array(want).tobytes()
        # the degenerate intervals on an extremum are the extremum itself
        for x, value in ((0.0, 1.0), (-0.0, 1.0), (two_pi, 1.0), (pi, -1.0), (-pi, -1.0)):
            assert _cos_range(np.array([[x], [x]])).ravel().tolist() == [value, value]
