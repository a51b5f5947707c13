"""The report, the audit and the diagnostics run in bounded memory.

``ReachTube.write_csv`` holds one time step's text at a time, and
``containment_check`` folds through two fixed buffers, so neither peak grows
with the tube.  Holding the whole tube's text, or a ``(B, count)`` temporary
per operation, costs about 19 MB and 11 MB on these tubes.
``union_area_raster`` sums its cover grid a band of rows at a time, and the
contraction estimate evaluates its field in runs of rows, so neither peak
grows with the resolution or the sample count.
"""

import tracemalloc

import numpy as np
import pytest

from nncreach import (
    ReachTube,
    VehicleSystem,
    compute_reachable_set,
    config,
    containment_check,
    contraction,
    union_area_raster,
)

from conftest import CONFIGS

MB = 1e6


def synthetic_tube(rng, leaves, steps, n):
    lo = rng.normal(size=(steps, leaves, n))
    hi = lo + rng.random((steps, leaves, n))
    return ReachTube(times=np.arange(steps) * 0.05, boxes=list(np.stack([lo, hi], axis=2)),
                     interval_stats=[])


def traced_peak(fn, *args):
    """Bytes traced by ``tracemalloc`` during ``fn(*args)`` above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_write_csv_peak_is_one_step(tmp_path):
    tube = synthetic_tube(np.random.default_rng(1), leaves=256, steps=126, n=4)
    assert traced_peak(tube.write_csv, tmp_path / "tube.csv") < 1 * MB


def test_containment_check_peak_is_two_buffers():
    rng = np.random.default_rng(2)
    tube = synthetic_tube(rng, leaves=1657, steps=4, n=2)
    traj = rng.normal(size=(200, 4, 2))
    assert traced_peak(containment_check, tube, traj) < 2 * MB


def test_raster_peak_is_one_band():
    rng = np.random.default_rng(3)
    lo = rng.normal(size=(1657, 2))
    boxes = np.stack([lo, lo + rng.random((1657, 2))], axis=1)
    assert traced_peak(union_area_raster, boxes) < 1 * MB


def test_raster_at_a_large_resolution_allocates_no_grid():
    """A full grid at 10^5 would be 40 GB; the bands hold two rows of it."""
    boxes = np.array([[[0.0, 0.0], [1.0, 1.0]], [[2.0, 0.5], [3.0, 2.0]],
                      [[0.5, 0.5], [2.5, 1.5]]])
    assert traced_peak(union_area_raster, boxes, 10 ** 5) < 4 * MB
    # areas 1 + 1.5 + 2 less the overlaps 0.25 and 0.5, to the raster's resolution
    assert union_area_raster(boxes, 10 ** 5) == pytest.approx(3.75, abs=1e-3)


def test_diagnose_peak_is_bounded_by_the_field_runs():
    """The parent's one field call per Jacobian peaked at 40.6 MB here."""
    exp = config.build_experiment(config.ExperimentConfig.load(
        CONFIGS / "vehicle_adaptive_d2n1.json", overrides=["horizon=0.5"]))
    tube = compute_reachable_set(exp.root_box, exp.params, exp.model)
    assert traced_peak(contraction.diagnose, exp, tube) < 20 * MB


def vehicle_field_rows(rng, rows):
    a = rng.uniform([-10, -10, -np.pi, 0.5], [10, 10, np.pi, 3.0], size=(rows, 4))
    b = a + rng.uniform(0.0, 0.2, size=(rows, 4))
    ulo = rng.uniform(-2, 2, size=(rows, 2))
    return a, b, ulo, ulo + rng.uniform(0.0, 0.5, size=(rows, 2)), np.zeros((rows, 0)), \
        np.zeros((rows, 0))


def test_field_runs_keep_the_bits_of_one_call():
    open_field = VehicleSystem().open_loop().open_field
    runs = contraction._in_runs(open_field, 4)
    most = contraction._FIELD_ELEMENTS // (2 * 4 * 4)
    rng = np.random.default_rng(4)
    for rows in (1, 2, most - 1, most, most + 1, 2 * most + 1):
        args = vehicle_field_rows(rng, rows)
        assert runs(*args).tobytes() == open_field(*args).tobytes(), rows


def test_field_runs_split_no_stack_into_single_rows(monkeypatch):
    monkeypatch.setattr(contraction, "_FIELD_ELEMENTS", 4 * 2 * 4 * 4)
    lengths = []

    def field(*args):
        lengths.append(len(args[0]))
        return args[0]

    runs = contraction._in_runs(field, 4)
    for rows in range(1, 40):
        lengths.clear()
        x = np.arange(rows)[:, None]
        assert np.array_equal(runs(x, x), x)
        assert sum(lengths) == rows and max(lengths) <= 4
        assert rows == 1 or min(lengths) >= 2, lengths


def diagnosed(name, overrides=()):
    """The experiment and embedding ``diagnose`` would estimate from, and its region."""
    exp = config.build_experiment(config.ExperimentConfig.load(CONFIGS / name, overrides))
    tube = compute_reachable_set(exp.root_box, exp.params, exp.model)
    region = contraction.region_from_tube(tube, stride=max(1, (len(tube.times) - 1) // 16))
    domain = contraction.region_domain(region)
    incl = exp.model.verify(domain)
    emb = exp.model.make_embedding()
    emb.refresh_control(domain, reverify=False, inherited=incl)
    return emb, region


def counted_field(emb):
    calls = []
    field = emb.open_field

    def counting(*args):
        calls.append(len(args[0]))
        return field(*args)

    emb.open_field = counting
    return calls


def test_di_deep_estimate_makes_one_field_call_per_jacobian():
    emb, region = diagnosed("di_adaptive_d6n2.json")
    calls = counted_field(emb)
    contraction.estimate_contraction(emb, region)
    assert len(calls) == 7  # the closed loop's, then state and input per input pair


def test_vehicle_estimate_is_the_same_in_any_runs(monkeypatch):
    emb, region = diagnosed("vehicle_adaptive_d2n1.json", ["horizon=0.5"])
    calls = counted_field(emb)
    chunked = contraction.estimate_contraction(emb, region)
    assert len(calls) > 7 and max(calls) <= contraction._FIELD_ELEMENTS // 32
    monkeypatch.setattr(contraction, "_FIELD_ELEMENTS", 2 ** 40)
    calls.clear()
    whole = contraction.estimate_contraction(emb, region)
    assert len(calls) == 7
    assert chunked == whole
