"""The benchmark tracer (``perfbench/tracing.py``) still sees every layer.

The tracer wraps methods through the owning class's ``__dict__`` and skips
a name that has gone missing, so a refactor that moves ``verify``,
``advance`` or ``refresh_control`` out of a class body only shows up as a
reconciliation failure of a traced benchmark run.  This runs the reach,
report and audit stages of shipped configs, adaptive and uniform (the
prebuilt tree), under the tracer and requires the traced counts to match
the program's own counters, the face evaluations to be seen, one per
continuous refresh, and the raster and containment kernels to be seen
where the tracer looks them up.
"""

import importlib.util

import pytest

from nncreach import config, montecarlo, partition

from conftest import CONFIGS, REPO


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRAJECTORIES = 5


@pytest.mark.parametrize("name, overrides", [
    ("di_adaptive_d3n1", []),
    ("vehicle_adaptive_d2n1", ["horizon=0.5"]),
    ("di_uniform_d2n2", []),
    ("vehicle_uniform_d2n1", ["horizon=0.5"]),
    ("di_adaptive_d6n2", []),
])
def test_traced_counts_reconcile(name, overrides, tmp_path):
    tracing = load_tracing()
    csv_path = tmp_path / "tube.csv"
    tracer = tracing.Tracer()
    with tracer:
        exp = config.build_experiment(
            config.ExperimentConfig.load(CONFIGS / f"{name}.json", overrides))
        tube = partition.compute_reachable_set(exp.root_box, exp.params, exp.model)
        summary = config.summarize(exp, tube, 0.0)
        tube.write_csv(csv_path)
        _, traj = montecarlo.sample_trajectories(exp.model, exp.root_box, TRAJECTORIES,
                                                 exp.config.seed)
        report = montecarlo.containment_check(tube, traj)
    csv_rows = csv_path.read_bytes().count(b"\n") - 1
    metrics = tracing.layer_metrics(tracer.spans, tracer.discarded, 1.0, 1.0, 0)
    continuous = isinstance(exp.model, partition.ContinuousClosedLoopModel)
    problems = tracing.reconcile(metrics, summary, csv_rows,
                                 int(tube.boxes[0].shape[0]), False, continuous)
    assert problems == []
    assert metrics["bounds.crown_calls"] > 0
    assert metrics["embedding.advance_calls"] > 0
    assert metrics["embedding.refresh_calls"] > 0
    # a continuous refresh evaluates its face caches with one traced
    # InclusionFunction call; the discrete embedding has no face caches
    assert metrics["bounds.face_eval_calls"] == (
        metrics["embedding.refresh_calls"] if continuous else 0)
    # the audit and the union raster are traced through the names the
    # benchmark calls: montecarlo's functions and config's module global
    assert report.ok
    assert metrics["montecarlo.points_checked"] == TRAJECTORIES * len(tube.times)
    rasters = sum(span[tracing.NAME] == "volume.raster" for span in tracer.spans)
    assert rasters == (1 if exp.model.n >= 2 else 0)


def test_tracer_installs_every_wrap():
    """The tracer skips a vanished name silently; this pins the names it finds."""
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        installed = sorted(f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
                           for owner, attr, _ in tracer._restore)
    assert installed == sorted([
        "ContinuousClosedLoopModel.verify", "ContinuousClosedLoopModel.advance",
        "DiscreteLTIModel.verify", "DiscreteLTIModel.advance",
        "ClosedLoopEmbedding.refresh_control", "DiscreteLTIEmbedding.refresh_control",
        "InclusionFunction.__call__",
        "VehicleSystem.extension",
        "nncreach.partition.compute_reachable_set", "nncreach.partition._build_uniform_tree",
        "nncreach.partition.uniform_divide", "ReachTube.write_csv",
        "nncreach.config.union_area_raster", "nncreach.config.build_experiment",
        "ExperimentConfig.load",
        "nncreach.montecarlo.sample_trajectories", "nncreach.montecarlo.containment_check",
        "nncreach.contraction.estimate_contraction", "nncreach.contraction.fd_jacobian",
        "MLPNetwork.__call__",
    ])
    assert tracer._restore == []
