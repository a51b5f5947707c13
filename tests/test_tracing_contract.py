"""The benchmark tracer (``perfbench/tracing.py``) still sees every layer.

The tracer wraps methods through the owning class's ``__dict__`` and skips
a name that has gone missing, so a refactor that moves ``verify``,
``advance`` or ``refresh_control`` out of a class body only shows up as a
reconciliation failure of a traced benchmark run.  This runs the reach
and report stages of shipped configs, adaptive and uniform (the prebuilt
tree), under the tracer and requires the traced counts to match the
program's own counters.
"""

import importlib.util

import pytest

from nncreach import config, partition

from conftest import CONFIGS, REPO


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, overrides", [
    ("di_adaptive_d3n1", []),
    ("vehicle_adaptive_d2n1", ["horizon=0.5"]),
    ("di_uniform_d2n2", []),
    ("vehicle_uniform_d2n1", ["horizon=0.5"]),
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
    csv_rows = csv_path.read_bytes().count(b"\n") - 1
    metrics = tracing.layer_metrics(tracer.spans, tracer.discarded, 1.0, 1.0, 0)
    continuous = isinstance(exp.model, partition.ContinuousClosedLoopModel)
    problems = tracing.reconcile(metrics, summary, csv_rows,
                                 int(tube.boxes[0].shape[0]), False, continuous)
    assert problems == []
    assert metrics["bounds.crown_calls"] > 0
    assert metrics["embedding.advance_calls"] > 0
    assert metrics["embedding.refresh_calls"] > 0
