"""Span tracing of the nncreach layers, installed from outside the package.

:class:`Tracer` replaces the public entry points of each ``src/nncreach``
module with wrappers that record one span per call -- name, parent span,
start, end and a work count (rows, steps, points) -- and restores the
originals on exit.  Spans stay in memory; :func:`layer_metrics` turns the
spans of one pipeline into the per-layer metrics and :func:`reconcile`
checks the traced counts against the program's own counters.

The wrappers must be installed before the experiment is built, because the
vehicle's open-loop system captures ``VehicleSystem.extension`` as a bound
method at build time.
"""

from __future__ import annotations

import functools
from time import perf_counter

import numpy as np

from nncreach import bounds, config, contraction, embedding, montecarlo, networks
from nncreach import partition, systems

# span record fields
NAME, PARENT, START, END, UNITS = range(5)


class Tracer:
    """Context manager that wraps the layer entry points while active."""

    def __init__(self):
        self.spans = []        # [name, parent index, start, end, units]
        self.discarded = set()  # indices of probe advances thrown away by a split
        self._stack = [-1]
        self._restore = []
        self._probe = None     # (span index, lo, hi) of the latest advance

    # -- installation -------------------------------------------------------

    def __enter__(self):
        def steps(args):
            return int(args[4])

        def rows(args):
            return int(args[1].shape[0])

        def points(args):
            traj = np.asarray(args[1])
            return int(traj.shape[0] * traj.shape[1])

        def mark_probe(idx, args):
            self._probe = (idx, args[2], args[3])

        def clear_probe(idx, args):
            self._probe = None

        def before_split(idx, args):
            box = args[0]
            if (self._probe is not None and np.array_equal(box.lo, self._probe[1])
                    and np.array_equal(box.hi, self._probe[2])):
                self.discarded.add(self._probe[0])
            self._probe = None

        for model in (partition.ContinuousClosedLoopModel, partition.DiscreteLTIModel):
            self._wrap(model, "verify", "bounds.crown", hook=clear_probe)
            self._wrap(model, "advance", "embedding.advance", units=steps,
                       hook=mark_probe)
        for emb in (embedding.ClosedLoopEmbedding, embedding.DiscreteLTIEmbedding):
            self._wrap(emb, "refresh_control", "embedding.refresh", hook=clear_probe)
        self._wrap(bounds.InclusionFunction, "batch", "bounds.face_eval")
        self._wrap(bounds.InclusionFunction, "__call__", "bounds.face_eval")
        self._wrap(systems.VehicleSystem, "extension", "systems.extension", units=rows)
        self._wrap(partition, "compute_reachable_set", "partition.reach")
        self._wrap(partition, "_build_uniform_tree", "partition.prebuild")
        self._wrap(partition, "uniform_divide", "partition.split", hook=before_split)
        self._wrap(partition.ReachTube, "write_csv", "partition.write_csv")
        self._wrap(config, "union_area_raster", "volume.raster")
        self._wrap(config, "build_experiment", "config.build")
        self._wrap(config.ExperimentConfig, "load", "config.build")
        self._wrap(montecarlo, "sample_trajectories", "montecarlo.sample")
        self._wrap(montecarlo, "containment_check", "montecarlo.containment",
                   units=points)
        self._wrap(contraction, "estimate_contraction", "contraction.estimate")
        self._wrap(contraction, "fd_jacobian", "contraction.fd_jacobian")
        self._wrap(networks.MLPNetwork, "__call__", "networks.forward")
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        return False

    def _wrap(self, owner, attr, name, units=None, hook=None):
        orig = owner.__dict__.get(attr)
        if orig is None:  # gone from the program: its counts fail reconcile()
            return
        is_classmethod = isinstance(orig, classmethod)
        func = orig.__func__ if is_classmethod else orig
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, stack[-1], 0.0, 0.0, units(args) if units else 0]
            spans.append(rec)
            if hook is not None:
                hook(idx, args)
            stack.append(idx)
            rec[START] = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._restore.append((owner, attr, orig))


# ---------------------------------------------------------------------------
# Metrics from the spans of one pipeline.

def _dur(rec) -> float:
    return rec[END] - rec[START]


def self_times(spans) -> dict:
    """Per-layer self time: span durations minus their direct children's."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += _dur(rec)
    out = {}
    for i, rec in enumerate(spans):
        layer = rec[NAME].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + _dur(rec) - child[i]
    return out


def layer_metrics(spans, discarded, scale: float, pipeline_s: float,
                  sample_count: int) -> dict:
    """Per-layer metrics of one traced pipeline, by name (units in ``BENCHMARK.json``).

    Times are span wall times multiplied by ``scale`` (reference seconds
    per wall second); ``pipeline_s`` is the traced wall time of the
    in-process stages and ``sample_count`` the contraction estimate's
    sample count (0 when the workload runs no diagnostics).
    """
    by = {}
    for i, rec in enumerate(spans):
        by.setdefault(rec[NAME], []).append(i)

    def calls(name):
        return len(by.get(name, ()))

    def wall(name):
        return sum(_dur(spans[i]) for i in by.get(name, ()))

    def secs(name):
        return scale * wall(name)

    def units(name):
        return sum(spans[i][UNITS] for i in by.get(name, ()))

    reach_idx = set(by.get("partition.reach", ()))
    reach_s = sum(_dur(spans[i]) for i in reach_idx)
    reach_children = sum(
        _dur(rec) for rec in spans
        if rec[PARENT] in reach_idx and rec[NAME].split(".")[0] in ("bounds", "embedding")
    )
    prebuild = set(by.get("partition.prebuild", ()))
    subdivisions = sum(1 for i in by.get("partition.split", ())
                       if spans[i][PARENT] not in prebuild)
    euler_steps = units("embedding.advance")
    kept_steps = euler_steps - sum(spans[i][UNITS] for i in discarded)
    ext_calls = calls("systems.extension")
    ext_rows = units("systems.extension")
    return {
        "systems.extension_calls": ext_calls,
        "systems.extension_rows": ext_rows,
        "systems.rows_per_call": ext_rows / ext_calls if ext_calls else 0.0,
        "systems.extension_share": wall("systems.extension") / reach_s,
        "embedding.advance_calls": calls("embedding.advance"),
        "embedding.euler_steps": euler_steps,
        "embedding.advance_s": secs("embedding.advance"),
        "embedding.us_per_leaf_step": 1e6 * secs("embedding.advance") / euler_steps,
        "embedding.refresh_calls": calls("embedding.refresh"),
        "embedding.refresh_s": secs("embedding.refresh"),
        "bounds.crown_calls": calls("bounds.crown"),
        "bounds.crown_s": secs("bounds.crown"),
        "bounds.face_eval_calls": calls("bounds.face_eval"),
        "bounds.face_eval_s": secs("bounds.face_eval"),
        "partition.self_s": scale * (reach_s - reach_children),
        "partition.leaf_steps": kept_steps,
        "partition.subdivisions": subdivisions,
        "partition.split_s": secs("partition.split"),
        "partition.useful_step_ratio": kept_steps / euler_steps,
        "partition.write_csv_s": secs("partition.write_csv"),
        "volume.raster_s": secs("volume.raster"),
        "montecarlo.sample_s": secs("montecarlo.sample"),
        "montecarlo.containment_s": secs("montecarlo.containment"),
        "montecarlo.points_checked": units("montecarlo.containment"),
        "contraction.estimate_share": wall("contraction.estimate") / pipeline_s,
        "contraction.sample_count": sample_count,
        "contraction.fd_jacobian_calls": calls("contraction.fd_jacobian"),
        "config.build_s": secs("config.build"),
        "networks.forward_calls": calls("networks.forward"),
        "networks.forward_s": secs("networks.forward"),
    }


def reconcile(metrics: dict, summary: dict, csv_rows: int, initial_rows: int,
              diagnose: bool, continuous: bool) -> list[str]:
    """Differences between traced counts and the program's own counters."""
    m = metrics.get
    checks = [
        ("bounds.crown_calls", m("bounds.crown_calls"),
         "summary nn_calls_total" + (" + 1 diagnostics call" if diagnose else ""),
         summary["nn_calls_total"] + (1 if diagnose else 0)),
        ("partition.subdivisions", m("partition.subdivisions"),
         "summary subdivisions_total", summary["subdivisions_total"]),
        ("partition.leaf_steps", m("partition.leaf_steps") + initial_rows,
         "tube.csv rows (leaf steps + initial rows)", csv_rows),
    ]
    if continuous:
        checks.append(("systems.extension_calls", m("systems.extension_calls"),
                       "embedding.euler_steps", m("embedding.euler_steps")))
    return [f"{name}: traced {got} != {what} {want}"
            for name, got, what, want in checks if got != want]
