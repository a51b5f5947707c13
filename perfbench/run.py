"""Reach-to-audit benchmark of nncreach.

Usage (from the repository root)::

    python3 perfbench/run.py --workload vehicle_adaptive --seed 1 --seconds 25 --trace 0

Each pipeline runs what a user runs, in one process with one thread: build
the experiment from a shipped config, ``compute_reachable_set``, the report
(``summarize``, ``tube.csv``, ``summary.json``), the audit
(``sample_trajectories`` with 200 trajectories and ``containment_check``)
and, on ``di_deep``, the diagnostics ``nncreach bounds`` computes.
Pipelines run back to back (a closed loop) for ``--seconds``; the seed sets
the audit's trajectory seeds and nothing else.  Set-up time is measured in
fresh interpreters (``setup_probe.py``).

Every pipeline passes a correctness gate: no containment violation, finite
tube volume and area, and a ``tube.csv`` SHA-256 equal to that of every
other pipeline of this checkout (the first digest is kept under
``.perfbench_out/``).  ``--trace 1`` alternates untraced and traced
pipelines; the traced ones wrap each layer's entry points
(``tracing.py``), report per-layer metrics and the tracing overhead, and
reconcile the traced counts with the program's own counters.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  The exit code is 0 only when every pipeline passed.
"""

from __future__ import annotations

import os

# one thread in the benchmark and in every child it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

AUDIT_TRAJECTORIES = 200
MIN_PIPELINES = 3
SETUP_REPS = 7  # at least this many set-up samples per run
THREADS = 1  # compute_reachable_set's default, recorded with the results
CAL_REF_S = 0.016  # calibration time that defines one reference second (a quiet machine)


@dataclass(frozen=True)
class Workload:
    config: str
    diagnose: bool


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "vehicle_adaptive": Workload("configs/vehicle_adaptive_d2n1.json", diagnose=False),
    "vehicle_uniform": Workload("configs/vehicle_uniform_d2n2.json", diagnose=False),
    "di_deep": Workload("configs/di_adaptive_d6n2.json", diagnose=True),
}


def _fail_setup(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# Calibration and set-up time.

def calibrate() -> float:
    """Wall seconds of a fixed kernel shaped like nncreach's own work.

    Small-array numpy calls driven from Python (the extension and the
    relaxation), float formatting (``write_csv``) and a broadcast
    comparison (``containment_check``).  The kernel imports nothing from
    nncreach, so a change to the program cannot change it.
    """
    x = np.linspace(-0.35, 0.35, 8)
    m = np.arange(16.0).reshape(4, 4) / 32.0
    pts = np.linspace(-1.0, 1.0, 800).reshape(200, 4)
    start = time.perf_counter()
    for _ in range(400):
        lo = np.minimum(x, 0.25)
        hi = np.maximum(x, -0.25)
        y = (np.cos(lo) * np.sin(hi)).reshape(2, 4) @ m
        x = np.clip(y.ravel(), -1.0, 1.0) + np.arctan(lo)
        ",".join(f"{v:.17g}" for v in x)
        (np.maximum(x[:4] - pts, pts - x[4:]).max(axis=1) > 0.5).sum()
    return time.perf_counter() - start


class SetupTimer:
    """Wall seconds from a fresh interpreter's start to a built Experiment."""

    def __init__(self, config_path: Path):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), str(config_path)]
        self()  # fills the page cache and writes the bytecode cache

    def __call__(self) -> float:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        res = subprocess.run(self.cmd, check=True, capture_output=True, text=True,
                             timeout=60)
        return float(res.stdout.strip().splitlines()[-1]) - start


# ---------------------------------------------------------------------------
# One pipeline.

@dataclass
class PipelineResult:
    wall: dict            # stage name -> wall seconds
    cal: list             # calibration times around the stages
    digest: str           # SHA-256 of tube.csv
    csv_rows: int
    initial_rows: int
    summary: dict
    violations: int
    worst_deficit: float
    diag_digest: str | None
    sample_count: int
    continuous: bool      # integrated through an open-loop system (not the LTI map)


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _diagnose(exp, tube, out_dir: Path) -> dict:
    """The work ``nncreach bounds`` does once the tube exists."""
    from nncreach import contraction, montecarlo
    from nncreach.intervals import IntervalVector

    cfg = exp.config
    stride = max(1, (len(tube.times) - 1) // 16)
    region = contraction.region_from_tube(tube, stride=stride)
    domain = contraction.region_domain(region)
    incl = exp.model.verify(domain)
    emb = exp.model.make_embedding()
    emb.refresh_control(domain, reverify=False, inherited=incl, interval_index=0)
    est = contraction.estimate_contraction(emb, region)
    nn_err = 0.0
    for box in region:
        pts = box.lo + contraction.halton(32, box.n) * (box.hi - box.lo)
        for z, nz in zip(pts, exp.net(pts)):
            zlo, zhi = incl(z, z, check=False)
            nn_err = max(nn_err, float(np.max(np.abs(zlo - nz))),
                         float(np.max(np.abs(zhi - nz))))
    init_err = float(np.max(exp.root_box.width / 2.0))
    w_err = (float(np.max((np.array(cfg.disturbance_hi) - np.array(cfg.disturbance_lo)) / 2.0))
             if cfg.disturbance_lo else 0.0)
    center = IntervalVector(exp.root_box.center, exp.root_box.center)
    _, center_traj = montecarlo.sample_trajectories(exp.model, center, 1, cfg.seed)
    ref = center_traj[0]
    t0 = float(tube.times[0])
    curve = []
    for k, t in enumerate(tube.times):
        hull = tube.hull_at(k)
        empirical = max(float(np.max(np.abs(hull.lo - ref[k]))),
                        float(np.max(np.abs(hull.hi - ref[k]))))
        bound = contraction.error_bound(est, float(t) - t0, init_err, nn_err, w_err)
        curve.append({"t": float(t), "empirical": empirical, "bound": bound})
    doc = {
        "c_x_estimate": est.c_x, "c_x_open_estimate": est.c_x_open,
        "l_u_estimate": est.l_u, "l_w_estimate": est.l_w, "lip_inf": est.lip_inf,
        "composite_bound": est.composite_bound, "sample_count": est.sample_count,
        "nn_err_sup_estimate": nn_err, "init_err": init_err, "w_err_sup": w_err,
        "error_bound_curve": curve,
    }
    _write_json(out_dir / "bounds.json", doc)
    return doc


class StageClock:
    """Wall time of each stage, with a calibration before and after each."""

    def __init__(self):
        self.cal = [calibrate()]
        self.wall = {}

    def stage(self, name, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        self.wall[name] = time.perf_counter() - start
        self.cal.append(calibrate())
        return out


def run_pipeline(wl: Workload, out_dir: Path, audit_seed: int) -> PipelineResult:
    from nncreach import config, montecarlo, partition

    csv_path = out_dir / "tube.csv"

    def build():
        return config.build_experiment(config.ExperimentConfig.load(ROOT / wl.config))

    def report(exp, tube):
        summary = config.summarize(exp, tube, clock.wall["reach"])
        tube.write_csv(csv_path)
        _write_json(out_dir / "summary.json", summary)
        return summary

    def audit(exp, tube):
        _, traj = montecarlo.sample_trajectories(exp.model, exp.root_box,
                                                 AUDIT_TRAJECTORIES, audit_seed)
        return montecarlo.containment_check(tube, traj)

    clock = StageClock()
    exp = clock.stage("build", build)
    # compute_reachable_set's default is the sequential one-thread path
    tube = clock.stage("reach", partition.compute_reachable_set, exp.root_box,
                       exp.params, exp.model)
    summary = clock.stage("report", report, exp, tube)
    checked = clock.stage("audit", audit, exp, tube)
    diag = clock.stage("diagnose", _diagnose, exp, tube, out_dir) if wl.diagnose else None

    data = csv_path.read_bytes()
    diag_digest = None
    if diag is not None:
        diag_digest = hashlib.sha256(json.dumps(diag, sort_keys=True).encode()).hexdigest()
    return PipelineResult(
        wall=clock.wall,
        cal=clock.cal,
        digest=hashlib.sha256(data).hexdigest(),
        csv_rows=data.count(b"\n") - 1,
        initial_rows=int(tube.boxes[0].shape[0]),
        summary=summary,
        violations=checked.violations,
        worst_deficit=checked.worst_deficit,
        diag_digest=diag_digest,
        sample_count=diag["sample_count"] if diag else 0,
        continuous=isinstance(exp.model, partition.ContinuousClosedLoopModel),
    )


# ---------------------------------------------------------------------------
# Correctness gate.

class Gate:
    """Checks every pipeline; digests must agree across all runs of a checkout."""

    def __init__(self, digest_file: Path):
        self.digest_file = digest_file
        self.known = digest_file.read_text().strip() if digest_file.exists() else None
        self.diag_digest = None

    def check(self, res: PipelineResult) -> list[str]:
        errors = []
        if res.violations:
            errors.append(f"{res.violations} containment violations "
                          f"(worst deficit {res.worst_deficit:.3g})")
        for key in ("final_hull_volume", "final_union_area_xy"):
            value = res.summary.get(key)
            if value is None or not math.isfinite(value) or value <= 0.0:
                errors.append(f"{key} is {value!r}")
        if self.known is None:
            self.known = res.digest
            self.digest_file.write_text(res.digest + "\n")
        elif res.digest != self.known:
            errors.append(f"tube.csv digest {res.digest} differs from {self.known}")
        if res.diag_digest is not None:
            if self.diag_digest is None:
                self.diag_digest = res.diag_digest
            elif res.diag_digest != self.diag_digest:
                errors.append("diagnostics differ between pipelines")
        return errors


def _audit_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Runs.

class Run:
    def __init__(self, args, wl: Workload, out_dir: Path):
        self.args = args
        self.wl = wl
        self.out_dir = out_dir
        self.gate = Gate(out_dir / "tube.sha256")
        self.attempted = 0
        self.failed = 0

    def pipeline(self):
        """One gated pipeline; returns its result, or None when it failed."""
        i = self.attempted
        self.attempted += 1
        try:
            res = run_pipeline(self.wl, self.out_dir, _audit_seed(self.args.seed, i))
        except Exception:  # a crash is a failed pipeline, not a failed benchmark
            traceback.print_exc()
            self.failed += 1
            return None
        errors = self.gate.check(res)
        if errors:
            for e in errors:
                print(f"perfbench: pipeline {i}: {e}", file=sys.stderr)
            self.failed += 1
            return None
        return res


def lower_quartile(values) -> float:
    values = list(values)
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def reference_seconds(wall: float, res: PipelineResult) -> float:
    """``wall`` scaled to the machine speed at which calibrate() takes CAL_REF_S.

    The shared machine's speed drifts by up to 2x within minutes and
    interference only ever slows work down, so the fastest calibration
    of a pipeline is the best estimate of the machine's speed while it ran.
    """
    return wall * CAL_REF_S / min(res.cal)


def run_untraced(run: Run, seconds: float):
    setup = SetupTimer(ROOT / run.wl.config)
    results, setup_samples = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if run.attempted >= MIN_PIPELINES and (
                not results or elapsed + elapsed / run.attempted > seconds):
            break
        setup_wall = setup()  # set-up samples are spread over the run
        res = run.pipeline()
        if res is not None:
            results.append(res)
            setup_samples.append(reference_seconds(setup_wall, res))
    if not results:
        return {}, {}, {}
    while len(setup_samples) < SETUP_REPS:
        setup_samples.append(reference_seconds(setup(), results[-1]))

    def stage(key):
        # lower quartile: interference only ever adds time
        return lower_quartile(reference_seconds(key(r), r) for r in results)

    ref = {name: stage(lambda r, n=name: r.wall[n]) for name in results[0].wall}
    setup_s = lower_quartile(setup_samples)
    metrics = {
        "setup_s": setup_s,
        "reach_s": ref["reach"],
        "report_s": ref["report"],
        "audit_s": ref["audit"],
        "total_s": setup_s + stage(lambda r: sum(r.wall.values())),
        "final_hull_volume": results[0].summary["final_hull_volume"],
        "final_union_area_xy": results[0].summary["final_union_area_xy"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"diagnose_s": ref["diagnose"]} if run.wl.diagnose else {}
    extra["build_in_process_s"] = ref["build"]
    extra.update({f"wall_median.{name}_s": statistics.median(r.wall[name] for r in results)
                  for name in results[0].wall})
    extra["calibration_min_median_s"] = statistics.median(min(r.cal) for r in results)
    extra["pipelines_timed"] = len(results)
    extra["setup_samples"] = len(setup_samples)
    extra["tube_csv_sha256"] = results[0].digest
    detail = {"setup_ref": setup_samples,
              "pipelines": [{"wall": r.wall, "cal": r.cal} for r in results]}
    return metrics, extra, detail


def traced_pipeline(run: Run):
    """One pipeline under the tracer.

    Returns ``(result, spans, layer metrics, layer self times)``, or None
    when the pipeline failed or its counts do not reconcile.
    """
    import tracing

    tracer = tracing.Tracer()
    with tracer:
        res = run.pipeline()
    if res is None:
        return None
    scale = reference_seconds(1.0, res)
    lm = tracing.layer_metrics(tracer.spans, tracer.discarded, scale,
                               sum(res.wall.values()), res.sample_count)
    problems = tracing.reconcile(lm, res.summary, res.csv_rows, res.initial_rows,
                                 run.wl.diagnose, res.continuous)
    if problems:
        for p in problems:
            print(f"perfbench: reconciliation: {p}", file=sys.stderr)
        run.failed += 1
        return None
    self_s = {layer: t * scale for layer, t in tracing.self_times(tracer.spans).items()}
    return res, tracer.spans, lm, self_s


def run_traced(run: Run, seconds: float):
    """Alternate untraced and traced pipelines; layer metrics from the traced ones."""
    untraced_reach, traced_reach, per_pipeline, self_s = [], [], [], []
    spans = None
    start = time.perf_counter()
    while run.attempted < 2 or time.perf_counter() - start < seconds:
        # swap the order every pair so that neither side always runs first
        for traced in (False, True) if run.attempted % 4 == 0 else (True, False):
            if not traced:
                res = run.pipeline()
                if res is not None:
                    untraced_reach.append(reference_seconds(res.wall["reach"], res))
                continue
            out = traced_pipeline(run)
            if out is not None:
                res, spans, lm, layer_self = out
                traced_reach.append(reference_seconds(res.wall["reach"], res))
                per_pipeline.append(lm)
                self_s.append(layer_self)
    if not per_pipeline or not untraced_reach:
        return {}, {}, {}
    metrics = {name: statistics.median(lm[name] for lm in per_pipeline)
               for name in per_pipeline[0]}
    metrics["trace.overhead_ratio"] = (lower_quartile(traced_reach)
                                      / lower_quartile(untraced_reach))
    (run.out_dir / "trace_spans.json").write_text(json.dumps(
        {"fields": ["name", "parent", "start", "end", "units"], "spans": spans}))
    extra = {
        "untraced_reach_s": lower_quartile(untraced_reach),
        "traced_reach_s": lower_quartile(traced_reach),
        "traced_pipelines": len(per_pipeline),
    }
    extra.update({f"self_s.{layer}": statistics.median(s.get(layer, 0.0) for s in self_s)
                  for layer in sorted(set().union(*self_s))})
    return metrics, extra, {}


def main(argv=None) -> int:
    args = _parse_args(argv)
    wl = WORKLOADS[args.workload]
    if not (SRC / "nncreach" / "__init__.py").is_file():
        _fail_setup(f"no nncreach sources under {SRC}; run from a full checkout")
    if not (ROOT / wl.config).is_file():
        _fail_setup(f"config {wl.config} not found")
    sys.path.insert(0, str(SRC))
    import nncreach
    if Path(nncreach.__file__).resolve().parent != (SRC / "nncreach").resolve():
        _fail_setup(f"nncreach imported from {nncreach.__file__}, not from {SRC}")
    e2e_units, layer_units = _declared_metrics()

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    run = Run(args, wl, out_dir)
    if args.trace:
        metrics, extra, detail = run_traced(run, args.seconds)
        units = layer_units
    else:
        metrics, extra, detail = run_untraced(run, args.seconds)
        units = e2e_units
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           "match BENCHMARK.json")

    env = {
        "workload": args.workload, "config": wl.config, "seed": args.seed,
        "trace": args.trace, "run_seconds": args.seconds,
        "pipelines_attempted": run.attempted, "threads": THREADS,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "platform": platform.platform(), "audit_trajectories": AUDIT_TRAJECTORIES,
    }
    correct = run.failed == 0 and bool(metrics)
    result = {
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    _write_json(out_dir / f"result_trace{args.trace}.json",
                {"env": env, "extra": extra, "detail": detail, **result})

    print(f"env: {json.dumps(env, sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    for name, value in extra.items():
        print(f"  {name:32s} {value}")
    print(f"  {'fail_rate':32s} {run.failed / run.attempted:>16.6g} "
          f"({run.failed}/{run.attempted})")
    print(f"gate: {'PASS' if correct else 'FAIL'}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
