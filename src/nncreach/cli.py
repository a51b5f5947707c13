"""Command-line front end.

Subcommands::

    reach   compute a reach tube; writes tube.csv + summary.json
    bench   repeat a run and report timing statistics; writes timing.csv
    mc      Monte-Carlo containment audit; exit code 2 on any violation
    bounds  contraction diagnostics over the computed tube; writes bounds.json

Exit codes: 0 success, 1 configuration error, 2 soundness violation (mc),
3 numeric failure (embedding lost its ordering or a model left its
validity region).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, build_experiment, run_experiment
from .contraction import (
    estimate_contraction,
    halton,
    region_domain,
    region_from_tube,
    error_bound,
)
from .embedding import EmbeddingOrderError
from .intervals import IntervalVector
from .montecarlo import containment_check, sample_trajectories
from .partition import compute_reachable_set, csv_rows

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOUNDNESS = 2
EXIT_NUMERIC = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nncreach",
        description="Interval reachability of neural-network controlled systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("reach", "compute a reachable-set tube"),
        ("bench", "repeat a run and report timing statistics"),
        ("mc", "Monte-Carlo containment audit of a computed tube"),
        ("bounds", "contraction diagnostics over the computed tube"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="experiment config (JSON)")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--reps", type=int, default=None,
                        help="repetitions (bench) / trajectory count (mc)")
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and ignored; runs are "
                             "single-threaded")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry (dotted path)")
    return parser


def _load(args) -> tuple[ExperimentConfig, Path]:
    # --seed is the last override, so the config's seed checks apply to it
    seed = [] if args.seed is None else [f"seed={args.seed}"]
    cfg = ExperimentConfig.load(args.config, overrides=args.set + seed)
    out_dir = Path(args.out) if args.out else Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, out_dir


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def cmd_reach(args) -> int:
    cfg, out_dir = _load(args)
    exp = build_experiment(cfg)
    tube, summary = run_experiment(exp)
    tube.write_csv(out_dir / "tube.csv")
    _write_json(out_dir / "summary.json", summary)
    print(
        f"reach: {cfg.system} mode={cfg.mode} leaves={summary['leaf_count']} "
        f"nn_calls={summary['nn_calls_total']} "
        f"final_hull_volume={summary['final_hull_volume']:.6g} "
        f"wall={summary['wall_time_s']:.3f}s -> {out_dir}"
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg, out_dir = _load(args)
    reps = args.reps if args.reps is not None else max(2, cfg.repetitions)
    if reps < 2:
        raise ConfigError("bench needs at least 2 repetitions")
    exp = build_experiment(cfg)
    timings = []
    volumes = []
    for _ in range(reps):
        start = time.perf_counter()
        tube = compute_reachable_set(exp.root_box, exp.params, exp.model)
        timings.append(time.perf_counter() - start)
        hull = tube.final_hull()
        volumes.append(float(np.prod(hull.width)))
    if max(volumes) - min(volumes) != 0.0:
        print("bench: WARNING: repeated runs disagree on the final volume",
              file=sys.stderr)
    lines = ["rep,seconds,final_hull_volume"]
    lines += [f"{i},{t:.9f},{v:.17g}" for i, (t, v) in enumerate(zip(timings, volumes))]
    (out_dir / "timing.csv").write_text("\n".join(lines) + "\n")
    mean = float(np.mean(timings))
    std = float(np.std(timings))
    print(f"bench: {reps} reps, {mean:.4f} +/- {std:.4f} s, "
          f"final_hull_volume={volumes[0]:.6g} -> {out_dir}")
    return EXIT_OK


def cmd_mc(args) -> int:
    cfg, out_dir = _load(args)
    count = args.reps if args.reps is not None else cfg.mc_trajectories
    if count < 1:
        raise ConfigError("mc needs at least 1 trajectory")
    exp = build_experiment(cfg)
    tube, summary = run_experiment(exp)
    times, traj = sample_trajectories(exp.model, exp.root_box, count, cfg.seed)
    report = containment_check(tube, traj)
    n = traj.shape[2]
    header = "time,trajectory," + ",".join(f"x{i}" for i in range(n))
    rows = [header]
    t_list = times.tolist()
    for tid, states in enumerate(traj.tolist()):
        rows += csv_rows(t_list, itertools.repeat(tid), states)
    (out_dir / "trajectories.csv").write_text("\n".join(rows) + "\n")
    _write_json(out_dir / "mc_report.json", {
        "schema": 1,
        "trajectories": count,
        "seed": cfg.seed,
        "violations": report.violations,
        "worst_deficit": report.worst_deficit,
        "first_violation": list(report.first_violation) if report.first_violation else None,
    })
    status = "SOUND" if report.ok else "VIOLATED"
    print(f"mc: {count} trajectories, violations={report.violations}, "
          f"worst_deficit={report.worst_deficit:.3g} [{status}] -> {out_dir}")
    return EXIT_OK if report.ok else EXIT_SOUNDNESS


def cmd_bounds(args) -> int:
    cfg, out_dir = _load(args)
    exp = build_experiment(cfg)
    tube, summary = run_experiment(exp)
    stride = max(1, (len(tube.times) - 1) // 16)
    region = region_from_tube(tube, stride=stride)
    domain = region_domain(region)
    incl = exp.model.verify(domain)
    emb = exp.model.make_embedding()
    emb.refresh_control(domain, reverify=False, inherited=incl, interval_index=0)
    est = estimate_contraction(emb, region)

    # network approximation error over the analysis region (sampled)
    nn_err = 0.0
    for box in region:
        pts = box.lo + halton(32, box.n) * (box.hi - box.lo)
        outputs = exp.net(pts)
        zlo, zhi = incl(pts, pts, check=False)
        # per-point maxima; a NaN one is skipped, as a running max skips it
        nn_err = max(nn_err, *np.abs(zlo - outputs).max(axis=1).tolist(),
                     *np.abs(zhi - outputs).max(axis=1).tolist())
    init_err = float(np.max(exp.root_box.width / 2.0))
    if cfg.disturbance_lo:
        w_err = float(np.max((np.array(cfg.disturbance_hi)
                              - np.array(cfg.disturbance_lo)) / 2.0))
    else:
        w_err = 0.0

    # bound curve vs the deviation of the tube hull from the center run
    _, center_traj = sample_trajectories(
        exp.model,
        IntervalVector(exp.root_box.center, exp.root_box.center),
        1, cfg.seed,
    )
    ref = center_traj[0]
    t0 = float(tube.times[0])
    curve = []
    for k, t in enumerate(tube.times):
        hull = tube.hull_at(k)
        empirical = max(
            float(np.max(np.abs(hull.lo - ref[k]))),
            float(np.max(np.abs(hull.hi - ref[k]))),
        )
        bound = error_bound(est, float(t) - t0, init_err, nn_err, w_err)
        curve.append({"t": float(t), "empirical": empirical, "bound": bound})

    dominance_gap = est.c_x - est.composite_bound
    _write_json(out_dir / "bounds.json", {
        "schema": 1,
        "c_x_estimate": est.c_x,
        "c_x_open_estimate": est.c_x_open,
        "l_u_estimate": est.l_u,
        "l_w_estimate": est.l_w,
        "lip_inf": est.lip_inf,
        "composite_bound": est.composite_bound,
        "dominance_gap": dominance_gap,
        "sample_count": est.sample_count,
        "nn_err_sup_estimate": nn_err,
        "init_err": init_err,
        "w_err_sup": w_err,
        "error_bound_curve": curve,
    })
    print(
        f"bounds: c_x~{est.c_x:.4g} composite~{est.composite_bound:.4g} "
        f"lip_inf={est.lip_inf:.4g} (gap {dominance_gap:.2g}) -> {out_dir}"
    )
    return EXIT_OK


_COMMANDS = {"reach": cmd_reach, "bench": cmd_bench, "mc": cmd_mc, "bounds": cmd_bounds}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EmbeddingOrderError, ValueError) as exc:
        # a state that lost its order or went NaN, a relaxation queried outside
        # its domain, an interval extension returning crossed enclosures
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
