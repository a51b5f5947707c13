"""Command-line front end.

Subcommands::

    reach   compute a reach tube; writes tube.csv + summary.json
    bench   repeat a run and report timing statistics; writes timing.csv
    mc      Monte-Carlo containment audit; exit code 2 on any violation
    bounds  contraction diagnostics over the computed tube; writes bounds.json

Exit codes: 0 success, 1 configuration or command-line error, 2 soundness
violation (mc), 3 numeric failure (embedding lost its ordering or a model
left its validity region).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .config import (ConfigError, ExperimentConfig, _json_value, build_experiment,
                     run_experiment)
from .contraction import diagnose
from .embedding import EmbeddingOrderError
from .montecarlo import containment_check, sample_trajectories
from .partition import compute_reachable_set, csv_template, write_csv_blocks
from .volume import hull_volume

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
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ConfigError(f"cannot make output directory {out_dir}: {exc.strerror}") from None
    return cfg, out_dir


def _write_json(path: Path, data: dict) -> None:
    """Strict JSON: non-finite floats become strings, never bare ``Infinity``."""
    text = json.dumps(_json_value(data), indent=1, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


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
    reps = args.reps if args.reps is not None else 2
    if reps < 2:
        raise ConfigError("bench needs at least 2 repetitions")
    exp = build_experiment(cfg)
    timings = []
    volumes = []
    for _ in range(reps):
        start = time.perf_counter()
        tube = compute_reachable_set(exp.root_box, exp.params, exp.model)
        timings.append(time.perf_counter() - start)
        volumes.append(hull_volume(tube, tube.times[-1]))
    if max(volumes) - min(volumes) != 0.0:
        print("bench: WARNING: repeated runs disagree on the final volume",
              file=sys.stderr)
    lines = ["rep,seconds,final_hull_volume"]
    lines += [f"{i},{t:.9f},{v:.17g}" for i, (t, v) in enumerate(zip(timings, volumes))]
    (out_dir / "timing.csv").write_text("\n".join(lines) + "\n")
    mean = float(np.mean(timings))
    std = float(np.std(timings))
    q1, median, q3 = np.percentile(timings, [25, 50, 75])
    print(f"bench: {reps} reps, {mean:.4f} +/- {std:.4f} s, "
          f"median {median:.4f} s [quartiles {q1:.4f}, {q3:.4f}], "
          f"final_hull_volume={volumes[0]:.6g} -> {out_dir}")
    return EXIT_OK


def cmd_mc(args) -> int:
    cfg, out_dir = _load(args)
    count = args.reps if args.reps is not None else cfg.mc_trajectories
    if count < 1:
        raise ConfigError("mc needs at least 1 trajectory")
    exp = build_experiment(cfg)
    tube = compute_reachable_set(exp.root_box, exp.params, exp.model)
    times, traj = sample_trajectories(exp.model, exp.root_box, count, cfg.seed)
    report = containment_check(tube, traj)
    n = traj.shape[2]
    # one block per trajectory: rows time,id,x0,x1,... with the id as the key
    pieces = csv_template("%.17g,", [",%.17g" * n] * len(times))
    write_csv_blocks(out_dir / "trajectories.csv",
                     "time,trajectory," + ",".join(f"x{i}" for i in range(n)),
                     ((pieces, str(tid), np.column_stack((times, states)).ravel().tolist())
                      for tid, states in enumerate(traj)))
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
    tube = compute_reachable_set(exp.root_box, exp.params, exp.model)
    doc = diagnose(exp, tube)
    _write_json(out_dir / "bounds.json", doc)
    print(
        f"bounds: c_x~{doc['c_x_estimate']:.4g} composite~{doc['composite_bound']:.4g} "
        f"lip_inf={doc['lip_inf']:.4g} (gap {doc['dominance_gap']:.2g}) -> {out_dir}"
    )
    return EXIT_OK


_COMMANDS = {"reach": cmd_reach, "bench": cmd_bench, "mc": cmd_mc, "bounds": cmd_bounds}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EmbeddingOrderError, ValueError) as exc:
        # a state that lost its order or went NaN, a relaxation queried outside
        # its domain
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
