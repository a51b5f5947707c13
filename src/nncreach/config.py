"""Experiment configuration: parsing, validation, assembly, execution.

Configs are JSON documents (schema version 1).  Infinite tolerances may be
written as the string ``"inf"``.  Paths inside a config are resolved
relative to the config file's directory when loaded from disk.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bounds import check_relaxable
from .intervals import IntervalVector, ToleranceVector
from .networks import MLPNetwork
from .partition import AlgorithmParams, ReachTube, compute_reachable_set
from .systems import get_system
from .volume import hull_volume, union_area_raster

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "Experiment",
    "build_experiment",
    "run_experiment",
    "apply_overrides",
]

SCHEMA_VERSION = 1
_RASTER_RESOLUTION = 1000


class ConfigError(ValueError):
    """A configuration document failed validation."""


def _need(data: dict, key: str, where: str):
    if key not in data:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return data[key]


def _as_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return value


def _as_float(value, where: str) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity", "+inf"):
            return float("inf")
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _as_finite(value, where: str) -> float:
    out = _as_float(value, where)
    if not math.isfinite(out):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return out


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _float_list(values, where: str, parse=_as_float) -> list[float]:
    if not isinstance(values, list):
        raise ConfigError(f"{where}: expected a list of numbers")
    return [parse(v, f"{where}[{i}]") for i, v in enumerate(values)]


@dataclass
class ExperimentConfig:
    system: str
    network: str
    initial_lo: list[float]
    initial_hi: list[float]
    dt: float
    horizon: float
    eps: list[float]
    gamma: float = 1.0
    depth_max: int = 0
    nn_depth_max: int = 0
    mode: str = "adaptive"
    system_params: dict = field(default_factory=dict)
    disturbance_lo: list[float] = field(default_factory=list)
    disturbance_hi: list[float] = field(default_factory=list)
    control_period: float | None = None
    control_instants: list[float] | None = None
    seed: int = 0
    repetitions: int = 1
    mc_trajectories: int = 200
    output_dir: str = "out"

    @classmethod
    def from_dict(cls, data: dict, base_dir: Path | None = None) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        schema = data.get("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ConfigError(f"config: unsupported schema version {schema}")

        sysdata = _need(data, "system", "config")
        if isinstance(sysdata, str):
            sysname, sysparams = sysdata, {}
        elif isinstance(sysdata, dict):
            sysname = _need(sysdata, "name", "config.system")
            sysparams = _as_object(sysdata.get("params", {}), "config.system.params")
        else:
            raise ConfigError("config.system must be a name or an object")

        network = _need(data, "network", "config")
        if not isinstance(network, str):
            raise ConfigError(f"config.network must be a file path, got {network!r}")
        if base_dir is not None and not Path(network).is_absolute():
            network = str((base_dir / network).resolve())

        init = _as_object(_need(data, "initial_set", "config"), "config.initial_set")
        lo = _float_list(_need(init, "lo", "config.initial_set"), "config.initial_set.lo")
        hi = _float_list(_need(init, "hi", "config.initial_set"), "config.initial_set.hi")
        if len(lo) != len(hi):
            raise ConfigError("config.initial_set: lo and hi lengths differ")

        dist = _as_object(data.get("disturbance", {}), "config.disturbance")
        dlo = _float_list(dist.get("lo", []), "config.disturbance.lo")
        dhi = _float_list(dist.get("hi", []), "config.disturbance.hi")
        if len(dlo) != len(dhi):
            raise ConfigError("config.disturbance: lo and hi lengths differ")

        control = _as_object(data.get("control", {}), "config.control")
        period = control.get("period")
        instants = control.get("instants")
        if period is not None:
            period = _as_finite(period, "config.control.period")
        if instants is not None:
            instants = _float_list(instants, "config.control.instants", _as_finite)
        if period is None and instants is None:
            raise ConfigError("config.control: give a period or explicit instants")

        dt = _as_finite(_need(data, "dt", "config"), "config.dt")
        horizon = _as_finite(_need(data, "horizon", "config"), "config.horizon")

        alg = _as_object(_need(data, "algorithm", "config"), "config.algorithm")
        eps_raw = _need(alg, "eps", "config.algorithm")
        if isinstance(eps_raw, list):
            eps = _float_list(eps_raw, "config.algorithm.eps")
        else:
            eps = [_as_float(eps_raw, "config.algorithm.eps")] * len(lo)
        if not all(e >= 0.0 for e in eps):  # also rejects NaN
            raise ConfigError(
                f"config.algorithm.eps must be non-negative (inf allowed), got {eps}"
            )
        gamma = _as_float(alg.get("gamma", 1.0), "config.algorithm.gamma")
        if not 0.0 < gamma <= 1.0:
            raise ConfigError(f"config.algorithm.gamma must be in (0, 1], got {gamma}")
        depth_max = _as_int(alg.get("depth_max", 0), "config.algorithm.depth_max")
        nn_depth_max = _as_int(alg.get("nn_depth_max", 0),
                               "config.algorithm.nn_depth_max")
        if depth_max < 0 or nn_depth_max < 0:
            raise ConfigError("config.algorithm: depth budgets must be non-negative")
        mode = alg.get("mode", "adaptive")
        if mode == "non-adaptive-uniform":
            mode = "uniform"
        if mode not in ("adaptive", "uniform"):
            raise ConfigError(
                f"config.algorithm.mode must be 'adaptive' or 'uniform', got {mode!r}"
            )

        seed = _as_int(data.get("seed", 0), "config.seed")
        if seed < 0:
            raise ConfigError(f"config.seed must be non-negative, got {seed}")

        return cls(
            system=sysname,
            system_params=dict(sysparams),
            network=network,
            initial_lo=lo,
            initial_hi=hi,
            disturbance_lo=dlo,
            disturbance_hi=dhi,
            control_period=period,
            control_instants=instants,
            dt=dt,
            horizon=horizon,
            eps=eps,
            gamma=gamma,
            depth_max=depth_max,
            nn_depth_max=nn_depth_max,
            mode=mode,
            seed=seed,
            repetitions=_as_int(data.get("repetitions", 1), "config.repetitions"),
            mc_trajectories=_as_int(data.get("mc_trajectories", 200),
                                    "config.mc_trajectories"),
            output_dir=str(data.get("output_dir", "out")),
        )

    @classmethod
    def load(cls, path, overrides=None) -> "ExperimentConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        if overrides:
            data = apply_overrides(data, overrides)
        return cls.from_dict(data, base_dir=path.parent)

    def to_dict(self) -> dict:
        """Canonical JSON-serializable form (inf rendered as the string 'inf')."""
        def enc(v):
            return "inf" if isinstance(v, float) and np.isinf(v) else v

        return {
            "schema": SCHEMA_VERSION,
            "system": {"name": self.system, "params": dict(self.system_params)},
            "network": self.network,
            "initial_set": {"lo": list(self.initial_lo), "hi": list(self.initial_hi)},
            "disturbance": {"lo": list(self.disturbance_lo), "hi": list(self.disturbance_hi)},
            "control": (
                {"instants": list(self.control_instants)}
                if self.control_instants is not None
                else {"period": self.control_period}
            ),
            "dt": self.dt,
            "horizon": self.horizon,
            "algorithm": {
                "eps": [enc(v) for v in self.eps],
                "gamma": self.gamma,
                "depth_max": self.depth_max,
                "nn_depth_max": self.nn_depth_max,
                "mode": self.mode,
            },
            "seed": self.seed,
            "repetitions": self.repetitions,
            "mc_trajectories": self.mc_trajectories,
            "output_dir": self.output_dir,
        }


def apply_overrides(data: dict, overrides) -> dict:
    """Apply ``key.path=value`` overrides; values parse as JSON when possible."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    out = json.loads(json.dumps(data))  # deep copy
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {item!r}: {part} is not an object")
        node[parts[-1]] = value
    return out


@dataclass
class Experiment:
    config: ExperimentConfig
    model: object
    root_box: IntervalVector
    params: AlgorithmParams
    net: MLPNetwork


def build_experiment(cfg: ExperimentConfig) -> Experiment:
    try:
        net = MLPNetwork.load(cfg.network)
        check_relaxable(net)
    except FileNotFoundError:
        raise ConfigError(f"network file not found: {cfg.network}") from None
    except ValueError as exc:
        raise ConfigError(f"network file {cfg.network}: {exc}") from None

    try:
        system = get_system(cfg.system, **cfg.system_params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"config.system: {exc}") from None

    try:
        root_box = IntervalVector(np.array(cfg.initial_lo), np.array(cfg.initial_hi))
    except ValueError as exc:
        raise ConfigError(f"config.initial_set: {exc}") from None

    w_box = None
    if cfg.disturbance_lo:
        try:
            w_box = IntervalVector(np.array(cfg.disturbance_lo), np.array(cfg.disturbance_hi))
        except ValueError as exc:
            raise ConfigError(f"config.disturbance: {exc}") from None

    if not hasattr(system, "build_model"):
        raise ConfigError(
            f"config.system: {cfg.system!r} does not provide a closed-loop model"
        )
    try:
        model = system.build_model(
            net, horizon=cfg.horizon, dt=cfg.dt,
            control_period=cfg.control_period,
            control_instants=cfg.control_instants, w_box=w_box,
        )
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from None

    if root_box.n != model.n:
        raise ConfigError(
            f"config.initial_set has dimension {root_box.n}, system state is {model.n}"
        )
    if net.input_dim != model.n:
        raise ConfigError(
            f"network expects inputs of dimension {net.input_dim}, state is {model.n}"
        )
    if len(cfg.eps) != model.n:
        raise ConfigError(
            f"config.algorithm.eps needs {model.n} entries, got {len(cfg.eps)}"
        )

    params = AlgorithmParams(
        eps=ToleranceVector(np.array(cfg.eps, dtype=float)),
        gamma=cfg.gamma,
        depth_max=cfg.depth_max,
        nn_depth_max=cfg.nn_depth_max,
        mode=cfg.mode,
    )
    return Experiment(config=cfg, model=model, root_box=root_box, params=params,
                      net=net)


def run_experiment(exp: Experiment):
    """Compute the reach tube and a machine-readable summary."""
    t_start = time.perf_counter()
    tube = compute_reachable_set(exp.root_box, exp.params, exp.model)
    wall = time.perf_counter() - t_start
    summary = summarize(exp, tube, wall)
    return tube, summary


def summarize(exp: Experiment, tube: ReachTube, wall_time: float) -> dict:
    cfg = exp.config
    final_t = float(tube.times[-1])
    hull = tube.final_hull()
    summary = {
        "schema": SCHEMA_VERSION,
        "system": cfg.system,
        "mode": cfg.mode,
        "depth_max": cfg.depth_max,
        "nn_depth_max": cfg.nn_depth_max,
        "gamma": cfg.gamma,
        "seed": cfg.seed,
        "final_time": final_t,
        "final_hull_lo": [float(v) for v in hull.lo],
        "final_hull_hi": [float(v) for v in hull.hi],
        "final_hull_volume": hull_volume(tube, final_t),
        "leaf_count": int(tube.boxes[-1].shape[0]),
        "nn_calls_total": int(sum(s.nn_calls for s in tube.interval_stats)),
        "subdivisions_total": int(sum(s.subdivisions for s in tube.interval_stats)),
        "per_step_max_width": [float(w) for w in tube.hull_widths().max(axis=1)],
        "interval_stats": [s._asdict() for s in tube.interval_stats],
        "wall_time_s": wall_time,
    }
    if exp.model.n >= 2:
        summary["final_union_area_xy"] = union_area_raster(
            tube.boxes[-1], coords=(0, 1), resolution=_RASTER_RESOLUTION
        )
        summary["raster_resolution"] = _RASTER_RESOLUTION
    return summary
