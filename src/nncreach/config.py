"""Experiment configuration: parsing, validation, assembly, execution.

Configs are JSON documents (schema version 1).  Infinite tolerances may be
written as the string ``"inf"``.  A relative ``network`` path resolves
against the config file's directory when loaded from disk; ``output_dir``
is used as written, so a relative one resolves against the working
directory.

:meth:`ExperimentConfig.from_dict` checks only what no object built from
the config checks: JSON types, required and unknown keys (in every object
but ``system.params``, which the plant checks), ``"inf"`` strings, finite
``dt``, ``horizon`` and ``control.period``, ``seed >= 0``, the type of
``output_dir`` and the schema version.  :func:`build_experiment` builds the
algorithm parameters, the initial set, the disturbance box, the network and
the plant's model, each of which checks its own values, and maps each
``ValueError`` to a :class:`ConfigError` under the JSON path it came from.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from .bounds import check_relaxable
from .intervals import IntervalVector
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


def _json_value(v):
    """``v`` with every non-finite float written as ``"inf"``, ``"-inf"`` or ``"nan"``.

    The one encoding of non-finite numbers in the JSON outputs; :func:`_as_float`
    reads ``"inf"`` back.
    """
    if isinstance(v, float) and not math.isfinite(v):
        return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    return v


def _need(data: dict, key: str, where: str):
    if key not in data:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return data[key]


def _as_object(value, where: str, keys=None) -> dict:
    """``value`` as a JSON object, whose keys must all be among ``keys`` if given."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    if keys is not None:
        for key in value:
            if key not in keys:
                raise ConfigError(f"{where}.{key}: unknown key (known: {', '.join(keys)})")
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


def _float_list(values, where: str) -> list[float]:
    if not isinstance(values, list):
        raise ConfigError(f"{where}: expected a list of numbers")
    return [_as_float(v, f"{where}[{i}]") for i, v in enumerate(values)]


@dataclass
class ExperimentConfig:
    system: str
    network: str
    initial_lo: list[float]
    initial_hi: list[float]
    dt: float
    horizon: float
    control_period: float
    eps: list[float]
    gamma: float = 1.0
    depth_max: int = 0
    nn_depth_max: int = 0
    mode: str = "adaptive"
    system_params: dict = field(default_factory=dict)
    disturbance_lo: list[float] = field(default_factory=list)
    disturbance_hi: list[float] = field(default_factory=list)
    seed: int = 0
    mc_trajectories: int = 200
    output_dir: str = "out"

    @classmethod
    def from_dict(cls, data: dict, base_dir: Path | None = None) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        _as_object(data, "config", ("schema", "system", "network", "initial_set",
                                    "disturbance", "control", "dt", "horizon",
                                    "algorithm", "seed", "mc_trajectories", "output_dir"))
        schema = _as_int(data.get("schema", SCHEMA_VERSION), "config.schema")
        if schema != SCHEMA_VERSION:
            raise ConfigError(f"config: unsupported schema version {schema}")

        sysdata = _need(data, "system", "config")
        if isinstance(sysdata, str):
            sysname, sysparams = sysdata, {}
        elif isinstance(sysdata, dict):
            _as_object(sysdata, "config.system", ("name", "params"))
            sysname = _need(sysdata, "name", "config.system")
            # free-form: the plant factory checks its own parameters
            sysparams = _as_object(sysdata.get("params", {}), "config.system.params")
        else:
            raise ConfigError("config.system must be a name or an object")

        network = _need(data, "network", "config")
        if not isinstance(network, str):
            raise ConfigError(f"config.network must be a file path, got {network!r}")
        if base_dir is not None and not Path(network).is_absolute():
            network = str((base_dir / network).resolve())

        init = _as_object(_need(data, "initial_set", "config"), "config.initial_set",
                          ("lo", "hi"))
        lo = _float_list(_need(init, "lo", "config.initial_set"), "config.initial_set.lo")
        hi = _float_list(_need(init, "hi", "config.initial_set"), "config.initial_set.hi")

        dist = _as_object(data.get("disturbance", {}), "config.disturbance", ("lo", "hi"))
        dlo = _float_list(dist.get("lo", []), "config.disturbance.lo")
        dhi = _float_list(dist.get("hi", []), "config.disturbance.hi")

        control = _as_object(_need(data, "control", "config"), "config.control",
                             ("period",))
        period = _as_finite(_need(control, "period", "config.control"),
                            "config.control.period")

        dt = _as_finite(_need(data, "dt", "config"), "config.dt")
        horizon = _as_finite(_need(data, "horizon", "config"), "config.horizon")

        alg = _as_object(_need(data, "algorithm", "config"), "config.algorithm",
                         ("eps", "gamma", "depth_max", "nn_depth_max", "mode"))
        eps_raw = _need(alg, "eps", "config.algorithm")
        if isinstance(eps_raw, list):
            eps = _float_list(eps_raw, "config.algorithm.eps")
        else:
            eps = [_as_float(eps_raw, "config.algorithm.eps")] * len(lo)
        gamma = _as_float(alg.get("gamma", 1.0), "config.algorithm.gamma")
        depth_max = _as_int(alg.get("depth_max", 0), "config.algorithm.depth_max")
        nn_depth_max = _as_int(alg.get("nn_depth_max", 0),
                               "config.algorithm.nn_depth_max")

        seed = _as_int(data.get("seed", 0), "config.seed")
        if seed < 0:
            raise ConfigError(f"config.seed must be non-negative, got {seed}")
        output_dir = data.get("output_dir", "out")
        if not isinstance(output_dir, str):
            raise ConfigError(
                f"config.output_dir must be a directory path, got {output_dir!r}"
            )

        return cls(
            system=sysname,
            system_params=dict(sysparams),
            network=network,
            initial_lo=lo,
            initial_hi=hi,
            disturbance_lo=dlo,
            disturbance_hi=dhi,
            control_period=period,
            dt=dt,
            horizon=horizon,
            eps=eps,
            gamma=gamma,
            depth_max=depth_max,
            nn_depth_max=nn_depth_max,
            mode=alg.get("mode", "adaptive"),
            seed=seed,
            mc_trajectories=_as_int(data.get("mc_trajectories", 200),
                                    "config.mc_trajectories"),
            output_dir=output_dir,
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
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        if overrides:
            data = apply_overrides(data, overrides)
        return cls.from_dict(data, base_dir=path.parent)


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
        params = AlgorithmParams(eps=cfg.eps, gamma=cfg.gamma, depth_max=cfg.depth_max,
                                 nn_depth_max=cfg.nn_depth_max, mode=cfg.mode)
    except ValueError as exc:  # each message starts with the field's name
        raise ConfigError(f"config.algorithm.{exc}") from None

    try:
        root_box = IntervalVector(cfg.initial_lo, cfg.initial_hi)
    except ValueError as exc:
        raise ConfigError(f"config.initial_set: {exc}") from None

    w_box = None
    if cfg.disturbance_lo or cfg.disturbance_hi:
        try:
            w_box = IntervalVector(cfg.disturbance_lo, cfg.disturbance_hi)
        except ValueError as exc:
            raise ConfigError(f"config.disturbance: {exc}") from None

    try:
        net = MLPNetwork.load(cfg.network)
        check_relaxable(net)
    except FileNotFoundError:
        raise ConfigError(f"network file not found: {cfg.network}") from None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"network file {cfg.network}: {exc}") from None

    try:
        system = get_system(cfg.system, **cfg.system_params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"config.system: {exc}") from None

    if not hasattr(system, "build_model"):
        raise ConfigError(
            f"config.system: {cfg.system!r} does not provide a closed-loop model"
        )
    try:
        model = system.build_model(
            net, horizon=cfg.horizon, dt=cfg.dt,
            control_period=cfg.control_period, w_box=w_box,
        )
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from None

    if root_box.n != model.n:
        raise ConfigError(
            f"config.initial_set has dimension {root_box.n}, system state is {model.n}"
        )
    if params.eps.n != model.n:
        raise ConfigError(
            f"config.algorithm.eps needs {model.n} entries, got {params.eps.n}"
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
            tube.boxes[-1], resolution=_RASTER_RESOLUTION
        )
        summary["raster_resolution"] = _RASTER_RESOLUTION
    return summary
