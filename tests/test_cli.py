import json

import numpy as np
import pytest

from nncreach import (
    ContinuousClosedLoopModel,
    MLPNetwork,
    OpenLoopSystem,
    cli,
    containment_check,
    register_system,
    sample_trajectories,
)
from nncreach.config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    build_experiment,
    run_experiment,
)

from conftest import CONFIGS, NETWORKS


def di_config_dict(**overrides):
    data = {
        "schema": 1,
        "system": {"name": "double-integrator"},
        "network": str(NETWORKS / "double_integrator_standin.json"),
        "initial_set": {"lo": [2.5, -0.25], "hi": [3.0, 0.25]},
        "control": {"period": 1},
        "dt": 1,
        "horizon": 5,
        "algorithm": {"eps": [0.1, 0.1], "gamma": 1.0, "depth_max": 3,
                      "nn_depth_max": 1, "mode": "adaptive"},
        "seed": 7,
        "mc_trajectories": 50,
    }
    data.update(overrides)
    return data


class TestConfigParsing:
    def test_valid_document(self):
        cfg = ExperimentConfig.from_dict(di_config_dict())
        assert cfg.system == "double-integrator"
        assert cfg.depth_max == 3 and cfg.nn_depth_max == 1

    def test_missing_key_reported_with_path(self):
        data = di_config_dict()
        del data["initial_set"]
        with pytest.raises(ConfigError, match="initial_set"):
            ExperimentConfig.from_dict(data)

    def test_bad_gamma_reported(self):
        data = di_config_dict()
        data["algorithm"]["gamma"] = 0.0
        with pytest.raises(ConfigError, match="gamma"):
            ExperimentConfig.from_dict(data)

    def test_inf_strings_parse(self):
        data = di_config_dict()
        data["algorithm"]["eps"] = ["inf", 0.1]
        cfg = ExperimentConfig.from_dict(data)
        assert cfg.eps[0] == np.inf and cfg.eps[1] == 0.1

    def test_mismatched_set_lengths(self):
        data = di_config_dict()
        data["initial_set"]["hi"] = [3.0]
        with pytest.raises(ConfigError, match="lengths differ"):
            ExperimentConfig.from_dict(data)

    def test_roundtrip_is_canonical(self):
        cfg = ExperimentConfig.from_dict(di_config_dict())
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_roundtrip_preserves_inf(self):
        data = di_config_dict()
        data["algorithm"]["eps"] = ["inf", 0.2]
        cfg = ExperimentConfig.from_dict(data)
        assert cfg.to_dict()["algorithm"]["eps"] == ["inf", 0.2]

    def test_overrides_dotted_paths(self):
        data = apply_overrides(di_config_dict(),
                               ["algorithm.depth_max=5", "dt=1", "seed=9"])
        cfg = ExperimentConfig.from_dict(data)
        assert cfg.depth_max == 5 and cfg.seed == 9

    def test_override_requires_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(di_config_dict(), ["oops"])

    def test_shipped_configs_parse(self):
        for path in sorted(CONFIGS.glob("*.json")):
            cfg = ExperimentConfig.load(path)
            build_experiment(cfg)


class TestBuildExperiment:
    def test_network_dimension_checked(self):
        data = di_config_dict(network=str(NETWORKS / "vehicle_standin.json"))
        with pytest.raises(ConfigError, match="dimension"):
            build_experiment(ExperimentConfig.from_dict(data))

    def test_missing_network_file(self):
        data = di_config_dict(network="nope/missing.json")
        with pytest.raises(ConfigError, match="not found"):
            build_experiment(ExperimentConfig.from_dict(data))

    def test_eps_length_checked(self):
        data = di_config_dict()
        data["algorithm"]["eps"] = [0.1, 0.1, 0.1]
        with pytest.raises(ConfigError, match="eps"):
            build_experiment(ExperimentConfig.from_dict(data))

    def test_crossed_initial_set(self):
        data = di_config_dict()
        data["initial_set"] = {"lo": [3.0, 0.0], "hi": [2.5, 0.1]}
        with pytest.raises(ConfigError, match="initial_set"):
            build_experiment(ExperimentConfig.from_dict(data))

    @pytest.mark.parametrize("overrides", [
        {"dt": 0.5},
        {"control": {"period": 5}},
        {"control": {"instants": [0, 1, 2, 3, 4, 5]}},
    ])
    def test_double_integrator_rejects_time_settings(self, overrides):
        data = di_config_dict(**overrides)
        with pytest.raises(ConfigError, match="double integrator"):
            build_experiment(ExperimentConfig.from_dict(data))

    def test_registered_open_loop_plant_runs(self):
        # the README recipe: a custom plant registered as an OpenLoopSystem
        def f(x, u, w=None):
            return np.stack([x[..., 1], u[..., 0]], axis=-1)

        def extension(Xlo, Xhi, Ulo, Uhi, Wlo, Whi):
            return (np.stack([Xlo[:, 1], Ulo[:, 0]], axis=1),
                    np.stack([Xhi[:, 1], Uhi[:, 0]], axis=1))

        register_system("test-open-loop-di",
                        lambda: OpenLoopSystem(2, 1, 0, f, extension=extension))
        data = di_config_dict(system="test-open-loop-di", dt=0.1,
                              control={"period": 0.5}, horizon=1.0)
        exp = build_experiment(ExperimentConfig.from_dict(data))
        assert isinstance(exp.model, ContinuousClosedLoopModel)
        tube, summary = run_experiment(exp)
        assert summary["final_time"] == pytest.approx(1.0)
        _, traj = sample_trajectories(exp.model, exp.root_box, 50, seed=1)
        assert containment_check(tube, traj).violations == 0

    def test_plant_without_model_rejected(self):
        register_system("test-no-model", lambda: object())
        data = di_config_dict(system="test-no-model")
        with pytest.raises(ConfigError, match="closed-loop model"):
            build_experiment(ExperimentConfig.from_dict(data))

    def test_run_experiment_summary_fields(self):
        exp = build_experiment(ExperimentConfig.from_dict(di_config_dict()))
        tube, summary = run_experiment(exp)
        assert summary["schema"] == 1
        assert summary["final_time"] == 5.0
        assert summary["leaf_count"] == tube.boxes[-1].shape[0]
        assert summary["final_union_area_xy"] <= summary["final_hull_volume"] + 1e-9
        assert len(summary["per_step_max_width"]) == len(tube.times)


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestCommandLine:
    def test_reach_writes_artifacts(self, tmp_path):
        path = write_config(tmp_path, di_config_dict())
        out = tmp_path / "out"
        assert cli.main(["reach", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "tube.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema"] == 1

    def test_reach_is_deterministic_across_runs_and_threads(self, tmp_path):
        path = write_config(tmp_path, di_config_dict())
        outs = [tmp_path / f"o{i}" for i in range(3)]
        assert cli.main(["reach", "--config", str(path), "--out", str(outs[0])]) == 0
        assert cli.main(["reach", "--config", str(path), "--out", str(outs[1])]) == 0
        assert cli.main(["reach", "--config", str(path), "--out", str(outs[2]),
                         "--threads", "4"]) == 0
        ref = (outs[0] / "tube.csv").read_bytes()
        assert (outs[1] / "tube.csv").read_bytes() == ref
        assert (outs[2] / "tube.csv").read_bytes() == ref
        summaries = []
        for o in outs:
            s = json.loads((o / "summary.json").read_text())
            s.pop("wall_time_s")
            summaries.append(s)
        assert summaries[0] == summaries[1] == summaries[2]

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert cli.main(["reach", "--config", str(tmp_path / "missing.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_non_integer_depth_exits_as_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, di_config_dict())
        assert cli.main(["reach", "--config", str(path), "--out", str(tmp_path / "o"),
                         "--set", "algorithm.depth_max=abc"]) == 1
        assert "config.algorithm.depth_max" in capsys.readouterr().err

    def test_mc_zero_trajectories_exits_as_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, di_config_dict())
        assert cli.main(["mc", "--config", str(path), "--out", str(tmp_path / "o"),
                         "--reps", "0"]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("plant", ["double-integrator", "vehicle"])
    @pytest.mark.parametrize("args, where", [
        (["--seed", "-1"], "config.seed"),
        (["--set", "seed=-1"], "config.seed"),
        (["--set", "algorithm.eps=-1"], "config.algorithm.eps"),
        (["--set", "algorithm.eps=NaN"], "config.algorithm.eps"),
        (["--set", "horizon=inf"], "config.horizon"),
        (["--set", "dt=inf"], "config.dt"),
        (["--set", "control.period=inf"], "config.control.period"),
        (["--set", 'control.instants=[0, 1, "inf"]'], "config.control.instants[2]"),
        (["--set", "initial_set=5"], "config.initial_set"),
        (["--set", "disturbance=5"], "config.disturbance"),
        (["--set", "control=5"], "config.control"),
        (["--set", "algorithm=5"], "config.algorithm"),
        (["--set", "network=5"], "config.network"),
    ])
    def test_bad_values_exit_as_config_errors(self, tmp_path, capsys, plant, args, where):
        if plant == "vehicle":
            path = CONFIGS / "vehicle_adaptive_d2n1.json"
        else:
            path = write_config(tmp_path, di_config_dict())
        assert cli.main(["mc", "--config", str(path), "--out", str(tmp_path / "o"),
                         "--reps", "1", *args]) == 1
        assert f"config error: {where}" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["l_f=NaN", "l_f=Infinity", "l_r=Infinity",
                                         "u1_max=NaN"])
    def test_non_finite_vehicle_parameter_exits_as_config_error(self, tmp_path, capsys,
                                                                setting):
        assert cli.main(["reach", "--config", str(CONFIGS / "vehicle_adaptive_d2n1.json"),
                         "--out", str(tmp_path / "o"),
                         "--set", f"system.params.{setting}"]) == 1
        assert "config error: config.system: " in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["--seed", "1"], ["--set", "seed=1"]])
    def test_non_object_root_with_override_exits_as_config_error(self, tmp_path,
                                                                 capsys, args):
        path = write_config(tmp_path, [1, 2])
        assert cli.main(["reach", "--config", str(path), *args]) == 1
        assert "config root must be a JSON object" in capsys.readouterr().err

    def test_unrelaxable_controller_exits_as_config_error(self, tmp_path, capsys):
        net = MLPNetwork.load(NETWORKS / "double_integrator_standin.json")
        tanh = MLPNetwork([(l.weights, l.bias, "tanh" if l.activation == "relu"
                            else l.activation) for l in net.layers])
        tanh.save(tmp_path / "tanh.json")
        assert cli.main(["reach", "--config", str(CONFIGS / "di_adaptive_d3n1.json"),
                         "--out", str(tmp_path / "o"),
                         "--set", f"network={json.dumps(str(tmp_path / 'tanh.json'))}"]) == 1
        assert "does not support activation 'tanh'" in capsys.readouterr().err

    def test_invalid_json_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["reach", "--config", str(path)]) == 1

    def test_set_override_applies(self, tmp_path):
        path = write_config(tmp_path, di_config_dict())
        out = tmp_path / "out"
        assert cli.main(["reach", "--config", str(path), "--out", str(out),
                         "--set", "algorithm.depth_max=0",
                         "--set", "algorithm.nn_depth_max=0"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["leaf_count"] == 1

    def test_mc_sound_run_exits_zero(self, tmp_path):
        path = write_config(tmp_path, di_config_dict())
        out = tmp_path / "out"
        assert cli.main(["mc", "--config", str(path), "--out", str(out),
                         "--reps", "40"]) == 0
        report = json.loads((out / "mc_report.json").read_text())
        assert report["violations"] == 0
        assert (out / "trajectories.csv").exists()

    def test_mc_violation_exit_code(self, tmp_path, monkeypatch):
        import nncreach.cli as climod

        real = climod.sample_trajectories

        def shifted(model, box, count, seed):
            times, traj = real(model, box, count, seed)
            return times, traj + 100.0

        monkeypatch.setattr(climod, "sample_trajectories", shifted)
        path = write_config(tmp_path, di_config_dict())
        assert cli.main(["mc", "--config", str(path), "--out",
                         str(tmp_path / "o"), "--reps", "3"]) == 2

    def test_numeric_failure_exit_code(self, tmp_path, monkeypatch):
        from nncreach.embedding import EmbeddingOrderError
        import nncreach.cli as climod

        def boom(exp):
            raise EmbeddingOrderError("embedding state lost ordering at step 1")

        monkeypatch.setattr(climod, "run_experiment", boom)
        path = write_config(tmp_path, di_config_dict())
        assert cli.main(["reach", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 3

    def test_bench_reports_identical_volumes(self, tmp_path):
        path = write_config(tmp_path, di_config_dict())
        out = tmp_path / "out"
        assert cli.main(["bench", "--config", str(path), "--out", str(out),
                         "--reps", "3"]) == 0
        rows = (out / "timing.csv").read_text().strip().splitlines()
        assert rows[0] == "rep,seconds,final_hull_volume"
        vols = {row.split(",")[2] for row in rows[1:]}
        assert len(rows) == 4 and len(vols) == 1

    def test_bounds_reports_dominance(self, tmp_path):
        path = write_config(tmp_path, di_config_dict())
        out = tmp_path / "out"
        assert cli.main(["bounds", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "bounds.json").read_text())
        assert report["dominance_gap"] <= 1e-6
        assert len(report["error_bound_curve"]) == 6
        assert report["composite_bound"] == pytest.approx(
            report["c_x_open_estimate"]
            + report["l_u_estimate"] * report["lip_inf"])

    def test_seed_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, di_config_dict())
        out = tmp_path / "out"
        assert cli.main(["mc", "--config", str(path), "--out", str(out),
                         "--reps", "5", "--seed", "123"]) == 0
        report = json.loads((out / "mc_report.json").read_text())
        assert report["seed"] == 123
