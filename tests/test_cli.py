import json
import math
import re

import numpy as np
import pytest

from nncreach import (
    ContinuousClosedLoopModel,
    MLPNetwork,
    OpenLoopSystem,
    affine_system,
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

from conftest import CONFIGS, NETWORKS, awkward_floats, per_line_csv, zero_network


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

    def test_system_params_are_left_to_the_plant(self):
        data = di_config_dict(system={"name": "vehicle", "params": {"l_ff": 1.0}})
        cfg = ExperimentConfig.from_dict(data)
        assert cfg.system_params == {"l_ff": 1.0}
        with pytest.raises(ConfigError, match="config.system: .*l_ff"):
            build_experiment(cfg)

    def test_missing_key_reported_with_path(self):
        data = di_config_dict()
        del data["initial_set"]
        with pytest.raises(ConfigError, match="initial_set"):
            ExperimentConfig.from_dict(data)

    def test_bad_gamma_reported(self):
        data = di_config_dict()
        data["algorithm"]["gamma"] = 0.0
        with pytest.raises(ConfigError, match="gamma"):
            build_experiment(ExperimentConfig.from_dict(data))

    def test_inf_strings_parse(self):
        data = di_config_dict()
        data["algorithm"]["eps"] = ["inf", 0.1]
        cfg = ExperimentConfig.from_dict(data)
        assert cfg.eps[0] == np.inf and cfg.eps[1] == 0.1

    def test_mismatched_set_lengths(self):
        data = di_config_dict()
        data["initial_set"]["hi"] = [3.0]
        with pytest.raises(ConfigError, match="config.initial_set: lo and hi must have "
                                              "the same length"):
            build_experiment(ExperimentConfig.from_dict(data))

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

    def test_readme_schema_block_parses(self):
        # so the README documents no key the parser rejects
        readme = (CONFIGS.parent / "README.md").read_text()
        section = readme.split("### Config schema (version 1)", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
        cfg = ExperimentConfig.from_dict(json.loads(block), base_dir=CONFIGS)
        assert cfg.system == "vehicle" and cfg.control_period == 0.25

    def test_control_period_is_required(self):
        data = di_config_dict(control={})
        with pytest.raises(ConfigError, match="config.control: missing required key 'period'"):
            ExperimentConfig.from_dict(data)
        del data["control"]
        with pytest.raises(ConfigError, match="config: missing required key 'control'"):
            ExperimentConfig.from_dict(data)

    def test_uniform_mode_has_one_spelling(self):
        data = di_config_dict()
        data["algorithm"]["mode"] = "non-adaptive-uniform"
        with pytest.raises(ConfigError, match="config.algorithm.mode"):
            build_experiment(ExperimentConfig.from_dict(data))


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
    ])
    def test_double_integrator_rejects_time_settings(self, overrides):
        data = di_config_dict(**overrides)
        with pytest.raises(ConfigError, match="double integrator"):
            build_experiment(ExperimentConfig.from_dict(data))

    def test_registered_open_loop_plant_runs(self):
        # the README recipe: a custom plant registered as an OpenLoopSystem
        def f(x, u, w=None):
            return np.stack([x[..., 1], u[..., 0]], axis=-1)

        def extension(Xlo, Xhi, inputs):
            Ulo, Uhi, _, _ = inputs  # the rows themselves, as no prepare is given
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

    def test_registered_decomposition_plant_runs(self):
        # the same recipe with a closed-form decomposition instead of an extension
        register_system("test-affine-di", lambda: affine_system(
            np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])))
        data = di_config_dict(system="test-affine-di", dt=0.1,
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

    def test_non_utf8_config_exits_as_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"schema": 1, "network": "\xff"}')
        assert cli.main(["reach", "--config", str(path)]) == 1
        assert f"config error: cannot read config file {path}" in capsys.readouterr().err

    def test_directory_config_exits_as_config_error(self, tmp_path, capsys):
        assert cli.main(["reach", "--config", str(tmp_path)]) == 1
        assert f"config error: cannot read config file {tmp_path}" in capsys.readouterr().err

    def test_directory_network_exits_as_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, di_config_dict(network=str(tmp_path)))
        assert cli.main(["reach", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert f"config error: network file {tmp_path}" in capsys.readouterr().err

    def test_single_vector_decomposition_exits_as_config_error(self, tmp_path, capsys):
        # a sound decomposition of the double integrator written for single
        # vectors: A @ x takes no (2n, n) face-row stack
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])

        def f(x, u, w=None):
            return x @ A.T + u @ B.T

        def d(x, xh, u, uh, w, wh):
            return A @ x + B @ u

        register_system("test-single-vector-d", lambda: OpenLoopSystem(2, 1, 0, f, d=d))
        path = write_config(tmp_path, di_config_dict(
            system="test-single-vector-d", dt=0.1, control={"period": 0.5}, horizon=1.0))
        assert cli.main(["reach", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "config error: config.system: d must accept" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["extension", "prepare"])
    def test_stage_signatures_are_checked_when_the_plant_is_built(self, tmp_path, capsys,
                                                                  stage):
        # the one-stage form ext(Xlo, Xhi, Ulo, Uhi, Wlo, Whi), and a prepare
        # without the upper disturbance rows, are config errors, not crashes
        def f(x, u, w=None):
            return np.stack([x[..., 1], u[..., 0]], axis=-1)

        def ext6(Xlo, Xhi, Ulo, Uhi, Wlo, Whi):
            return (np.stack([Xlo[:, 1], Ulo[:, 0]], axis=1),
                    np.stack([Xhi[:, 1], Uhi[:, 0]], axis=1))

        def prepare3(Ulo, Uhi, Wlo):
            return Ulo, Uhi, Wlo, Wlo

        stages = {"extension": ext6} if stage == "extension" else {
            "extension": lambda Xlo, Xhi, inputs: ext6(Xlo, Xhi, *inputs),
            "prepare": prepare3,
        }
        register_system(f"test-bad-{stage}", lambda: OpenLoopSystem(2, 1, 0, f, **stages))
        path = write_config(tmp_path, di_config_dict(
            system=f"test-bad-{stage}", dt=0.1, control={"period": 0.5}, horizon=1.0))
        assert cli.main(["reach", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert f"config error: config.system: {stage} must take" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["reach"],                                         # --config missing
        ["reach", "--config", "c.json", "--no-such-flag"],
        ["no-such-command"],
    ])
    def test_malformed_command_line_exits_as_config_error(self, argv, capsys):
        assert cli.main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert cli.main(["reach", "--help"]) == 0
        assert "--config" in capsys.readouterr().out

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
        (["--set", "control.instants=[0, 1]"], "config.control.instants: unknown key"),
        (["--set", "initial_set=5"], "config.initial_set"),
        (["--set", "disturbance=5"], "config.disturbance"),
        (["--set", "control=5"], "config.control"),
        (["--set", "algorithm=5"], "config.algorithm"),
        (["--set", "network=5"], "config.network"),
        (["--set", "output_dir=null"], "config.output_dir"),
        (["--set", "schema=true"], "config.schema"),
        (["--set", "depth_maxx=6"], "config.depth_maxx: unknown key"),
        (["--set", "algorithm.depth_maxx=6"], "config.algorithm.depth_maxx: unknown key"),
        (["--set", "repetitions=3"], "config.repetitions: unknown key"),
        (["--set", "system.nam=vehicle"], "config.system.nam: unknown key"),
        (["--set", "initial_set.low=[0]"], "config.initial_set.low: unknown key"),
        (["--set", "disturbance.high=[]"], "config.disturbance.high: unknown key"),
        (["--set", "control.periode=1"], "config.control.periode: unknown key"),
        (["--set", "algorithm.gamma=0"], "config.algorithm.gamma"),
        (["--set", "algorithm.gamma=1.5"], "config.algorithm.gamma"),
        (["--set", "algorithm.depth_max=-1"], "config.algorithm"),
        (["--set", "algorithm.nn_depth_max=-1"], "config.algorithm"),
        (["--set", "algorithm.mode=adaptve"], "config.algorithm.mode"),
        (["--set", "initial_set.hi=[3.0]"], "config.initial_set"),
        (["--set", 'disturbance={"lo": [], "hi": [0.1]}'], "config.disturbance"),
        (["--set", "algorithm.eps=[0.1, 0.1, 0.1]"], "config.algorithm.eps"),
        # rejected before the grid is allocated
        (["--set", "horizon=1e12"], "config: the time grid"),
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

    @pytest.mark.parametrize("command, name, dims, overrides", [
        # one output broadcast onto the vehicle's two inputs: a wrong tube,
        # and an IndexError in the plant's field once trajectories are sampled
        ("reach", "vehicle_adaptive_d2n1", (4, 1), ["horizon=0.25"]),
        ("mc", "vehicle_adaptive_d2n1", (4, 1), ["horizon=0.25"]),
        # two outputs against the double integrator's one input
        ("reach", "di_adaptive_d3n1", (2, 2), []),
    ])
    def test_mismatched_controller_exits_as_config_error(self, tmp_path, capsys, command,
                                                         name, dims, overrides):
        path = tmp_path / "net.json"
        zero_network(*dims).save(path)
        sets = [f"network={json.dumps(str(path))}", *overrides]
        assert cli.main([command, "--config", str(CONFIGS / f"{name}.json"),
                         "--out", str(tmp_path / "o"), "--reps", "5",
                         *(arg for s in sets for arg in ("--set", s))]) == 1
        assert "config error: config: network maps dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_network_weight_exits_as_config_error(self, tmp_path, capsys, bad):
        doc = MLPNetwork.load(NETWORKS / "vehicle_standin.json").to_dict()
        doc["layers"][0]["weights"][3][1] = bad
        path = tmp_path / "bad_net.json"
        path.write_text(json.dumps(doc))  # written as NaN / Infinity, which json reads back
        assert cli.main(["reach", "--config", str(CONFIGS / "vehicle_adaptive_d2n1.json"),
                         "--out", str(tmp_path / "o"),
                         "--set", f"network={json.dumps(str(path))}"]) == 1
        err = capsys.readouterr().err
        assert f"config error: network file {path}: layer 0: " in err
        assert "must be finite" in err

    @pytest.mark.parametrize("command", ["reach", "bench", "mc", "bounds"])
    def test_unusable_out_exits_as_config_error(self, tmp_path, capsys, command):
        path = write_config(tmp_path, di_config_dict())
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        for out in (blocker, blocker / "sub"):  # the file itself, and a path under it
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 1
            assert f"config error: cannot make output directory {out}: " \
                in capsys.readouterr().err
        assert blocker.read_text() == "a file, not a directory\n"

    def test_bounds_on_a_seven_state_plant(self, tmp_path):
        # the contraction samples take 2n = 14 Halton axes
        A = -2.0 * np.eye(7) + 0.5 * np.eye(7, k=1)
        register_system("test-seven-state", lambda: affine_system(A, np.ones((7, 1))))
        rng = np.random.default_rng(7)
        net = MLPNetwork([(rng.normal(size=(4, 7)) * 0.3, rng.normal(size=4) * 0.1, "relu"),
                          (rng.normal(size=(1, 4)) * 0.3, np.zeros(1), "identity")])
        net.save(tmp_path / "net7.json")
        data = di_config_dict(system="test-seven-state", network=str(tmp_path / "net7.json"),
                              initial_set={"lo": [0.9] * 7, "hi": [1.1] * 7},
                              dt=0.1, control={"period": 0.5}, horizon=1.0)
        data["algorithm"].update(eps=[0.1] * 7, depth_max=1, nn_depth_max=1)
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert cli.main(["bounds", "--config", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "bounds.json").read_text())
        assert doc["sample_count"] > 0

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

    def test_mc_nan_trajectory_point_is_violation(self, tmp_path, monkeypatch):
        import nncreach.cli as climod

        real = climod.sample_trajectories

        def with_nan(model, box, count, seed):
            times, traj = real(model, box, count, seed)
            traj[1, 2, 0] = np.nan
            return times, traj

        monkeypatch.setattr(climod, "sample_trajectories", with_nan)
        path = write_config(tmp_path, di_config_dict())
        out = tmp_path / "o"
        assert cli.main(["mc", "--config", str(path), "--out", str(out),
                         "--reps", "3"]) == 2
        def reject(name):
            raise AssertionError(f"mc_report.json holds the bare constant {name}")

        report = json.loads((out / "mc_report.json").read_text(), parse_constant=reject)
        assert report["violations"] == 1
        assert report["first_violation"] == [2, 1]
        assert report["worst_deficit"] == "inf"

    @pytest.mark.parametrize("count", [1, 4])
    def test_mc_trajectories_csv_matches_per_line_formatter(self, tmp_path, monkeypatch,
                                                           count):
        import nncreach.cli as climod

        rng = np.random.default_rng(count)
        sampled = []

        def awkward(model, box, count, seed):
            sampled.append((model.times,
                            awkward_floats(rng, (count, len(model.times), model.n))))
            return sampled[-1]

        monkeypatch.setattr(climod, "sample_trajectories", awkward)
        path = write_config(tmp_path, di_config_dict())
        out = tmp_path / "o"
        # the non-finite states are violations
        assert cli.main(["mc", "--config", str(path), "--out", str(out),
                         "--reps", str(count)]) == 2
        (times, traj), = sampled
        K = len(times)
        expected = per_line_csv("time,trajectory,x0,x1", times.tolist() * count,
                                [tid for tid in range(count) for _ in range(K)],
                                traj.reshape(count * K, 2).tolist())
        assert (out / "trajectories.csv").read_bytes() == expected.encode()

    def test_numeric_failure_exit_code(self, tmp_path, monkeypatch):
        from nncreach.embedding import EmbeddingOrderError
        import nncreach.cli as climod

        def boom(exp):
            raise EmbeddingOrderError("embedding state lost ordering at step 1")

        monkeypatch.setattr(climod, "run_experiment", boom)
        path = write_config(tmp_path, di_config_dict())
        assert cli.main(["reach", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("lower, upper, message", [
        (4e-10, -4e-10, "box endpoints are crossed (lo > hi)"),
        (0.0, np.inf, "state boxes must have finite endpoints"),
    ])
    def test_invalid_successor_box_exit_code(self, tmp_path, capsys, monkeypatch,
                                             lower, upper, message):
        # a plant whose embedding crosses within integrate's tolerance, or whose
        # upper end runs to inf: the successor leaf fails as a box
        from nncreach import systems
        from test_partition import drifting_plant

        monkeypatch.setitem(systems._REGISTRY, "test-drifting",
                            lambda: drifting_plant(lower, upper))
        net = tmp_path / "zero.json"
        MLPNetwork([(np.zeros((1, 1)), np.zeros(1), "identity")]).save(net)
        path = write_config(tmp_path, di_config_dict(
            system={"name": "test-drifting"}, network=str(net),
            initial_set={"lo": [0.0], "hi": [0.0]}, dt=0.1, control={"period": 0.5},
            horizon=1.0, algorithm={"eps": [1.0], "gamma": 1.0, "depth_max": 0,
                                    "nn_depth_max": 0, "mode": "adaptive"}))
        assert cli.main(["reach", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert f"numeric failure: {message}" in capsys.readouterr().err

    def test_bench_reports_identical_volumes(self, tmp_path, capsys):
        path = write_config(tmp_path, di_config_dict())
        out = tmp_path / "out"
        assert cli.main(["bench", "--config", str(path), "--out", str(out),
                         "--reps", "3"]) == 0
        rows = (out / "timing.csv").read_text().strip().splitlines()
        assert rows[0] == "rep,seconds,final_hull_volume"
        vols = {row.split(",")[2] for row in rows[1:]}
        assert len(rows) == 4 and len(vols) == 1
        secs = sorted(float(row.split(",")[1]) for row in rows[1:])
        m = re.fullmatch(
            r"bench: 3 reps, (\S+) \+/- (\S+) s, median (\S+) s "
            r"\[quartiles (\S+), (\S+)\], final_hull_volume=\S+ -> .*\n",
            capsys.readouterr().out)
        assert m, "bench line not in the documented form"
        mean, std, median, q1, q3 = map(float, m.groups())
        # three reps: the quartiles lie halfway between neighbouring reps
        assert median == pytest.approx(secs[1], abs=1e-4)
        assert q1 == pytest.approx((secs[0] + secs[1]) / 2, abs=1e-4)
        assert q3 == pytest.approx((secs[1] + secs[2]) / 2, abs=1e-4)
        assert mean == pytest.approx(sum(secs) / 3, abs=1e-4)
        assert q1 <= median <= q3 and std >= 0.0

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

    @pytest.mark.parametrize("command, artifact", [("mc", "mc_report.json"),
                                                   ("bounds", "bounds.json")])
    def test_audits_skip_the_summary(self, tmp_path, monkeypatch, command, artifact):
        # mc and bounds read only the tube; the summary is reach's output
        from nncreach import config

        def summarize(*args):
            raise AssertionError("summarize called")

        monkeypatch.setattr(config, "summarize", summarize)
        path = write_config(tmp_path, di_config_dict())
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(path), "--out", str(out),
                         "--reps", "3"]) == 0
        assert (out / artifact).exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, di_config_dict())
        out = tmp_path / "out"
        assert cli.main(["mc", "--config", str(path), "--out", str(out),
                         "--reps", "5", "--seed", "123"]) == 0
        report = json.loads((out / "mc_report.json").read_text())
        assert report["seed"] == 123
