"""Golden reach tubes: the shipped configs must keep producing the same bytes.

Refactors of the embedding, partition and reporting layers are meant to be
exact, so any drift in ``tube.csv`` or in the summary (its per-interval
leaf, depth, verification and split counters included) is a behaviour
change.  A digest below
may change only together with a CHANGES.md note that says which change moved
it and why the new tube is right.  The contraction figures and the
``bounds.json`` and ``mc_report.json`` digests below follow the same rule.
"""

import hashlib
import json

import numpy as np
import pytest

from nncreach import (ClosedLoopEmbedding, IntervalVector, MLPNetwork, affine_system, cli,
                      config, contraction, partition)

from conftest import CONFIGS

GOLDEN_TUBE_SHA256 = {
    "di_adaptive_d3n1": "e520ac30f8e927d8a6b9d3c2e6c809a36ef8d8047fa1cdbd2cc238f92fbd87b8",
    "di_uniform_d2n2": "e7c6fc8c358c6c499e6a0f8bfe306481a21343ab6ca72f53feb8c9c437c4b4ce",
    "di_adaptive_d6n2": "fc04bad49948ee2137e7f02c0801e64f5f9e7b12e0e347dc09f52ed266348a73",
    "vehicle_adaptive_d2n1": "c28af36cf7fa9ae851cb34b43722743c511c0cade39d1e603e811f2a452d1d84",
    "vehicle_uniform_d2n2": "ce021b836c9928636cf2073e7660587a7597e0934e91ef31a4a1d6712d933fdd",
}

# sha256 of json.dumps(summary without "wall_time_s", sort_keys=True)
GOLDEN_SUMMARY_SHA256 = {
    "di_adaptive_d3n1": "b5c2b230ce4fd9cac054159c1a6bbb2da4d23a2b93ae37d40cae592e6951ef40",
    "di_uniform_d2n2": "31858644873cc6e100adf2dc76a6168bbef6eb203dfb19e2f6e4ae1b5d0ac5c7",
    "di_adaptive_d6n2": "bdca36c38bf9e0d0074e1b021c54576f6a443d178566331e7eb451613887623e",
    "vehicle_adaptive_d2n1": "d1bc1c216b1965dd4d8dd4394092db8e94d4722d918112e41fced81d0be9834a",
    "vehicle_uniform_d2n2": "9fba7c2f7aa5f67b7a6a1b046e1f083a1322ac1a9e0cc979f645d4420344750b",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TUBE_SHA256))
def test_tube_csv_matches_golden_digest(tmp_path, name):
    out = tmp_path / name
    assert cli.main(["reach", "--config", str(CONFIGS / f"{name}.json"),
                     "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "tube.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_TUBE_SHA256[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SUMMARY_SHA256))
def test_summary_matches_golden_digest(name):
    exp = config.build_experiment(config.ExperimentConfig.load(CONFIGS / f"{name}.json"))
    _, summary = config.run_experiment(exp)
    summary.pop("wall_time_s")
    digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_SUMMARY_SHA256[name]


# Engine grid: (plant, mode, depth_max, nn_depth_max, gamma, eps on the
# partitioned axes) -> (tube.csv sha256, sha256 of json.dumps(interval_stats)).
# Every (depth_max, nn_depth_max) in {0..3} x {0, 1, 2, 4} appears, in both
# modes, with gamma 0.1 and 1 and eps small, 0 and "inf".  On the double
# integrator eps 0.05 subdivides to the depth budget within the first
# interval while 0.7 deepens over several intervals and leaves an irregular
# tree; the vehicle runs 0.5 s (two control intervals) with eps on x and y
# only.  Uniform runs ignore eps and gamma.  31 of the 36 entries give
# distinct (tube, counters) pairs; the repeats keep a value above covered.
# A digest here may change only under the rule in the module docstring.
GRID_SHA256 = {
    ("di", "adaptive", 0, 0, 0.1, "0.05"): (
        "7f3ec3385da7f00534e1c00407799ed3f7dbbf595f9a135e43df211b02d0d278",
        "5bb6253abae6963b52e2e44de2add37269d7676c7fa031b549112bc7fcaa42da"),
    ("di", "adaptive", 0, 2, 1.0, "0"): (
        "7f3ec3385da7f00534e1c00407799ed3f7dbbf595f9a135e43df211b02d0d278",
        "5bb6253abae6963b52e2e44de2add37269d7676c7fa031b549112bc7fcaa42da"),
    ("di", "adaptive", 0, 4, 1.0, '"inf"'): (
        "7f3ec3385da7f00534e1c00407799ed3f7dbbf595f9a135e43df211b02d0d278",
        "5bb6253abae6963b52e2e44de2add37269d7676c7fa031b549112bc7fcaa42da"),
    ("di", "adaptive", 1, 0, 1.0, "0.7"): (
        "78330b3cc0b2eedb92bcdd98c2fdc6408ac44742de6bb7c0b39b2439b0bed799",
        "9c12ff066d3c6e82a94d1e5a30caae956b0a9a147ec8f1d177aaf0dc45529b49"),
    ("di", "adaptive", 1, 1, 0.1, "0"): (
        "a2d567ab067fe792f5d03a26269932747e771f39b7963e36fad4d12a716acc48",
        "f877262ebf8b8780f019e2434bb7767ff348e74d29028f7ae7b1006113605c8f"),
    ("di", "adaptive", 1, 4, 0.1, "0.05"): (
        "a2d567ab067fe792f5d03a26269932747e771f39b7963e36fad4d12a716acc48",
        "f877262ebf8b8780f019e2434bb7767ff348e74d29028f7ae7b1006113605c8f"),
    ("di", "adaptive", 2, 0, 0.1, "0.05"): (
        "b8639167a024ddff3d43aa21f2e826c55f8338e6c5f4a6382296f3d0cd7d3a4d",
        "ff87eb4d898f2af9e98df614684cc1e87a4fe7c14ef3413c75b167ebcfc960e8"),
    ("di", "adaptive", 2, 0, 0.1, "0.7"): (
        "19cebb748369685c5da9c4dac4d382f4d1a2ce22ca75d57ffbe2e0a1b29c0c36",
        "3d47036cc29d0a4cbebde44884faf2f1adbf8b173dbfd3961af94740d675f91b"),
    ("di", "adaptive", 2, 1, 1.0, "0.05"): (
        "8c7ba8b29f33fa046451ef3656254febf9305c07424270cbefd4764be57ff7ff",
        "e24c52d7dd32bb6c86dc2d1cae5c133bcae34fb6d4fa73a5a4758c5491f9dd4f"),
    ("di", "adaptive", 2, 1, 0.1, "0.7"): (
        "32723ad5b9fb33e360d72579025e044d66cec0ce76d8a0f7b26bf5acb73ce931",
        "85e13004646d3538fe2280b4d2a90c935f158e315674e13e58bb1e563a716301"),
    ("di", "adaptive", 2, 2, 1.0, "0"): (
        "e7c6fc8c358c6c499e6a0f8bfe306481a21343ab6ca72f53feb8c9c437c4b4ce",
        "8cacc164c38be750deead017db9f62ef36bd1bfbca2e404f4dc76ce599fe230c"),
    ("di", "adaptive", 3, 0, 0.1, "0.05"): (
        "d285ade6d628fb66d7ef978e151089edd1ddb1196479f4d5d8fc7592e8636956",
        "192085fa41364bba31b40d1670390c0dea884e9eb279971d270f3af8af1c69e7"),
    ("di", "adaptive", 3, 0, 1.0, "0.7"): (
        "355bec73a90bb01a996288ac7a69b869c9beeeb547633f4b83d0bd9431a9ade2",
        "f153e9b2658fc6830b3ca3e7419c16a3393998670d009200390a8f54683eaea5"),
    ("di", "adaptive", 3, 1, 0.1, "0"): (
        "e520ac30f8e927d8a6b9d3c2e6c809a36ef8d8047fa1cdbd2cc238f92fbd87b8",
        "8cdb98ce3a4412da2ef990f0eebf001b93da62cb752b70e295fce2275d484e17"),
    ("di", "adaptive", 3, 1, 0.1, "0.7"): (
        "1e2aef51da943ba86827b2ac9e75e0eb59d4c43b32e5c1b6576b21c32c840ad9",
        "3ec2a1ee96634f834e9403a86df2929d900436e5763962b8d415f760d06add1b"),
    ("di", "adaptive", 3, 2, 1.0, '"inf"'): (
        "7f3ec3385da7f00534e1c00407799ed3f7dbbf595f9a135e43df211b02d0d278",
        "5bb6253abae6963b52e2e44de2add37269d7676c7fa031b549112bc7fcaa42da"),
    ("di", "adaptive", 3, 2, 0.1, "0.05"): (
        "3dce3ef49a605f8f3c097647a0b54f15107bfd2e10e9046832130e66056ae8ef",
        "760f0bb0c50b6e4a8e9e98a7078eea2b560a4896615a2ed9c8ad8915ec880d45"),
    ("di", "adaptive", 3, 4, 0.1, "0.05"): (
        "85c166b0b87f6e53e3847fc1d7fe0fff144a1f51bb99ed5b0ef14b4bdec7ab3c",
        "0f4b5b4447715723a978b8971f0ae74a68ba0f6ba90f563bfcff25d5c509b460"),
    ("di", "adaptive", 3, 4, 1.0, "0.7"): (
        "7688369a8b0275e2677395a2a3c5ceb4618342e6fbe30dedf508bb3842d17ff2",
        "e26c42f0915c285374424d75c0147bc8f91e43be7bbf1b3182d8b5883d2dedb9"),
    ("di", "uniform", 0, 1, 0.1, "0.05"): (
        "7f3ec3385da7f00534e1c00407799ed3f7dbbf595f9a135e43df211b02d0d278",
        "5bb6253abae6963b52e2e44de2add37269d7676c7fa031b549112bc7fcaa42da"),
    ("di", "uniform", 1, 0, 0.1, '"inf"'): (
        "78330b3cc0b2eedb92bcdd98c2fdc6408ac44742de6bb7c0b39b2439b0bed799",
        "c92f51e245bce730e3d992280e116bf927a1056850f431131d7ed8c6efd320db"),
    ("di", "uniform", 1, 2, 0.1, "0.05"): (
        "a2d567ab067fe792f5d03a26269932747e771f39b7963e36fad4d12a716acc48",
        "ea4be27e5c48177b47aaf09150a7df67de178c9d9580183223c2a461606ce5ad"),
    ("di", "uniform", 2, 0, 1.0, "0"): (
        "b8639167a024ddff3d43aa21f2e826c55f8338e6c5f4a6382296f3d0cd7d3a4d",
        "32073f2f6ab0e4e051dbab690d65d9218392a754701bdcaae086e15a7c9f0b54"),
    ("di", "uniform", 2, 1, 0.1, "0.05"): (
        "8c7ba8b29f33fa046451ef3656254febf9305c07424270cbefd4764be57ff7ff",
        "11adf18ca0b57fa18d0ab96c114076ae505a04088b33573e7f89444e8c425706"),
    ("di", "uniform", 2, 4, 0.1, "0.05"): (
        "e7c6fc8c358c6c499e6a0f8bfe306481a21343ab6ca72f53feb8c9c437c4b4ce",
        "dac7d06049333ed3edcfcde729d54dea78a95e8f9aa38157297b5a08eb7af070"),
    ("di", "uniform", 3, 0, 0.1, "0.05"): (
        "d285ade6d628fb66d7ef978e151089edd1ddb1196479f4d5d8fc7592e8636956",
        "556a509df5c12129fc3235c42ff3984981f3e403c5ad056e8ade5d2da7a64271"),
    ("di", "uniform", 3, 1, 0.1, "0.05"): (
        "e520ac30f8e927d8a6b9d3c2e6c809a36ef8d8047fa1cdbd2cc238f92fbd87b8",
        "7921186797eb6822528a3e64a9de33d4e639d84098fe42e7df4524ccba5f5b71"),
    ("di", "uniform", 3, 2, 0.1, "0.05"): (
        "3dce3ef49a605f8f3c097647a0b54f15107bfd2e10e9046832130e66056ae8ef",
        "feb709728592bb1068a6884d835a568711d9cc034448ee161183d67b4201d6d9"),
    ("di", "uniform", 3, 4, 0.1, "0.05"): (
        "85c166b0b87f6e53e3847fc1d7fe0fff144a1f51bb99ed5b0ef14b4bdec7ab3c",
        "13b2d4b515093039990aef8ba599e7ec9317bbcee69ea4a8ad27df793910bb18"),
    ("vehicle", "adaptive", 1, 0, 1.0, "0.1"): (
        "6e6eef8b2d6fd5479ff80fdc41c8d28ade503d0015782b6e00753934f9e0219c",
        "07c182ebfc6b90eb6a75611818a5ef066f166a48355b07e2776d91793c2cc275"),
    ("vehicle", "adaptive", 1, 1, 0.1, "0"): (
        "6ea3b07e6a6dbdc5c5e7777eeed3acccc003ec0c9e1300f3d3b7dded0299ed56",
        "a5135316551cdf03f58f0b2f9885ca8830f0e5e29538a8a32dead86b0b266dc7"),
    ("vehicle", "adaptive", 2, 1, 0.1, "0.2"): (
        "3f4dec74f5b65d6a92d178ac570cc96f159df1fa1c70cd44ee6471ac955263f6",
        "fdb5bd740af3b2e9706b07b9f73b9ced2ab9eb3f15643897598193fe8ca74826"),
    ("vehicle", "adaptive", 2, 1, 0.1, '"inf"'): (
        "62a2f3cdb3b5c009562ce82331fafdcef5fdf53340f66c3a64816d79147fe575",
        "1aed70b6045080f8ad47ee72011d0dcfe3d1c60851b191d8ff4117e0f46ffdda"),
    ("vehicle", "adaptive", 3, 4, 1.0, "0.5"): (
        "ea5b4572180cfc50ce8e584c7391918afba8076a0c2971e75231b0aa32a5c817",
        "ce791387d5b8a7d79f83e85fb7c02d28d7a43aa0ecafd9b896f531ee7b735542"),
    ("vehicle", "uniform", 1, 0, 1.0, '"inf"'): (
        "6e6eef8b2d6fd5479ff80fdc41c8d28ade503d0015782b6e00753934f9e0219c",
        "98a7e3ebb2f771ad08636f71348f97cb251a109b0144e00a0e5d498bcfd4ce46"),
    ("vehicle", "uniform", 1, 1, 0.1, '"inf"'): (
        "6ea3b07e6a6dbdc5c5e7777eeed3acccc003ec0c9e1300f3d3b7dded0299ed56",
        "269e35fcb40d64ec03e451cc29acb65a7d7cc66d253b0479c6414a21b4561f0d"),
}

GRID_CONFIG = {"di": "di_adaptive_d3n1", "vehicle": "vehicle_adaptive_d2n1"}


def grid_digests(tmp_path, plant, mode, depth_max, nn_depth_max, gamma, eps):
    eps_axes = f"[{eps},{eps}]" if plant == "di" else f'[{eps},{eps},"inf","inf"]'
    overrides = [f"algorithm.mode={mode}", f"algorithm.depth_max={depth_max}",
                 f"algorithm.nn_depth_max={nn_depth_max}", f"algorithm.gamma={gamma}",
                 f"algorithm.eps={eps_axes}"]
    if plant == "vehicle":
        overrides.append("horizon=0.5")
    cfg = config.ExperimentConfig.load(CONFIGS / f"{GRID_CONFIG[plant]}.json", overrides)
    exp = config.build_experiment(cfg)
    tube = partition.compute_reachable_set(exp.root_box, exp.params, exp.model)
    tube.write_csv(tmp_path / "tube.csv")
    return (hashlib.sha256((tmp_path / "tube.csv").read_bytes()).hexdigest(),
            hashlib.sha256(json.dumps(tube.interval_stats).encode()).hexdigest())


@pytest.mark.filterwarnings("ignore:nn_depth_max")  # nn_depth_max > depth_max is capped
@pytest.mark.parametrize("key", sorted(GRID_SHA256),
                         ids=lambda k: "{}-{}-d{}n{}-g{}-e{}".format(*k).replace('"', ""))
def test_engine_grid_matches_golden_digests(tmp_path, key):
    assert grid_digests(tmp_path, *key) == GRID_SHA256[key]


# Contraction diagnostics: float.hex of (c_x, c_x_open, l_u, l_w, lip_inf)
# and the sample count of estimate_contraction, for the tube cases as
# contraction.diagnose reports them in bounds.json.  The DI tube region takes the
# grid branch, the 4-state vehicle region the Halton branch and the extension
# path, and the affine loop (a decomposition-only system) is the one case
# with a disturbance, so the only one where l_w is sampled.
CONTRACTION_FIGURES = {
    "di_adaptive_d6n2": (
        "0x1.438cf78cabbe2p+1", "0x1.00000000ace8cp+1", "0x1.0000000153312p+0",
        "0x0.0p+0", "0x1.0e33de2e48a3cp+0", 1350),
    "vehicle_adaptive_d2n1-h0.5": (
        "0x1.a405dc0b17cd9p+2", "0x1.0727a70441130p+2", "0x1.000000007346dp+0",
        "0x0.0p+0", "0x1.a405dc08e2656p+2", 576),
    "affine_disturbed": (
        "0x1.1a406b403d4c4p+0", "-0x1.fffffff84b9e8p-2", "0x1.00000000d84aap+0",
        "0x1.0000000099b00p+0", "0x1.9a406b3da04d8p+0", 450),
}

# sha256 of the bounds.json that `nncreach bounds` writes
GOLDEN_BOUNDS_SHA256 = {
    "di_adaptive_d6n2": "06036669ec43254fbf0c580f04c903ca66ab68832e68501accb10c22aff47e60",
}


FIGURE_KEYS = ("c_x_estimate", "c_x_open_estimate", "l_u_estimate", "l_w_estimate",
               "lip_inf", "sample_count")


def tube_region_figures(name, overrides=()):
    """The estimate `nncreach bounds` makes on the tube of a shipped config."""
    exp = config.build_experiment(config.ExperimentConfig.load(
        CONFIGS / f"{name}.json", list(overrides)))
    tube = partition.compute_reachable_set(exp.root_box, exp.params, exp.model)
    doc = contraction.diagnose(exp, tube)
    return tuple(doc[k] for k in FIGURE_KEYS)


AFFINE_W_BOX = (np.array([-0.1, -0.2]), np.array([0.1, 0.3]))


def disturbed_affine_loop():
    """A 2-state affine plant with a 2-dim disturbance and its ReLU controller."""
    sys = affine_system(np.array([[-1.0, 0.5], [0.25, -2.0]]),
                        np.array([[1.0], [-0.5]]),
                        np.array([[0.5, 0.0], [-0.25, 0.75]]))
    net = MLPNetwork([
        (np.array([[0.8, -0.4], [-0.3, 0.9], [0.5, 0.6]]),
         np.array([0.1, -0.2, 0.05]), "relu"),
        (np.array([[0.7, -1.1, 0.4]]), np.array([0.3]), "identity"),
    ])
    return sys, net


def disturbed_affine_estimate():
    """The affine loop's estimate over two boxes."""
    sys, net = disturbed_affine_loop()
    domain = IntervalVector(np.array([-1.5, -0.5]), np.array([1.0, 2.0]))
    emb = ClosedLoopEmbedding(sys, w_box=AFFINE_W_BOX)
    emb.refresh_control(domain, reverify=True, net=net, interval_index=0)
    inner = IntervalVector(np.array([-1.0, 0.0]), np.array([0.5, 1.5]))
    est = contraction.estimate_contraction(emb, [domain, inner])
    return est.c_x, est.c_x_open, est.l_u, est.l_w, est.lip_inf, est.sample_count


CONTRACTION_CASES = {
    "di_adaptive_d6n2": lambda: tube_region_figures("di_adaptive_d6n2"),
    "vehicle_adaptive_d2n1-h0.5": lambda: tube_region_figures(
        "vehicle_adaptive_d2n1", ["horizon=0.5"]),
    "affine_disturbed": disturbed_affine_estimate,
}


@pytest.mark.parametrize("name", sorted(CONTRACTION_FIGURES))
def test_contraction_estimate_matches_golden_figures(name):
    *rates, count = CONTRACTION_CASES[name]()
    assert tuple(float(v).hex() for v in rates) + (count,) == CONTRACTION_FIGURES[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_BOUNDS_SHA256))
def test_bounds_json_matches_golden_digest(tmp_path, name):
    assert cli.main(["bounds", "--config", str(CONFIGS / f"{name}.json"),
                     "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "bounds.json").read_bytes()).hexdigest()
    assert digest == GOLDEN_BOUNDS_SHA256[name]


# sha256 of the mc_report.json that `nncreach mc` writes (200 trajectories,
# the config's seed): its worst deficit pins the containment check's bits.
# A digest here may change only under the rule in the module docstring.
GOLDEN_MC_REPORT_SHA256 = {
    ("di_adaptive_d3n1", ()):
        "aa5ee2ce48ef216b02c705eabebf9bae48f0015ef0359e84b04177464f7c610e",
    ("vehicle_adaptive_d2n1", ("horizon=0.5",)):
        "7e96cfd1dc1bd95e44c188755f764c73b3b7a7129058a247367d02056062ac6a",
}


@pytest.mark.parametrize("name, overrides", sorted(GOLDEN_MC_REPORT_SHA256))
def test_mc_report_matches_golden_digest(tmp_path, name, overrides):
    sets = [arg for kv in overrides for arg in ("--set", kv)]
    assert cli.main(["mc", "--config", str(CONFIGS / f"{name}.json"),
                     "--out", str(tmp_path), *sets]) == 0
    digest = hashlib.sha256((tmp_path / "mc_report.json").read_bytes()).hexdigest()
    assert digest == GOLDEN_MC_REPORT_SHA256[name, overrides]


# sha256 of the trajectories.csv that the same `nncreach mc` runs write: the
# sampled states, every float as %.17g.  A digest here may change only under
# the rule in the module docstring.
GOLDEN_TRAJECTORIES_SHA256 = {
    ("di_adaptive_d3n1", ()):
        "e626cffd58d7d0d54542174af3655e3c14227a608e45b5b08571369d8435d372",
    ("vehicle_adaptive_d2n1", ("horizon=0.5",)):
        "458c524f2bd65463de367819e2114a20887b175f276ae50514258bfd8fbdcb4b",
}


@pytest.mark.parametrize("name, overrides", sorted(GOLDEN_TRAJECTORIES_SHA256))
def test_trajectories_csv_matches_golden_digest(tmp_path, name, overrides):
    sets = [arg for kv in overrides for arg in ("--set", kv)]
    assert cli.main(["mc", "--config", str(CONFIGS / f"{name}.json"),
                     "--out", str(tmp_path), *sets]) == 0
    digest = hashlib.sha256((tmp_path / "trajectories.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_TRAJECTORIES_SHA256[name, overrides]


# Decomposition-only engine path: (disturbed, mode, depth_max, nn_depth_max,
# gamma, eps) -> (tube.csv sha256, sha256 of json.dumps(interval_stats)) of
# the affine loop above over 1 s (four control intervals of five Euler
# steps), with and without its disturbance.  The adaptive runs split over
# several intervals or, with eps 0 on one axis, down to the depth budget in
# the first one.  A digest here may change only under the rule in the
# module docstring.
AFFINE_LOOP_SHA256 = {
    (True, "adaptive", 3, 1, 0.2, (0.6, 0.6)): (
        "78c061bc8400db2a71f379eaeb29a46c7baa86007293646974085abab5b5ca8a",
        "e785217c49ac0245eaa63447697ad930ce606ab704e878b9295d18f08e9d6f05"),
    (True, "uniform", 2, 1, 1.0, (np.inf, np.inf)): (
        "3e5b8baab78b52cb1235052ffc4903824d6ade9dbe28c3fbdcabce3d00e80ac5",
        "7e09d413e890be2068188413d8f6392efac2f740cdbea2ba43b4b6da5ab5a8b6"),
    (True, "adaptive", 2, 2, 0.5, (0.0, np.inf)): (
        "90e525964560b7543904499f1efcdf920c5ea5a7d1a9947e66248ba6ecd5b100",
        "aa909e5f57ff0c52905dba42d6f5b07fbfba051246108148673db389cf70768e"),
    (False, "adaptive", 3, 1, 0.2, (0.6, 0.6)): (
        "00137c7cb3374d162ff3bd52dfddda7af8bfc049873c6aae75336c089defbccb",
        "8cb4665e24e85eabf471a6ddf56c854c2641787a2e7feea3e2d303d27b726b4a"),
    (False, "uniform", 2, 1, 1.0, (np.inf, np.inf)): (
        "d8ca64fa9eb8f36278013c4231562422f7019ffc56afe689d07f5e635835f8b2",
        "7e09d413e890be2068188413d8f6392efac2f740cdbea2ba43b4b6da5ab5a8b6"),
    (False, "adaptive", 2, 2, 0.5, (0.0, np.inf)): (
        "049cb65e49639cc3cf123bca888287cce2addff6eb21dad4ad3f06305b983958",
        "aa909e5f57ff0c52905dba42d6f5b07fbfba051246108148673db389cf70768e"),
}


def affine_loop_digests(tmp_path, disturbed, mode, depth_max, nn_depth_max, gamma, eps):
    sys, net = disturbed_affine_loop()
    model = partition.ContinuousClosedLoopModel(
        sys, net, horizon=1.0, dt=0.05, control_period=0.25,
        w_box=AFFINE_W_BOX if disturbed else None)
    params = partition.AlgorithmParams(eps=list(eps), gamma=gamma, depth_max=depth_max,
                                       nn_depth_max=nn_depth_max, mode=mode)
    root = IntervalVector(np.array([-1.0, 0.0]), np.array([0.5, 1.5]))
    tube = partition.compute_reachable_set(root, params, model)
    tube.write_csv(tmp_path / "tube.csv")
    return (hashlib.sha256((tmp_path / "tube.csv").read_bytes()).hexdigest(),
            hashlib.sha256(json.dumps(tube.interval_stats).encode()).hexdigest())


@pytest.mark.parametrize("key", sorted(AFFINE_LOOP_SHA256, key=repr),
                         ids=lambda k: "{}-{}-d{}n{}-g{}-e{}".format(
                             "w" if k[0] else "now", *k[1:5], "_".join(map(str, k[5]))))
def test_decomposition_only_loop_matches_golden_digests(tmp_path, key):
    assert affine_loop_digests(tmp_path, *key) == AFFINE_LOOP_SHA256[key]
