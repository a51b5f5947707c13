import json
import math

import numpy as np
import pytest

from nncreach import MLPNetwork
from nncreach.networks import Layer

from conftest import NETWORKS, random_relu_network


def small_net():
    return MLPNetwork([
        (np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([0.0, 1.0]), "relu"),
        (np.array([[1.0, 1.0]]), np.array([-0.5]), "identity"),
    ])


def test_forward_matches_manual():
    net = small_net()
    x = np.array([1.0, 2.0])
    h = np.maximum(np.array([[1.0, -1.0], [0.5, 2.0]]) @ x + np.array([0.0, 1.0]), 0.0)
    want = float(np.array([1.0, 1.0]) @ h - 0.5)
    assert net(x) == pytest.approx(want)


def test_batch_matches_single():
    rng = np.random.default_rng(0)
    net = random_relu_network(rng, n_in=3, n_out=2, depth=3)
    xs = rng.normal(size=(20, 3))
    batched = net(xs)
    for i in range(20):
        assert np.allclose(batched[i], net(xs[i]))


def test_dimension_chain_validated():
    with pytest.raises(ValueError, match="chain"):
        MLPNetwork([
            (np.ones((3, 2)), np.zeros(3), "relu"),
            (np.ones((1, 4)), np.zeros(1), "identity"),
        ])


def test_final_layer_must_be_identity():
    with pytest.raises(ValueError, match="identity"):
        MLPNetwork([(np.ones((1, 1)), np.zeros(1), "relu")])


def test_unknown_activation_rejected():
    with pytest.raises(ValueError, match="activation"):
        MLPNetwork([(np.ones((1, 1)), np.zeros(1), "sigmoid")])


def test_json_roundtrip(tmp_path):
    net = small_net()
    path = tmp_path / "net.json"
    net.save(path)
    loaded = MLPNetwork.load(path)
    assert loaded.input_dim == 2 and loaded.layers[-1].out_dim == 1
    xs = np.random.default_rng(1).normal(size=(10, 2))
    assert np.allclose(loaded(xs), net(xs))


def test_load_rejects_mismatched_input_dim(tmp_path):
    doc = small_net().to_dict()
    doc["input_dim"] = 7
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="dimension"):
        MLPNetwork.load(path)


def test_load_rejects_ragged_weights(tmp_path):
    doc = {
        "input_dim": 2,
        "layers": [{"weights": [[1.0, 2.0], [1.0]], "bias": [0.0, 0.0],
                    "activation": "identity"}],
    }
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        MLPNetwork.load(path)


def test_benchmark_networks_have_expected_shapes():
    veh = MLPNetwork.load(NETWORKS / "vehicle_standin.json")
    assert veh.input_dim == 4 and veh.layers[-1].out_dim == 2
    assert [l.out_dim for l in veh.layers] == [100, 100, 2]
    di = MLPNetwork.load(NETWORKS / "double_integrator_standin.json")
    assert di.input_dim == 2 and di.layers[-1].out_dim == 1
    assert [l.out_dim for l in di.layers] == [10, 5, 1]
    assert "stand-in" in veh.description.lower()
    assert "stand-in" in di.description.lower()


def test_layer_weight_parts_split_once(tmp_path):
    W = np.array([[1.0, -0.0, -2.0], [0.0, 3.5, -5e-324]])
    layer = Layer(W, np.zeros(2), "identity")
    assert layer.Wp.tobytes() == np.maximum(W, 0.0).tobytes()
    assert layer.Wn.tobytes() == np.minimum(W, 0.0).tobytes()
    assert not (layer.Wp.flags.writeable or layer.Wn.flags.writeable)
    assert "Wp" not in repr(layer) and "Wn" not in repr(layer)
    with pytest.raises(TypeError):
        Layer(W, np.zeros(2), "identity", W)
    # persistence writes and reads the weights only
    path = tmp_path / "net.json"
    MLPNetwork([layer]).save(path)
    doc = json.loads(path.read_text())
    assert [sorted(l) for l in doc["layers"]] == [["activation", "bias", "weights"]]
    loaded = MLPNetwork.load(path).layers[0]
    assert loaded.Wp.tobytes() == layer.Wp.tobytes()
    assert loaded.Wn.tobytes() == layer.Wn.tobytes()


def test_layer_copies_caller_arrays():
    W, b = np.ones((1, 1)), np.zeros(1)
    layer = Layer(W, b, "identity")
    W[0, 0] = 2.0  # the caller's arrays stay writable
    b[0] = 3.0
    assert layer.weights.tolist() == [[1.0]] and layer.bias.tolist() == [0.0]
    assert layer.Wp.tolist() == [[1.0]]
    assert not (layer.weights.flags.writeable or layer.bias.flags.writeable)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["weights", "bias"])
def test_non_finite_parameters_rejected(bad, where):
    W, b = np.ones((2, 2)), np.zeros(2)
    (W if where == "weights" else b)[-1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        Layer(W, b, "relu")
