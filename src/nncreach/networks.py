"""Feed-forward network controllers and their JSON on-disk format.

A network is a chain of affine layers, each followed by an activation;
the final layer is always affine (identity activation).  The JSON schema::

    {"input_dim": n,
     "layers": [{"weights": [[...row...], ...],
                 "bias": [...],
                 "activation": "relu"}, ...]}

``weights`` is a list of rows (one per output neuron).  ``activation``
(``relu`` when absent) names an entry of :data:`ACTIVATIONS`, the one
activation table, which the forward pass here and the interval pass of the
bounds module both read; every activation in it is nondecreasing.  Extra
top-level keys such as ``description`` are preserved on load but ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["Layer", "MLPNetwork", "ACTIVATIONS"]

ACTIVATIONS = {
    "relu": lambda z: np.maximum(z, 0.0),
    "tanh": np.tanh,
    "identity": lambda z: z,
}


@dataclass(frozen=True)
class Layer:
    """One affine map plus activation.

    ``Wp`` and ``Wn`` are the positive and negative parts of ``weights``,
    split once here for the interval passes of the bounds module.
    """

    weights: np.ndarray  # (m_out, m_in)
    bias: np.ndarray     # (m_out,)
    activation: str
    Wp: np.ndarray = field(init=False, repr=False, compare=False)
    Wn: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writable
        W = np.array(self.weights, dtype=float)
        b = np.array(self.bias, dtype=float)
        if W.ndim != 2:
            raise ValueError("layer weights must be a matrix")
        if b.ndim != 1 or b.shape[0] != W.shape[0]:
            raise ValueError("bias length must match the number of output neurons")
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise ValueError("layer weights and bias must be finite")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unsupported activation {self.activation!r}")
        Wp, Wn = np.maximum(W, 0.0), np.minimum(W, 0.0)
        for name, a in (("weights", W), ("bias", b), ("Wp", Wp), ("Wn", Wn)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


class MLPNetwork:
    """Immutable fully connected network ``x -> W_k s(... s(W_1 x + b_1)) + b_k``."""

    def __init__(self, layers, description: str = ""):
        layers = [l if isinstance(l, Layer) else Layer(*l) for l in layers]
        if not layers:
            raise ValueError("a network needs at least one layer")
        for idx, (prev, nxt) in enumerate(zip(layers, layers[1:]), start=1):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(f"layer dimensions do not chain at layer {idx}: "
                                 f"{prev.out_dim} -> {nxt.in_dim}")
        if layers[-1].activation != "identity":
            raise ValueError("the final layer must have identity activation")
        self.layers = tuple(layers)
        self.description = description

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    def __call__(self, x) -> np.ndarray:
        """Evaluate the network; accepts a single point or a batch ``(m, n)``."""
        a = np.asarray(x, dtype=float)
        single = a.ndim == 1
        if single:
            a = a[None, :]
        if a.shape[-1] != self.input_dim:
            raise ValueError(
                f"input has dimension {a.shape[-1]}, network expects {self.input_dim}"
            )
        for layer in self.layers:
            a = ACTIVATIONS[layer.activation](a @ layer.weights.T + layer.bias)
        return a[0] if single else a

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "input_dim": self.input_dim,
            "layers": [
                {
                    "weights": l.weights.tolist(),
                    "bias": l.bias.tolist(),
                    "activation": l.activation,
                }
                for l in self.layers
            ],
        }
        if self.description:
            out["description"] = self.description
        return out

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))

    @classmethod
    def from_dict(cls, data: dict) -> "MLPNetwork":
        try:
            input_dim = int(data["input_dim"])
            raw_layers = data["layers"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed network description: missing {exc}") from exc
        layers = []
        for idx, spec in enumerate(raw_layers):
            try:
                layers.append(Layer(np.array(spec["weights"], dtype=float),
                                    np.array(spec["bias"], dtype=float),
                                    spec.get("activation", "relu")))
            except (KeyError, ValueError) as exc:
                raise ValueError(f"layer {idx}: {exc}") from exc
        net = cls(layers, description=str(data.get("description", "")))
        if net.input_dim != input_dim:
            raise ValueError(f"input_dim is {input_dim}, but layer 0 expects inputs "
                             f"of dimension {net.input_dim}")
        return net

    @classmethod
    def load(cls, path) -> "MLPNetwork":
        with open(path) as fh:
            data = json.load(fh)
        return cls.from_dict(data)
