import math
from pathlib import Path

import numpy as np
import pytest

from nncreach import IntervalVector, MLPNetwork

REPO = Path(__file__).resolve().parent.parent
NETWORKS = REPO / "networks"
CONFIGS = REPO / "configs"


@pytest.fixture(scope="session")
def vehicle_net() -> MLPNetwork:
    return MLPNetwork.load(NETWORKS / "vehicle_standin.json")


@pytest.fixture(scope="session")
def di_net() -> MLPNetwork:
    return MLPNetwork.load(NETWORKS / "double_integrator_standin.json")


@pytest.fixture(scope="session")
def vehicle_box() -> IntervalVector:
    c = 2 * math.pi / 3
    return IntervalVector(np.array([7.9, 7.9, -c - 0.01, 1.99]),
                          np.array([8.1, 8.1, -c + 0.01, 2.01]))


@pytest.fixture(scope="session")
def di_box() -> IntervalVector:
    return IntervalVector(np.array([2.5, -0.25]), np.array([3.0, 0.25]))


def zero_network(n: int, p: int, bias=None) -> MLPNetwork:
    """Constant controller: one affine layer with zero weights."""
    b = np.zeros(p) if bias is None else np.asarray(bias, dtype=float)
    return MLPNetwork([(np.zeros((p, n)), b, "identity")])


def random_relu_network(rng, n_in=None, n_out=None, depth=None, width_cap=16) -> MLPNetwork:
    n_in = n_in if n_in is not None else int(rng.integers(1, 5))
    n_out = n_out if n_out is not None else int(rng.integers(1, 4))
    depth = depth if depth is not None else int(rng.integers(1, 4))
    widths = [n_in] + [int(rng.integers(1, width_cap + 1)) for _ in range(depth - 1)] + [n_out]
    layers = []
    for i, (a, b) in enumerate(zip(widths, widths[1:])):
        W = rng.normal(0.0, 1.0 / math.sqrt(a), size=(b, a))
        bias = rng.normal(0.0, 0.5, size=b)
        act = "identity" if i == len(widths) - 2 else "relu"
        layers.append((W, bias, act))
    return MLPNetwork(layers)


def random_box(rng, n, scale=2.0) -> IntervalVector:
    center = rng.normal(0.0, scale, size=n)
    half = rng.uniform(0.05, scale, size=n)
    return IntervalVector(center - half, center + half)


# Floats whose %.17g text is easy to get wrong: signed zeros, subnormals,
# huge and integral values, the non-finite ones.
AWKWARD_FLOATS = np.array([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300,
                           -1e300, 3.0, -17.0, 2.0 ** 53, 1e16, 0.1, 1 / 3, math.inf,
                           -math.inf, math.nan])


def awkward_floats(rng, shape, share=0.5):
    """Normal draws with ``share`` of the entries replaced by ``AWKWARD_FLOATS``."""
    out = rng.normal(0.0, 10.0, size=shape)
    pick = rng.random(shape) < share
    out[pick] = rng.choice(AWKWARD_FLOATS, size=int(pick.sum()))
    return out


def per_line_csv(header, times, ids, values) -> str:
    """Test oracle: CSV text ``time,id,v0,v1,...`` formatted one ``%`` per line.

    ``times``, ``ids`` and ``values`` give one entry per line; every float is
    written as ``%.17g``.
    """
    lines = [header]
    for t, i, v in zip(times, ids, values):
        lines.append(("%.17g,%d," + ",".join(["%.17g"] * len(v))) % (t, i, *v))
    return "\n".join(lines) + "\n"
