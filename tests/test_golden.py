"""Golden reach tubes: the shipped configs must keep producing the same bytes.

Refactors of the embedding, partition and reporting layers are meant to be
exact, so any drift in ``tube.csv`` or in the summary (its per-interval
leaf, depth, verification and split counters included) is a behaviour
change.  A digest below
may change only together with a CHANGES.md note that says which change moved
it and why the new tube is right.
"""

import hashlib
import json

import pytest

from nncreach import cli, config

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
