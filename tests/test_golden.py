"""Golden reach tubes: the shipped configs must keep producing the same bytes.

Refactors of the embedding, partition and reporting layers are meant to be
exact, so any drift in ``tube.csv`` is a behaviour change.  A digest below
may change only together with a CHANGES.md note that says which change moved
it and why the new tube is right.
"""

import hashlib

import pytest

from nncreach import cli

from conftest import CONFIGS

GOLDEN_TUBE_SHA256 = {
    "di_adaptive_d3n1": "e520ac30f8e927d8a6b9d3c2e6c809a36ef8d8047fa1cdbd2cc238f92fbd87b8",
    "di_uniform_d2n2": "e7c6fc8c358c6c499e6a0f8bfe306481a21343ab6ca72f53feb8c9c437c4b4ce",
    "di_adaptive_d6n2": "fc04bad49948ee2137e7f02c0801e64f5f9e7b12e0e347dc09f52ed266348a73",
    "vehicle_adaptive_d2n1": "c28af36cf7fa9ae851cb34b43722743c511c0cade39d1e603e811f2a452d1d84",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TUBE_SHA256))
def test_tube_csv_matches_golden_digest(tmp_path, name):
    out = tmp_path / name
    assert cli.main(["reach", "--config", str(CONFIGS / f"{name}.json"),
                     "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "tube.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_TUBE_SHA256[name]
