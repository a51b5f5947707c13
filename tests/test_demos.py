"""Smoke-run the narrative demo scripts so they cannot rot unnoticed.

Demos 05 (about 70 s, the full adaptive/uniform vehicle table) and 06
(about 10 s, a 200-trajectory vehicle audit) are left out to keep the
suite fast; the acceptance gate covers the same runs.  Each demo runs with
``-W error``, so a warning (a numpy overflow or invalid value, say) fails
it as it would fail an in-process test.
"""

import os
import subprocess
import sys

import pytest

from conftest import REPO

DEMOS = [
    "01_interval_toolbox.py",
    "02_network_bounds.py",
    "03_embedding_flow.py",
    "04_adaptive_partitioning.py",
    "07_contraction_diagnostics.py",
]


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error", str(REPO / "demos" / script)],
                          cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
