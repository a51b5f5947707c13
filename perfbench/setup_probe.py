"""Set-up probe: run in a fresh interpreter by ``run.py`` to time set-up.

Imports nncreach from the checkout's ``src/``, parses the config given as
the only argument, builds the experiment (which loads the network) and
prints the monotonic clock, so the parent can time process start to a
built ``Experiment``.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from nncreach.config import ExperimentConfig, build_experiment  # noqa: E402

build_experiment(ExperimentConfig.load(sys.argv[1]))
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
