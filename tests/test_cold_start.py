"""Cold-start guard: a one-replication run must not import scipy.

scipy costs a fresh interpreter most of its start-up time (the CLI, every
``repro serve`` job child), so the library defers it to the two functions
that need it: the Student-t quantile of a multi-sample confidence interval
and the Nakagami CDF.  A fresh interpreter that imports the CLI, builds a
registered scenario and runs a single replication must therefore never
load any ``scipy`` module.
"""

import os
import subprocess
import sys
from pathlib import Path

_DRIVER = """
import sys

import repro.cli  # noqa: F401
from repro.registry.scenarios import scenario_registry
from repro.sim.build import build_scenario
from repro.sim.engine import SimulationEngine
from repro.sim.runner import MonteCarloRunner

config = scenario_registry().build(
    "interfering", scheme="proposed-fast", n_gops=1, seed=7)
built = build_scenario(config)
SimulationEngine(config, built=built)
summary = MonteCarloRunner(config, n_runs=1).summary()
assert summary is not None
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_one_replication_run_imports_no_scipy():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _DRIVER], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
