"""Set-up of one workload in a fresh interpreter, for the ``setup_s`` metric.

Usage: ``python perfbench/setup_probe.py WORKLOAD SEED`` with the program's
``src`` on PYTHONPATH.  Imports the program, builds the workload's configs
through the registries, builds the first scenario and constructs its
engine, then prints ``ready``: the point where the first timed unit of
work could start.  The caller times launch to ``ready``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main(name: str, seed: int) -> None:
    from perfbench import harness
    from perfbench.workloads import WORKLOADS
    from repro.sim.build import build_scenario
    from repro.sim.engine import SimulationEngine

    config = WORKLOADS[name](seed, harness.WORK).first_config()
    SimulationEngine(config, built=build_scenario(config))
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
