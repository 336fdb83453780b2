"""Metrics fold in plan order, whatever order the cells complete in.

Histogram sums are float accumulations, so a parent registry that folded
worker snapshots as cells completed would render different ``_sum``
digits whenever the pool finished cells in a different order.  The
runner buffers outcomes and folds them in plan order
(``repro.sim.runner._PlanOrderAbsorber``); this stress test runs a
many-cell sweep on four workers, shuffles the completion order seen by
the runner with a different seed on every repeat, and requires the
exported ``.prom`` text to be byte-identical each time.
"""

import random

from repro import obs
from repro.exec.executor import Executor, ParallelExecutor
from repro.experiments.scenarios import single_fbs_scenario
from repro.obs.export import prometheus_text
from repro.sim.runner import sweep

#: Samples that legitimately vary between runs: wall-clock seconds, and
#: cache traffic that depends on how cells spread over worker processes.
_VOLATILE = ("seconds", "repro_scenario_store_requests_total",
             "repro_video_rd_table_requests_total")


class _ShuffledExecutor(Executor):
    """Runs cells on an inner executor, then yields them in shuffled order."""

    def __init__(self, inner: Executor, seed: int) -> None:
        self.inner = inner
        self.seed = seed

    def run(self, cells):
        outcomes = list(self.inner.run(cells))
        random.Random(self.seed).shuffle(outcomes)
        yield from outcomes


def _prom_text(shuffle_seed: int) -> str:
    config = single_fbs_scenario(n_gops=1, n_channels=4, seed=11)
    obs.reset_metrics()
    obs.enable_metrics(True)
    try:
        sweep(config, "gamma", [0.1, 0.2, 0.3],
              ["proposed-fast", "heuristic1", "heuristic2"], n_runs=4,
              executor=_ShuffledExecutor(ParallelExecutor(jobs=4),
                                         shuffle_seed))
        text = prometheus_text(obs.global_registry())
    finally:
        obs.enable_metrics(False)
        obs.reset_metrics()
    return "\n".join(line for line in text.splitlines()
                     if not any(token in line for token in _VOLATILE))


def test_prom_output_identical_under_shuffled_completion():
    reference = _prom_text(0)
    assert "repro_user_psnr_db_sum" in reference
    assert "repro_exact_solves_total" in reference
    for seed in (1, 2, 3):
        assert _prom_text(seed) == reference
