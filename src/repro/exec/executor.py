"""Execution strategies for planned Monte-Carlo cells.

An :class:`Executor` turns a sequence of :class:`~repro.exec.plan.Cell`
work items into a stream of :class:`CellOutcome` records.  Outcomes are
yielded *as they complete* (completion order is unspecified for the
parallel executor); callers assemble results by cell key, never by
arrival order, which is what makes parallel runs bit-identical to serial
ones.

Isolation semantics are inherited from
:func:`repro.sim.runner.execute_run`: a replication that raises a
:class:`~repro.utils.errors.ReproError` (after its fresh-seed retry) is
returned as a :class:`~repro.sim.metrics.FailedRun`, and programming
errors propagate unchanged.  The parallel executor adds one more layer:
when a worker *process* dies (segfault, OOM kill), the affected cells
are quarantined -- each re-runs alone in a fresh single-worker pool --
and a cell that kills its worker again is recorded as a ``FailedRun``
with ``error_type="WorkerCrashed"`` instead of poisoning the whole
sweep.
"""

from __future__ import annotations

import math
import os
import signal
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import parent_process
from multiprocessing.connection import wait as _connection_wait
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.exec.plan import Cell, ensure_picklable
from repro.obs.logging import get_logger
from repro.obs.metrics import global_registry, metrics_enabled
from repro.sim import runner as _runner
from repro.sim.metrics import FailedRun, RunMetrics
from repro.utils.errors import ConfigurationError

logger = get_logger(__name__)

#: Chunks per worker the default chunk size aims for; small enough to
#: load-balance scheme-dependent cell costs, large enough to amortise
#: per-task dispatch overhead.
_CHUNKS_PER_WORKER = 4

#: Dispatch attempts before a pool-killing cell is written off.
_MAX_DISPATCH_ATTEMPTS = 2


@dataclass(frozen=True)
class CellOutcome:
    """One completed cell: its work item, result, and wall-clock cost.

    Attributes
    ----------
    cell:
        The work item that was executed.
    result:
        :class:`RunMetrics` for a surviving replication or
        :class:`FailedRun` for one lost after its retry.
    seconds:
        Wall-clock execution time of the cell, measured inside the
        process that ran it (so pool queueing time is excluded).
    """

    cell: Cell
    result: Union[RunMetrics, FailedRun]
    seconds: float


def _execute_cell(cell: Cell) -> Tuple[str, Union[RunMetrics, FailedRun], float]:
    """Run one cell and return ``(key, result, seconds)``.

    Module-level so process-pool workers can resolve it by qualified
    name under any multiprocessing start method.
    """
    from repro.core import caches

    caches.scope_to(cell.scenario_ref or ("config", id(cell.config)))
    start = time.perf_counter()
    # Resolved through the module so test-time interception of
    # repro.sim.runner.execute_run keeps working under every executor.
    metrics, failure = _runner.execute_run(cell.config, cell.run_index)
    result = metrics if metrics is not None else failure
    return cell.key, result, time.perf_counter() - start


#: Unpatched originals, captured at import: lockstep batching bypasses
#: these seams (it runs real engines directly), so it must stand down
#: whenever a test has monkeypatched either one.
_EXECUTE_RUN_BASELINE = _runner.execute_run
_EXECUTE_CELL_BASELINE = _execute_cell


def _interception_active() -> bool:
    """Whether a test double has replaced an execution seam."""
    return (_runner.execute_run is not _EXECUTE_RUN_BASELINE
            or _execute_cell is not _EXECUTE_CELL_BASELINE)


def _lockstep_group(group: Sequence[Cell]) -> bool:
    """Whether a planned group should run through the lockstep driver."""
    from repro.sim import lockstep

    return (len(group) >= 2 and lockstep.lockstep_eligible()
            and not _interception_active())


def _run_cells(cells: Sequence[Cell]
               ) -> List[Tuple[str, Union[RunMetrics, FailedRun], float]]:
    """Execute cells, batching consecutive same-scenario replications.

    The shared body of the worker chunk entry point and the serial
    executor: consecutive cells that are replications of one derived
    config run in lockstep through the stacked allocation kernel
    (:mod:`repro.sim.lockstep`); everything else takes the per-cell
    path.  Results are ``(key, result, seconds)`` in cell order either
    way.
    """
    from repro.core import caches
    from repro.sim import lockstep

    out: List[Tuple[str, Union[RunMetrics, FailedRun], float]] = []
    for group in lockstep.plan_batch_groups(cells):
        if _lockstep_group(group):
            caches.scope_to(group[0].scenario_ref
                            or ("config", id(group[0].config)))
            out.extend(lockstep.run_cells_lockstep(group,
                                                   fallback=_execute_cell))
        else:
            out.extend(_execute_cell(cell) for cell in group)
    return out


def _exit_with_parent(sentinel) -> None:
    """Block until the parent process is gone, then end this worker."""
    _connection_wait([sentinel])
    os._exit(1)


def init_pool_worker() -> None:
    """Start-up of every pool worker process (both executors).

    Workers are forked, so they inherit the parent's signal handlers:
    under the CLI that is the shutdown coordinator, which would make a
    worker shrug off SIGTERM and run the parent's abort flushers on a
    second Ctrl-C.  SIGINT is ignored instead (draining in-flight cells
    is the parent coordinator's contract) and SIGTERM kills again.

    A worker also exits as soon as its parent dies, however it died.
    Blocking reads on pool pipes never see EOF then, because forked
    siblings hold the parent's pipe ends too; the parent sentinel of a
    worker is held open only by the parent and later-forked siblings,
    so the youngest worker exits first and the rest follow in turn.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent = parent_process()
    if parent is not None:
        threading.Thread(target=_exit_with_parent, args=(parent.sentinel,),
                         name="repro-parent-watch", daemon=True).start()


def _run_chunk(chunk: Sequence[Cell]
               ) -> List[Tuple[str, Union[RunMetrics, FailedRun], float]]:
    """Worker entry point: execute a chunk of cells back-to-back."""
    return _run_cells(chunk)


class Executor(ABC):
    """Strategy interface: execute planned cells, stream their outcomes."""

    @abstractmethod
    def run(self, cells: Sequence[Cell]) -> Iterator[CellOutcome]:
        """Execute every cell, yielding a :class:`CellOutcome` per cell.

        Yield order is an implementation detail; every input cell is
        represented exactly once in the output stream.
        """


class SerialExecutor(Executor):
    """Execute cells one at a time in the calling process.

    The reference implementation: no pickling requirements, no
    subprocess overhead, results streamed in plan order.
    """

    def run(self, cells: Sequence[Cell]) -> Iterator[CellOutcome]:
        from repro.exec.supervisor import shutdown_draining
        from repro.sim import lockstep

        for group in lockstep.plan_batch_groups(cells):
            if shutdown_draining():
                logger.warning("shutdown requested; serial executor stopping "
                               "before cell %s", group[0].key)
                return
            if _lockstep_group(group):
                by_key = {cell.key: cell for cell in group}
                from repro.core import caches

                caches.scope_to(group[0].scenario_ref
                                or ("config", id(group[0].config)))
                for key, result, seconds in lockstep.run_cells_lockstep(
                        group, fallback=_execute_cell):
                    yield CellOutcome(cell=by_key[key], result=result,
                                      seconds=seconds)
                continue
            for cell in group:
                if shutdown_draining():
                    logger.warning("shutdown requested; serial executor "
                                   "stopping before cell %s", cell.key)
                    return
                _, result, seconds = _execute_cell(cell)
                yield CellOutcome(cell=cell, result=result, seconds=seconds)


class ParallelExecutor(Executor):
    """Execute cells across a :class:`~concurrent.futures.ProcessPoolExecutor`.

    Parameters
    ----------
    jobs:
        Worker process count (default: every available core).
    chunk_size:
        Cells per dispatched task; defaults to roughly
        ``len(cells) / (jobs * 4)`` so stragglers can be load-balanced
        while dispatch overhead stays amortised.

    Notes
    -----
    Cells are validated as picklable up front
    (:func:`~repro.exec.plan.ensure_picklable`), so a stateful
    ``fault_plan`` fails with a clear :class:`ConfigurationError` rather
    than an opaque mid-flight pickling error.  Results arrive in
    completion order; callers must key off :attr:`CellOutcome.cell`.
    """

    def __init__(self, jobs: Optional[int] = None, *,
                 chunk_size: Optional[int] = None) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}")
        self.jobs = int(jobs)
        self.chunk_size = chunk_size

    def _chunks(self, cells: Sequence[Cell]) -> List[List[Cell]]:
        size = self.chunk_size
        if size is None:
            size = max(1, math.ceil(len(cells) / (self.jobs * _CHUNKS_PER_WORKER)))
        return [list(cells[i:i + size]) for i in range(0, len(cells), size)]

    def run(self, cells: Sequence[Cell]) -> Iterator[CellOutcome]:
        from repro.exec.supervisor import shutdown_draining

        cells = list(cells)
        if not cells:
            return
        ensure_picklable(cells)
        by_key = {cell.key: cell for cell in cells}
        suspects: List[Cell] = []
        chunks = self._chunks(cells)
        logger.info("dispatching %d cells as %d chunks to %d workers",
                    len(cells), len(chunks), self.jobs)
        drained = False
        with ProcessPoolExecutor(max_workers=self.jobs,
                                 initializer=init_pool_worker) as pool:
            futures = {pool.submit(_run_chunk, chunk): chunk
                       for chunk in chunks}
            for future in as_completed(futures):
                if not drained and shutdown_draining():
                    # Drain: cancel everything still queued; chunks already
                    # running finish (their cells reach the checkpoint).
                    cancelled = sum(f.cancel() for f in futures
                                    if not f.done())
                    drained = True
                    logger.warning("shutdown requested; cancelled %d queued "
                                   "chunk(s), draining in-flight work",
                                   cancelled)
                if future.cancelled():
                    continue
                chunk = futures[future]
                try:
                    results = future.result()
                except BrokenProcessPool:
                    # A worker died mid-flight.  Every not-yet-done future
                    # fails with the pool, so the culprit cannot be told
                    # apart from innocent chunk-mates here -- quarantine
                    # all of them below.
                    logger.warning(
                        "worker pool broke; quarantining %d cell(s): %s",
                        len(chunk), ", ".join(c.key for c in chunk))
                    suspects.extend(chunk)
                    continue
                for key, result, seconds in results:
                    yield CellOutcome(cell=by_key[key], result=result,
                                      seconds=seconds)
        for cell in suspects:
            if shutdown_draining():
                logger.warning("shutdown requested; leaving quarantined cell "
                               "%s unexecuted", cell.key)
                continue
            yield self._run_quarantined(cell)

    def _run_quarantined(self, cell: Cell) -> CellOutcome:
        """Re-run one crash suspect alone in its own single-worker pool.

        Running solo makes crash attribution exact: if this pool breaks
        too, *this* cell kills workers, and it is written off as a
        ``FailedRun`` instead of being retried forever or taking other
        cells down with it.  The redispatch waits out a deterministic
        backoff first, so a transient resource squeeze (OOM killer) gets
        a chance to clear.
        """
        from repro.exec.supervisor import apply_backoff

        apply_backoff(cell.config.seed, cell.run_index, 1,
                      reason="worker-crash")
        with ProcessPoolExecutor(max_workers=1,
                                 initializer=init_pool_worker) as pool:
            future = pool.submit(_run_chunk, [cell])
            try:
                [(_, result, seconds)] = future.result()
            except BrokenProcessPool:
                logger.error("cell %s killed its quarantine worker too; "
                             "written off as WorkerCrashed", cell.key)
                if metrics_enabled():
                    global_registry().counter(
                        "repro_executor_worker_crashes_total").inc()
                return CellOutcome(
                    cell=cell,
                    result=FailedRun(
                        run_index=cell.run_index,
                        error_type="WorkerCrashed",
                        error=f"worker process died executing cell "
                              f"{cell.key} (twice: chunked and quarantined)",
                        attempts=_MAX_DISPATCH_ATTEMPTS,
                    ),
                    seconds=0.0)
        return CellOutcome(cell=cell, result=result, seconds=seconds)


def make_executor(jobs: Optional[int] = None, *,
                  cell_timeout: Optional[float] = None,
                  deadline: Optional[float] = None) -> Executor:
    """Map ``--jobs``/``--cell-timeout``/``--deadline`` onto a strategy.

    ``None`` or ``1`` selects :class:`SerialExecutor`; anything larger
    selects a :class:`ParallelExecutor` with that worker count.  Setting
    either deadline switches to the watchdog
    :class:`~repro.exec.supervisor.SupervisedExecutor`, which runs cells
    in killable child processes even at ``jobs=1``.
    """
    if cell_timeout is not None or deadline is not None:
        from repro.exec.supervisor import SupervisedExecutor

        return SupervisedExecutor(jobs or 1, cell_timeout=cell_timeout,
                                  deadline=deadline)
    if jobs is None or jobs == 1:
        return SerialExecutor()
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return ParallelExecutor(jobs)
