"""Supervised execution: watchdog timeouts, graceful shutdown, backoff.

The plan/executor subsystem already survives two failure classes:
replication *crashes* (a :class:`~repro.utils.errors.ReproError` inside
the engine -- retried once, then recorded as a
:class:`~repro.sim.metrics.FailedRun`) and worker *deaths* (a segfaulted
or OOM-killed process -- quarantined and written off as
``WorkerCrashed``).  This module adds the defense against the third
class: cells that are merely **stuck or slow**, which neither raise nor
die and would otherwise wedge a pool forever.

Three cooperating pieces:

* :class:`SupervisedExecutor` -- a watchdog process pool.  Cells are
  dispatched one at a time over per-worker pipes, so the parent always
  knows exactly which cell every worker is running and since when.  A
  cell that exceeds the per-cell deadline (``--cell-timeout``) gets its
  worker killed and replaced, and is recorded as a ``FailedRun`` with
  ``error_type="CellTimedOut"`` -- the sweep completes, the failure is
  checkpointed, and a resume does not retry it forever.  A whole-sweep
  deadline (``--deadline``) aborts the run with
  :class:`~repro.utils.errors.SweepDeadlineExceeded` instead (in-flight
  cells are *not* recorded as failed; they simply re-run on resume).
* :class:`ShutdownCoordinator` -- a two-stage SIGINT/SIGTERM protocol.
  The first signal only sets a draining flag: executors stop dispatching
  new cells, in-flight cells finish and are checkpointed, telemetry is
  flushed, and the harness raises
  :class:`~repro.utils.errors.SweepInterrupted` (mapped by the CLI to
  :data:`EXIT_INTERRUPTED`).  A second signal runs the registered
  flushers (checkpoint fsync, trace/metrics dump) and hard-exits with
  :data:`EXIT_HARD_ABORT`.
* :func:`backoff_delay` / :func:`apply_backoff` -- deterministic
  exponential backoff with bounded jitter for every retry path (the
  fresh-seed replication retry and the worker-crash redispatch).  The
  jitter is derived from the cell's seed and attempt number alone, so
  two runs of the same sweep back off identically and results stay
  bit-identical at any worker count.

Supervision is telemetry-and-scheduling only: it never touches RNG
streams or results, so a supervised run of a healthy sweep is
byte-identical to a serial one (asserted by
``tests/robustness/test_supervision.py``).
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from multiprocessing import get_context
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.exec.executor import CellOutcome, Executor
from repro.exec.plan import Cell, ensure_picklable
from repro.obs.logging import get_logger
from repro.obs.metrics import global_registry, metrics_enabled
from repro.obs.trace import active_tracer
from repro.sim.metrics import FailedRun
from repro.utils.errors import ConfigurationError, SweepDeadlineExceeded

logger = get_logger(__name__)

#: Exit code the CLI returns when ``--fail-on-error`` is set and any
#: replication failed (including timed-out cells).
EXIT_FAILED_RUNS = 3
#: Exit code for a graceful shutdown: first SIGINT/SIGTERM, drained and
#: flushed, resumable from the checkpoint.
EXIT_INTERRUPTED = 4
#: Exit code when the whole-sweep ``--deadline`` expired.
EXIT_DEADLINE = 5
#: Exit code of the hard abort on a second SIGINT/SIGTERM.
EXIT_HARD_ABORT = 6

#: First-retry backoff in seconds; doubles per further attempt.
BACKOFF_BASE = 0.05
#: Upper bound on any single backoff sleep, before jitter.
BACKOFF_CAP = 2.0
#: Entropy tag namespacing backoff jitter away from simulation seeds.
_BACKOFF_TAG = 0xBACC0FF

#: Watchdog wake-up interval: the granularity at which deadlines are
#: checked while waiting for worker results.
DEFAULT_POLL_INTERVAL = 0.05

#: Dispatch attempts before a worker-killing cell is written off
#: (mirrors the quarantine contract of the unsupervised pool).
MAX_DISPATCH_ATTEMPTS = 2


# -- deterministic retry backoff -----------------------------------------


def backoff_delay(seed: Optional[int], run_index: int, attempt: int, *,
                  base: float = BACKOFF_BASE, cap: float = BACKOFF_CAP) -> float:
    """Deterministic exponential backoff with bounded jitter, in seconds.

    Attempt 0 (the first try) never waits.  Attempt ``n >= 1`` waits
    ``min(cap, base * 2**(n-1))`` scaled by a jitter factor in
    ``[0.5, 1.0)`` derived from ``(seed, run_index, attempt)`` alone --
    no wall clock, no process entropy -- so identical sweeps back off
    identically wherever and whenever they run.
    """
    if attempt <= 0:
        return 0.0
    magnitude = min(float(cap), float(base) * (2.0 ** (attempt - 1)))
    entropy = [_BACKOFF_TAG, 0 if seed is None else int(seed),
               int(run_index), int(attempt)]
    jitter = np.random.SeedSequence(entropy).generate_state(1)[0] / 2.0 ** 32
    return magnitude * (0.5 + 0.5 * float(jitter))


def apply_backoff(seed: Optional[int], run_index: int, attempt: int, *,
                  reason: str, sleep: Callable[[float], None] = time.sleep
                  ) -> float:
    """Sleep :func:`backoff_delay` and record the wait in the metrics.

    Returns the seconds slept (0.0 for attempt 0).  ``reason`` labels the
    retry path (``"replication-retry"`` or ``"worker-crash"``) in the
    ``repro_retry_backoffs_total`` counters.
    """
    delay = backoff_delay(seed, run_index, attempt)
    if delay <= 0.0:
        return 0.0
    if metrics_enabled():
        registry = global_registry()
        registry.counter("repro_retry_backoffs_total", reason=reason).inc()
        registry.counter("repro_retry_backoff_seconds_total",
                         reason=reason).inc(delay)
    logger.info("backing off %.3f s before %s retry (run %d, attempt %d)",
                delay, reason, run_index, attempt)
    sleep(delay)
    return delay


# -- graceful shutdown ----------------------------------------------------


class ShutdownCoordinator:
    """Two-stage SIGINT/SIGTERM protocol for long-running sweeps.

    Stage 1 (first signal): flip :attr:`draining`.  Nothing is killed;
    executors notice the flag, stop dispatching, and let in-flight cells
    finish so they reach the checkpoint.  The harness then raises
    :class:`~repro.utils.errors.SweepInterrupted`.

    Stage 2 (second signal): the operator wants out *now*.  Every
    registered flusher runs (checkpoint fsync, trace/metrics dump), then
    the process hard-exits with :data:`EXIT_HARD_ABORT`.

    The coordinator can be driven without real signals via
    :meth:`trigger` (used by tests and by in-process embedding), and
    installs/uninstalls as a context manager.  Installing also registers
    it as the process-wide :func:`active_shutdown`, which is how the
    executors and the sweep loop discover it without threading it
    through every call signature.
    """

    def __init__(self, *, hard_exit: Callable[[int], None] = os._exit) -> None:
        self._stage = 0
        self._flushers: List[Callable[[], None]] = []
        self._previous: Dict[int, object] = {}
        self._hard_exit = hard_exit

    # -- state -----------------------------------------------------------

    @property
    def stage(self) -> int:
        """Signals received so far (0 = none, 1 = draining, 2+ = abort)."""
        return self._stage

    @property
    def draining(self) -> bool:
        """Whether dispatching should stop and in-flight work drain."""
        return self._stage >= 1

    def add_flusher(self, flusher: Callable[[], None]) -> None:
        """Register a durability hook to run on a hard abort."""
        self._flushers.append(flusher)

    def remove_flusher(self, flusher: Callable[[], None]) -> None:
        """Unregister a hook added with :meth:`add_flusher`."""
        try:
            self._flushers.remove(flusher)
        except ValueError:
            pass

    # -- signal plumbing -------------------------------------------------

    def install(self, signals: Sequence[int] = (signal.SIGINT, signal.SIGTERM)
                ) -> "ShutdownCoordinator":
        """Install the handler for ``signals`` and become the process-wide
        active coordinator.  Returns ``self`` for chaining."""
        global _ACTIVE_SHUTDOWN
        for signum in signals:
            self._previous[signum] = signal.signal(signum, self._handle)
        _ACTIVE_SHUTDOWN = self
        return self

    def uninstall(self) -> None:
        """Restore the previous signal handlers and clear the global."""
        global _ACTIVE_SHUTDOWN
        for signum, handler in self._previous.items():
            signal.signal(signum, handler)
        self._previous.clear()
        if _ACTIVE_SHUTDOWN is self:
            _ACTIVE_SHUTDOWN = None

    def __enter__(self) -> "ShutdownCoordinator":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _handle(self, signum, frame) -> None:
        self.trigger(signum)

    def trigger(self, signum: int = signal.SIGINT) -> None:
        """Advance one shutdown stage (callable without a real signal)."""
        self._stage += 1
        if self._stage > 1:
            self._abort(signum)
            return
        # Stage 1 runs inside a signal handler: record intent, never
        # raise.  The actual draining happens in the executors' loops.
        try:
            logger.warning(
                "signal %s: draining -- no new cells dispatched; in-flight "
                "cells finish and are checkpointed (signal again to abort)",
                signum)
            if metrics_enabled():
                global_registry().counter(
                    "repro_shutdown_signals_total", stage="drain").inc()
            tracer = active_tracer()
            if tracer is not None:
                tracer.bump("shutdown_signals")
                tracer.event("shutdown-drain", kind="supervision",
                             signal=int(signum))
        except Exception:  # pragma: no cover - handler must never raise
            pass

    def _abort(self, signum) -> None:
        logger.error("signal %s: hard abort -- flushing and exiting %d",
                     signum, EXIT_HARD_ABORT)
        try:
            if metrics_enabled():
                global_registry().counter(
                    "repro_shutdown_signals_total", stage="abort").inc()
        except Exception:  # pragma: no cover
            pass
        try:
            # The tracer buffers lines between replication boundaries;
            # drain it first so the trace reads up to the abort instant
            # even when no obs flusher was registered.
            tracer = active_tracer()
            if tracer is not None:
                tracer.flush()
        except Exception:  # pragma: no cover - the exit must proceed
            pass
        for flusher in list(self._flushers):
            try:
                flusher()
            except Exception:  # a broken flusher must not block the exit
                logger.exception("shutdown flusher %r failed", flusher)
        self._hard_exit(EXIT_HARD_ABORT)


#: The process-wide coordinator installed by ShutdownCoordinator.install().
_ACTIVE_SHUTDOWN: Optional[ShutdownCoordinator] = None


def active_shutdown() -> Optional[ShutdownCoordinator]:
    """The installed coordinator, or ``None`` outside a supervised run."""
    return _ACTIVE_SHUTDOWN


def shutdown_draining() -> bool:
    """Whether a shutdown signal has requested draining (cheap gate)."""
    coordinator = _ACTIVE_SHUTDOWN
    return coordinator is not None and coordinator.draining


# -- the watchdog pool ----------------------------------------------------


def _supervised_worker(conn) -> None:
    """Worker loop: receive one cell, execute it, send the outcome back.

    SIGINT is ignored so a terminal Ctrl-C (delivered to the whole
    foreground process group) cannot kill workers mid-cell -- draining
    in-flight cells is the parent coordinator's contract.  SIGTERM has
    its default action: it is how the watchdog kills a hung worker.
    The worker exits with its parent (see
    :func:`~repro.exec.executor.init_pool_worker`).
    """
    # Resolved through the module so test-time interception of
    # _execute_cell keeps working under fork, exactly like the
    # unsupervised pool.
    from repro.exec import executor as _executor

    _executor.init_pool_worker()

    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return
        if item is None:
            conn.close()
            return
        try:
            key, result, seconds = _executor._execute_cell(item)
        except BaseException as exc:
            try:
                conn.send(("error", item.key, exc))
            except Exception:
                conn.send(("error", item.key,
                           RuntimeError(f"worker exception did not pickle: "
                                        f"{exc!r}")))
            continue
        conn.send(("done", key, result, seconds))


class _Worker:
    """Parent-side record of one supervised worker process."""

    __slots__ = ("process", "conn", "cell", "started", "deadline")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.cell: Optional[Cell] = None
        self.started: Optional[float] = None
        self.deadline: Optional[float] = None


class SupervisedExecutor(Executor):
    """Watchdog process pool: per-cell deadlines, kill + replace, drain.

    Parameters
    ----------
    jobs:
        Worker process count.  Unlike the unsupervised pool, ``jobs=1``
        still runs the cell in a child process -- that is what makes a
        hung cell killable at any worker count.
    cell_timeout:
        Per-cell wall-clock budget in seconds, measured from dispatch.
        A cell that exceeds it has its worker killed and replaced and is
        recorded as a ``FailedRun`` with ``error_type="CellTimedOut"``.
        ``None`` disables the per-cell watchdog.
    deadline:
        Whole-run wall-clock budget in seconds, measured from the start
        of :meth:`run`.  On expiry the pool is torn down and
        :class:`~repro.utils.errors.SweepDeadlineExceeded` raised;
        completed cells were already streamed to the caller (and thus
        checkpointed), in-flight ones re-run on resume.
    poll_interval:
        Watchdog wake-up granularity while waiting for results.
    shutdown:
        Explicit :class:`ShutdownCoordinator`; defaults to the
        process-wide :func:`active_shutdown` at run time.

    Notes
    -----
    Cells are dispatched one at a time over per-worker pipes (no
    chunking): supervision needs exact knowledge of which cell each
    worker holds, and killing a worker must forfeit at most one cell.
    Crash attribution is therefore exact too -- a worker that dies took
    exactly one cell with it, which is redispatched once (with
    deterministic backoff) and then written off as ``WorkerCrashed``.
    Under an active drain the outcome stream may end before every input
    cell was executed; the sweep harness detects the shortfall and
    raises :class:`~repro.utils.errors.SweepInterrupted`.
    """

    def __init__(self, jobs: Optional[int] = None, *,
                 cell_timeout: Optional[float] = None,
                 deadline: Optional[float] = None,
                 poll_interval: float = DEFAULT_POLL_INTERVAL,
                 shutdown: Optional[ShutdownCoordinator] = None) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ConfigurationError(
                f"cell_timeout must be > 0, got {cell_timeout}")
        if deadline is not None and deadline <= 0:
            raise ConfigurationError(f"deadline must be > 0, got {deadline}")
        if poll_interval <= 0:
            raise ConfigurationError(
                f"poll_interval must be > 0, got {poll_interval}")
        self.jobs = int(jobs)
        self.cell_timeout = None if cell_timeout is None else float(cell_timeout)
        self.deadline = None if deadline is None else float(deadline)
        self.poll_interval = float(poll_interval)
        self._shutdown = shutdown
        self._ctx = get_context()

    # -- worker lifecycle ------------------------------------------------

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_supervised_worker, args=(child_conn,), daemon=True)
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    @staticmethod
    def _reap(worker: _Worker) -> None:
        """Kill one worker process and release its pipe."""
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - stubborn child
                worker.process.kill()
                worker.process.join(timeout=2.0)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass

    def _teardown(self, workers: List[_Worker]) -> None:
        for worker in workers:
            if worker.cell is None and worker.process.is_alive():
                try:
                    worker.conn.send(None)  # polite: let idle workers exit
                except OSError:
                    pass
        for worker in workers:
            self._reap(worker)

    # -- the supervision loop --------------------------------------------

    def run(self, cells: Sequence[Cell]) -> Iterator[CellOutcome]:
        cells = list(cells)
        if not cells:
            return
        ensure_picklable(cells)
        pending: Deque[Cell] = deque(cells)
        dispatches: Dict[str, int] = {}
        workers = [self._spawn() for _ in range(min(self.jobs, len(cells)))]
        started = time.monotonic()
        run_deadline = None if self.deadline is None else started + self.deadline
        outstanding = len(cells)
        logger.info(
            "supervising %d cells on %d workers (cell_timeout=%s, deadline=%s)",
            len(cells), len(workers), self.cell_timeout, self.deadline)
        try:
            while outstanding > 0:
                shutdown = self._shutdown or active_shutdown()
                draining = shutdown is not None and shutdown.draining
                now = time.monotonic()
                if run_deadline is not None and now >= run_deadline:
                    in_flight = sorted(w.cell.key for w in workers
                                       if w.cell is not None)
                    if metrics_enabled():
                        global_registry().counter(
                            "repro_supervisor_deadline_aborts_total").inc()
                    tracer = active_tracer()
                    if tracer is not None:
                        tracer.bump("deadline_aborts")
                        tracer.event("sweep-deadline", kind="supervision",
                                     outstanding=outstanding)
                    raise SweepDeadlineExceeded(
                        f"sweep deadline of {self.deadline:g}s expired with "
                        f"{outstanding} cell(s) outstanding (in flight: "
                        f"{', '.join(in_flight) or 'none'}); completed cells "
                        f"are checkpointed, the rest re-run on resume")
                if not draining:
                    self._dispatch_idle(workers, pending, dispatches)
                busy = [w for w in workers if w.cell is not None]
                if not busy:
                    if draining:
                        logger.warning(
                            "drain complete: %d cell(s) left undispatched",
                            outstanding)
                        return
                    if not pending:  # pragma: no cover - accounting guard
                        raise RuntimeError(
                            f"supervisor stalled with {outstanding} cells "
                            f"outstanding and nothing in flight")
                    continue
                for outcome in self._collect(workers, busy, pending, dispatches):
                    outstanding -= 1
                    yield outcome
        finally:
            self._teardown(workers)

    def _dispatch_idle(self, workers: List[_Worker], pending: Deque[Cell],
                       dispatches: Dict[str, int]) -> None:
        """Hand one cell to every idle worker (replacing dead ones)."""
        for index, worker in enumerate(workers):
            if worker.cell is not None or not pending:
                continue
            cell = pending.popleft()
            try:
                worker.conn.send(cell)
            except (OSError, ValueError):
                # The idle worker died (or its pipe broke) between cells;
                # replace it and try the same cell there.
                logger.warning("idle worker died; replacing it")
                self._reap(worker)
                worker = workers[index] = self._spawn()
                worker.conn.send(cell)
            dispatches[cell.key] = dispatches.get(cell.key, 0) + 1
            worker.cell = cell
            worker.started = time.monotonic()
            worker.deadline = (None if self.cell_timeout is None
                               else worker.started + self.cell_timeout)

    def _collect(self, workers: List[_Worker], busy: List[_Worker],
                 pending: Deque[Cell], dispatches: Dict[str, int]
                 ) -> Iterator[CellOutcome]:
        """Wait one poll interval; yield results, crashes, and timeouts."""
        ready = _connection_wait([w.conn for w in busy],
                                 timeout=self.poll_interval)
        by_conn = {w.conn: w for w in busy}
        for conn in ready:
            worker = by_conn[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                outcome = self._handle_crash(workers, worker, pending,
                                             dispatches)
                if outcome is not None:
                    yield outcome
                continue
            if message[0] == "error":
                # Programming errors propagate unchanged, as everywhere
                # else in the execution stack.
                raise message[2]
            _, key, result, seconds = message
            cell = worker.cell
            worker.cell = worker.started = worker.deadline = None
            yield CellOutcome(cell=cell, result=result, seconds=seconds)
        now = time.monotonic()
        for index, worker in enumerate(workers):
            if (worker.cell is not None and worker.deadline is not None
                    and now >= worker.deadline):
                yield self._handle_timeout(workers, index, worker)

    def _handle_crash(self, workers: List[_Worker], worker: _Worker,
                      pending: Deque[Cell], dispatches: Dict[str, int]
                      ) -> Optional[CellOutcome]:
        """A worker died mid-cell: redispatch once with backoff, then
        write the cell off as ``WorkerCrashed``."""
        cell = worker.cell
        self._reap(worker)
        workers[workers.index(worker)] = self._spawn()
        attempts = dispatches.get(cell.key, 1)
        if metrics_enabled():
            global_registry().counter(
                "repro_executor_worker_crashes_total").inc()
            global_registry().counter(
                "repro_supervisor_worker_replacements_total").inc()
        if attempts < MAX_DISPATCH_ATTEMPTS:
            logger.warning(
                "worker died executing cell %s (dispatch %d); backing off "
                "and redispatching", cell.key, attempts)
            apply_backoff(cell.config.seed, cell.run_index, attempts,
                          reason="worker-crash")
            pending.appendleft(cell)
            return None
        logger.error("cell %s killed %d workers; written off as WorkerCrashed",
                     cell.key, attempts)
        return CellOutcome(
            cell=cell,
            result=FailedRun(
                run_index=cell.run_index,
                error_type="WorkerCrashed",
                error=f"worker process died executing cell {cell.key} "
                      f"({attempts} dispatches)",
                attempts=attempts,
            ),
            seconds=0.0)

    def _handle_timeout(self, workers: List[_Worker], index: int,
                        worker: _Worker) -> CellOutcome:
        """Kill a worker whose cell blew its deadline; record the cell."""
        cell = worker.cell
        elapsed = time.monotonic() - worker.started
        logger.error(
            "cell %s exceeded its %.3g s deadline (%.3g s elapsed); killing "
            "and replacing its worker", cell.key, self.cell_timeout, elapsed)
        self._reap(worker)
        workers[index] = self._spawn()
        if metrics_enabled():
            registry = global_registry()
            registry.counter("repro_supervisor_cell_timeouts_total").inc()
            registry.counter(
                "repro_supervisor_worker_replacements_total").inc()
        tracer = active_tracer()
        if tracer is not None:
            tracer.bump("cell_timeouts")
            tracer.event("cell-timeout", kind="supervision", cell=cell.key)
        return CellOutcome(
            cell=cell,
            result=FailedRun(
                run_index=cell.run_index,
                error_type="CellTimedOut",
                error=f"cell {cell.key} exceeded the per-cell deadline of "
                      f"{self.cell_timeout:g}s; its worker was killed and "
                      f"replaced",
                attempts=1,
            ),
            seconds=elapsed)
