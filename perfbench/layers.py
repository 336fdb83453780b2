"""Per-layer measurement from outside the program.

Layers are timed by wrapping calls into their public functions for the
duration of a traced unit of work, and counted by reading the integer
counters of the :mod:`repro.obs` metrics registry.  Two rules keep the
traced program the same program:

* the span tracer is never activated -- lockstep batching stands down
  under an active tracer (``repro.sim.lockstep.lockstep_eligible``);
* the execution seams ``repro.sim.runner.execute_run`` and
  ``repro.exec.executor._execute_cell`` are never replaced -- replacing
  either turns lockstep off (``repro.exec.executor._interception_active``).

:func:`assert_same_path` checks both before every unit, and the driver
compares result hashes and lockstep counts of traced and untraced units.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple


class Probe:
    """Call count and outermost-call seconds of one wrapped layer."""

    __slots__ = ("calls", "seconds", "_depth")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self._depth = 0

    def wrap(self, func: Callable, *, timed: bool) -> Callable:
        probe = self

        def wrapper(*args, **kwargs):
            probe.calls += 1
            if not timed or probe._depth:
                return func(*args, **kwargs)
            probe._depth += 1
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                probe.seconds += time.perf_counter() - start
                probe._depth -= 1

        return wrapper

    def wrap_generator(self, func: Callable) -> Callable:
        """Time a solve generator's own work between its yields.

        The time a yielded request spends being answered (by the scalar
        solver or a lockstep round) is excluded, which leaves the
        generator's self time.  Values, exceptions thrown in, and the
        return value pass through unchanged.
        """
        probe = self

        def wrapper(*args, **kwargs):
            probe.calls += 1
            inner = func(*args, **kwargs)
            payload, error = None, None
            while True:
                start = time.perf_counter()
                try:
                    request = (inner.throw(error) if error is not None
                               else inner.send(payload))
                except StopIteration as stop:
                    probe.seconds += time.perf_counter() - start
                    return stop.value
                except BaseException:
                    probe.seconds += time.perf_counter() - start
                    raise
                probe.seconds += time.perf_counter() - start
                payload, error = None, None
                try:
                    payload = yield request
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # re-raised inside ``inner``
                    error = exc

        return wrapper


#: ``(module, attribute)`` bindings wrapped in traced units, by layer.
#: Functions imported by name are wrapped at every binding site.
TIMED_BINDINGS: Dict[str, List[Tuple[str, str]]] = {
    "dual.kernel": [("repro.sim.lockstep", "solve_requests"),
                    ("repro.sim.lockstep", "answer_request"),
                    ("repro.core.batch", "answer_request")],
    "store.config_hash": [("repro.store.confighash", "config_hash"),
                          ("repro.store.confighash", "scenario_hash"),
                          ("repro.sim.runner", "config_hash"),
                          ("repro.store.scenario_store", "scenario_hash")],
    "checkpoint.record": [("repro.sim.checkpoint.SweepCheckpoint", "record")],
}

#: Call-count-only bindings, present in traced *and* untraced units of a
#: traced run so the two can be compared: lockstep formations and rounds.
COUNTED_BINDINGS: Dict[str, List[Tuple[str, str]]] = {
    "lockstep.groups": [("repro.sim.lockstep", "run_cells_lockstep")],
    "lockstep.rounds": [("repro.sim.lockstep", "solve_requests")],
}

#: The greedy's per-slot generator, timed between its yields.
GREEDY_BINDING = ("repro.core.greedy.GreedyChannelAllocator", "allocate_iter")


def _owner(path: str):
    import importlib

    module_name, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module_name), attr)


def assert_same_path() -> None:
    """Fail loudly if the program would not take its production path."""
    from repro.exec import executor
    from repro.obs.trace import active_tracer

    if active_tracer() is not None:
        raise RuntimeError("a span tracer is active; lockstep would stand "
                           "down and the trace would measure another path")
    if executor._interception_active():
        raise RuntimeError("an execution seam is replaced; lockstep would "
                           "stand down")


@contextmanager
def instrument(*, timed: bool) -> Iterator[Dict[str, Probe]]:
    """Install the counting (and, if ``timed``, timing) wrappers.

    Yields ``{layer: Probe}``; every original binding is restored on exit.
    """
    probes: Dict[str, Probe] = {}
    saved: List[Tuple[object, str, object]] = []
    plan = [(layer, bindings, False) for layer, bindings
            in COUNTED_BINDINGS.items()]
    if timed:
        plan += [(layer, bindings, True) for layer, bindings
                 in TIMED_BINDINGS.items()]
    try:
        for layer, bindings, is_timed in plan:
            probe = probes.setdefault(layer, Probe())
            for owner_path, attr in bindings:
                owner = _owner(owner_path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, probe.wrap(original, timed=is_timed))
        if timed:
            owner_path, attr = GREEDY_BINDING
            owner = _owner(owner_path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            probe = probes.setdefault("greedy.self", Probe())
            setattr(owner, attr, probe.wrap_generator(original))
        assert_same_path()
        yield probes
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def metrics_collection() -> Iterator[Dict[str, float]]:
    """Enable the metrics registry for one unit; yields its counters."""
    from repro.obs.metrics import enable_metrics, global_registry, reset_metrics

    reset_metrics()
    enable_metrics(True)
    counters: Dict[str, float] = {}
    try:
        yield counters
    finally:
        enable_metrics(False)
        counters.update(global_registry().counters())
        reset_metrics()


def counter_sum(counters: Dict[str, float], name: str, **labels: str) -> int:
    """Sum of the integer counter samples of ``name`` matching ``labels``."""
    total = 0.0
    for key, value in counters.items():
        base, _, body = key.partition("{")
        if base != name:
            continue
        if all(f'{k}="{v}"' in body for k, v in labels.items()):
            total += value
    if total != int(total):
        raise ValueError(f"counter {name} is not integral: {total}")
    return int(total)
