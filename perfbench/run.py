"""Benchmark driver: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign-interfering --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates plain and traced units and reports the
per-layer metrics instead (see ``perfbench/README.md``).  Human-readable
lines come first; the last line of stdout is the JSON result.  The exit
code is 0 when every output check passed, 1 when one failed, and 2 when
the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: The metric tables (name -> unit) come from ``BENCHMARK.json``: every
#: workload reports each ``end_to_end`` metric with ``--trace 0`` and each
#: ``per_layer`` metric with ``--trace 1`` (0 where the workload does not
#: exercise the layer).
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

#: Layers whose timing wrappers or lockstep counters cannot see into pool
#: workers; at ``jobs > 1`` they are read from the ``jobs=1`` reference.
IN_PROCESS_ONLY = ("greedy.self_s", "dual.kernel_s", "lockstep.groups", "lockstep.rounds",
                   "lockstep.batch_width", "lockstep.escapes")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def execute(run_unit, *, instrumented: bool, timed: bool):
    """Run one unit, optionally under the layer wrappers and metrics."""
    from perfbench import layers

    if not instrumented:
        layers.assert_same_path()
        return run_unit()
    collect = layers.metrics_collection() if timed else nullcontext({})
    with layers.instrument(timed=timed) as probes, collect as counters:
        unit = run_unit()
    unit.probes = probes
    if unit.counters is None:
        unit.counters = counters
    return unit


def layer_metrics(unit) -> Dict[str, float]:
    """Per-layer metrics of one traced unit."""
    from perfbench.harness import ratio
    from perfbench.layers import counter_sum
    from repro.sim.metrics import RunMetrics

    counters = unit.counters or {}
    probes = unit.probes or {}

    def seconds(layer: str) -> float:
        probe = probes.get(layer)
        return probe.seconds if probe is not None else 0.0

    phases = {"sensing": 0.0, "access": 0.0, "allocation": 0.0,
              "transmission": 0.0}
    for outcome in unit.outcomes:
        if isinstance(outcome.result, RunMetrics):
            for phase, value in outcome.result.phase_seconds.items():
                phases[phase] += value
    busy = sum(outcome.seconds for outcome in unit.outcomes)
    slots = unit.slots
    evals = counter_sum(counters, "repro_greedy_q_evaluations_total")
    solves = counter_sum(counters, "repro_solver_solves_total")
    rounds = counter_sum(counters, "repro_lockstep_rounds_total")
    store_hits = counter_sum(counters, "repro_scenario_store_requests_total",
                             result="hit")
    store_lookups = sum(counter_sum(counters,
                                    "repro_scenario_store_requests_total",
                                    result=result)
                        for result in ("hit", "miss", "disk"))
    metrics = {
        **{f"engine.{phase}_s_per_slot": ratio(value, slots)
           for phase, value in phases.items()},
        "engine.unattributed_s_per_slot": (
            ratio(busy - sum(phases.values()), slots) if unit.outcomes
            else 0.0),
        "engine.allocation_share": ratio(phases["allocation"],
                                         sum(phases.values())),
        "greedy.q_evals_per_slot": ratio(evals, slots),
        "greedy.q_memo_hit_ratio": ratio(
            counter_sum(counters, "repro_greedy_q_cache_hits_total"), evals),
        "greedy.self_s": seconds("greedy.self"),
        "dual.solves_per_slot": ratio(solves, slots),
        "dual.converged_ratio": ratio(
            counter_sum(counters, "repro_solver_solves_total",
                        converged="true"), solves),
        "dual.iterations_per_solve": ratio(
            counter_sum(counters, "repro_solver_iterations_total"), solves),
        "dual.kernel_s": seconds("dual.kernel"),
        "lockstep.groups": float(counter_sum(
            counters, "repro_lockstep_groups_total")),
        "lockstep.rounds": float(rounds),
        "lockstep.batch_width": ratio(counter_sum(
            counters, "repro_lockstep_batched_solves_total"), rounds),
        "lockstep.escapes": float(counter_sum(
            counters, "repro_lockstep_escapes_total")),
        "fallback.degraded_slots": unit.quality["degraded_slots"],
        "store.hit_ratio": ratio(store_hits, store_lookups),
        "store.config_hash_s": seconds("store.config_hash"),
        "exec.busy_s": busy,
        "exec.dispatch_overhead_s": (unit.wall * unit.jobs - busy
                                     if unit.outcomes else 0.0),
        "exec.effective_parallelism": (ratio(busy, unit.wall)
                                       if unit.outcomes else 0.0),
        "checkpoint.records": unit.extra.get("checkpoint.records", 0.0),
        "checkpoint.record_s": seconds("checkpoint.record"),
        "checkpoint.bytes": unit.extra.get("checkpoint.bytes", 0.0),
        "quality.bound_gap_db": unit.quality["bound_gap_db"],
        "quality.collision_rate_max": unit.quality["collision_rate_max"],
    }
    for name in ("serve.submit_rtt_s", "serve.queue_wait_s",
                 "serve.child_run_s", "serve.dedup_hit_ratio"):
        metrics[name] = unit.extra.get(name, 0.0)
    return metrics


def time_build(workload) -> float:
    """Median seconds of ``build_scenario`` on the workload's first config.

    Timed by direct calls: inside units the scenario store serves every
    build after the first from memory.
    """
    from perfbench.harness import SETUP_SAMPLES, median
    from repro.sim.build import build_scenario

    config = workload.first_config()
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        build_scenario(config)
        samples.append(time.perf_counter() - start)
    return median(samples)


def lockstep_counts(unit) -> tuple:
    """``(formations, rounds)`` seen by the counting shims of a unit."""
    probes = unit.probes or {}
    return tuple(probes[layer].calls if layer in probes else 0
                 for layer in ("lockstep.groups", "lockstep.rounds"))


def measure(workload, args) -> dict:
    """Set up, warm up, run units for ``--seconds``, check, summarise."""
    from perfbench import harness
    from perfbench.harness import median

    setup = workload.measure_setup()
    workload.warmup()
    plain: List = []
    traced: List = []
    in_process = workload.name != "service-jobs"
    trace = bool(args.trace) and in_process
    start = time.perf_counter()
    while True:
        remaining = args.seconds - (time.perf_counter() - start)
        want_traced = trace and len(traced) < len(plain)
        # Start no unit that would mostly run past the budget.
        typical = median([u.wall for u in plain]) if plain else 0.0
        if remaining <= typical / 2 and plain and (traced or not trace):
            break
        unit = execute(lambda: workload.unit(remaining),
                       instrumented=trace, timed=want_traced)
        (traced if want_traced else plain).append(unit)
        if not in_process:
            break
    # A parallel sweep must reproduce the same sweep run serially.
    reference = []
    if workload.jobs > 1 and in_process:
        reference.append(execute(workload.reference, instrumented=trace,
                                 timed=False))
        if trace:
            reference.append(execute(workload.reference, instrumented=True,
                                     timed=True))

    units = plain + traced + reference
    checks = []
    first = units[0].digest
    checks.append(("result hash repeats across units of one seed",
                   all(u.digest == first for u in plain + traced),
                   f"{len(plain) + len(traced)} units, sha256 {first[:16]}"))
    if reference:
        checks.append(("jobs=2 results equal the same sweep at jobs=1",
                       all(u.digest == first for u in reference),
                       f"{len(reference)} jobs=1 sweep(s)"))
    if trace:
        serial = [u for u in units if u.jobs == 1]
        shims = {lockstep_counts(u) for u in serial}
        registry = {(int(m["lockstep.groups"]), int(m["lockstep.rounds"]))
                    for m in (layer_metrics(u) for u in serial
                              if u.counters)}
        checks.append(("traced and untraced units take the same lockstep "
                       "path", len(shims) == 1 and registry <= shims,
                       f"(formations, rounds) counted by shims "
                       f"{sorted(shims)}, by the registry {sorted(registry)}"))
    lost = sum(u.failed for u in units)
    attempted = sum(u.attempted for u in units)
    checks.append(("no replication lost and no job failed", lost == 0,
                   f"{lost} of {attempted} operations"))
    violations = [v for u in units for v in u.violations]
    checks.append(("outputs within contract (collision cap, byte identity)",
                   not violations, "; ".join(violations[:5]) or "none"))
    failed = (lost + len(violations)
              + sum(1 for _, ok, _ in checks[:-2] if not ok))

    latencies = [x for u in plain for x in u.latencies]
    tail_pct, tail_value = harness.tail(latencies)
    q = plain[0].quality
    e2e = {
        # Slots over the whole run's wall time: the machine's speed drifts
        # by up to 1.5x within seconds, which a total averages over.
        "slots_per_s": (sum(u.slots for u in plain)
                        / sum(u.wall for u in plain)),
        "latency_p50_s": median(latencies),
        "setup_s": median(setup),
        "peak_rss_mb": harness.peak_rss_mb(),
        "mean_psnr_db": q["mean_psnr_db"],
    }
    info = {
        "units": len(plain), "latency_samples": len(latencies),
        f"{workload.latency_name}_p50_s": e2e["latency_p50_s"],
        f"{workload.latency_name}_p{tail_pct}_s": tail_value,
        "setup_samples": setup,
        "bound_gap_db": q["bound_gap_db"],
        "collision_rate_max": q["collision_rate_max"],
        "failed_share": failed / attempted if attempted else 0.0,
        "unit_wall_s": [u.wall for u in plain],
        **{k: v for k, v in plain[0].extra.items()
           if k.startswith("serve.")},
    }
    per_layer = {}
    if args.trace:
        source = traced if traced else plain
        rows = [layer_metrics(u) for u in source]
        per_layer = {name: median([row[name] for row in rows])
                     for name in rows[0]}
        if reference and trace:
            ref = layer_metrics(reference[-1])
            per_layer.update({name: ref[name] for name in IN_PROCESS_ONLY})
        per_layer["build.build_scenario_s"] = time_build(workload)
        per_layer["obs.tracing_overhead_pct"] = (
            100.0 * (median([u.wall for u in traced])
                     / median([u.wall for u in plain]) - 1.0)
            if traced else 0.0)
    return {"checks": checks, "attempted": attempted, "failed": failed,
            "e2e": e2e, "info": info, "per_layer": per_layer}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {src}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(src)]
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    harness.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=harness.WORK))
    workload = WORKLOADS[args.workload](args.seed, work)
    try:
        result = measure(workload, args)
    finally:
        try:
            workload.close()
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                harness.WORK.rmdir()
            except OSError:
                pass

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("fingerprint " + json.dumps(harness.fingerprint(), sort_keys=True))
    for name, ok, detail in result["checks"]:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for name, value in result["info"].items():
        print(f"info  {name} = {value}")
    correct = all(ok for _, ok, _ in result["checks"])
    table = (result["per_layer"] if args.trace else result["e2e"])
    units = PER_LAYER if args.trace else END_TO_END
    for name in units:
        print(f"{name:34s} {table[name]:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": table[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
