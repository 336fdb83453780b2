"""The benchmark's workloads: configs built from the seed, one unit of work.

Every workload is closed-loop and runs from the driver's single process
with at most two workers.  A *unit* is the repeatable piece of work that
is timed: one campaign, one sweep, or (for the service) the whole
submission loop.  Units of one seed must produce the same result hash.
"""

from __future__ import annotations

import io
import math
import re
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from perfbench import harness
from repro.exec.executor import Executor, SerialExecutor, make_executor
from repro.registry import scenario_registry, scheme_registry
from repro.sim.metrics import RunMetrics

#: One-sided collision-cap check: a channel's realised rate may exceed
#: ``gamma`` by at most this many binomial standard errors (at ``gamma``)
#: of its pooled slot count.  Four keeps a sweep's dozens of per-channel
#: tests from failing by chance while still catching a broken cap.
COLLISION_Z = 4.0


@dataclass
class Unit:
    """What one unit of work produced, before any metric is derived."""

    wall: float
    jobs: int
    slots: int
    latencies: List[float]
    digest: str
    attempted: int
    failed: int
    quality: Dict[str, float]
    violations: List[str] = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    #: Filled in by the driver when the unit ran under instrumentation.
    probes: Optional[dict] = None
    counters: Optional[Dict[str, float]] = None


class _Recording(Executor):
    """Pass-through executor keeping every outcome and the plan order."""

    def __init__(self, inner: Executor) -> None:
        self.inner = inner
        self.order: Dict[str, int] = {}
        self.outcomes: list = []

    def run(self, cells):
        cells = list(cells)
        self.order = {cell.key: i for i, cell in enumerate(cells)}
        for outcome in self.inner.run(cells):
            self.outcomes.append(outcome)
            yield outcome

    def in_plan_order(self) -> list:
        return sorted(self.outcomes, key=lambda o: self.order[o.cell.key])


def collision_check(groups: Dict[object, List[tuple]],
                    gammas: Dict[object, float],
                    n_slots: int) -> tuple:
    """Worst pooled per-channel collision rate and cap violations.

    ``groups`` maps a sweep point to its ``(run_index, RunMetrics)``
    cells, which share one channel set; each channel's rate is pooled
    over the group's cells.
    """
    worst = 0.0
    violations = []
    for group, runs in groups.items():
        rates = [run.collision_rates for _, run in runs]
        # Schemes at one sweep point share every random stream (paired
        # comparison), so only distinct replications are independent.
        n_obs = len({run_index for run_index, _ in runs}) * n_slots
        gamma = gammas[group]
        limit = gamma + COLLISION_Z * math.sqrt(gamma * (1 - gamma) / n_obs)
        for channel in range(len(rates[0])):
            pooled = sum(float(r[channel]) for r in rates) / len(rates)
            worst = max(worst, pooled)
            if pooled > limit:
                violations.append(
                    f"group {group} channel {channel}: collision rate "
                    f"{pooled:.4f} > gamma {gamma} + CI ({limit:.4f})")
    return worst, violations


def simulated_unit(recorder: _Recording, wall: float, jobs: int,
                   extra_payload: object = None) -> Unit:
    """Build a :class:`Unit` from the outcomes of an in-process run."""
    outcomes = recorder.in_plan_order()
    runs = [(o.cell, o.result) for o in outcomes
            if isinstance(o.result, RunMetrics)]
    groups: Dict[object, List[tuple]] = {}
    gammas: Dict[object, float] = {}
    for cell, run in runs:
        groups.setdefault(cell.point_index, []).append((cell.run_index, run))
        gammas[cell.point_index] = cell.config.gamma
    n_slots = outcomes[0].cell.config.n_slots
    worst, violations = collision_check(groups, gammas, n_slots)
    results = [run for _, run in runs]
    quality = {
        "mean_psnr_db": sum(r.mean_psnr for r in results) / len(results),
        "bound_gap_db": sum(r.upper_bound_psnr - r.mean_psnr
                            for r in results) / len(results),
        "collision_rate_max": worst,
        "degraded_slots": float(sum(r.n_degraded for r in results)),
    }
    return Unit(
        wall=wall, jobs=jobs, slots=len(runs) * n_slots,
        latencies=[o.seconds for o in outcomes],
        digest=harness.digest([extra_payload,
                               harness.cell_payload(outcomes)]),
        attempted=len(outcomes), failed=len(outcomes) - len(runs),
        quality=quality, violations=violations, outcomes=outcomes)


class Workload:
    """Base class: ``seed`` builds every input, ``work`` is scratch space."""

    name = ""
    #: Worker processes the unit uses.
    jobs = 1
    #: What one latency sample times (names the latency in reports).
    latency_name = "cell"

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = int(seed)
        self.work = work

    def first_config(self):
        """The config whose scenario the first timed unit builds."""
        raise NotImplementedError

    def measure_setup(self) -> List[float]:
        return [harness.probe_setup(self.name, self.seed)
                for _ in range(harness.SETUP_SAMPLES)]

    def warmup(self) -> None:
        """Untimed work that lets lazy imports and caches settle."""

    def unit(self, budget: float) -> Unit:
        raise NotImplementedError

    def close(self) -> None:
        """Release processes and files the workload holds."""


class CampaignInterfering(Workload):
    name = "campaign-interfering"
    runs = 10

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.config = scenario_registry().build(
            "interfering", scheme="proposed-fast", n_gops=1, seed=self.seed)

    def first_config(self):
        return self.config

    def _campaign(self, n_runs: int) -> Unit:
        from repro.sim.runner import MonteCarloRunner

        recorder = _Recording(SerialExecutor())
        start = time.perf_counter()
        MonteCarloRunner(self.config, n_runs=n_runs,
                         executor=recorder).run_all()
        return simulated_unit(recorder, time.perf_counter() - start, 1)

    def warmup(self) -> None:
        self._campaign(2)

    def unit(self, budget: float) -> Unit:
        return self._campaign(self.runs)


class _Sweep(Workload):
    """A parameter sweep run through ``repro.sim.runner.sweep``."""

    scenario = ""
    parameter = ""
    values: Sequence[object] = ()
    schemes: Sequence[str] = ()
    n_runs = 1

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.config = scenario_registry().build(
            self.scenario, n_gops=1, seed=self.seed)
        self.count = 0

    def first_config(self):
        return self.config.replace(**{self.parameter: self.values[0],
                                      "scheme": self.schemes[0]})

    def sweep_kwargs(self) -> dict:
        return {}

    def _sweep(self, jobs: int, values: Sequence[object]) -> Unit:
        from repro.experiments.results_io import sweep_to_dict
        from repro.sim.runner import sweep

        self.count += 1
        recorder = _Recording(make_executor(jobs))
        start = time.perf_counter()
        result = sweep(self.config, self.parameter, values, self.schemes,
                       n_runs=self.n_runs, executor=recorder,
                       **self.sweep_kwargs())
        wall = time.perf_counter() - start
        return simulated_unit(recorder, wall, jobs, sweep_to_dict(result))

    def warmup(self) -> None:
        self._sweep(1, self.values[:1])

    def unit(self, budget: float) -> Unit:
        return self._sweep(self.jobs, self.values)


class SweepCityGridHeuristics(_Sweep):
    name = "sweep-citygrid-heuristics"
    scenario = "city-grid"
    parameter = "gamma"
    values = (0.1, 0.2)
    schemes = ("heuristic1", "heuristic2", "graph-coloring")
    n_runs = 2


class SweepSingleJobs2(_Sweep):
    name = "sweep-single-jobs2"
    jobs = 2
    scenario = "single"
    parameter = "n_channels"
    values = (4, 6, 8, 10)
    n_runs = 10

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.schemes = scheme_registry().names()

    def sweep_kwargs(self) -> dict:
        return {"checkpoint_path": self.checkpoint_path(),
                "workspace": self.work / "workspace",
                "run_name": f"unit-{self.count}"}

    def checkpoint_path(self) -> Path:
        return self.work / f"checkpoint-{self.count}.jsonl"

    def _sweep(self, jobs: int, values: Sequence[object]) -> Unit:
        unit = super()._sweep(jobs, values)
        path = self.checkpoint_path()
        with open(path, "rb") as handle:
            lines = handle.read().splitlines()
        unit.extra["checkpoint.records"] = float(len(lines) - 1)
        unit.extra["checkpoint.bytes"] = float(path.stat().st_size)
        return unit

    def reference(self) -> Unit:
        """The same sweep at ``jobs=1``; its hash must equal ``jobs=2``'s."""
        return self._sweep(1, self.values)


class ServiceJobs(Workload):
    name = "service-jobs"
    jobs = 2
    latency_name = "job_turnaround"
    schemes = ("proposed", "proposed-fast", "heuristic1", "heuristic2",
               "graph-coloring")
    runs = 2
    poll_seconds = 0.02
    #: Result hash and quality cover the first fresh specs only, so they
    #: do not depend on how many jobs the time budget let through.
    scored = 4

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.root = work / "service"
        self.server: Optional[subprocess.Popen] = None
        self.url = ""
        config = self.first_config()
        self.slots_per_job = config.n_slots * self.runs
        self.n_channels = config.n_channels

    def first_config(self):
        return scenario_registry().build("single", n_gops=1, seed=self.seed)

    def spec(self, index: int) -> dict:
        return {"command": "simulate", "scenario": "single",
                "scheme": self.schemes[index % len(self.schemes)],
                "runs": self.runs, "gops": 1,
                "seed": self.seed * 1000 + index}

    def _start_server(self, attempt: int) -> float:
        log_path = self.work / f"serve-{attempt}.log"
        start = time.perf_counter()
        with open(log_path, "w", encoding="utf-8") as log:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--workspace",
                 str(self.root), "--port", "0", "--job-workers", "2"],
                cwd=harness.ROOT, env=harness.child_env(),
                stdout=subprocess.DEVNULL, stderr=log)
        from repro.serve.client import ServiceClient, ServiceError

        pattern = re.compile(r"listening on ([\d.]+):(\d+)")
        deadline = start + 60.0
        while True:
            if self.server.poll() is not None:
                raise RuntimeError(f"server exited {self.server.returncode}")
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not start within 60 s")
            match = pattern.search(log_path.read_text(encoding="utf-8"))
            if match:
                self.url = f"http://{match.group(1)}:{match.group(2)}"
                try:
                    if ServiceClient(self.url).health()["status"] == "ok":
                        return time.perf_counter() - start
                except ServiceError:
                    pass
            time.sleep(0.005)

    def measure_setup(self) -> List[float]:
        samples = []
        for attempt in range(harness.SETUP_SAMPLES):
            if self.server is not None:
                self.close()
            samples.append(self._start_server(attempt))
        return samples

    def unit(self, budget: float) -> Unit:
        from repro.serve.client import ServiceClient

        client = ServiceClient(self.url)
        start = time.perf_counter()
        outstanding: Dict[str, tuple] = {}
        fresh: List[dict] = []       # completed fresh jobs
        resubmit_queue: List[dict] = []
        dedup: List[dict] = []
        rtts: List[float] = []
        failures: List[str] = []
        index = 0
        want_fresh = True
        while True:
            elapsed = time.perf_counter() - start
            while elapsed < budget and len(outstanding) < 2:
                if not want_fresh and resubmit_queue:
                    original = resubmit_queue.pop(0)
                    sent = time.perf_counter()
                    view = client.submit(original["spec"])
                    done = time.perf_counter()
                    rtts.append(done - sent)
                    if not view.deduplicated or view.id != original["id"]:
                        failures.append(f"resubmit of {original['id']} was "
                                        f"not deduplicated")
                    body = client.result_bytes(view.id)
                    if body != original["body"]:
                        failures.append(f"resubmit of {original['id']} "
                                        f"returned different bytes")
                    dedup.append({"turnaround": done - sent})
                else:
                    spec = self.spec(index)
                    index += 1
                    sent = time.perf_counter()
                    view = client.submit(spec)
                    rtts.append(time.perf_counter() - sent)
                    if view.deduplicated:
                        failures.append(f"fresh spec {spec} deduplicated")
                    outstanding[view.id] = (spec, sent)
                want_fresh = not want_fresh
            if not outstanding and elapsed >= budget:
                break
            time.sleep(self.poll_seconds)
            for job_id in list(outstanding):
                view = client.job(job_id)
                if not view.done:
                    continue
                spec, sent = outstanding.pop(job_id)
                finished = time.perf_counter()
                record = view.record
                entry = {"id": job_id, "spec": spec,
                         "turnaround": finished - sent,
                         "queue_wait": record["started"] - record["created"],
                         "child_run": record["finished"] - record["started"]}
                if view.state != "succeeded":
                    failures.append(f"{job_id} ended {view.state}")
                    continue
                entry["body"] = client.result_bytes(job_id)
                fresh.append(entry)
                resubmit_queue.append(entry)
        wall = time.perf_counter() - start
        counters = _prometheus_counters(client.metrics_text())
        # Stop and reap the server now, so that the driver's peak RSS
        # includes it and the job children it reaped.
        self.close()
        fresh.sort(key=lambda e: e["spec"]["seed"])
        unit = self._service_unit(fresh, dedup, rtts, failures, wall)
        unit.counters = counters
        return unit

    def _service_unit(self, fresh, dedup, rtts, failures, wall) -> Unit:
        violations = []
        psnrs, collisions = [], []
        for entry in fresh:
            text = entry["body"].decode("utf-8")
            direct = _direct_cli(entry["spec"])
            if direct != entry["body"]:
                violations.append(f"{entry['id']} differs from a direct "
                                  f"CLI run of the same spec")
            psnrs.append(float(re.search(r"mean PSNR\s*:\s*([\d.]+)",
                                         text).group(1)))
            match = re.search(r"collision rate\s*:\s*([\d.]+).*gamma = "
                              r"([\d.]+)", text)
            rate, gamma = float(match.group(1)), float(match.group(2))
            collisions.append(rate)
            # The report's rate averages channels and runs of one job.
            n_obs = self.slots_per_job * self.n_channels
            limit = gamma + COLLISION_Z * math.sqrt(gamma * (1 - gamma)
                                                    / n_obs)
            if rate > limit:
                violations.append(f"{entry['id']} collision rate {rate} > "
                                  f"gamma {gamma} + CI ({limit:.4f})")
        scored = fresh[:self.scored]
        if len(scored) < self.scored:
            violations.append(f"only {len(scored)} fresh jobs completed; "
                              f"{self.scored} are scored")
        return Unit(
            wall=wall, jobs=self.jobs, slots=len(fresh) * self.slots_per_job,
            latencies=[e["turnaround"] for e in fresh],
            digest=harness.digest([[e["spec"], e["body"].decode("utf-8")]
                                   for e in scored]),
            attempted=len(fresh) + len(dedup) + len(failures),
            failed=len(failures),
            quality={"mean_psnr_db": (sum(psnrs[:self.scored])
                                      / len(scored) if scored else 0.0),
                     "bound_gap_db": 0.0,
                     "collision_rate_max": max(collisions, default=0.0),
                     "degraded_slots": 0.0},
            violations=violations,
            extra={"serve.submit_rtt_s": harness.median(rtts),
                   "serve.queue_wait_s": harness.median(
                       [e["queue_wait"] for e in fresh] or [0.0]),
                   "serve.child_run_s": harness.median(
                       [e["child_run"] for e in fresh] or [0.0]),
                   "serve.dedup_hit_ratio": harness.ratio(
                       len(dedup), len(dedup) + len(fresh)),
                   "serve.dedup_turnaround_s": harness.median(
                       [e["turnaround"] for e in dedup] or [0.0]),
                   "serve.jobs_per_s": (len(fresh) + len(dedup)) / wall,
                   "serve.fresh_jobs": float(len(fresh)),
                   "serve.dedup_jobs": float(len(dedup))})

    def close(self) -> None:
        if self.server is not None:
            code = harness.stop_process(self.server)
            self.server = None
            if code not in (0, -15):
                raise RuntimeError(f"server exited {code} on shutdown")


def _direct_cli(spec: dict) -> bytes:
    """The stdout of ``python -m repro simulate`` for a job spec, run
    in-process through the same ``repro.cli.main`` entry point."""
    from repro.cli import main

    argv = ["simulate", "--scenario", spec["scenario"], "--scheme",
            spec["scheme"], "--runs", str(spec["runs"]), "--gops",
            str(spec["gops"]), "--seed", str(spec["seed"])]
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"direct run {argv} exited {code}")
    return buffer.getvalue().encode("utf-8")


def _prometheus_counters(text: str) -> Dict[str, float]:
    """``{sample: value}`` of the ``*_total`` samples of a /metrics page."""
    counters = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        sample, _, value = line.rpartition(" ")
        if sample.split("{")[0].endswith("_total"):
            counters[sample] = float(value)
    return counters


WORKLOADS = {cls.name: cls for cls in (
    CampaignInterfering, SweepCityGridHeuristics, SweepSingleJobs2,
    ServiceJobs)}

