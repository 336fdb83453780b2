"""Shared plumbing of the benchmark: statistics, hashing, fingerprint, set-up.

Nothing here imports ``repro`` at module level, so the driver can report a
missing source tree cleanly before any program code is loaded.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Root of the checkout the benchmark runs from (the parent of ``perfbench``).
ROOT = Path(__file__).resolve().parent.parent

#: The program's source tree, put on ``sys.path`` and children's PYTHONPATH.
SRC = ROOT / "src"

#: Scratch space for workspaces, checkpoints and server logs (gitignored,
#: removed when a run ends).
WORK = ROOT / ".bench_work"

#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 3

#: A tail percentile is reported only when at least this many samples lie
#: beyond it (otherwise the median is the highest honest percentile).
TAIL_SAMPLES_BEYOND = 10


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: ours plus the source tree."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (str(SRC) + os.pathsep + existing if existing
                         else str(SRC))
    return env


# -- statistics ----------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[int, float]:
    """``(percentile, value)`` of the highest percentile with at least
    :data:`TAIL_SAMPLES_BEYOND` samples beyond it; the median when the
    sample is too small for any percentile above 50."""
    n = len(values)
    pct = math.floor(100 * (1 - TAIL_SAMPLES_BEYOND / n)) if n else 0
    if pct <= 50:
        return 50, median(values)
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return pct, float(cuts[pct - 1])


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 for an empty base."""
    return float(numerator) / denominator if denominator else 0.0


# -- output identity -----------------------------------------------------

def digest(payload: object) -> str:
    """sha256 of a canonical JSON rendering (floats round-trip exactly)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_payload(outcomes) -> List[list]:
    """Canonical per-cell results of executed cells, timings stripped,
    in cell-key order (completion order never enters the hash)."""
    from repro.sim.checkpoint import run_metrics_to_dict
    from repro.sim.metrics import RunMetrics

    rows = []
    for outcome in sorted(outcomes, key=lambda o: o.cell.key):
        result = outcome.result
        body = (run_metrics_to_dict(result) if isinstance(result, RunMetrics)
                else result.to_dict())
        rows.append([outcome.cell.key, body])
    return rows


# -- machine fingerprint -------------------------------------------------

def _cpu_model() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return platform.processor() or "unknown"
    match = re.search(r"^model name\s*:\s*(.+)$", text, re.MULTILINE)
    return match.group(1).strip() if match else "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """sha256 over the program's sources: identifies the code under test
    even in a checkout that is not a git repository."""
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode("utf-8"))
        sha.update(path.read_bytes())
    return sha.hexdigest()


def fingerprint() -> Dict[str, str]:
    """CPU, core count, interpreter and library versions, code identity."""
    import numpy
    import scipy

    return {
        "cpu": _cpu_model(),
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# -- resources -----------------------------------------------------------

def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB.

    A reaped child's figure covers the descendants it reaped in turn.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter until the workload's
    first unit of work could start (see ``setup_probe.py``)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
         workload, str(seed)], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed "
                           f"(exit {code}, said {line!r})")
    return elapsed


def stop_process(proc: subprocess.Popen, timeout: float = 30.0) -> int:
    """SIGTERM a child, escalate to SIGKILL, and reap it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
    return proc.wait(timeout=timeout)
