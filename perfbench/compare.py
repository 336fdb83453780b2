"""Parent-vs-change comparison of the benchmark's end-to-end metrics.

Runs the benchmark on two checkouts in alternating pairs (the side that
runs first alternates), then reports per workload and metric each side's
median and quartiles, the change's win fraction, and a verdict:

* ``improved`` -- the change wins at least 9/10 of the pairs (ties count
  for neither) and the medians differ by more than the parent's own
  quartile spread;
* ``within bound`` -- the change's median is not worse than the parent's
  by more than the metric's bound from ``BENCHMARK.json``;
* ``unresolved`` -- the parent's own spread is wider than the bound, so
  "no worse" cannot be shown (unless every change run beats every
  parent run);
* ``worse`` -- worse than the parent by more than the bound.

Metrics fixed by the seed alone (``mean_psnr_db``) are judged on the
paired same-seed values instead, which carry no run-to-run noise: the
change is ``worse`` when its median paired loss exceeds
:data:`PAIRED_BOUND`, and ``improved`` when it is better on at least 9/10
of the seeds.  On a workload where the change fails more output checks
than the parent, every metric is ``worse``: a gain bought with failures
does not count.

Every workload in ``BENCHMARK.json`` runs, for ``run_seconds`` each.

Usage::

    python3 perfbench/compare.py --parent ../parent --change . \\
        --seeds 101-110 --out pairs.json
    python3 perfbench/compare.py --report pairs.json

Use seeds that were not used while the change was written.  A warning is
printed when the two sides ran on machines with different fingerprints.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: Fingerprint fields that must agree for a comparison to be fair.
MACHINE_FIELDS = ("cpu", "nproc", "python", "numpy", "scipy")

#: Metrics fixed by the seed alone: a pair of runs on one seed must agree
#: exactly unless the change moved the simulated results.
SEED_DETERMINED = ("mean_psnr_db",)

#: Largest median paired same-seed loss of a seed-determined metric, as a
#: share of the parent's value, still called ``within bound``: 0.2% is
#: about 0.07 dB of PSNR.  Unchanged simulated results give exactly 0.
PAIRED_BOUND = 0.002


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in ``checkout``; its result line and fingerprint."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    fingerprint = {}
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"benchmark crashed in {checkout} ({workload}, "
                           f"seed {seed}, exit {proc.returncode}):\n"
                           f"{proc.stdout}\n{proc.stderr}") from None
    return {"seed": seed, "fingerprint": fingerprint, "result": result}


def run_pairs(parent: Path, change: Path, workloads: List[str],
              seeds: List[int], seconds: int) -> dict:
    pairs: Dict[str, list] = {}
    for workload in workloads:
        rows = pairs.setdefault(workload, [])
        for i, seed in enumerate(seeds):
            order = (("parent", parent), ("change", change))
            if i % 2:
                order = order[::-1]
            pair = {}
            for side, checkout in order:
                pair[side] = run_once(checkout, workload, seed, seconds)
                print(f"{workload} seed {seed} {side} done", file=sys.stderr)
            rows.append(pair)
    return {"seconds": seconds, "pairs": pairs}


def failures(pairs: list, side: str) -> int:
    """Failed operations (output checks included) of one side's runs."""
    return sum(pair[side]["result"]["failed"] for pair in pairs)


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    p_q1, _, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, _, c_q3 = statistics.quantiles(change, n=4)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_fraction = wins / len(parent)
    gain = sign * (c_med - p_med)
    spread = p_q3 - p_q1
    dominates = (min(sign * c for c in change)
                 > max(sign * p for p in parent))
    if win_fraction >= 0.9 and gain > spread:
        label = "improved"
    elif spread > bound * abs(p_med) and not dominates:
        label = "unresolved"
    elif -gain > bound * abs(p_med):
        label = "worse"
    else:
        label = "within bound"
    return {"parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
            "change_median": c_med, "change_q1": c_q1, "change_q3": c_q3,
            "win_fraction": win_fraction, "verdict": label}


def paired_verdict(parent: List[float], change: List[float],
                   better: str) -> dict:
    """Verdict of a seed-determined metric from its same-seed pairs."""
    sign = 1.0 if better == "higher" else -1.0
    deltas = [c - p for p, c in zip(parent, change)]
    losses = [-sign * d / abs(p) if p else 0.0
              for p, d in zip(parent, deltas)]
    wins = sum(1 for loss in losses if loss < 0) / len(losses)
    if statistics.median(losses) > PAIRED_BOUND:
        label = "worse"
    elif wins >= 0.9:
        label = "improved"
    else:
        label = "within bound"
    return {"moved": sum(1 for d in deltas if d != 0),
            "largest": max(deltas, key=abs), "win_fraction": wins,
            "verdict": label}


def report(data: dict, benchmark: dict) -> List[str]:
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    lines = []
    for workload, pairs in data["pairs"].items():
        prints = {side: {json.dumps({k: pair[side]["fingerprint"].get(k)
                                     for k in MACHINE_FIELDS},
                                    sort_keys=True)
                         for pair in pairs}
                  for side in ("parent", "change")}
        if len(prints["parent"] | prints["change"]) > 1:
            lines.append(f"WARNING {workload}: machine fingerprints differ "
                         f"between runs: {sorted(prints['parent'] | prints['change'])}")
        failed = [pair[side]["seed"] for pair in pairs
                  for side in ("parent", "change")
                  if not pair[side]["result"]["correct"]]
        if failed:
            lines.append(f"WARNING {workload}: output checks failed for "
                         f"seeds {failed}")
        more_failures = failures(pairs, "change") > failures(pairs, "parent")
        if more_failures:
            lines.append(f"WORSE {workload}: the change failed "
                         f"{failures(pairs, 'change')} operations, the "
                         f"parent {failures(pairs, 'parent')}")
        lines.append(f"{workload} ({len(pairs)} pairs, "
                     f"{data['seconds']} s per run)")
        for name, spec in metrics.items():
            values = {side: [pair[side]["result"]["metrics"][name]["value"]
                             for pair in pairs]
                      for side in ("parent", "change")}
            row = verdict(values["parent"], values["change"],
                          spec["better"], spec["bound"])
            paired = None
            if name in SEED_DETERMINED:
                paired = paired_verdict(values["parent"], values["change"],
                                        spec["better"])
                row["verdict"] = paired["verdict"]
            if more_failures:
                row["verdict"] = "worse"
            lines.append(
                f"  {name:16s} parent {row['parent_median']:.6g} "
                f"[{row['parent_q1']:.6g}, {row['parent_q3']:.6g}]  change "
                f"{row['change_median']:.6g} [{row['change_q1']:.6g}, "
                f"{row['change_q3']:.6g}] {spec['unit']}  wins "
                f"{row['win_fraction']:.0%}  {row['verdict']}")
            if paired is not None:
                lines.append(
                    f"  {name:16s} same seed, paired: differs on "
                    f"{paired['moved']} of {len(pairs)} seeds (largest "
                    f"change {paired['largest']:+.6g} {spec['unit']}), "
                    f"better on {paired['win_fraction']:.0%}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--seeds", default="101-110",
                        help="seed list, e.g. 101-110 or 1,5,9 (>= 4 seeds)")
    parser.add_argument("--out", type=Path,
                        help="save the raw pairs as JSON")
    parser.add_argument("--report", type=Path,
                        help="only report on pairs saved by --out")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.report:
        data = json.loads(args.report.read_text())
    else:
        if args.parent is None or args.change is None:
            parser.error("--parent and --change are required to run pairs")
        workloads = [w["name"] for w in benchmark["workloads"]]
        seeds = parse_seeds(args.seeds)
        if len(seeds) < 4:
            parser.error("at least 4 seeds are needed for quartiles")
        data = run_pairs(args.parent.resolve(), args.change.resolve(),
                         workloads, seeds, benchmark["run_seconds"])
        if args.out:
            args.out.write_text(json.dumps(data, indent=1))
    print("\n".join(report(data, benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
