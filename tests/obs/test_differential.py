"""Telemetry is out-of-band: identical output with observability on/off.

The load-bearing guarantee of the obs package (DESIGN.md section 12):
tracing, metrics, and logging never touch RNG streams or results.  These
tests run the same experiment with full observability (``--profile``
tracing + metrics) and with everything off, then compare

* the canonical SlotRecord stream fingerprint (engine level),
* saved results files byte-for-byte,
* sweep checkpoint files (byte-for-byte at ``--jobs 1``; as an ordered-
  independent line set at ``--jobs 2``, where the append order follows
  worker completion order and is not deterministic even without
  telemetry).
"""

from repro import obs
from repro.experiments.fig4 import run_fig4b
from repro.experiments.results_io import save_results
from repro.experiments.scenarios import single_fbs_scenario
from tests.sim.test_seed_stability import compute_fingerprint

SCHEMES = ("proposed-fast", "heuristic1")
SEED = 7


def _observed(trace_path, metrics_path):
    obs.configure(trace_path=str(trace_path), metrics_path=str(metrics_path),
                  profile=True)


def _run_sweep(tmp_path, tag, jobs, observe):
    checkpoint = tmp_path / f"checkpoint-{tag}.jsonl"
    if observe:
        _observed(tmp_path / f"trace-{tag}.jsonl",
                  tmp_path / f"metrics-{tag}.prom")
    try:
        result = run_fig4b(n_runs=2, n_gops=1, seed=SEED, channels=(4,),
                           schemes=SCHEMES,
                           checkpoint_path=str(checkpoint), jobs=jobs)
    finally:
        obs.shutdown()
    results_path = tmp_path / f"results-{tag}.json"
    save_results(result, results_path,
                 provenance=obs.result_provenance(seed=SEED))
    return results_path.read_bytes(), checkpoint.read_bytes()


class TestEngineLevel:
    def test_slot_record_stream_identical_with_observability_on(self, tmp_path):
        config = single_fbs_scenario(n_gops=1, seed=SEED)
        baseline, _ = compute_fingerprint(config)
        _observed(tmp_path / "trace.jsonl", tmp_path / "metrics.prom")
        try:
            observed, _ = compute_fingerprint(config)
        finally:
            obs.shutdown()
        assert observed == baseline


class TestSweepLevel:
    def test_jobs1_results_and_checkpoint_byte_identical(self, tmp_path):
        plain_results, plain_ckpt = _run_sweep(tmp_path, "off", 1, False)
        traced_results, traced_ckpt = _run_sweep(tmp_path, "on", 1, True)
        assert traced_results == plain_results
        assert traced_ckpt == plain_ckpt
        # The telemetry side actually ran: trace and metrics files exist
        # and are non-trivial.
        trace = obs.read_trace(str(tmp_path / "trace-on.jsonl"))
        assert trace[-1]["kind"] == "trace-summary"
        assert any(e["kind"] == "replication" for e in trace)
        metrics_text = (tmp_path / "metrics-on.prom").read_text()
        assert "repro_slots_total" in metrics_text
        assert "repro_exact_solves_total" in metrics_text

    def test_jobs2_results_byte_identical_checkpoint_content_equal(
            self, tmp_path):
        plain_results, plain_ckpt = _run_sweep(tmp_path, "off-2", 2, False)
        traced_results, traced_ckpt = _run_sweep(tmp_path, "on-2", 2, True)
        assert traced_results == plain_results
        # Checkpoint cells are appended in worker completion order, which
        # varies run to run regardless of telemetry; the *content* (header
        # plus the set of cell lines) must match exactly.
        assert sorted(traced_ckpt.splitlines()) == sorted(plain_ckpt.splitlines())
        assert len(traced_ckpt) == len(plain_ckpt)

    def test_jobs_counts_agree_with_each_other(self, tmp_path):
        # Transitivity check: traced jobs=2 == untraced jobs=1 results.
        plain_results, _ = _run_sweep(tmp_path, "off-j1", 1, False)
        traced_results, _ = _run_sweep(tmp_path, "on-j2", 2, True)
        assert traced_results == plain_results


class TestMetricsParallelInvariance:
    def test_engine_metric_totals_jobs1_vs_jobs2(self, tmp_path):
        # Snapshot-and-absorb makes deterministic engine-side counters
        # (slots, access decisions, solver iterations, PSNR histograms)
        # identical at any worker count; executor-side wall-clock metrics
        # are excluded from the comparison by nature.
        def engine_lines(tag, jobs):
            _run_sweep(tmp_path, tag, jobs, True)
            text = (tmp_path / f"metrics-{tag}.prom").read_text()
            return sorted(
                line for line in text.splitlines()
                if line.startswith(("repro_slots_total", "repro_access_",
                                    "repro_solver_", "repro_exact_",
                                    "repro_user_psnr_db",
                                    "repro_degradations_total")))

        assert engine_lines("agg-1", 1) == engine_lines("agg-2", 2)


class TestCliArtifacts:
    def test_trace_metrics_and_manifest_files_created(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "run.trace.jsonl"
        metrics_path = tmp_path / "run.prom"
        exit_code = main([
            "simulate", "--runs", "1", "--gops", "1",
            "--trace", str(trace_path), "--metrics", str(metrics_path),
            "--profile",
        ])
        assert exit_code == 0
        events = obs.read_trace(str(trace_path))
        kinds = {e["kind"] for e in events}
        assert {"run", "replication", "slot", "phase",
                "trace-summary"} <= kinds
        manifest = obs.read_manifest(str(trace_path) + ".manifest.json")
        assert manifest["command"] == "simulate"
        assert "repro_slots_total" in metrics_path.read_text()

    def test_plain_trace_omits_phase_spans(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "plain.trace.jsonl"
        exit_code = main([
            "simulate", "--runs", "1", "--gops", "1",
            "--trace", str(trace_path),
        ])
        assert exit_code == 0
        kinds = {e["kind"] for e in obs.read_trace(str(trace_path))}
        assert "slot" in kinds
        assert "phase" not in kinds
        assert "solver" not in kinds
