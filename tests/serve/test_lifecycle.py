"""The ISSUE's acceptance test: kill the server mid-job, restart, and
the job resumes from its checkpoint to a byte-identical result.

Driven at the JobManager level (the HTTP layer adds nothing to the
lifecycle): manager A runs a fig4b sweep job until the checkpoint holds
a few cells, is killed SIGKILL-style (records left stale, exactly like
a power cut), and manager B on the same workspace must recover the job,
resume it from the checkpoint, and finish with the same bytes a direct
CLI run produces at a different ``--jobs`` count.
"""

import time
from pathlib import Path

import pytest

from repro import cli
from repro.serve.jobs import JobManager, TERMINAL_STATES
from repro.store.workspace import FileWorkspace

SPEC = {"command": "fig4b", "runs": 2, "gops": 1, "jobs": 2}
WAIT = 300.0


def wait_until(predicate, timeout=WAIT, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not met in time")


def _stat_fields(pid):
    """``(state, ppid)`` of a live process from /proc, or ``None``."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may contain spaces; fields resume after its ')'.
    state, ppid = stat.rpartition(")")[2].split()[:2]
    return state, int(ppid)


def process_tree(pid):
    """``pid`` plus every live descendant, scanned from /proc."""
    tree = {pid}
    while True:
        children = {int(entry.name) for entry in Path("/proc").iterdir()
                    if entry.name.isdigit()
                    and int(entry.name) not in tree
                    and (_stat_fields(entry.name) or ("", 0))[1] in tree}
        if not children:
            return tree
        tree |= children


def alive(pid):
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


@pytest.fixture
def crashed(tmp_path):
    """A workspace holding one job killed mid-sweep, plus its id."""
    workspace = tmp_path / "ws"
    first_life = JobManager(workspace, job_workers=1)
    first_life.start()
    record, _ = first_life.submit(SPEC)
    job_id = record["id"]
    checkpoint = workspace / record["artifacts"]["checkpoint"]

    def cells_checkpointed():
        if not checkpoint.exists():
            return 0
        return sum(1 for line in checkpoint.read_text().splitlines()
                   if line.strip())

    wait_until(lambda: cells_checkpointed() >= 2)
    # The --jobs 2 job child and its pool workers: none may outlive it.
    job_pids = process_tree(first_life.get(job_id)["pid"])
    first_life.kill()
    wait_until(lambda: not any(alive(pid) for pid in job_pids),
               timeout=30.0)
    yield workspace, job_id
    # (second-life managers are stopped by the tests themselves)


class TestCrashRecovery:
    def test_restart_resumes_from_checkpoint_byte_identically(
            self, crashed, tmp_path):
        workspace, job_id = crashed
        stale = JobManager(workspace).get(job_id)
        # The crash left the record exactly as a power cut would.
        assert stale["state"] in ("building", "running")

        second_life = JobManager(workspace, job_workers=1)
        resumed = second_life.start()
        assert job_id in resumed
        try:
            final = wait_until(
                lambda: (second_life.get(job_id)
                         if second_life.get(job_id)["state"]
                         in TERMINAL_STATES else None))
        finally:
            second_life.stop(graceful=False, timeout=30)
        assert final["state"] == "succeeded"
        assert final["exit_code"] == 0
        assert final["resumed"] >= 1

        # The re-run resumed the checkpoint rather than starting over.
        events, _ = second_life.events(job_id)
        resumes = [e for e in events if e["kind"] == "resume"]
        assert resumes and resumes[-1]["cached"] >= 2

        # Byte identity against a direct CLI run at a different --jobs.
        direct = tmp_path / "direct.json"
        assert cli.main(["fig4b", "--runs", "2", "--gops", "1",
                         "--jobs", "1", "--output", str(direct)]) == 0
        served = workspace / final["artifacts"]["result"]
        assert served.read_bytes() == direct.read_bytes()

    def test_gc_protects_the_interrupted_jobs_inputs(self, crashed):
        workspace, job_id = crashed
        ws = FileWorkspace(workspace)
        record = ws.job_records()[job_id]
        assert record["scenario_hashes"]
        report = ws.gc(dry_run=True)
        assert job_id in report["active_jobs"]
        # Every scenario the job planned survives while it is active...
        assert not set(record["scenario_hashes"]) \
            & set(report["removed_scenarios"])
        # ...but once the job record turns terminal AND its checkpoint
        # is gone (a live checkpoint independently protects its builds,
        # since it could still be resumed), gc may reclaim them.
        record["state"] = "cancelled"
        ws.save_job(record)
        (workspace / record["artifacts"]["checkpoint"]).unlink()
        report = ws.gc(dry_run=True)
        assert job_id not in report["active_jobs"]
        built = set(record["scenario_hashes"]) & set(ws.scenario_refs())
        assert built <= set(report["removed_scenarios"])
