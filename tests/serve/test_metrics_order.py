"""Server ``/metrics`` folds job snapshots in submission order.

Histogram sums are float accumulations and gauges are last-write-wins,
so a server that folded job snapshots as jobs finished would render
different ``/metrics`` text depending on scheduling.  The jobs here run
a stand-in interpreter that writes a fixed snapshot per seed (and can be
told to dawdle), which makes completion order controllable without
running real simulations.
"""

import stat
import sys
import threading

from repro.serve import ServiceClient, ServiceServer
from repro.serve.jobs import JobManager

# Seed -> observed value: ((0.1 + 0.2) + 0.3) != ((0.2 + 0.3) + 0.1).
VALUES = {1: 0.1, 2: 0.2, 3: 0.3}

_FAKE_CHILD = """#!{python}
import json, sys, time

argv = sys.argv[1:]
seed = int(argv[argv.index("--seed") + 1])
time.sleep({delays!r}.get(seed, 0.0))
value = {values!r}[seed]
snapshot = {{
    "counters": {{"fake_jobs_total": 1.0}},
    "gauges": {{"fake_last_seed": float(seed)}},
    "histograms": {{"fake_value": {{
        "buckets": [1.0], "counts": [1, 0], "sum": value, "count": 1}}}},
}}
with open(argv[argv.index("--metrics") + 1], "w") as handle:
    json.dump(snapshot, handle)
"""


def _fake_interpreter(path, delays):
    path.write_text(_FAKE_CHILD.format(python=sys.executable, delays=delays,
                                       values=VALUES))
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


def _metrics_after_jobs(tmp_path, name, *, job_workers, delays):
    python = _fake_interpreter(tmp_path / f"{name}-python", delays)
    manager = JobManager(tmp_path / name, job_workers=job_workers,
                         python=python)
    server = ServiceServer(("127.0.0.1", 0), manager)
    manager.start()
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}", timeout=30)
        ids = [client.submit({"command": "simulate", "runs": 1, "gops": 1,
                              "seed": seed}).id for seed in sorted(VALUES)]
        views = [client.wait(job_id, timeout=60, poll=0.05) for job_id in ids]
        assert [view.state for view in views] == ["succeeded"] * len(ids)
        finish_order = sorted(ids, key=lambda job_id:
                              manager.get(job_id)["finished"])
        return client.metrics_text(), finish_order, ids
    finally:
        server.shutdown()
        thread.join(timeout=10)
        manager.stop(graceful=False, timeout=10)
        server.server_close()


def test_metrics_do_not_depend_on_completion_order(tmp_path):
    reference, finished, ids = _metrics_after_jobs(
        tmp_path, "serial", job_workers=1, delays={})
    assert finished == ids
    shuffled, finished, ids = _metrics_after_jobs(
        tmp_path, "shuffled", job_workers=2, delays={1: 1.5})
    assert finished[-1] == ids[0], "the first-submitted job must finish last"
    assert "fake_value_sum" in shuffled
    assert shuffled == reference
