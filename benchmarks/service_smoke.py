"""End-to-end smoke of the analysis service daemon (``make service-smoke``).

Boots a real ``repro-fs serve`` **subprocess** with no
``--journal-dir``, then walks the whole operational contract the docs
promise:

0. the daemon journals by default: a segment exists under
   ``$REPRO_CACHE_DIR/journal`` once it is ready;
1. submit a small heat-kernel sweep over HTTP and stream its NDJSON
   results live (cells must carry fidelity tags; the terminal row is a
   summary);
2. the engine's two worker processes outlive the job: a second, cold
   grid runs on the same two pids (read from
   ``/proc/<pid>/task/*/children``);
3. re-submit the identical sweep and require a warm run — every cell
   served ``from_cache`` and the ``service_cells_total{status=
   "from_cache"}`` counter visible at ``/metrics`` in valid Prometheus
   text exposition;
4. send SIGTERM and require a graceful drain: the process must exit 0
   and leave none of its workers alive.

Exit status is nonzero on any violated expectation, so CI can gate on
it directly.  The smoke's temporary directory (result store, and the
journal unless ``REPRO_CACHE_DIR`` is set) is removed when it passes
and kept, with its path printed, when it fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path


def _heat_source() -> str:
    from repro.kernels import heat_source

    return heat_source(6, 130)


def _children(pid: int) -> set[int]:
    """Pids of the child processes of ``pid``, over all its threads."""
    kids: set[int] = set()
    for path in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            kids.update(int(p) for p in path.read_text().split())
        except OSError:  # the thread exited meanwhile
            pass
    return kids


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie counts as gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=18377,
                        help="service port (default 18377)")
    parser.add_argument("--out", default=None,
                        help="write a JSON verdict here as well")
    args = parser.parse_args(argv)

    from repro.service.client import ServiceClient

    workdir = Path(tempfile.mkdtemp(prefix="repro-svc-smoke-"))
    env = dict(os.environ)
    env.setdefault("REPRO_CACHE_DIR", str(workdir / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--host", "127.0.0.1", "--port", str(args.port),
         "--workers", "2", "--concurrency", "1",
         "--store-dir", str(workdir / "store")],
        env=env,
    )
    verdict: dict = {"port": args.port}
    passed = False
    try:
        client = ServiceClient(
            f"http://127.0.0.1:{args.port}", timeout_s=120
        )
        health = client.wait_ready(timeout_s=30)
        assert health["status"] == "ready", health

        # 0. journaled without a flag
        journal_dir = Path(env["REPRO_CACHE_DIR"]) / "journal"
        segments = sorted(journal_dir.glob("journal-*.ndjson"))
        assert segments, f"no journal segment under {journal_dir}"
        verdict["journal_segments"] = len(segments)

        source = _heat_source()
        grid = {"threads": [2, 4], "chunks": [1, 4]}

        # 1. cold submit + live stream
        job = client.submit(source, **grid)
        rows = list(client.stream(job["id"]))
        cells = [r for r in rows if r["type"] == "cell"]
        assert cells, "stream produced no cells"
        assert all("fidelity" in c for c in cells), cells[0]
        assert rows[-1]["type"] == "summary", rows[-1]
        assert rows[-1]["status"] == "done", rows[-1]
        verdict["cold"] = {
            "cells": len(cells),
            "from_cache": sum(1 for c in cells if c["from_cache"]),
        }

        # 2. the pool persists: a second cold grid, the same workers
        workers = _children(daemon.pid)
        assert len(workers) == 2, f"daemon children after a job: {workers}"
        other = client.wait(
            client.submit(source, threads=[2, 4], chunks=[2, 8])["id"],
            timeout_s=120,
        )
        assert other["status"] == "done", other
        assert other["cells"]["from_cache"] == 0, other["cells"]
        again = _children(daemon.pid)
        assert again == workers, f"workers {workers} replaced by {again}"
        verdict["workers"] = sorted(workers)

        # 3. warm re-submit: >= 90% cache-served, counter at /metrics
        job2 = client.submit(source, **grid)
        final = client.wait(job2["id"], timeout_s=120)
        done = final["cells"]["done"]
        cached = final["cells"]["from_cache"]
        assert done and cached / done >= 0.9, final["cells"]
        counter = client.metric_value(
            "service_cells_total", {"status": "from_cache"}
        )
        assert counter is not None and counter >= cached, counter
        text = client.metrics()
        assert "# TYPE service_cells_total counter" in text
        assert "# TYPE service_job_seconds histogram" in text
        assert 'le="+Inf"' in text
        verdict["warm"] = {"cells": done, "from_cache": cached,
                           "metrics_counter": counter}

        # 4. SIGTERM -> graceful drain -> exit 0, no worker left behind
        daemon.send_signal(signal.SIGTERM)
        rc = daemon.wait(timeout=60)
        assert rc == 0, f"daemon exited {rc}, wanted 0"
        verdict["drain_exit_code"] = rc
        left = sorted(p for p in workers if _alive(p))
        assert not left, f"workers alive after the drain: {left}"
        passed = True
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)
        if passed:
            shutil.rmtree(workdir, ignore_errors=True)
        else:
            print(f"service-smoke FAILED: kept {workdir}", file=sys.stderr)

    verdict["ok"] = True
    print("service-smoke OK:", json.dumps(verdict))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(
            json.dumps(verdict, indent=1), encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
