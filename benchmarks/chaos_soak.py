"""Chaos soak for the analysis service (``make chaos-smoke``).

Proves the crash-safety contract of the durable job journal end to
end: a real ``repro-fs serve`` subprocess is SIGKILL'd — no drain, no
atexit, indistinguishable from an OOM kill — **mid-sweep**, restarted
against the same ``--journal-dir``, and killed again, ``--kills``
times in total.  Throughout, a client records every result row it has
observed (each one was fsync'd to the journal *before* publication).
After the final restart the job must run to completion and the full
row log must show:

* **zero lost rows** — every row observed before any kill reappears,
  byte-identical, at the same offset after recovery;
* **zero duplicated cells** — each grid cell appears exactly once,
  and the grid is complete;
* exactly one terminal ``summary`` row with status ``done``;
* no orphaned engine worker: the daemon's two pool workers are gone
  within 5 s of each kill.

Cells are slowed with an ``engine.job`` latency fault so each kill
reliably lands in the middle of the sweep, and the result store is
disabled so recovery genuinely re-executes the unfinished remainder
instead of replaying a warm cache.

Importable: the crash-recovery e2e test reuses :func:`run_soak` with a
smaller kill budget.  Exit status is nonzero on any violated
expectation, so CI can gate on it directly.  The soak's own temporary
directory (journal, daemon log) is removed when it passes and kept,
with its path printed, when it fails.
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
import time
from pathlib import Path

#: Sweep grid: big enough that a kill budget of 5 cannot exhaust it.
_THREADS = (1, 2, 3, 4, 6, 8)
_CHUNKS = (1, 2, 4, 8, 16)


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


def _spawn_daemon(port: int, workdir: Path, delay_s: float,
                  log: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(workdir / "cache")
    env["REPRO_FAULTS"] = f"engine.job:latency:delay={delay_s:g}"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    with open(log, "ab") as sink:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--host", "127.0.0.1", "--port", str(port),
             "--workers", "2", "--concurrency", "1",
             "--batch-cells", "1", "--no-cache",
             "--journal-dir", str(workdir / "journal"),
             "--store-dir", str(workdir / "store")],
            env=env, stdout=sink, stderr=sink,
        )


def run_soak(
    port: int = 18397,
    kills: int = 5,
    delay_s: float = 0.4,
    rows_per_round: int = 2,
    workdir: Path | None = None,
    timeout_s: float = 600.0,
    threads: tuple[int, ...] = _THREADS,
    chunks: tuple[int, ...] = _CHUNKS,
) -> dict:
    """SIGKILL the daemon ``kills`` times mid-sweep; verify zero row
    loss and zero duplication.  Returns a verdict dict; raises
    ``AssertionError`` on any violated expectation.

    Without a ``workdir`` the soak makes a temporary one, removes it
    when the soak passes and keeps it, printing its path, when it
    fails.  A caller's ``workdir`` is never removed.
    """
    from repro.service.client import ServiceClient

    owned = workdir is None
    workdir = workdir or Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    workdir.mkdir(parents=True, exist_ok=True)
    log = workdir / "daemon.log"
    deadline = time.monotonic() + timeout_s

    client = ServiceClient(f"http://127.0.0.1:{port}", timeout_s=60,
                           retries=5)
    daemon = _spawn_daemon(port, workdir, delay_s, log)
    observed: list[dict] = []   # rows seen so far, in offset order
    verdict: dict = {"port": port, "kills": 0}
    passed = False
    try:
        client.wait_ready(timeout_s=30)
        job_id = client.submit(
            _heat_source(), threads=list(threads), chunks=list(chunks)
        )["id"]
        verdict["job"] = job_id

        for round_no in range(1, kills + 1):
            # Wait until the sweep has made fresh progress since the
            # last kill, so the SIGKILL genuinely lands mid-flight.
            while True:
                if time.monotonic() > deadline:
                    raise AssertionError(
                        f"soak timed out waiting for progress "
                        f"(round {round_no}, {len(observed)} rows)"
                    )
                doc = client.results(job_id, from_offset=len(observed))
                fresh = doc["rows"]
                if len(fresh) >= rows_per_round:
                    observed.extend(fresh)
                    break
                if doc["status"] in ("done", "failed", "cancelled"):
                    raise AssertionError(
                        f"job reached {doc['status']!r} after only "
                        f"{round_no - 1} kills — grid too small for "
                        f"kills={kills}"
                    )
                time.sleep(0.1)

            workers = _children(daemon.pid)
            assert len(workers) == 2, f"daemon children: {workers}"
            daemon.send_signal(signal.SIGKILL)
            daemon.wait(timeout=30)
            verdict["kills"] = round_no
            # The killed daemon's workers must not outlive it.
            orphan_deadline = time.monotonic() + 5.0
            while (any(map(_alive, workers))
                   and time.monotonic() < orphan_deadline):
                time.sleep(0.1)
            left = sorted(p for p in workers if _alive(p))
            assert not left, f"workers outlived kill #{round_no}: {left}"
            daemon = _spawn_daemon(port, workdir, delay_s, log)
            client.wait_ready(timeout_s=30)

            # Zero lost rows: everything observed pre-kill must be
            # replayed verbatim at the same offsets.
            doc = client.results(job_id)
            replayed = doc["rows"]
            assert len(replayed) >= len(observed), (
                f"journal lost rows: had {len(observed)}, "
                f"recovered {len(replayed)}"
            )
            for i, row in enumerate(observed):
                assert replayed[i] == row, (
                    f"row {i} changed across crash #{round_no}:\n"
                    f"  before: {row}\n  after:  {replayed[i]}"
                )

        # Final pass: stream (with ?from=N resume) to completion.
        for row in client.stream(job_id, from_offset=len(observed)):
            if row.get("type") != "interrupted":
                observed.append(row)
        final = client.wait(job_id, timeout_s=60)
        assert final["status"] == "done", final

        cells = [r for r in observed if r["type"] == "cell"]
        keys = [(r["threads"], r["chunk"]) for r in cells]
        want = [(t, c) for t in threads for c in chunks]
        dupes = {k for k in keys if keys.count(k) > 1}
        assert not dupes, f"cells delivered more than once: {sorted(dupes)}"
        missing = set(want) - set(keys)
        assert not missing, f"cells never delivered: {sorted(missing)}"
        summaries = [r for r in observed if r["type"] == "summary"]
        assert len(summaries) == 1 and summaries[0]["status"] == "done", (
            summaries
        )
        verdict.update(
            rows=len(observed), cells=len(cells),
            requeues=final.get("requeues"), ok=True,
        )
        passed = True
    finally:
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait(timeout=10)
        if not passed:
            print(f"chaos-soak FAILED: journal and daemon log kept in "
                  f"{workdir}", file=sys.stderr)
        elif owned:
            shutil.rmtree(workdir, ignore_errors=True)
    return verdict


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=18397,
                        help="service port (default 18397)")
    parser.add_argument("--kills", type=int, default=5,
                        help="SIGKILL count (default 5)")
    parser.add_argument("--delay", type=float, default=0.4,
                        help="injected per-cell latency seconds")
    parser.add_argument("--out", default=None,
                        help="write a JSON verdict here as well")
    args = parser.parse_args(argv)

    verdict = run_soak(port=args.port, kills=args.kills,
                       delay_s=args.delay)
    print("chaos-soak OK:", json.dumps(verdict))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(
            json.dumps(verdict, indent=1), encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
