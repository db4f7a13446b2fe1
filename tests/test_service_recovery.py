"""Crash safety and self-healing for the analysis service (PR 8).

Covers the four resilience pillars end to end:

* SIGKILL crash-recovery — a real daemon subprocess is killed without
  warning mid-sweep and restarted against its journal; clients must
  see every row exactly once (reuses the chaos soak harness);
* poison-job quarantine — a job whose cells crash worker processes is
  failed with ``REPRO-E105`` while the pool keeps serving other
  tenants;
* worker supervision — a dead queue-worker thread is restarted by the
  supervisor and the queue keeps working; a stall means no cell
  finished for the heartbeat timeout, not that a job is long;
* journal-failure degradation — a journal that cannot write flips the
  service to ``degraded`` (shedding admission with ``REPRO-E106`` +
  ``Retry-After``) instead of taking jobs down, and recovers on the
  first successful write; a full queue sheds the same way
  (``queue-pressure``) until it drains.
"""

from __future__ import annotations

import importlib.util
import json
import threading
import time
from pathlib import Path

import pytest

from repro.engine import Engine
from repro.kernels import heat_source
from repro.resilience.errors import ServiceOverloadedError
from repro.resilience.faults import FaultPlan, install_plan
from repro.service import (
    JobQueue,
    JobRequest,
    Journal,
    ServeConfig,
    ServiceClient,
    ServiceClientError,
    TenantConfig,
    TenantRegistry,
    serve,
)

REPO = Path(__file__).resolve().parents[1]

KERNEL = """
#define N 64
double a[N];
double b[N];

void copy(void) {
    int i;
    #pragma omp parallel for schedule(static,1)
    for (i = 0; i < N; i++) {
        b[i] = a[i] + 1.0;
    }
}
"""


def _tenant(name: str, **kw) -> TenantConfig:
    kw.setdefault("rate_per_s", 1000)
    kw.setdefault("burst", 1000)
    return TenantConfig(name=name, **kw)


def _wait_terminal(queue: JobQueue, job_id: str,
                   timeout_s: float = 90.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = queue.get(job_id)
        if job is not None and job.terminal:
            return
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} not terminal after {timeout_s:g}s")


def _wait_accepting(queue: JobQueue, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if queue.health.accepting:
            return
        time.sleep(0.05)
    raise AssertionError(
        f"queue never returned to ready: {queue.health.doc()}"
    )


# ---------------------------------------------------------------------------
# SIGKILL crash recovery (real daemon subprocess, via the soak harness)
# ---------------------------------------------------------------------------


def _load_soak():
    spec = importlib.util.spec_from_file_location(
        "repro_chaos_soak", REPO / "benchmarks" / "chaos_soak.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.slow
class TestCrashRecoveryE2E:
    def test_sigkill_midsweep_loses_and_duplicates_nothing(self, tmp_path):
        soak = _load_soak()
        verdict = soak.run_soak(
            port=18481, kills=2, delay_s=0.3, workdir=tmp_path / "soak",
            timeout_s=100.0, threads=(1, 2, 4), chunks=(1, 2, 4, 8),
        )
        assert verdict["ok"] is True
        assert verdict["kills"] == 2
        assert verdict["cells"] == 12  # each grid cell exactly once
        assert verdict["requeues"] >= 2  # the job really was interrupted


# ---------------------------------------------------------------------------
# Poison-job quarantine
# ---------------------------------------------------------------------------


class TestQuarantine:
    def test_poison_job_quarantined_while_pool_serves_others(
        self, monkeypatch, tmp_path
    ):
        # Only the poison job's cell (threads=4, chunk=8 → engine label
        # "…:t4c8") crashes its worker process; bob's t2c1 cells never
        # match the fault.
        monkeypatch.setenv("REPRO_FAULTS", "engine.job:crash:match=t4c8")
        alice = _tenant("alice", api_key="sk-a")
        bob = _tenant("bob", api_key="sk-b")
        queue = JobQueue(
            TenantRegistry([alice, bob]), Engine(jobs=2, use_cache=False),
            Journal(tmp_path / "wal", fsync=False),
            concurrency=2, quarantine_after=3,
        )
        queue.start()
        try:
            poison = queue.submit(alice, JobRequest(
                source=KERNEL, threads=(4,), chunks=(8,)))
            healthy = queue.submit(bob, JobRequest(
                source=KERNEL, threads=(2,), chunks=(1,)))
            _wait_terminal(queue, poison.id)
            _wait_terminal(queue, healthy.id)

            # 2 in-pool retries + the terminal crash = 3 attributed
            # crashes = the default threshold, crossed in one batch.
            assert poison.status == "failed"
            assert poison.error is not None
            assert poison.error["code"] == "REPRO-E105"
            assert poison.crashes >= 3
            diags = [r for r in poison.rows()
                     if r["type"] == "diagnostic"
                     and r.get("code") == "REPRO-E105"]
            assert diags, poison.rows()
            assert queue._m_quarantined.value >= 1

            # The pool survived and other tenants never noticed.
            assert healthy.status == "done"
            again = queue.submit(bob, JobRequest(
                source=KERNEL, threads=(2,), chunks=(2,)))
            _wait_terminal(queue, again.id)
            assert again.status == "done"
        finally:
            queue.drain()

    def test_restored_poison_job_quarantined_before_execution(
        self, tmp_path
    ):
        tenant = _tenant("t")
        queue = JobQueue(TenantRegistry([tenant]),
                         Engine(jobs=1, use_cache=False),
                         Journal(tmp_path / "wal", fsync=False),
                         concurrency=1, quarantine_after=2)
        job = queue.submit(tenant, JobRequest(source=KERNEL,
                                              threads=(2,), chunks=(1,)))
        job.crashes = 2  # as if restored from a crash-looping journal
        assert queue._maybe_quarantine(job) is True
        assert job.status == "failed"
        assert job.error["code"] == "REPRO-E105"
        # Idempotent: a second call must not double-fail the job.
        rows_before = len(job.rows())
        assert queue._maybe_quarantine(job) is True
        assert len(job.rows()) == rows_before
        queue.journal.close()


# ---------------------------------------------------------------------------
# Worker supervision
# ---------------------------------------------------------------------------


class TestSupervisor:
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_dead_worker_thread_is_restarted(self, tmp_path):
        tenant = _tenant("t")
        queue = JobQueue(TenantRegistry([tenant]), Engine(jobs=1),
                         Journal(tmp_path / "wal", fsync=False),
                         concurrency=1, supervise_interval_s=0.05)
        before = queue._m_worker_restarts.value
        # The fault fires on the worker's first heartbeat — outside the
        # per-job exception net — killing the thread outright.
        with install_plan(FaultPlan.parse("worker.heartbeat:raise:times=1")):
            queue.start()
            try:
                deadline = time.monotonic() + 15.0
                while queue._m_worker_restarts.value <= before:
                    assert time.monotonic() < deadline, (
                        "supervisor never restarted the dead worker"
                    )
                    time.sleep(0.05)
                # The replacement worker must actually serve jobs.
                _wait_accepting(queue)
                job = queue.submit(tenant, JobRequest(
                    source=KERNEL, threads=(2,), chunks=(1,)))
                _wait_terminal(queue, job.id)
                assert job.status == "done"
            finally:
                queue.drain()


class TestHeartbeat:
    def test_long_job_and_waiting_worker_keep_the_service_ready(
        self, tmp_path
    ):
        # 84 exact heat cells of at most ~0.1 s each, about 3.5 s in
        # all, as one engine batch: the job outlasts the 1 s heartbeat
        # timeout many times over while a cell finishes every fraction
        # of a second.  The second job's worker waits for the engine
        # until that batch ends.
        tenant = _tenant("t")
        queue = JobQueue(
            TenantRegistry([tenant]), Engine(jobs=1, use_cache=False),
            Journal(tmp_path / "wal", fsync=False),
            concurrency=2, batch_cells=128, heartbeat_timeout_s=1.0,
            supervise_interval_s=0.05,
        )
        queue.start()
        try:
            long = queue.submit(tenant, JobRequest(
                source=heat_source(16, 2050), exact=True,
                threads=tuple(range(2, 9)), chunks=tuple(range(1, 13))))
            t0 = time.monotonic()
            second = None
            states = set()
            while not (long.terminal and second is not None
                       and second.terminal):
                states.add(queue.health.state)
                if second is None and time.monotonic() - t0 > 1.25:
                    assert long.status == "running", (
                        "the long job ended before the heartbeat timeout"
                    )
                    second = queue.submit(tenant, JobRequest(
                        source=KERNEL, threads=(2,), chunks=(1,)))
                assert time.monotonic() - t0 < 90.0, "jobs never finished"
                time.sleep(0.02)
            assert states == {"ready"}, queue.health.doc()
            assert long.status == second.status == "done"
        finally:
            queue.drain()

    def test_cell_slower_than_the_timeout_stalls(self, tmp_path):
        tenant = _tenant("t")
        queue = JobQueue(
            TenantRegistry([tenant]), Engine(jobs=1, use_cache=False),
            Journal(tmp_path / "wal", fsync=False),
            concurrency=1, heartbeat_timeout_s=0.5,
            supervise_interval_s=0.05,
        )
        queue.start()
        try:
            plan = FaultPlan.parse("engine.job:latency:delay=2.0:match=t4c2")
            with install_plan(plan):
                job = queue.submit(tenant, JobRequest(
                    source=KERNEL, threads=(2, 4), chunks=(1, 2)))
                deadline = time.monotonic() + 30.0
                while "worker-stalled" not in queue.health.reasons():
                    assert not job.terminal, "no stall while t4c2 slept"
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                with pytest.raises(ServiceOverloadedError) as exc:
                    queue.submit(tenant, JobRequest(
                        source=KERNEL, threads=(2,), chunks=(4,)))
                assert "worker-stalled" in exc.value.context["reasons"]
                _wait_terminal(queue, job.id)
            assert job.status == "done"
            # Cells flow again: the stall clears and admission reopens.
            _wait_accepting(queue)
        finally:
            queue.drain()


# ---------------------------------------------------------------------------
# Journal failure → degraded + load shedding → recovery
# ---------------------------------------------------------------------------


class TestJournalDegradation:
    def test_journal_write_failure_degrades_sheds_and_recovers(
        self, tmp_path
    ):
        tenant = _tenant("t")
        queue = JobQueue(
            TenantRegistry([tenant]), Engine(jobs=1, use_cache=False),
            Journal(tmp_path / "wal", fsync=False), concurrency=1,
        )
        queue.start()
        try:
            with install_plan(FaultPlan.parse("journal.append:raise")):
                # The admit record fails — the job is still taken (the
                # journal must never take jobs down) but the service
                # degrades and starts shedding.
                errors = queue._m_journal_errors.value
                job1 = queue.submit(tenant, JobRequest(
                    source=KERNEL, threads=(2,), chunks=(1,)))
                assert queue._m_journal_errors.value > errors
                assert queue.health.state == "degraded"
                assert "journal-errors" in queue.health.reasons()
                with pytest.raises(ServiceOverloadedError) as exc:
                    queue.submit(tenant, JobRequest(
                        source=KERNEL, threads=(4,), chunks=(1,)))
                assert exc.value.code == "REPRO-E106"
                assert exc.value.context["retry_after_s"] > 0
            _wait_terminal(queue, job1.id)
            assert job1.status == "done"

            # Disk healed: the next successful write (here a crash-count
            # checkpoint, as ongoing traffic would produce) clears the
            # degradation and admission resumes.
            queue._journal_safe("record_crashes", job1.id, 0)
            _wait_accepting(queue)
            job2 = queue.submit(tenant, JobRequest(
                source=KERNEL, threads=(2,), chunks=(2,)))
            _wait_terminal(queue, job2.id)
            assert job2.status == "done"
        finally:
            queue.drain()


class TestQueueDepthShedding:
    def test_full_queue_sheds_until_it_drains(self, tmp_path):
        tenant = _tenant("t")
        queue = JobQueue(
            TenantRegistry([tenant]), Engine(jobs=1, use_cache=False),
            Journal(tmp_path / "wal", fsync=False),
            concurrency=1, max_queue_depth=2,
        )
        queue.start()
        try:
            # The first job's one cell sleeps, so it holds the only
            # worker while the next five submits meet the queue.
            plan = FaultPlan.parse("engine.job:latency:delay=1.0:match=t2c7")
            with install_plan(plan):
                running = queue.submit(tenant, JobRequest(
                    source=KERNEL, threads=(2,), chunks=(7,)))
                deadline = time.monotonic() + 30.0
                while running.status != "running":
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                admitted, shed = [running], []
                for chunk in (1, 2, 3, 4, 5):
                    try:
                        admitted.append(queue.submit(tenant, JobRequest(
                            source=KERNEL, threads=(2,), chunks=(chunk,))))
                    except ServiceOverloadedError as exc:
                        shed.append(exc)
                assert (len(admitted), len(shed)) == (3, 3)
                for exc in shed:
                    assert exc.code == "REPRO-E106"
                    assert set(exc.context["reasons"]) == {"queue-pressure"}
                    assert exc.context["retry_after_s"] > 0
                for job in admitted:
                    _wait_terminal(queue, job.id)
            assert all(job.status == "done" for job in admitted)
            _wait_accepting(queue)
            assert queue.health.state == "ready"
            job = queue.submit(tenant, JobRequest(
                source=KERNEL, threads=(2,), chunks=(6,)))
            _wait_terminal(queue, job.id)
            assert job.status == "done"
        finally:
            queue.drain()


# ---------------------------------------------------------------------------
# HTTP: ?from=N resume + Retry-After
# ---------------------------------------------------------------------------


@pytest.fixture()
def service(tmp_path):
    """A live daemon: alice unthrottled, bob with a one-token bucket."""
    tenants = tmp_path / "tenants.json"
    tenants.write_text(json.dumps({"tenants": [
        {"name": "alice", "api_key": "sk-alice",
         "rate_per_s": 1000, "burst": 1000},
        {"name": "bob", "api_key": "sk-bob",
         "rate_per_s": 0.001, "burst": 1},
    ]}), encoding="utf-8")
    config = ServeConfig(
        host="127.0.0.1", port=0, workers=1, concurrency=1, batch_cells=4,
        tenants_file=str(tenants), store_dir=str(tmp_path / "store"),
        journal_dir=str(tmp_path / "wal"),
    )
    stop = threading.Event()
    bound: dict = {}
    ready = threading.Event()

    def _on_ready(server):
        bound["port"] = server.server_address[1]
        ready.set()

    thread = threading.Thread(
        target=serve, args=(config,),
        kwargs={"ready": _on_ready, "stop_event": stop}, daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=15), "daemon did not come up"
    client = ServiceClient(
        f"http://127.0.0.1:{bound['port']}", api_key="sk-alice",
        timeout_s=60,
    )
    client.wait_ready()
    yield client
    stop.set()
    thread.join(timeout=60)
    assert not thread.is_alive(), "daemon did not drain"


class TestResumeAndBackPressure:
    def test_results_resume_from_offset(self, service):
        job = service.submit(KERNEL, threads=[2, 4], chunks=[1, 2])
        service.wait(job["id"])
        full = service.results(job["id"])
        assert full["from"] == 0
        rows = full["rows"]
        assert len(rows) == 5  # 4 cells + summary
        part = service.results(job["id"], from_offset=2)
        assert part["from"] == 2
        assert part["rows"] == rows[2:]

    def test_stream_resume_yields_only_the_tail(self, service):
        job = service.submit(KERNEL, threads=[2], chunks=[1, 2])
        rows = list(service.stream(job["id"]))
        tail = list(service.stream(job["id"], from_offset=len(rows) - 1))
        assert tail == rows[-1:]

    def test_bad_from_is_a_400(self, service):
        job = service.submit(KERNEL, threads=[2], chunks=[1])
        with pytest.raises(ServiceClientError) as exc:
            service._json("GET", f"/v1/jobs/{job['id']}/results?from=nope")
        assert exc.value.status == 400
        assert exc.value.code == "REPRO-U101"

    def test_rate_limit_429_carries_retry_after(self, service):
        bob = ServiceClient(service.base_url, api_key="sk-bob")
        bob.submit(KERNEL, threads=[2], chunks=[1])  # the only token
        with pytest.raises(ServiceClientError) as exc:
            bob.submit(KERNEL, threads=[2], chunks=[1])
        assert exc.value.status == 429
        assert exc.value.code == "REPRO-R102"
        assert exc.value.retry_after_s is not None
        assert exc.value.retry_after_s >= 1


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
