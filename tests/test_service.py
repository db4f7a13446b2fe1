"""The analysis service (``repro.service``): tenants, queue, HTTP API.

The HTTP tests boot the real daemon (ephemeral port, in-thread via
``stop_event``) and drive it with the real ``ServiceClient`` — the
same path the CI smoke job and docs walkthrough use.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.resilience.errors import QuotaExceededError, UsageError
from repro.service import (
    JobQueue,
    JobRequest,
    Journal,
    ServeConfig,
    ServiceClient,
    ServiceClientError,
    ServiceJob,
    TenantConfig,
    TenantRegistry,
    TokenBucket,
    serve,
)

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


# ---------------------------------------------------------------------------
# Tenants + rate limiting
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = {"t": 0.0}
        bucket = TokenBucket(rate_per_s=2.0, burst=2,
                             clock=lambda: clock["t"])
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock["t"] = 0.5  # one token accrues
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_never_exceeds_burst(self):
        clock = {"t": 0.0}
        bucket = TokenBucket(rate_per_s=100.0, burst=3,
                             clock=lambda: clock["t"])
        clock["t"] = 60.0
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_rejects_bad_parameters(self):
        with pytest.raises(UsageError):
            TokenBucket(rate_per_s=0, burst=1)
        with pytest.raises(UsageError):
            TokenBucket(rate_per_s=1, burst=0)


class TestTenantRegistry:
    def test_authenticate_by_key_and_keyless(self):
        reg = TenantRegistry([
            TenantConfig(name="alice", api_key="sk-a"),
            TenantConfig(name="public", api_key=None),
        ])
        assert reg.authenticate("sk-a").name == "alice"
        assert reg.authenticate(None).name == "public"
        assert reg.authenticate("sk-wrong") is None

    def test_keys_required_when_no_keyless_tenant(self):
        reg = TenantRegistry([TenantConfig(name="a", api_key="sk-a")])
        assert reg.authenticate(None) is None

    def test_duplicate_names_and_keys_rejected(self):
        with pytest.raises(UsageError) as exc:
            TenantRegistry([TenantConfig(name="a", api_key="x"),
                            TenantConfig(name="a", api_key="y")])
        assert exc.value.code == "REPRO-U102"
        with pytest.raises(UsageError):
            TenantRegistry([TenantConfig(name="a", api_key="x"),
                            TenantConfig(name="b", api_key="x")])
        with pytest.raises(UsageError):
            TenantRegistry([TenantConfig(name="a"), TenantConfig(name="b")])

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({"tenants": [
            {"name": "alice", "api_key": "sk-a", "max_queued_jobs": 3},
        ]}), encoding="utf-8")
        reg = TenantRegistry.from_file(path)
        assert reg.authenticate("sk-a").max_queued_jobs == 3

    def test_from_file_rejects_junk(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(UsageError) as exc:
            TenantRegistry.from_file(bad)
        assert exc.value.code == "REPRO-U102"
        with pytest.raises(UsageError):
            TenantRegistry.from_file(tmp_path / "missing.json")
        shaped = tmp_path / "shaped.json"
        shaped.write_text('{"tenants": {}}', encoding="utf-8")
        with pytest.raises(UsageError):
            TenantRegistry.from_file(shaped)

    def test_unknown_tenant_fields_rejected(self):
        with pytest.raises(UsageError):
            TenantConfig.from_dict({"name": "a", "max_jobs": 1})


# ---------------------------------------------------------------------------
# Job requests
# ---------------------------------------------------------------------------


class TestJobRequest:
    def test_round_trip(self):
        req = JobRequest(source=KERNEL, threads=(2, 4), chunks=(1,),
                         macros={"N": 32}, deadline_s=5.0)
        clone = JobRequest.from_dict(req.to_dict())
        assert clone == req

    def test_rejects_malformed(self):
        for doc in (
            "not a dict",
            {"source": 42},
            {"source": KERNEL, "threads": []},
            {"source": KERNEL, "mode": "bogus"},
            {"source": KERNEL, "surprise": 1},
            {"source": ""},
        ):
            with pytest.raises(UsageError) as exc:
                JobRequest.from_dict(doc)
            assert exc.value.code == "REPRO-U101"

    def test_budget_built_only_when_asked(self):
        assert JobRequest(source=KERNEL).budget() is None
        budget = JobRequest(source=KERNEL, max_iters=100).budget()
        assert budget is not None and budget.max_steps == 100


# ---------------------------------------------------------------------------
# Queue admission (no HTTP)
# ---------------------------------------------------------------------------


def _queue(tenant: TenantConfig, tmp_path) -> JobQueue:
    from repro.engine import Engine

    return JobQueue(TenantRegistry([tenant]), Engine(jobs=1),
                    Journal(tmp_path / "wal", fsync=False))


class TestAdmission:
    def test_queued_jobs_quota(self, tmp_path):
        tenant = TenantConfig(name="t", max_queued_jobs=1,
                              rate_per_s=1000, burst=1000)
        queue = _queue(tenant, tmp_path)  # workers never started: jobs stay queued
        queue.submit(tenant, JobRequest(source=KERNEL, threads=(2,),
                                        chunks=(1,)))
        with pytest.raises(QuotaExceededError) as exc:
            queue.submit(tenant, JobRequest(source=KERNEL, threads=(2,),
                                            chunks=(1,)))
        assert exc.value.code == "REPRO-R101"

    def test_rate_limit(self, tmp_path):
        tenant = TenantConfig(name="t", rate_per_s=0.001, burst=1)
        queue = _queue(tenant, tmp_path)
        queue.submit(tenant, JobRequest(source=KERNEL, threads=(2,),
                                        chunks=(1,)))
        with pytest.raises(QuotaExceededError) as exc:
            queue.submit(tenant, JobRequest(source=KERNEL, threads=(2,),
                                            chunks=(1,)))
        assert exc.value.code == "REPRO-R102"

    def test_cells_budget(self, tmp_path):
        tenant = TenantConfig(name="t", max_cells_per_job=2,
                              rate_per_s=1000, burst=1000)
        queue = _queue(tenant, tmp_path)
        with pytest.raises(QuotaExceededError) as exc:
            queue.submit(tenant, JobRequest(source=KERNEL,
                                            threads=(2, 4), chunks=(1, 2)))
        assert exc.value.code == "REPRO-R103"
        assert exc.value.context["quota"] == "cells"

    def test_steps_budget(self, tmp_path):
        tenant = TenantConfig(name="t", max_steps_per_job=1,
                              rate_per_s=1000, burst=1000)
        queue = _queue(tenant, tmp_path)
        with pytest.raises(QuotaExceededError) as exc:
            queue.submit(tenant, JobRequest(source=KERNEL, threads=(2,),
                                            chunks=(1,)))
        assert exc.value.code == "REPRO-R103"
        assert exc.value.context["quota"] == "steps"

    def test_parse_errors_surface_at_submit(self, tmp_path):
        from repro.resilience.errors import ReproError

        tenant = TenantConfig(name="t", rate_per_s=1000, burst=1000)
        queue = _queue(tenant, tmp_path)
        with pytest.raises(ReproError) as exc:
            queue.submit(tenant, JobRequest(source="void f() { ??? }"))
        assert exc.value.code.startswith("REPRO-F")


#: A cached cell row as a journal written while an in-memory result
#: tier fronted the store recorded it.
_MEM_ROW = {
    "type": "cell", "kernel": "copy.i", "threads": 2, "chunk": 1,
    "fs_cases": 0.0, "fs_cycles": 0.0, "wall_cycles": 1000.0,
    "fs_share": 0.0, "fidelity": "regression", "from_cache": True,
    "cache_tier": "mem",
}


class TestMemTierJournalRows:
    """Rows tagged ``"cache_tier": "mem"`` still replay as cached cells."""

    def test_restore_rows_adopts_a_mem_row_as_a_cached_cell(self):
        job = ServiceJob("t", JobRequest(source=KERNEL, threads=(2, 4),
                                         chunks=(1,)), cells_total=2)
        job.restore_rows([dict(_MEM_ROW)])
        assert job.rows() == [_MEM_ROW]  # kept verbatim
        assert (job.cells_done, job.cells_cached, job.cells_failed) == (1, 1, 0)
        assert job.completed_cells == {("copy.i", 2, 1)}

    def test_job_with_a_mem_row_resumes(self, tmp_path):
        tenant = TenantConfig(name="t", rate_per_s=1000, burst=1000)
        request = JobRequest(source=KERNEL, threads=(2, 4), chunks=(1,))
        journal = Journal(tmp_path / "wal", fsync=False)
        journal.record_admit("old", "t", request.to_dict(), 2, time.time())
        journal.record_rows("old", 0, [_MEM_ROW])
        journal.close()

        queue = _queue(tenant, tmp_path)
        assert queue.recover() == 1
        queue.start()
        try:
            job = queue.get("old")
            deadline = time.monotonic() + 60
            while not job.terminal and time.monotonic() < deadline:
                time.sleep(0.05)
        finally:
            queue.drain()
        assert job.status == "done"
        rows = job.rows()
        assert rows[0] == _MEM_ROW
        assert [(r["threads"], r["from_cache"]) for r in rows[1:-1]] == [
            (4, False)
        ]
        assert rows[-1]["cells"] == {"total": 2, "done": 2, "failed": 0,
                                     "from_cache": 1}


# ---------------------------------------------------------------------------
# HTTP end-to-end
# ---------------------------------------------------------------------------


def _boot(config: ServeConfig):
    """Serve ``config`` on a thread; ``(client, stop, thread)`` once it
    is ready, or re-raise whatever made the boot fail."""
    stop = threading.Event()
    ready = threading.Event()
    bound: dict = {}
    failed: list[Exception] = []

    def _on_ready(server):
        bound["port"] = server.server_address[1]
        ready.set()

    def _run():
        try:
            serve(config, ready=_on_ready, stop_event=stop)
        except Exception as exc:  # noqa: BLE001 - re-raised below
            failed.append(exc)
            ready.set()

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    assert ready.wait(timeout=15), "daemon did not come up"
    if failed:
        thread.join(timeout=15)
        assert not thread.is_alive()
        raise failed[0]
    client = ServiceClient(f"http://127.0.0.1:{bound['port']}",
                           timeout_s=60)
    client.wait_ready()
    return client, stop, thread


def _stop(stop: threading.Event, thread: threading.Thread) -> None:
    stop.set()
    thread.join(timeout=60)
    assert not thread.is_alive(), "daemon did not drain"


@pytest.fixture()
def service(tmp_path):
    """A live daemon on an ephemeral port with two tenants."""
    tenants = tmp_path / "tenants.json"
    tenants.write_text(json.dumps({"tenants": [
        {"name": "alice", "api_key": "sk-alice",
         "rate_per_s": 1000, "burst": 1000},
        {"name": "bob", "api_key": "sk-bob",
         "rate_per_s": 1000, "burst": 1000},
    ]}), encoding="utf-8")
    config = ServeConfig(
        host="127.0.0.1", port=0, workers=1, concurrency=1, batch_cells=4,
        tenants_file=str(tenants), store_dir=str(tmp_path / "store"),
    )
    client, stop, thread = _boot(config)
    yield ServiceClient(client.base_url, api_key="sk-alice", timeout_s=60)
    _stop(stop, thread)


class TestHTTP:
    def test_submit_poll_results(self, service):
        job = service.submit(KERNEL, threads=[2, 4], chunks=[1, 2])
        assert job["cells"] == 4
        final = service.wait(job["id"])
        assert final["status"] == "done"
        assert final["cells"]["done"] == 4
        rows = service.results(job["id"])["rows"]
        cells = [r for r in rows if r["type"] == "cell"]
        assert len(cells) == 4
        assert all("fidelity" in c and "fs_share" in c for c in cells)
        assert rows[-1]["type"] == "summary"
        assert "best" in rows[-1]

    def test_streaming_ndjson(self, service):
        job = service.submit(KERNEL, threads=[2], chunks=[1, 2])
        rows = list(service.stream(job["id"]))
        assert [r["type"] for r in rows[:-1]] == ["cell"] * (len(rows) - 1)
        assert rows[-1]["type"] == "summary"

    def test_warm_resubmit_hits_cache(self, service):
        first = service.submit(KERNEL, threads=[2, 4], chunks=[1, 2])
        service.wait(first["id"])
        second = service.submit(KERNEL, threads=[2, 4], chunks=[1, 2])
        final = service.wait(second["id"])
        assert final["cells"]["from_cache"] == 4  # 100% cache-served
        cells = [r for r in service.results(second["id"])["rows"]
                 if r["type"] == "cell"]
        assert [r["cache_tier"] for r in cells] == ["disk"] * 4
        assert service.metric_value(
            "service_cells_total", {"status": "from_cache"}
        ) >= 4

    def test_auth_required(self, service):
        anon = ServiceClient(service.base_url)  # no key, no key-less tenant
        with pytest.raises(ServiceClientError) as exc:
            anon.submit(KERNEL)
        assert exc.value.status == 401

    def test_tenant_isolation_404(self, service):
        job = service.submit(KERNEL, threads=[2], chunks=[1])
        bob = ServiceClient(service.base_url, api_key="sk-bob")
        for call in (lambda: bob.status(job["id"]),
                     lambda: bob.results(job["id"]),
                     lambda: bob.cancel(job["id"])):
            with pytest.raises(ServiceClientError) as exc:
                call()
            assert exc.value.status == 404
        # Owner still sees it.
        assert service.status(job["id"])["id"] == job["id"]

    def test_frontend_error_maps_to_422(self, service):
        with pytest.raises(ServiceClientError) as exc:
            service.submit("int x = banana;;; not C")
        assert exc.value.status == 422
        assert exc.value.code.startswith("REPRO-F")

    def test_malformed_body_maps_to_400(self, service):
        with pytest.raises(ServiceClientError) as exc:
            service.submit(KERNEL, mode="bogus")
        assert exc.value.status == 400
        assert exc.value.code == "REPRO-U101"

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_maps_to_400(self, service, length):
        host, port = service.base_url.rsplit("/", 1)[-1].split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                b"X-Api-Key: sk-alice\r\n"
                + f"Content-Length: {length}\r\n\r\n".encode()
            )
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body)["error"]["code"] == "REPRO-U101"

    def test_unknown_routes_404(self, service):
        with pytest.raises(ServiceClientError) as exc:
            service._json("GET", "/v1/nope")
        assert exc.value.status == 404

    def test_healthz_and_metrics(self, service):
        health = service.healthz()
        assert health["status"] == "ready" and health["tenants"] == 2
        assert health["reasons"] == []
        text = service.metrics()
        assert "# TYPE service_requests_total counter" in text
        assert service.metric_value(
            "service_requests_total",
            {"method": "GET", "route": "/healthz", "status": "200"},
        ) >= 1

    def test_cancel_queued_job(self, service):
        # Saturate the single worker with a real job, then cancel a
        # queued one behind it.
        running = service.submit(KERNEL, threads=[2, 4, 8],
                                 chunks=[1, 2, 4, 8])
        victim = service.submit(KERNEL, threads=[2], chunks=[1],
                                predictor_runs=9)
        out = service.cancel(victim["id"])
        assert out["status"] in ("cancelled", "queued", "running")
        final = service.wait(victim["id"])
        assert final["status"] == "cancelled"
        service.wait(running["id"])

    def test_job_listing_scoped_to_tenant(self, service):
        service.submit(KERNEL, threads=[2], chunks=[1])
        bob = ServiceClient(service.base_url, api_key="sk-bob")
        assert bob.jobs() == []
        assert len(service.jobs()) >= 1


class TestRateLimit429:
    def test_429_with_stable_code(self, tmp_path):
        tenants = tmp_path / "tenants.json"
        tenants.write_text(json.dumps({"tenants": [
            {"name": "slow", "api_key": "sk-slow",
             "rate_per_s": 0.001, "burst": 1},
        ]}), encoding="utf-8")
        config = ServeConfig(host="127.0.0.1", port=0, workers=1,
                             concurrency=1, tenants_file=str(tenants),
                             store_dir=str(tmp_path / "store"))
        anon, stop, thread = _boot(config)
        try:
            client = ServiceClient(anon.base_url, api_key="sk-slow")
            client.submit(KERNEL, threads=[2], chunks=[1])
            with pytest.raises(ServiceClientError) as exc:
                client.submit(KERNEL, threads=[2], chunks=[1])
            assert exc.value.status == 429
            assert exc.value.code == "REPRO-R102"
            # The registry is process-global, so other tests may have
            # tallied rejections too — presence and monotonicity are
            # what this endpoint guarantees.
            assert client.metric_value(
                "service_rejections_total", {"quota": "rate"}
            ) >= 1
        finally:
            _stop(stop, thread)


class TestDrain:
    def test_sigterm_style_drain_persists_queue(self, tmp_path):
        """A stop signal parks unfinished jobs in the journal — the
        default ``$REPRO_CACHE_DIR/journal``, no flag given; the next
        daemon generation replays it and completes them warm."""
        from repro.engine import default_cache_dir

        journal_dir = default_cache_dir() / "journal"
        config = ServeConfig(
            host="127.0.0.1", port=0, workers=1, concurrency=1,
            batch_cells=1, store_dir=str(tmp_path / "store"),
        )

        client, stop, thread = _boot(config)
        # A backlog the single slow-ticking worker cannot finish
        # before the drain lands.
        ids = [
            client.submit(KERNEL, threads=[2, 4, 8], chunks=[1, 2, 4],
                          predictor_runs=3 + i)["id"]
            for i in range(6)
        ]
        _stop(stop, thread)

        if not journal_dir.exists():
            pytest.skip("queue fully drained before the signal landed")
        ledgers = Journal(journal_dir, fsync=False).replay()
        parked = {job_id for job_id, ledger in ledgers.items()
                  if not ledger.terminal}
        assert parked, "drain persisted an empty queue"
        assert parked <= set(ids)

        client2, stop2, thread2 = _boot(config)
        try:
            restored = {j["id"] for j in client2.jobs()}
            assert parked <= restored
            for job_id in parked:
                final = client2.wait(job_id, timeout_s=90)
                assert final["status"] == "done"
        finally:
            _stop(stop2, thread2)


class TestJournalLock:
    def test_second_writer_on_a_held_journal_fails_until_drained(
        self, tmp_path
    ):
        """Two daemons on one journal directory would run each other's
        jobs twice; the second fails at boot with ``REPRO-U001`` (exit
        2 from the CLI) and boots once the first has drained."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.engine import default_cache_dir

        journal_dir = default_cache_dir() / "journal"
        config = ServeConfig(host="127.0.0.1", port=0, workers=1,
                             concurrency=1,
                             store_dir=str(tmp_path / "store"))
        client, stop, thread = _boot(config)
        try:
            client.wait(client.submit(KERNEL, threads=[2],
                                      chunks=[1])["id"])
            with pytest.raises(UsageError) as exc:
                second = _boot(config)
                _stop(*second[1:])  # reached only if the lock is missing
            assert exc.value.code == "REPRO-U001"
            assert str(journal_dir) in str(exc.value)
            assert "--journal-dir" in str(exc.value)

            # The CLI, started with no flag at all, lands on the same
            # default directory and exits 2.
            src = Path(__file__).resolve().parents[1] / "src"
            env = dict(os.environ, PYTHONPATH=str(src))
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "repro", "serve",
                     "--port", "0", "--workers", "1"],
                    env=env, capture_output=True, text=True, timeout=60,
                )
            except subprocess.TimeoutExpired:
                pytest.fail("second daemon kept serving on a held journal")
            assert proc.returncode == 2, proc.stderr
            assert "REPRO-U001" in proc.stderr
        finally:
            _stop(stop, thread)

        client2, stop2, thread2 = _boot(config)
        try:
            assert client2.healthz()["status"] == "ready"
        finally:
            _stop(stop2, thread2)
