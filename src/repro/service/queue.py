"""The multi-tenant job queue feeding one shared analysis engine.

Submission flow (:meth:`JobQueue.submit`)::

    shed check (health) ──► rate bucket ──► queued-jobs quota ──►
    parse kernels ──► grid size + step estimate vs tenant budget ──►
    journal admit record ──► ServiceJob(queued) ──► worker

Admission rejections raise structured resource errors (``REPRO-R101``
rate/quota, ``REPRO-R102`` token bucket, ``REPRO-R103`` oversized job)
that the HTTP layer maps to 429; a degraded/overloaded service sheds
with ``REPRO-E106`` (503 + ``Retry-After``); frontend errors from the
submit-time parse keep their ``REPRO-F*`` codes and map to 422.
Nothing about a rejected job ever reaches the engine.

Execution: ``concurrency`` worker threads pull queued jobs and run
their sweep grids through the **shared** :class:`repro.engine.Engine`
in small batches (``batch_cells`` cells per call, serialized by a
lock).  Sharing one engine means one result store, the service's only
result cache: a cell any tenant ever computed is a warm cache hit
(``"cache_tier": "disk"``) for every other tenant.  Batching keeps
cancellation (client ``DELETE`` or SIGTERM drain) responsive — at most
one batch of cells is in flight per job when the stop signal lands.

Durability: every admission / batch of rows / cancellation / crash
count / terminal state is appended to the queue's write-ahead
:class:`~repro.service.journal.Journal` *before* it becomes visible to
streaming clients (journal-then-publish).  Row offsets are therefore stable across a
crash: a SIGKILLed daemon restarted on the same journal directory
re-admits unfinished jobs via :meth:`recover`, resumes mid-sweep from
the last durable batch (already-completed cells are filtered out and
their rows restored verbatim), and a client resuming its NDJSON stream
with ``?from=N`` sees every row exactly once.  A journal that cannot
write degrades the service (health → ``degraded``, admission shed)
instead of failing jobs.

Self-healing: a supervisor thread restarts dead worker threads
(``service_worker_restarts_total``), reopens an engine pool that was
closed outside a drain, and watches worker heartbeats.  Jobs that
repeatedly crash worker *processes* (``REPRO-E102`` outcomes) are
quarantined after ``quarantine_after`` crashes with a terminal
``REPRO-E105`` poison-job diagnostic — the pool survives, other
tenants keep streaming.

Drain (:meth:`JobQueue.drain`): stop admitting, let the in-flight
batch finish, park running jobs back in the queue, join the workers
and close the journal.  The journal already holds every parked job, so
the drain writes no separate state: the next boot's :meth:`recover`
re-admits them.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.engine import Engine
from repro.machine import paper_machine
from repro.model.whatif import SweepPoint, WhatIfSweep
from repro.obs import get_registry, span
from repro.resilience.budget import Budget, estimate_cost
from repro.resilience.errors import (
    CircuitOpenError,
    JobCancelledError,
    PoisonJobError,
    QuotaExceededError,
    ReproError,
    ServiceOverloadedError,
    UsageError,
)
from repro.resilience.faults import fault_point
from repro.resilience.partial import FailurePolicy, FailureReport
from repro.service.health import HealthMonitor
from repro.service.journal import Journal
from repro.service.tenants import TenantConfig, TenantRegistry
from repro.util import get_logger

__all__ = ["JobQueue", "JobRequest", "ServiceJob", "STATUSES"]

logger = get_logger(__name__)

#: Job lifecycle states.  queued → running → {done, failed, cancelled};
#: a drain parks running jobs back at queued.
STATUSES = ("queued", "running", "done", "failed", "cancelled")

#: Hard ceiling on grid-axis lengths, independent of tenant quotas —
#: keeps a malformed request from allocating an absurd grid before the
#: per-tenant cell quota is even consulted.
_MAX_AXIS = 256


def _usage(message: str) -> UsageError:
    return UsageError(message, code="REPRO-U101")


@dataclass(frozen=True)
class JobRequest:
    """One submitted analysis: kernel source + machine/schedule grid.

    The wire form (``POST /v1/jobs`` body) is :meth:`from_dict` /
    :meth:`to_dict`; the journal's admit record carries the same form
    across a daemon restart.
    """

    source: str
    filename: str = "<job>"
    threads: tuple[int, ...] = (2, 4, 8)
    chunks: tuple[int, ...] = (1, 2, 4, 8, 16)
    cores: int = 48
    mode: str = "invalidate"
    #: ``True`` requests the exact model per cell (subject to budgets),
    #: ``False`` the regression predictor.
    exact: bool = False
    predictor_runs: int = 8
    macros: Mapping[str, int] = field(default_factory=dict)
    deadline_s: float | None = None
    max_iters: int | None = None
    max_failure_rate: float = 1.0

    def __post_init__(self) -> None:
        if not self.source or not self.source.strip():
            raise _usage("request carries no kernel source")
        for axis_name, axis in (("threads", self.threads),
                                ("chunks", self.chunks)):
            if not axis:
                raise _usage(f"{axis_name} list must be non-empty")
            if len(axis) > _MAX_AXIS:
                raise _usage(
                    f"{axis_name} list longer than {_MAX_AXIS} entries"
                )
            if any(v < 1 for v in axis):
                raise _usage(f"{axis_name} values must be >= 1")
        if self.cores < 1:
            raise _usage("cores must be >= 1")
        if self.mode not in ("invalidate", "literal"):
            raise _usage(f"unknown mode {self.mode!r}")
        if self.predictor_runs < 1:
            raise _usage("predictor_runs must be >= 1")
        if not 0.0 <= self.max_failure_rate <= 1.0:
            raise _usage("max_failure_rate must be in [0, 1]")

    def budget(self) -> Budget | None:
        """The per-cell resource budget this request asks for."""
        if self.deadline_s is None and self.max_iters is None:
            return None
        return Budget(deadline_s=self.deadline_s, max_steps=self.max_iters)

    def to_dict(self) -> dict:
        doc: dict[str, Any] = {
            "source": self.source,
            "filename": self.filename,
            "threads": list(self.threads),
            "chunks": list(self.chunks),
            "cores": self.cores,
            "mode": self.mode,
            "exact": self.exact,
            "predictor_runs": self.predictor_runs,
        }
        if self.macros:
            doc["macros"] = dict(self.macros)
        if self.deadline_s is not None:
            doc["deadline_s"] = self.deadline_s
        if self.max_iters is not None:
            doc["max_iters"] = self.max_iters
        if self.max_failure_rate != 1.0:
            doc["max_failure_rate"] = self.max_failure_rate
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "JobRequest":
        """Validate a wire/persisted request (``REPRO-U101`` on junk)."""
        if not isinstance(doc, Mapping):
            raise _usage(
                f"request body must be a JSON object, got "
                f"{type(doc).__name__}"
            )
        unknown = set(doc) - {
            "source", "filename", "threads", "chunks", "cores", "mode",
            "exact", "predictor_runs", "macros", "deadline_s",
            "max_iters", "max_failure_rate",
        }
        if unknown:
            raise _usage(f"request has unknown fields: {sorted(unknown)}")
        if not isinstance(doc.get("source"), str):
            raise _usage("request field 'source' must be a string")
        macros = doc.get("macros", {})
        if not isinstance(macros, Mapping):
            raise _usage("request field 'macros' must be an object")
        try:
            return cls(
                source=doc["source"],
                filename=str(doc.get("filename", "<job>")),
                threads=tuple(int(t) for t in doc.get("threads", (2, 4, 8))),
                chunks=tuple(
                    int(c) for c in doc.get("chunks", (1, 2, 4, 8, 16))
                ),
                cores=int(doc.get("cores", 48)),
                mode=str(doc.get("mode", "invalidate")),
                exact=bool(doc.get("exact", False)),
                predictor_runs=int(doc.get("predictor_runs", 8)),
                macros={str(k): int(v) for k, v in macros.items()},
                deadline_s=(
                    None if doc.get("deadline_s") is None
                    else float(doc["deadline_s"])
                ),
                max_iters=(
                    None if doc.get("max_iters") is None
                    else int(doc["max_iters"])
                ),
                max_failure_rate=float(doc.get("max_failure_rate", 1.0)),
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ReproError):
                raise
            raise _usage(f"malformed request field: {exc}") from exc


def _cell_key(row: Mapping[str, Any]) -> tuple | None:
    """The grid-cell identity of a ``cell``/``diagnostic`` row, if any.

    Job-level diagnostics (no ``kernel`` field) have no cell identity
    and are never used to skip re-execution.
    """
    if row.get("type") not in ("cell", "diagnostic"):
        return None
    if "kernel" not in row:
        return None
    return (row.get("kernel"), row.get("threads"), row.get("chunk"))


class ServiceJob:
    """One tenant job: request, lifecycle state and streamed rows.

    Rows are JSON-able dicts with a ``type`` discriminator (``cell`` /
    ``diagnostic`` / ``summary``); readers follow them live through
    :meth:`stream` while the sweep runs.
    """

    def __init__(
        self,
        tenant: str,
        request: JobRequest,
        cells_total: int,
        job_id: str | None = None,
        created_at: float | None = None,
    ) -> None:
        self.id = job_id or uuid.uuid4().hex[:20]
        self.tenant = tenant
        self.request = request
        self.cells_total = cells_total
        self.created_at = created_at if created_at is not None else time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.status = "queued"
        self.error: dict | None = None
        #: Set once the job was parked by a drain or crash recovery.
        self.requeues = 0
        #: Worker-process deaths attributed to this job (quarantine input).
        self.crashes = 0
        #: Grid cells already resolved (restored from the journal) —
        #: re-execution after a crash skips these entirely.
        self.completed_cells: set[tuple] = set()
        self.cells_done = 0
        self.cells_failed = 0
        self.cells_cached = 0
        # Store hits among the cached cells; the rest are in-batch
        # dedupes — the summary's reuse block.
        self.cells_disk = 0
        self.cancel_event = threading.Event()
        self._rows: list[dict] = []
        self._cond = threading.Condition()

    # -- state transitions (called by the queue) -----------------------------

    def _set_status(self, status: str, error: dict | None = None) -> None:
        assert status in STATUSES, status
        with self._cond:
            self.status = status
            if status == "running" and self.started_at is None:
                self.started_at = time.time()
            if status in ("done", "failed", "cancelled"):
                self.finished_at = time.time()
            if error is not None:
                self.error = error
            self._cond.notify_all()

    @property
    def terminal(self) -> bool:
        return self.status in ("done", "failed", "cancelled")

    # -- rows ----------------------------------------------------------------

    def append_row(self, row: dict) -> None:
        with self._cond:
            self._rows.append(row)
            self._cond.notify_all()

    def append_rows(self, rows: list[dict]) -> None:
        if not rows:
            return
        with self._cond:
            self._rows.extend(rows)
            self._cond.notify_all()

    def rows(self) -> list[dict]:
        """Snapshot of every row produced so far."""
        with self._cond:
            return list(self._rows)

    def row_count(self) -> int:
        with self._cond:
            return len(self._rows)

    @property
    def has_summary(self) -> bool:
        with self._cond:
            return any(r.get("type") == "summary" for r in self._rows)

    def restore_rows(self, rows: list[dict]) -> None:
        """Adopt journal-replayed rows (crash recovery).

        Re-derives the per-cell counters and the completed-cell set so
        re-execution resumes after the last durable batch with row
        offsets identical to what clients already streamed.  Rows keep
        their ``cache_tier`` verbatim; any cached row counts as a cached
        cell, including the ``"mem"`` rows of journals written while a
        memory tier still existed.
        """
        with self._cond:
            self._rows = list(rows)
            self.cells_done = self.cells_failed = self.cells_cached = 0
            self.cells_disk = 0
            self.completed_cells = set()
            for row in self._rows:
                key = _cell_key(row)
                if key is None:
                    continue
                self.completed_cells.add(key)
                if row.get("type") == "cell":
                    self.cells_done += 1
                    if row.get("from_cache"):
                        self.cells_cached += 1
                        if row.get("cache_tier") == "disk":
                            self.cells_disk += 1
                else:
                    self.cells_failed += 1
            self._cond.notify_all()

    def stream(
        self,
        poll_s: float = 0.2,
        should_abort=None,
        start: int = 0,
    ) -> Iterator[dict]:
        """Yield rows as they land, finishing when the job is terminal.

        ``start`` skips already-seen rows (the HTTP ``?from=N``
        resume), so a client reconnecting after a disconnect or a
        daemon crash continues exactly where it left off.

        ``should_abort`` (optional callable) lets the HTTP layer break
        a long-poll when the server itself is draining; the iterator
        then ends after an ``interrupted`` row instead of blocking on a
        job that was parked back into the queue.
        """
        i = max(0, start)
        while True:
            with self._cond:
                while (
                    i >= len(self._rows)
                    and not self.terminal
                    and not (should_abort is not None and should_abort())
                ):
                    self._cond.wait(timeout=poll_s)
                rows = self._rows[i:]
                i = len(self._rows)
                terminal = self.terminal
            for row in rows:
                yield row
            if terminal:
                return
            if should_abort is not None and should_abort():
                yield {
                    "type": "interrupted",
                    "job": self.id,
                    "status": self.status,
                    "reason": "server draining; job state persisted",
                }
                return

    # -- wire forms ----------------------------------------------------------

    def status_doc(self) -> dict:
        """The ``GET /v1/jobs/{id}`` document."""
        with self._cond:
            doc: dict[str, Any] = {
                "id": self.id,
                "tenant": self.tenant,
                "status": self.status,
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "cells": {
                    "total": self.cells_total,
                    "done": self.cells_done,
                    "failed": self.cells_failed,
                    "from_cache": self.cells_cached,
                },
                "rows": len(self._rows),
                "requeues": self.requeues,
                "crashes": self.crashes,
            }
            if self.error is not None:
                doc["error"] = self.error
            return doc


class JobQueue:
    """Admission control + worker threads over one shared engine and
    one write-ahead journal."""

    def __init__(
        self,
        tenants: TenantRegistry,
        engine: Engine,
        journal: Journal,
        concurrency: int = 2,
        batch_cells: int = 16,
        health: HealthMonitor | None = None,
        quarantine_after: int = 3,
        max_queue_depth: int = 0,
        heartbeat_timeout_s: float = 30.0,
        supervise_interval_s: float = 0.2,
    ) -> None:
        if concurrency < 1:
            raise UsageError("concurrency must be >= 1")
        if batch_cells < 1:
            raise UsageError("batch_cells must be >= 1")
        if quarantine_after < 0:
            raise UsageError("quarantine_after must be >= 0 (0 disables)")
        if max_queue_depth < 0:
            raise UsageError("max_queue_depth must be >= 0 (0 = unbounded)")
        self.tenants = tenants
        self.engine = engine
        self.concurrency = concurrency
        self.batch_cells = batch_cells
        self.journal = journal
        #: 0 disables quarantine; N ≥ 1 quarantines a job after its Nth
        #: attributed worker-process crash (``REPRO-E105``).
        self.quarantine_after = quarantine_after
        #: 0 = unbounded; N ≥ 1 sheds admission (``REPRO-E106``) while
        #: the queue holds ≥ N waiting jobs, recovering below N//2.
        self.max_queue_depth = max_queue_depth
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.supervise_interval_s = supervise_interval_s
        if health is None:
            # A standalone queue (no daemon boot phase) is ready the
            # moment it exists; the daemon passes its own monitor and
            # marks it ready after recovery.
            health = HealthMonitor()
            health.mark_ready()
        self.health = health
        self._jobs: dict[str, ServiceJob] = {}
        self._pending: deque[str] = deque()
        self._cond = threading.Condition()
        self._engine_lock = threading.Lock()
        self._journal_lock = threading.Lock()
        self._draining = False
        self._threads: list[threading.Thread] = []
        self._sup_thread: threading.Thread | None = None
        #: worker-thread name → monotonic timestamp of its last sign of
        #: life: a loop iteration, or engine progress while it is in a
        #: job (:meth:`_progress`).
        self._heartbeats: dict[str, float] = {}
        #: worker-thread name → job id it is currently executing.
        self._active: dict[str, str] = {}
        reg = get_registry()
        self._m_jobs = reg.counter(
            "service_jobs_total",
            "service jobs by tenant and terminal status",
        )
        self._m_cells = reg.counter(
            "service_cells_total",
            "sweep cells evaluated by the service, by terminal status",
        )
        self._m_cache_tier = reg.counter(
            "service_cells_cache_tier_total",
            "cached sweep cells by serving tier (disk/dedupe)",
        )
        self._m_rejections = reg.counter(
            "service_rejections_total",
            "jobs rejected at admission, by quota guard",
        )
        self._m_queued = reg.gauge(
            "service_jobs_queued", "jobs currently waiting in the queue"
        )
        self._m_running = reg.gauge(
            "service_jobs_running", "jobs currently executing"
        )
        self._m_depth = reg.gauge(
            "service_queue_depth",
            "jobs currently waiting in the queue (admission shed input)",
        )
        self._m_inflight = reg.gauge(
            "service_jobs_inflight",
            "jobs currently claimed by a worker thread",
        )
        self._m_worker_restarts = reg.counter(
            "service_worker_restarts_total",
            "dead queue-worker threads restarted by the supervisor",
        )
        self._m_journal_errors = reg.counter(
            "service_journal_errors_total",
            "journal writes that failed (service degraded, jobs kept)",
        )
        self._m_quarantined = reg.counter(
            "service_jobs_quarantined_total",
            "jobs quarantined as poison (REPRO-E105) after repeated "
            "worker crashes",
        )
        self._m_job_seconds = reg.histogram(
            "service_job_seconds", "wall time of completed service jobs"
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def start(self) -> None:
        """Spawn the worker + supervisor threads (idempotent)."""
        if self._threads:
            return
        self._draining = False
        for i in range(self.concurrency):
            self._threads.append(self._spawn_worker(i))
        self._sup_thread = threading.Thread(
            target=self._supervise, name="repro-svc-supervisor", daemon=True
        )
        self._sup_thread.start()
        self.health.mark_ready()

    def _spawn_worker(self, index: int) -> threading.Thread:
        t = threading.Thread(
            target=self._worker,
            name=f"repro-svc-worker-{index}",
            daemon=True,
        )
        self._heartbeats[t.name] = time.monotonic()
        t.start()
        return t

    def drain(self, timeout_s: float = 30.0) -> None:
        """Graceful shutdown: finish in-flight cells, park running jobs,
        stop the workers, close the journal.

        The engine pool is closed *after* the workers notice the drain,
        so the batch each worker has in flight completes with real
        results; anything later resolves as ``REPRO-E104``.  Closing the
        pool also ends its worker processes, once no batch runs.  The parked
        jobs are already durable in the journal, which the next boot
        replays.
        """
        self.health.mark_draining()
        with self._cond:
            self._draining = True
            self._cond.notify_all()
        deadline = time.monotonic() + timeout_s
        for t in self._threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        if self._sup_thread is not None:
            self._sup_thread.join(
                timeout=max(0.0, deadline - time.monotonic())
            )
            self._sup_thread = None
        self.engine.close()
        self._threads = []
        self.journal.close()
        logger.info(
            "queue drained: %d job(s) left queued", len(self._pending)
        )

    # -- supervision ---------------------------------------------------------

    def _supervise(self) -> None:
        """Heartbeat watchdog: restart dead workers, reopen the pool.

        Runs until the drain flag is set.  Every interval it (1)
        replaces worker threads that died (an injected
        ``worker.heartbeat`` fault, or anything else that escaped the
        per-job exception net), re-parking or quarantining the job the
        victim held; (2) flags stalled heartbeats as a degradation; (3)
        reopens an engine pool that was closed outside a drain (e.g. a
        stray ``close`` from a crashed caller).
        """
        while not self._draining:
            time.sleep(self.supervise_interval_s)
            if self._draining:
                break
            try:
                self._supervise_once()
            except Exception:  # noqa: BLE001 - the supervisor must survive
                logger.exception("supervisor iteration failed")

    def _supervise_once(self) -> None:
        restarted = []
        for i, t in enumerate(list(self._threads)):
            if t.is_alive():
                continue
            self._recover_worker_job(t.name)
            nt = self._spawn_worker(i)
            self._threads[i] = nt
            restarted.append(t.name)
            self._m_worker_restarts.inc()
        if restarted:
            logger.warning("supervisor restarted worker(s): %s",
                           ", ".join(restarted))
            self.health.set_degraded(
                "worker-restarts", f"restarted {', '.join(restarted)}"
            )
        else:
            self.health.clear_degraded("worker-restarts")
        now = time.monotonic()
        stalled = [
            name for name, ts in list(self._heartbeats.items())
            if now - ts > self.heartbeat_timeout_s
        ]
        if stalled:
            self.health.set_degraded(
                "worker-stalled",
                f"no heartbeat from {', '.join(sorted(stalled))} in "
                f"{self.heartbeat_timeout_s:g}s",
            )
        else:
            self.health.clear_degraded("worker-stalled")
        pool = self.engine.pool
        if pool.closing and not self._draining:
            logger.warning("supervisor reopening engine pool closed "
                           "outside a drain")
            pool.reopen()

    def _recover_worker_job(self, worker_name: str) -> None:
        """A worker thread died; salvage the job it was executing."""
        job_id = self._active.pop(worker_name, None)
        if job_id is None:
            return
        job = self._jobs.get(job_id)
        if job is None or job.terminal:
            return
        self._m_running.inc(-1)
        self._m_inflight.set(len(self._active))
        job.crashes += 1
        self._journal_safe("record_crashes", job.id, job.crashes)
        if self._maybe_quarantine(job):
            return
        job.requeues += 1
        job._set_status("queued")
        with self._cond:
            self._pending.appendleft(job.id)
            self._update_depth_locked()
            self._cond.notify()
        logger.warning(
            "job %s re-parked after worker %s died (crash #%d)",
            job.id, worker_name, job.crashes,
        )

    def _beat(self, name: str) -> None:
        """One worker heartbeat.  The ``worker.heartbeat`` fault site
        raises here — outside the per-job exception net — so an
        injected fault kills the thread and exercises the supervisor's
        restart path end to end."""
        self._heartbeats[name] = time.monotonic()
        fault_point("worker.heartbeat", label=name)

    def _progress(self) -> None:
        """The engine started a batch or delivered a cell's outcome.

        Every worker inside a job is either running that batch or
        waiting its turn for the one engine, so each counts as alive: a
        worker stalls only when no cell finishes for
        ``heartbeat_timeout_s`` while a job runs, however long the job.
        """
        now = time.monotonic()
        for name in list(self._active):
            self._heartbeats[name] = now

    # -- journal plumbing ----------------------------------------------------

    def _journal_safe(self, op: str, *args) -> None:
        """Apply one journal write; degrade (never raise) on failure.

        A journal that cannot write must not take jobs down with it:
        the failure is counted, the service flips to ``degraded`` (so
        admission sheds while durability is compromised), and the row/
        record is still published in memory.  The first successful
        write clears the degradation.
        """
        try:
            with self._journal_lock:
                getattr(self.journal, op)(*args)
        except Exception as exc:  # noqa: BLE001 - degrade, don't die
            self._m_journal_errors.inc()
            self.health.set_degraded(
                "journal-errors", f"{type(exc).__name__}: {exc}"
            )
            logger.warning("journal %s failed (service degraded): %s",
                           op, exc)
        else:
            self.health.clear_degraded("journal-errors")

    def _publish_row(self, job: ServiceJob, row: dict) -> None:
        """Journal-then-publish one row (stable offsets across crashes)."""
        self._journal_safe("record_rows", job.id, job.row_count(), [row])
        job.append_row(row)

    def _publish_rows(self, job: ServiceJob, rows: list[dict]) -> None:
        if not rows:
            return
        self._journal_safe("record_rows", job.id, job.row_count(),
                           list(rows))
        job.append_rows(rows)

    # -- admission -----------------------------------------------------------

    def submit(self, tenant: TenantConfig, request: JobRequest) -> ServiceJob:
        """Admit one job for ``tenant`` or raise a structured error.

        Checks, in order: drain state (503 via ``REPRO-E104``), the
        ``queue.admit`` fault site, load shedding (``REPRO-E106`` while
        degraded or past ``max_queue_depth``), the tenant's token
        bucket (``REPRO-R102``), its queued-jobs quota (``REPRO-R101``),
        the submit-time parse (``REPRO-F*``), and the grid-size/
        step-estimate budget (``REPRO-R103``).
        """
        if self._draining:
            raise JobCancelledError(
                "service is draining; resubmit after restart"
            )
        fault_point("queue.admit", label=tenant.name)
        with self._cond:
            depth = len(self._pending)
        if self.max_queue_depth and depth >= self.max_queue_depth:
            self.health.set_degraded(
                "queue-pressure",
                f"{depth} job(s) queued >= limit {self.max_queue_depth}",
            )
        if not self.health.accepting:
            state = self.health.state
            reasons = self.health.reasons()
            self._m_rejections.labels(quota="shed").inc()
            raise ServiceOverloadedError(
                f"service is {state}"
                f"{' (' + ', '.join(sorted(reasons)) + ')' if reasons else ''}"
                "; retry later",
                context={"retry_after_s": 5.0, "state": state,
                         "reasons": dict(reasons)},
            )
        if not self.tenants.bucket(tenant).try_acquire():
            self._m_rejections.labels(quota="rate").inc()
            raise QuotaExceededError(
                f"tenant {tenant.name!r} exceeded its submission rate "
                f"({tenant.rate_per_s:g}/s, burst {tenant.burst})",
                code="REPRO-R102",
                context={"quota": "rate", "tenant": tenant.name,
                         "limit": tenant.rate_per_s,
                         "retry_after_s": max(1.0, 1.0 / tenant.rate_per_s)
                         if tenant.rate_per_s > 0 else 1.0},
            )
        with self._cond:
            active = sum(
                1 for j in self._jobs.values()
                if j.tenant == tenant.name and j.status in ("queued", "running")
            )
        if active >= tenant.max_queued_jobs:
            self._m_rejections.labels(quota="queued_jobs").inc()
            raise QuotaExceededError(
                f"tenant {tenant.name!r} already has {active} queued/"
                f"running job(s) (limit {tenant.max_queued_jobs})",
                code="REPRO-R101",
                context={"quota": "queued_jobs", "tenant": tenant.name,
                         "limit": tenant.max_queued_jobs,
                         "active": active},
            )
        cells_total = self._admit_grid(tenant, request)
        job = ServiceJob(
            tenant=tenant.name, request=request, cells_total=cells_total
        )
        # Journal the admission *before* the job becomes runnable so no
        # rows record can ever precede its admit record.
        self._journal_safe(
            "record_admit", job.id, tenant.name, request.to_dict(),
            cells_total, job.created_at, job.requeues,
        )
        self._enqueue(job)
        logger.info(
            "job %s admitted for %s: %d cell(s)",
            job.id, tenant.name, cells_total,
        )
        return job

    def _admit_grid(self, tenant: TenantConfig, request: JobRequest) -> int:
        """Parse + size the request's sweep; enforce the cell/step
        budget.  Returns the total feasible cell count."""
        kernels = self._parse(request)
        machine = paper_machine(num_cores=request.cores)
        sweep = self._sweep_for(request)
        cells = 0
        steps = 0
        for kernel in kernels:
            grid = sweep.feasible_grid(
                kernel.nest, request.threads, request.chunks
            )
            cells += len(grid)
            if tenant.max_steps_per_job is not None:
                for threads, chunk in grid:
                    steps += estimate_cost(
                        kernel.nest, threads, machine, chunk=chunk
                    ).steps
        if cells > tenant.max_cells_per_job:
            self._m_rejections.labels(quota="cells").inc()
            raise QuotaExceededError(
                f"job spans {cells:,} cells; tenant {tenant.name!r} "
                f"allows {tenant.max_cells_per_job:,} per job",
                code="REPRO-R103",
                context={"quota": "cells", "tenant": tenant.name,
                         "limit": tenant.max_cells_per_job,
                         "estimate": cells},
            )
        if (
            tenant.max_steps_per_job is not None
            and steps > tenant.max_steps_per_job
        ):
            self._m_rejections.labels(quota="steps").inc()
            raise QuotaExceededError(
                f"job's estimated {steps:,} lockstep steps exceed tenant "
                f"{tenant.name!r}'s budget of "
                f"{tenant.max_steps_per_job:,}",
                code="REPRO-R103",
                context={"quota": "steps", "tenant": tenant.name,
                         "limit": tenant.max_steps_per_job,
                         "estimate": steps},
            )
        return cells

    @staticmethod
    def _parse(request: JobRequest):
        from repro.frontend import parse_c_source

        return parse_c_source(
            request.source,
            extra_macros=dict(request.macros),
            filename=request.filename,
        )

    def _sweep_for(self, request: JobRequest) -> WhatIfSweep:
        return WhatIfSweep(
            paper_machine(num_cores=request.cores),
            use_predictor=not request.exact,
            predictor_runs=request.predictor_runs,
            mode=request.mode,
        )

    def _update_depth_locked(self) -> None:
        """Refresh depth gauges + queue-pressure health (``_cond`` held)."""
        depth = len(self._pending)
        self._m_queued.set(depth)
        self._m_depth.set(depth)
        if self.max_queue_depth:
            if depth >= self.max_queue_depth:
                self.health.set_degraded(
                    "queue-pressure",
                    f"{depth} job(s) queued >= limit {self.max_queue_depth}",
                )
            elif depth <= self.max_queue_depth // 2:
                self.health.clear_degraded("queue-pressure")

    def _enqueue(self, job: ServiceJob, front: bool = False) -> None:
        with self._cond:
            self._jobs[job.id] = job
            if front:
                self._pending.appendleft(job.id)
            else:
                self._pending.append(job.id)
            self._update_depth_locked()
            self._cond.notify()

    # -- queries -------------------------------------------------------------

    def get(self, job_id: str, tenant: TenantConfig | None = None) -> ServiceJob | None:
        """The job, or ``None`` if unknown / owned by another tenant."""
        job = self._jobs.get(job_id)
        if job is None:
            return None
        if tenant is not None and job.tenant != tenant.name:
            return None
        return job

    def jobs(self) -> list[ServiceJob]:
        with self._cond:
            return list(self._jobs.values())

    def cancel(self, job_id: str, tenant: TenantConfig | None = None) -> ServiceJob | None:
        """Request cancellation; immediate for queued jobs, at the next
        batch boundary for running ones.  Returns the job or ``None``."""
        job = self.get(job_id, tenant)
        if job is None:
            return None
        job.cancel_event.set()
        self._journal_safe("record_cancel", job.id)
        with self._cond:
            if job.status == "queued":
                try:
                    self._pending.remove(job.id)
                except ValueError:
                    pass
                self._update_depth_locked()
                self._finish(job, "cancelled")
        return job

    # -- worker loop ---------------------------------------------------------

    def _next_job(self) -> ServiceJob | None:
        with self._cond:
            while not self._pending and not self._draining:
                self._cond.wait(timeout=0.2)
                if not self._pending:
                    return None
            if self._draining or not self._pending:
                return None
            job = self._jobs[self._pending.popleft()]
            self._update_depth_locked()
            if job.terminal:  # cancelled while queued
                return None
            job._set_status("running")
            self._m_running.inc(1)
            return job

    def _worker(self) -> None:
        name = threading.current_thread().name
        while not self._draining:
            # Heartbeat outside the per-job try: an injected
            # worker.heartbeat fault kills this thread, and the
            # supervisor must bring it back.
            self._beat(name)
            job = self._next_job()
            if job is None:
                continue
            self._active[name] = job.id
            self._m_inflight.set(len(self._active))
            try:
                self._run_job(job)
            except ReproError as exc:
                self._publish_row(job, {"type": "diagnostic",
                                        **exc.to_dict()})
                self._finish(job, "failed", error=exc.to_dict())
            except Exception as exc:  # noqa: BLE001 - never kill the worker
                logger.exception("job %s died unexpectedly", job.id)
                self._finish(job, "failed", error={
                    "code": "REPRO-X000",
                    "message": f"{type(exc).__name__}: {exc}",
                })
            finally:
                self._active.pop(name, None)
                self._m_inflight.set(len(self._active))
                self._m_running.inc(-1)

    def _finish(self, job: ServiceJob, status: str,
                error: dict | None = None) -> None:
        job._set_status(status, error=error)
        self._journal_safe("record_terminal", job.id, status, error)
        self._m_jobs.labels(tenant=job.tenant, status=status).inc()
        if job.started_at is not None and job.finished_at is not None:
            self._m_job_seconds.observe(job.finished_at - job.started_at)

    def _park(self, job: ServiceJob) -> None:
        """Drain hit mid-job: back to the queue, front position."""
        job.requeues += 1
        job._set_status("queued")
        with self._cond:
            self._pending.appendleft(job.id)
            self._update_depth_locked()
        logger.info("job %s parked by drain (requeue #%d)",
                    job.id, job.requeues)

    def _maybe_quarantine(self, job: ServiceJob) -> bool:
        """Quarantine ``job`` if its crash count crossed the threshold.

        Terminal ``REPRO-E105``: the job fails with a stable poison-job
        diagnostic instead of being retried forever, the worker pool
        (which already rebuilt itself) keeps serving everyone else.
        """
        if not self.quarantine_after or job.crashes < self.quarantine_after:
            return False
        if job.terminal:
            return True
        exc = PoisonJobError(
            f"job {job.id} crashed worker processes {job.crashes} time(s) "
            f"(threshold {self.quarantine_after}); quarantined",
            context={"job": job.id, "tenant": job.tenant,
                     "crashes": job.crashes,
                     "threshold": self.quarantine_after},
        )
        doc = exc.to_dict()
        logger.error("quarantining poison job %s after %d worker "
                     "crash(es)", job.id, job.crashes)
        self._publish_row(job, {"type": "diagnostic", **doc})
        self._m_quarantined.inc()
        self._finish(job, "failed", error=doc)
        return True

    def _run_job(self, job: ServiceJob) -> None:
        """Evaluate one job's grid in batches through the shared engine."""
        if self._maybe_quarantine(job):  # restored poison job
            return
        request = job.request
        policy = FailurePolicy(
            keep_going=True, max_failure_rate=request.max_failure_rate
        )
        try:
            kernels = self._parse(request)
        except ReproError as exc:
            # The submit-time parse succeeded, so this is rare (a parse
            # of a restored job after a restart, with the bug fixed in
            # neither); surface it as the job's terminal error.
            self._publish_row(job, {"type": "diagnostic", **exc.to_dict()})
            self._finish(job, "failed", error=exc.to_dict())
            return
        sweep = self._sweep_for(request)
        budget = request.budget()
        t0 = time.monotonic()
        with span("service.job", job=job.id, tenant=job.tenant):
            for kernel in kernels:
                cell_jobs = sweep.point_jobs(
                    kernel.nest, request.threads, request.chunks,
                    budget=budget,
                )
                if job.completed_cells:
                    # Crash recovery: cells whose rows are already
                    # durable (and visible to clients) are not re-run —
                    # a restart costs only the interrupted batch.
                    cell_jobs = [
                        cj for cj in cell_jobs
                        if (kernel.name, cj.spec.get("threads"),
                            cj.spec.get("chunk"))
                        not in job.completed_cells
                    ]
                for start in range(0, len(cell_jobs), self.batch_cells):
                    if self._draining:
                        self._park(job)
                        return
                    if job.cancel_event.is_set():
                        self._finish(job, "cancelled")
                        return
                    batch = cell_jobs[start:start + self.batch_cells]
                    try:
                        self._run_batch(job, kernel.name, batch, policy)
                    except CircuitOpenError as exc:
                        self._publish_row(
                            job, {"type": "diagnostic", **exc.to_dict()}
                        )
                        self._summarize(job, policy, t0, status="failed",
                                        error=exc.to_dict())
                        return
                    if self._maybe_quarantine(job):
                        return
        if job.cancel_event.is_set():
            self._finish(job, "cancelled")
            return
        self._summarize(job, policy, t0, status="done")

    def _run_batch(self, job: ServiceJob, kernel_name: str, batch,
                   policy: FailurePolicy) -> None:
        """One engine batch.

        Rows buffer for the batch and hit the journal as a single
        checksummed record *before* publishing — so every row a client
        ever saw is durable and its offset survives a SIGKILL.
        """
        buffer: list[dict] = []
        crashes = 0

        def _on_outcome(outcome) -> None:
            nonlocal crashes
            self._progress()
            spec = outcome.job.spec
            cell = {
                "kernel": kernel_name,
                "threads": spec.get("threads"),
                "chunk": spec.get("chunk"),
            }
            if outcome.ok:
                point = SweepPoint.from_dict(outcome.result)
                row = {
                    "type": "cell",
                    **cell,
                    "fs_cases": point.fs_cases,
                    "fs_cycles": point.fs_cycles,
                    "wall_cycles": point.wall_cycles,
                    "fs_share": point.fs_share,
                    "fidelity": point.fidelity,
                    "from_cache": outcome.from_cache,
                }
                if outcome.from_cache and outcome.cache_tier:
                    row["cache_tier"] = outcome.cache_tier
                if point.degradation is not None:
                    row["degradation"] = point.degradation
                buffer.append(row)
                with job._cond:
                    job.cells_done += 1
                    if outcome.from_cache:
                        job.cells_cached += 1
                        if outcome.cache_tier == "disk":
                            job.cells_disk += 1
                self._m_cells.labels(status="done").inc()
                if outcome.from_cache:
                    self._m_cells.labels(status="from_cache").inc()
                    self._m_cache_tier.labels(tier=outcome.cache_tier).inc()
                policy.record_success()
            else:
                cancelled = outcome.error_code == JobCancelledError.code
                report = FailureReport.from_outcome(
                    outcome, kind="service.cell", point=cell
                )
                buffer.append({
                    "type": "diagnostic",
                    **cell,
                    "code": report.code,
                    "message": report.message,
                    "attempts": report.attempts,
                })
                with job._cond:
                    job.cells_failed += 1
                self._m_cells.labels(
                    status="cancelled" if cancelled else "failed"
                ).inc()
                if not cancelled:
                    # Cancellations are back-pressure, not failures:
                    # they must not trip the circuit breaker.
                    policy.record_failure(report)
            # Attribute worker-process deaths to this job: each retry
            # that ended in a crash plus a terminal REPRO-E102 verdict.
            crashes += sum(
                1 for h in outcome.retry_history if "crash" in h
            )
            if not outcome.ok and outcome.error_code == "REPRO-E102":
                crashes += 1
            job.completed_cells.add((kernel_name, cell["threads"],
                                     cell["chunk"]))

        with self._engine_lock:
            self._progress()
            self.engine.run(
                batch,
                on_outcome=_on_outcome,
                should_stop=job.cancel_event.is_set,
            )
        self._publish_rows(job, buffer)
        if crashes:
            job.crashes += crashes
            self._journal_safe("record_crashes", job.id, job.crashes)

    def _summarize(self, job: ServiceJob, policy: FailurePolicy,
                   t0: float, status: str,
                   error: dict | None = None) -> None:
        if job.has_summary:
            # Crash recovery edge: the summary row was already durable
            # (and possibly streamed) before the terminal record made
            # it to disk — never emit it twice.
            self._finish(job, status, error=error)
            return
        best = None
        best_wall = None
        for row in job.rows():
            if row.get("type") == "cell" and (
                best_wall is None or row["wall_cycles"] < best_wall
            ):
                best_wall = row["wall_cycles"]
                best = {k: row[k] for k in
                        ("kernel", "threads", "chunk", "wall_cycles")}
        from repro.engine.incremental import ReuseReport

        reuse = ReuseReport(
            total=job.cells_done + job.cells_failed,
            computed=job.cells_done - job.cells_cached,
            disk_hits=job.cells_disk,
            deduped=job.cells_cached - job.cells_disk,
            failed=job.cells_failed,
        )
        summary: dict[str, Any] = {
            "type": "summary",
            "job": job.id,
            "status": status,
            "cells": {
                "total": job.cells_total,
                "done": job.cells_done,
                "failed": job.cells_failed,
                "from_cache": job.cells_cached,
            },
            "reuse": reuse.to_dict(),
            "failures": len(policy.failures),
            "elapsed_s": round(time.monotonic() - t0, 6),
        }
        if best is not None:
            summary["best"] = best
        self._publish_row(job, summary)
        self._finish(job, status, error=error)

    # -- journal recovery ----------------------------------------------------

    def recover(self) -> int:
        """Replay the journal; re-admit unfinished jobs.  Returns count.

        Completed cells are restored verbatim (stable row offsets →
        exactly-once streaming across the crash) and filtered out of
        re-execution; crash counts survive so a poison job cannot dodge
        quarantine by killing the whole daemon.  The replayed history
        is compacted into a fresh segment so a crash loop cannot grow
        the journal without bound.  Idempotent against duplicated or
        torn journal tails (see :mod:`repro.service.journal`).

        Takes the journal directory's writer lock first, so a second
        daemon on a directory a live one holds fails here with
        ``REPRO-U001`` before it re-admits anything.
        """
        self.journal.lock()
        ledgers = self.journal.replay()
        stats = self.journal.last_replay
        restored = 0
        for ledger in ledgers.values():
            if ledger.terminal:
                continue
            if ledger.tenant not in self.tenants.tenants:
                logger.warning(
                    "dropping journaled job %s: tenant %r no longer "
                    "exists", ledger.job_id, ledger.tenant,
                )
                ledger.status = "cancelled"
                continue
            try:
                request = JobRequest.from_dict(ledger.request)
            except ReproError as exc:
                logger.warning("dropping journaled job %s: %s",
                               ledger.job_id, exc)
                ledger.status = "cancelled"
                continue
            ledger.requeues += 1
            job = ServiceJob(
                tenant=ledger.tenant,
                request=request,
                cells_total=ledger.cells_total,
                job_id=ledger.job_id,
                created_at=ledger.created_at,
            )
            job.requeues = ledger.requeues
            job.crashes = ledger.crashes
            job.restore_rows(ledger.rows)
            if ledger.cancelled:
                job.cancel_event.set()
            self._enqueue(job)
            restored += 1
        self.journal.compact(ledgers)
        logger.info(
            "journal recovery: %d job(s) re-admitted from %d record(s) "
            "in %d segment(s)%s%s",
            restored, stats.records, stats.segments,
            " (torn tail tolerated)" if stats.torn_tail else "",
            f" ({stats.corrupt_records} corrupt record(s) skipped)"
            if stats.corrupt_records else "",
        )
        return restored
