"""Process worker pool: crash isolation, per-job timeout, bounded retry.

Why not a bare :class:`~concurrent.futures.ProcessPoolExecutor`?  Three
failure modes it handles badly for batch analysis:

* **worker death** (segfault in a C extension, ``os._exit``, OOM kill)
  breaks the whole executor — every pending future raises
  :class:`~concurrent.futures.process.BrokenProcessPool`.  The pool
  here rebuilds the executor and resubmits the unfinished jobs, so one
  bad configuration costs one job slot, not the run.
* **hangs**: a future has no portable kill switch.  The pool bounds
  submissions to a sliding window of ``workers`` in-flight jobs (so a
  wait on the oldest future measures *run* time, not queue time), and a
  deadline overrun abandons the executor — the hung worker process is
  terminated with the pool instead of blocking a slot forever.
* **transient faults** get ``retries`` additional attempts with linear
  backoff; deterministic exceptions simply fail fast on the final
  attempt and surface per job, never as a raised exception from
  :meth:`WorkerPool.run`.

``workers <= 1`` runs jobs inline in the calling process (no pickling,
no subprocess spin-up) with identical outcome semantics — that is the
``--jobs 1`` reference path the equivalence tests compare against, and
the only serial execution the batch consumers have.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.engine.job import Job, run_job
from repro.obs import get_registry
from repro.resilience.errors import EngineError, JobCancelledError
from repro.util import get_logger

__all__ = ["JobOutcome", "WorkerPool", "cancelled_outcome"]

logger = get_logger(__name__)


@dataclass
class JobOutcome:
    """Terminal state of one job: a result dict or an error string.

    ``error_code`` is the stable :mod:`repro.resilience.errors` code for
    the failure (``REPRO-E102`` for crashes, ``REPRO-E103`` for
    timeouts, the raised :class:`~repro.resilience.errors.ReproError`'s
    own code, or ``REPRO-E100`` for anything else).  ``retry_history``
    records the error string of every *non-final* attempt, so a report
    can show "crashed twice, then timed out" rather than just the
    terminal state.

    ``cache_tier`` records *where* a ``from_cache`` result came from:
    ``"disk"`` (the on-disk store) or ``"dedupe"`` (an intra-batch
    alias of a job computed in the same batch); ``None`` for executed
    jobs.  Reuse reports
    (:mod:`repro.engine.incremental`) aggregate it per sweep.
    """

    job: Job
    result: dict | None = None
    error: str | None = None
    attempts: int = 1
    duration_s: float = 0.0
    from_cache: bool = False
    error_code: str | None = None
    retry_history: tuple[str, ...] = ()
    cache_tier: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> dict:
        """The result dict, raising :class:`EngineError` if the job
        failed (a :class:`RuntimeError` through the taxonomy MRO)."""
        if self.error is not None:
            raise EngineError(
                f"job {self.job.describe()} failed after "
                f"{self.attempts} attempt(s): {self.error}",
                code=self.error_code or EngineError.code,
                context={
                    "job": self.job.describe(),
                    "attempts": self.attempts,
                    "retry_history": list(self.retry_history),
                },
            )
        assert self.result is not None
        return self.result


def cancelled_outcome(job: Job, reason: str = "shutdown drain") -> JobOutcome:
    """A terminal ``REPRO-E104`` outcome for a job that never ran.

    Used by the pool's drain path and the engine's cancellation hook so
    pending work surfaces as a structured diagnostic, not a traceback.
    """
    return JobOutcome(
        job,
        error=f"cancelled before running ({reason})",
        attempts=0,
        error_code=JobCancelledError.code,
    )


def _classify(exc: BaseException) -> str:
    """Stable error code for an exception raised by a runner."""
    code = getattr(exc, "code", None)
    return code if isinstance(code, str) else EngineError.code


class _Timeout(Exception):
    """Internal marker: the oldest in-flight job overran its deadline."""


@dataclass
class _Attempt:
    job: Job
    index: int  # position in the caller's job list
    attempts: int = 0
    history: list[str] = None  # errors of non-final attempts
    #: Suspect of an unattributed worker death: runs with nothing
    #: beside it, so a repeat death has a single suspect.
    isolate: bool = False

    def __post_init__(self) -> None:
        if self.history is None:
            self.history = []


class WorkerPool:
    """Run batches of jobs with bounded parallelism and failure budgets.

    Parameters
    ----------
    workers:
        Process count; ``<= 1`` executes inline (deterministic
        reference path).
    timeout_s:
        Per-job wall-clock budget once running.  ``None`` disables the
        watchdog.  A timed-out job is failed (and retried if attempts
        remain); its worker process dies with the abandoned executor.
    retries:
        Extra attempts after the first, for crashes, timeouts and
        exceptions alike.
    backoff_s:
        Linear backoff unit: attempt ``k`` sleeps ``k * backoff_s``
        before resubmission.
    """

    def __init__(
        self,
        workers: int = 1,
        timeout_s: float | None = None,
        retries: int = 2,
        backoff_s: float = 0.05,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        self.workers = max(1, int(workers))
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self._closing = threading.Event()
        reg = get_registry()
        self._retries_total = reg.counter(
            "engine_retries_total", "job attempts retried after a failure"
        )
        self._crashes_total = reg.counter(
            "engine_worker_crashes_total",
            "worker-process deaths observed by the pool",
        )
        self._rebuilds_total = reg.counter(
            "engine_pool_rebuilds_total",
            "executor rebuilds after a broken or abandoned process pool",
        )

    # -- lifecycle ----------------------------------------------------------

    @property
    def closing(self) -> bool:
        """Whether a drain has been requested (``close`` called)."""
        return self._closing.is_set()

    def close(self) -> None:
        """Stop starting new jobs; finish what is already running.

        Safe to call from any thread (including a signal handler) while
        a batch is in flight: in-flight jobs run to completion and keep
        their real outcomes, while jobs still waiting in the submission
        queue finish immediately as structured ``REPRO-E104``
        cancellations — no traceback, no lost results.  Idempotent.
        """
        self._closing.set()

    def reopen(self) -> None:
        """Clear a previous :meth:`close` so the pool accepts work again
        (used by tests and by services that survive a cancelled batch)."""
        self._closing.clear()

    # -- public -------------------------------------------------------------

    def run(
        self,
        jobs: Sequence[Job],
        on_outcome: Callable[[JobOutcome], None] | None = None,
    ) -> list[JobOutcome]:
        """Execute every job; outcomes come back in input order.

        ``on_outcome`` fires as each job reaches a terminal state (in
        completion order) — the scheduler uses it to write cache entries
        and bump metrics while the batch is still running.

        A :meth:`close` (e.g. from a SIGTERM handler) while the batch
        runs finishes in-flight jobs and resolves everything still
        queued as ``REPRO-E104`` cancellations.
        """
        if not jobs:
            return []
        if self.closing:
            outcomes = [cancelled_outcome(job) for job in jobs]
            if on_outcome is not None:
                for outcome in outcomes:
                    on_outcome(outcome)
            return outcomes
        if self.workers <= 1:
            return self._run_inline(jobs, on_outcome)
        return self._run_pool(jobs, on_outcome)

    # -- inline path --------------------------------------------------------

    def _run_inline(
        self,
        jobs: Sequence[Job],
        on_outcome: Callable[[JobOutcome], None] | None,
    ) -> list[JobOutcome]:
        outcomes: list[JobOutcome] = []
        for job in jobs:
            if self.closing:
                outcome = cancelled_outcome(job)
                outcomes.append(outcome)
                if on_outcome is not None:
                    on_outcome(outcome)
                continue
            attempts = 0
            history: list[str] = []
            while True:
                attempts += 1
                t0 = time.perf_counter()
                try:
                    result = run_job(job)
                    outcome = JobOutcome(
                        job, result=result, attempts=attempts,
                        duration_s=time.perf_counter() - t0,
                        retry_history=tuple(history),
                    )
                    break
                except Exception as exc:  # noqa: BLE001 - surfaced per job
                    rendered = f"{type(exc).__name__}: {exc}"
                    if attempts > self.retries:
                        outcome = JobOutcome(
                            job,
                            error=rendered,
                            attempts=attempts,
                            duration_s=time.perf_counter() - t0,
                            error_code=_classify(exc),
                            retry_history=tuple(history),
                        )
                        break
                    history.append(rendered)
                    self._retries_total.inc()
                    time.sleep(self.backoff_s * attempts)
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
        return outcomes

    # -- process-pool path --------------------------------------------------

    def _run_pool(
        self,
        jobs: Sequence[Job],
        on_outcome: Callable[[JobOutcome], None] | None,
    ) -> list[JobOutcome]:
        pending: list[_Attempt] = [_Attempt(job, i) for i, job in enumerate(jobs)]
        done: dict[int, JobOutcome] = {}

        def finish(outcome_index: int, outcome: JobOutcome) -> None:
            done[outcome_index] = outcome
            if on_outcome is not None:
                on_outcome(outcome)

        while pending:
            pending = self._pool_round(pending, finish)
        return [done[i] for i in range(len(jobs))]

    def _pool_round(
        self,
        pending: list[_Attempt],
        finish: Callable[[int, JobOutcome], None],
    ) -> list[_Attempt]:
        """One executor lifetime.

        Returns attempts that must be resubmitted on a fresh executor
        (after a crash or timeout poisoned this one).  Jobs that exhaust
        their attempt budget are finished as failures instead.
        """
        executor = ProcessPoolExecutor(max_workers=self.workers)
        retry: list[_Attempt] = []
        queue = list(pending)
        inflight: dict[Future, tuple[_Attempt, float]] = {}
        broken = False
        try:
            while queue or inflight:
                if self.closing and queue:
                    # Drain: everything not yet submitted resolves as a
                    # structured cancellation; in-flight futures below
                    # still run to completion.
                    for att in queue:
                        finish(att.index, cancelled_outcome(att.job))
                    queue = []
                while (
                    not broken and not self.closing
                    and queue and len(inflight) < self.workers
                    # A suspect of an unattributed death runs alone.
                    and not (inflight and (
                        queue[0].isolate
                        or any(a.isolate for a, _ in inflight.values())
                    ))
                ):
                    att = queue.pop(0)
                    att.attempts += 1
                    if att.attempts > 1:
                        time.sleep(self.backoff_s * (att.attempts - 1))
                    try:
                        fut = executor.submit(run_job, att.job)
                    except BrokenProcessPool:
                        broken = True
                        att.attempts -= 1  # submission never happened
                        queue.insert(0, att)
                        break
                    inflight[fut] = (att, time.perf_counter())
                if not inflight:
                    break
                try:
                    self._reap(inflight, finish, retry)
                except _Timeout:
                    # Deadline overrun: everything still in flight goes
                    # back (or fails); the executor — and its possibly
                    # hung workers — is abandoned.
                    for fut, (att, t0) in inflight.items():
                        fut.cancel()
                        self._retry_or_fail(
                            att, "timeout", time.perf_counter() - t0,
                            finish, retry, code="REPRO-E103",
                        )
                    inflight.clear()
                    retry.extend(queue)
                    self._rebuilds_total.inc()
                    self._shutdown_now(executor)
                    return retry
                except BrokenProcessPool:
                    broken = True
                if broken and not inflight:
                    retry.extend(queue)
                    self._rebuilds_total.inc()
                    self._shutdown_now(executor)
                    return retry
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return retry

    def _reap(
        self,
        inflight: dict[Future, tuple[_Attempt, float]],
        finish: Callable[[int, JobOutcome], None],
        retry: list[_Attempt],
    ) -> None:
        """Wait for progress; resolve every completed future.

        Raises :class:`_Timeout` when the oldest in-flight job has
        overrun ``timeout_s`` without completing, and
        :class:`BrokenProcessPool` when a worker died (after recording
        the victims for retry).

        A worker death breaks every in-flight future at once, so it is
        charged (a counted attempt, ``REPRO-E102`` once retries run
        out) only when a single job was in flight.  With several
        suspects none is charged: each reruns alone on the fresh
        executor, where a repeat death has one suspect.
        """
        wait_budget = None
        if self.timeout_s is not None:
            oldest_start = min(t0 for _, t0 in inflight.values())
            wait_budget = self.timeout_s - (time.perf_counter() - oldest_start)
            if wait_budget <= 0:
                raise _Timeout
        finished, _ = wait(
            inflight, timeout=wait_budget, return_when=FIRST_COMPLETED
        )
        if not finished and self.timeout_s is not None:
            raise _Timeout
        suspects: list[tuple[_Attempt, float]] = []
        for fut in finished:
            att, t0 = inflight.pop(fut)
            elapsed = time.perf_counter() - t0
            try:
                result = fut.result()
            except BrokenProcessPool:
                suspects.append((att, elapsed))
                continue
            except Exception as exc:  # noqa: BLE001 - surfaced per job
                self._retry_or_fail(
                    att, f"{type(exc).__name__}: {exc}", elapsed, finish,
                    retry, code=_classify(exc),
                )
                continue
            finish(
                att.index,
                JobOutcome(
                    att.job, result=result, attempts=att.attempts,
                    duration_s=elapsed, retry_history=tuple(att.history),
                ),
            )
        if suspects:
            # Once broken, every sibling still in flight fails too.
            now = time.perf_counter()
            suspects += [(att, now - t0) for att, t0 in inflight.values()]
            inflight.clear()
            self._crashes_total.inc()
            if len(suspects) == 1:
                att, elapsed = suspects[0]
                self._retry_or_fail(
                    att, "worker process died (crash)", elapsed, finish, retry,
                    code="REPRO-E102",
                )
            else:
                for att, _ in suspects:
                    # Not run to a verdict: the attempt costs no budget.
                    att.attempts -= 1
                    att.isolate = True
                    retry.append(att)
            raise BrokenProcessPool("worker died")

    def _retry_or_fail(
        self,
        att: _Attempt,
        error: str,
        elapsed: float,
        finish: Callable[[int, JobOutcome], None],
        retry: list[_Attempt],
        code: str = EngineError.code,
    ) -> None:
        if att.attempts > self.retries:
            logger.warning(
                "job %s failed permanently after %d attempt(s): %s",
                att.job.describe(), att.attempts, error,
            )
            finish(
                att.index,
                JobOutcome(
                    att.job, error=error, attempts=att.attempts,
                    duration_s=elapsed, error_code=code,
                    retry_history=tuple(att.history),
                ),
            )
        else:
            logger.debug(
                "job %s attempt %d failed (%s); retrying",
                att.job.describe(), att.attempts, error,
            )
            att.history.append(error)
            self._retries_total.inc()
            retry.append(att)

    @staticmethod
    def _shutdown_now(executor: ProcessPoolExecutor) -> None:
        """Abandon an executor, terminating its workers where possible."""
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.terminate()
            except OSError:  # pragma: no cover - already gone
                pass
        executor.shutdown(wait=False, cancel_futures=True)
