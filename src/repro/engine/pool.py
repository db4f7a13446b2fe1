"""Process worker pool: crash isolation, per-job timeout, bounded retry.

Why not a bare :class:`~concurrent.futures.ProcessPoolExecutor`?  Three
failure modes it handles badly for batch analysis:

* **worker death** (segfault in a C extension, ``os._exit``, OOM kill)
  breaks the whole executor — every pending future raises
  :class:`~concurrent.futures.process.BrokenProcessPool`.  The pool
  here rebuilds the executor and resubmits the unfinished jobs, so one
  bad configuration costs one job slot, not the run.
* **hangs**: a future has no portable kill switch.  The pool starts a
  job's clock when a worker takes it, not when it is submitted, so the
  deadline measures *run* time; an overrun abandons the executor — the
  hung worker process is terminated with it instead of blocking a slot
  forever.
* **transient faults** get ``retries`` additional attempts with linear
  backoff; deterministic exceptions simply fail fast on the final
  attempt and surface per job, never as a raised exception from
  :meth:`WorkerPool.run`.

The executor lives as long as the pool: its workers fork at the first
pooled batch and serve every later one, until a worker death or a
deadline overrun replaces them or :meth:`WorkerPool.close` releases
them.  Each worker has one job queued behind the one it runs, so it
starts its next job without waiting for the parent.  A worker exits on
its own once the process that forked it is gone.

``workers <= 1`` runs jobs inline in the calling process (no pickling,
no subprocess spin-up) with identical outcome semantics — that is the
``--jobs 1`` reference path the equivalence tests compare against, and
the only serial execution the batch consumers have.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
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

#: How often a worker checks that the process that forked it still lives.
_ORPHAN_POLL_S = 0.5


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


def _exit_with_parent(parent: int) -> None:
    """Worker initializer: exit once the process that forked it is gone.

    A SIGKILLed parent runs no shutdown, so its workers would live on,
    reparented.  A daemon thread polls the parent pid.  (Not
    ``prctl(PR_SET_PDEATHSIG)``: that fires when the forking *thread*
    exits, and the service forks from a queue-worker thread its
    supervisor may replace.)
    """

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_ORPHAN_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="repro-orphan-watch", daemon=True).start()


class _Timeout(Exception):
    """Internal marker: a running job overran its deadline."""


@dataclass
class _Attempt:
    job: Job
    index: int  # position in the caller's job list
    attempts: int = 0
    history: list[str] = None  # errors of non-final attempts
    #: Suspect of an unattributed worker death: runs with nothing
    #: beside it, so a repeat death has a single suspect.
    isolate: bool = False
    #: ``perf_counter`` when a worker took the current attempt; ``None``
    #: while it waits in the executor behind a running job.
    t0: float | None = None

    def __post_init__(self) -> None:
        if self.history is None:
            self.history = []


class WorkerPool:
    """Run batches of jobs with bounded parallelism and failure budgets.

    The worker processes are a fork of the caller taken at the first
    pooled batch: a runner registered, or a fault plan installed, after
    that does not reach them (build a new pool for that).  Pooled
    batches on one pool run one at a time.

    Parameters
    ----------
    workers:
        Process count; ``<= 1`` executes inline (deterministic
        reference path).
    timeout_s:
        Per-job wall-clock budget once a worker has taken the job.
        ``None`` disables the watchdog.  A timed-out job is failed (and
        retried if attempts remain); its worker process dies with the
        abandoned executor.
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
        #: Forked lazily by the first pooled batch, never here.
        self._executor: ProcessPoolExecutor | None = None
        #: Held by the pooled batch in flight: two batches sharing the
        #: executor would lose each other's futures to a rebuild.
        self._batch = threading.Lock()
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
        a batch is in flight: jobs a worker has taken run to completion
        and keep their real outcomes, while jobs still waiting — queued,
        or submitted ahead and not yet handed out by the executor —
        finish immediately as structured ``REPRO-E104`` cancellations:
        no traceback, no lost results.  The worker processes exit at
        once on an idle pool, else when the running batch ends.
        Idempotent.
        """
        self._closing.set()
        self._release_if_idle()

    def reopen(self) -> None:
        """Clear a previous :meth:`close` so the pool accepts work again
        (used by tests and by services that survive a cancelled batch);
        the next pooled batch forks fresh workers."""
        self._closing.clear()

    def _release_if_idle(self) -> None:
        """Shut the executor down unless a batch is using it.

        A batch calls this again after it releases the batch lock, so a
        :meth:`close` racing the end of a batch still releases the
        workers.
        """
        if not self._batch.acquire(blocking=False):
            return
        try:
            executor, self._executor = self._executor, None
        finally:
            self._batch.release()
        if executor is not None:
            executor.shutdown(wait=True)

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

        with self._batch:
            while pending:
                pending = self._pool_round(pending, finish)
        if self.closing:
            self._release_if_idle()
        return [done[i] for i in range(len(jobs))]

    def _pool_round(
        self,
        pending: list[_Attempt],
        finish: Callable[[int, JobOutcome], None],
    ) -> list[_Attempt]:
        """Run ``pending`` on the pool's executor, forking it if there is
        none, until it is done or poisoned.

        Returns attempts that must be resubmitted on a fresh executor
        (after a crash or timeout poisoned this one).  Jobs that exhaust
        their attempt budget are finished as failures instead.
        """
        retry: list[_Attempt] = []
        queue = deque(pending)
        # In submission order, which is the order the executor hands
        # jobs to free workers.
        inflight: dict[Future, _Attempt] = {}
        broken = False
        try:
            while queue or inflight:
                if self.closing:
                    # Drain: queued jobs and look-ahead futures the
                    # executor has not handed out resolve as structured
                    # cancellations; the rest run to completion.
                    for att in queue:
                        finish(att.index, cancelled_outcome(att.job))
                    queue.clear()
                    for fut in [f for f in inflight if f.cancel()]:
                        att = inflight.pop(fut)
                        finish(att.index, cancelled_outcome(att.job))
                while (
                    not broken and queue
                    # One job queued behind each running one.
                    and len(inflight) < 2 * self.workers
                    # A suspect of an unattributed death runs alone.
                    and not (inflight and (
                        queue[0].isolate
                        or any(a.isolate for a in inflight.values())
                    ))
                ):
                    if self._executor is None:
                        self._executor = ProcessPoolExecutor(
                            max_workers=self.workers,
                            initializer=_exit_with_parent,
                            initargs=(os.getpid(),),
                        )
                    att = queue.popleft()
                    att.attempts += 1
                    if att.attempts > 1:
                        time.sleep(self.backoff_s * (att.attempts - 1))
                    try:
                        fut = self._executor.submit(run_job, att.job)
                    except BrokenProcessPool:
                        broken = True
                        att.attempts -= 1  # submission never happened
                        queue.appendleft(att)
                        break
                    att.t0 = None
                    inflight[fut] = att
                    self._start_clocks(inflight, time.perf_counter())
                if inflight:
                    try:
                        self._reap(inflight, finish, retry)
                    except _Timeout:
                        # Deadline overrun: the executor — and its
                        # possibly hung workers — is abandoned.  Only
                        # attempts past their own deadline are charged;
                        # the rest go back uncharged.
                        now = time.perf_counter()
                        for att in inflight.values():
                            if att.t0 is not None and (
                                now - att.t0 >= self.timeout_s
                            ):
                                self._retry_or_fail(
                                    att, "timeout", now - att.t0,
                                    finish, retry, code="REPRO-E103",
                                )
                            else:
                                att.attempts -= 1
                                retry.append(att)
                        inflight.clear()
                        broken = True
                    except BrokenProcessPool:
                        broken = True
                if broken and not inflight:
                    retry.extend(queue)
                    self._abandon()
                    return retry
        except BaseException:
            # A raising ``on_outcome`` must not leave jobs running on
            # workers the next batch counts as free.
            if inflight:
                self._abandon()
            raise
        return retry

    def _start_clocks(
        self, inflight: dict[Future, _Attempt], now: float
    ) -> None:
        """Start the clock of every job a worker has taken.

        The executor hands jobs out first in, first out, so the first
        ``workers`` jobs in flight are the running ones: a look-ahead
        job's clock starts when the completion that freed its worker is
        reaped.
        """
        for running, att in enumerate(inflight.values()):
            if running == self.workers:
                break
            if att.t0 is None:
                att.t0 = now

    def _reap(
        self,
        inflight: dict[Future, _Attempt],
        finish: Callable[[int, JobOutcome], None],
        retry: list[_Attempt],
    ) -> None:
        """Wait for progress; resolve every completed future.

        Raises :class:`_Timeout` when a running job has overrun
        ``timeout_s``, and :class:`BrokenProcessPool` when a worker died
        (after recording the victims for retry).

        A worker death breaks every in-flight future at once.  Jobs no
        worker had taken are not suspects: they go back uncharged.  The
        death is charged (a counted attempt, ``REPRO-E102`` once retries
        run out) only when a single job was running.  With several
        suspects none is charged: each reruns alone on the fresh
        executor, where a repeat death has one suspect.
        """
        wait_budget = None
        if self.timeout_s is not None:
            oldest = min(a.t0 for a in inflight.values() if a.t0 is not None)
            wait_budget = self.timeout_s - (time.perf_counter() - oldest)
            if wait_budget <= 0:
                raise _Timeout
        finished, _ = wait(
            inflight, timeout=wait_budget, return_when=FIRST_COMPLETED
        )
        now = time.perf_counter()
        broken = False
        for fut in [f for f in inflight if f in finished]:
            # Completions earlier in line freed the worker this one ran on.
            self._start_clocks(inflight, now)
            try:
                result = fut.result()
            except BrokenProcessPool:
                broken = True  # stays in flight with its siblings
                continue
            except Exception as exc:  # noqa: BLE001 - surfaced per job
                att = inflight.pop(fut)
                self._retry_or_fail(
                    att, f"{type(exc).__name__}: {exc}", now - att.t0,
                    finish, retry, code=_classify(exc),
                )
                continue
            att = inflight.pop(fut)
            finish(
                att.index,
                JobOutcome(
                    att.job, result=result, attempts=att.attempts,
                    duration_s=now - att.t0, retry_history=tuple(att.history),
                ),
            )
        # The freed workers have taken the next jobs in line.
        self._start_clocks(inflight, now)
        if broken:
            # Once broken, every sibling still in flight fails too.
            suspects = [a for a in inflight.values() if a.t0 is not None]
            untaken = [a for a in inflight.values() if a.t0 is None]
            inflight.clear()
            self._crashes_total.inc()
            if len(suspects) == 1:
                (att,) = suspects
                self._retry_or_fail(
                    att, "worker process died (crash)", now - att.t0,
                    finish, retry, code="REPRO-E102",
                )
                suspects = []
            for att in suspects:
                att.isolate = True
            for att in suspects + untaken:
                # Not run to a verdict: the attempt costs no budget.
                att.attempts -= 1
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

    def _abandon(self) -> None:
        """Drop a broken or overrun executor; the next round forks anew."""
        executor, self._executor = self._executor, None
        self._rebuilds_total.inc()
        if executor is not None:
            self._shutdown_now(executor)

    @staticmethod
    def _shutdown_now(executor: ProcessPoolExecutor) -> None:
        """Abandon an executor, terminating its workers where possible."""
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.terminate()
            except OSError:  # pragma: no cover - already gone
                pass
        executor.shutdown(wait=False, cancel_futures=True)
