"""The :class:`Engine`: memoized, parallel batch execution of jobs.

Flow of :meth:`Engine.run`::

    jobs ──dedupe by key──► store.get ──misses──► WorkerPool ──► store.put
                               │ hits                                 │
                               └─────────────► outcomes (input order) ◄┘

* Duplicate keys inside one batch are computed once and fanned out
  (``cache_tier="dedupe"``).
* Store hits come back as :class:`~repro.engine.pool.JobOutcome` with
  ``from_cache=True``, ``cache_tier="disk"`` and zero attempts —
  byte-identical payloads to what the original run stored.  The store
  is the only reuse across batches and processes.
* Failures never raise from :meth:`run`; they surface per job in the
  outcome (``outcome.ok`` / ``outcome.error``), so a 200-point sweep
  with one broken configuration still yields 199 results.

Observability (PR-1 layer): the engine maintains

* ``engine_jobs_total{status=completed|failed}`` counters,
* ``engine_cache_hits_total`` / ``engine_cache_misses_total``,
* ``engine_job_seconds`` histogram (per executed job),
* ``engine_pool_utilization`` gauge — executed-job busy-time divided by
  ``workers × batch wall time`` of the last batch,

and emits spans ``engine.run`` (whole batch), ``engine.cache_lookup``
and ``engine.execute`` around the respective stages.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Sequence

from repro.engine.job import Job
from repro.engine.pool import JobOutcome, WorkerPool, cancelled_outcome
from repro.resilience.errors import JobCancelledError
from repro.engine.store import ResultStore
from repro.obs import get_registry, span
from repro.resilience.errors import StoreError
from repro.util import get_logger

__all__ = ["Engine", "default_jobs"]

logger = get_logger(__name__)


def default_jobs() -> int:
    """A sensible ``--jobs`` default: the CPU count, capped at 8."""
    return min(os.cpu_count() or 1, 8)


class Engine:
    """Batch executor with content-addressed memoization.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` (default) executes inline/serial.
    use_cache:
        Consult/populate the :class:`ResultStore`.  Disable for timing
        runs (``--no-cache``): ``store`` is then ``None`` and every job
        executes.
    store:
        Override the store (tests point this at a tmp dir); defaults to
        the shared ``$REPRO_CACHE_DIR`` location.
    timeout_s / retries:
        Per-job failure budget, forwarded to :class:`WorkerPool`.
    """

    def __init__(
        self,
        jobs: int = 1,
        use_cache: bool = True,
        store: ResultStore | None = None,
        timeout_s: float | None = None,
        retries: int = 2,
        backoff_s: float = 0.05,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.use_cache = use_cache
        if not use_cache:
            store = None
        elif store is None:
            store = ResultStore()
        self.store = store
        self.pool = WorkerPool(
            workers=self.jobs, timeout_s=timeout_s, retries=retries,
            backoff_s=backoff_s,
        )
        reg = get_registry()
        self._jobs_total = reg.counter(
            "engine_jobs_total", "engine jobs by terminal status"
        )
        self._hits = reg.counter(
            "engine_cache_hits_total", "engine jobs served from the result store"
        )
        self._misses = reg.counter(
            "engine_cache_misses_total", "engine jobs that had to execute"
        )
        self._job_seconds = reg.histogram(
            "engine_job_seconds", "wall time of executed engine jobs"
        )
        self._utilization = reg.gauge(
            "engine_pool_utilization",
            "busy-fraction of the worker pool over the last batch",
        )

    # -- public -------------------------------------------------------------

    def run(
        self,
        jobs: Sequence[Job],
        on_outcome: Callable[[JobOutcome], None] | None = None,
        should_stop: Callable[[], bool] | None = None,
    ) -> list[JobOutcome]:
        """Execute a batch; outcomes return in input order.

        ``on_outcome`` fires once per *input* job as it reaches a
        terminal state (cache hits first, then executions in completion
        order).

        ``should_stop`` is the cancellation hook for long-running
        callers (the analysis service): it is polled during the cache
        lookup and once more before the pool executes — when it turns
        true, every job that has not started resolves as a
        ``REPRO-E104`` cancellation while cache hits already fanned out
        keep their results.  Cancellation granularity is the batch the
        pool has in flight; callers wanting finer grain submit in
        smaller batches.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        with span("engine.run", n_jobs=len(jobs), workers=self.jobs):
            keys = [job.key() for job in jobs]
            outcomes: list[JobOutcome | None] = [None] * len(jobs)
            stopped = False

            # 1. cache lookup (+ intra-batch dedupe: first occurrence of
            #    a key owns the computation, the rest alias its result).
            owners: dict[str, int] = {}
            to_run: list[int] = []
            with span("engine.cache_lookup"):
                for i, (job, key) in enumerate(zip(jobs, keys)):
                    if not stopped and should_stop is not None and should_stop():
                        stopped = True
                    if stopped:
                        outcomes[i] = cancelled_outcome(job, "client cancel")
                        self._jobs_total.labels(status="cancelled").inc()
                        if on_outcome is not None:
                            on_outcome(outcomes[i])
                        continue
                    if key in owners:
                        continue
                    owners[key] = i
                    cached = (
                        self.store.get(key) if self.store is not None else None
                    )
                    if cached is not None:
                        self._hits.inc()
                        outcomes[i] = JobOutcome(
                            job, result=cached, attempts=0, from_cache=True,
                            cache_tier="disk",
                        )
                        if on_outcome is not None:
                            on_outcome(outcomes[i])
                    else:
                        self._misses.inc()
                        to_run.append(i)

            # 2. execute the misses (unless cancellation arrived while
            #    the lookup ran).
            if to_run and not stopped and should_stop is not None and should_stop():
                stopped = True
            if to_run and stopped:
                for i in to_run:
                    outcomes[i] = cancelled_outcome(jobs[i], "client cancel")
                    self._jobs_total.labels(status="cancelled").inc()
                    if on_outcome is not None:
                        on_outcome(outcomes[i])
                to_run = []
            if to_run:
                busy_s = 0.0
                t0 = time.perf_counter()

                def _record(outcome: JobOutcome) -> None:
                    nonlocal busy_s
                    busy_s += outcome.duration_s
                    self._job_seconds.observe(outcome.duration_s)
                    if outcome.ok:
                        status = "completed"
                    elif outcome.error_code == JobCancelledError.code:
                        status = "cancelled"
                    else:
                        status = "failed"
                    self._jobs_total.labels(status=status).inc()
                    if outcome.ok and self.store is not None:
                        try:
                            self.store.put(
                                outcome.job.key(), outcome.result,
                                kind=outcome.job.kind,
                                label=outcome.job.label,
                            )
                        except StoreError as exc:
                            # A failed cache write degrades re-run
                            # speed, never the result in hand.
                            logger.warning(
                                "cache write skipped for %s: %s",
                                outcome.job.describe(), exc,
                            )
                    if on_outcome is not None:
                        on_outcome(outcome)

                with span("engine.execute", n_jobs=len(to_run)):
                    ran = self.pool.run([jobs[i] for i in to_run], _record)
                wall = max(time.perf_counter() - t0, 1e-9)
                self._utilization.set(
                    min(busy_s / (wall * self.pool.workers), 1.0)
                )
                for i, outcome in zip(to_run, ran):
                    outcomes[i] = outcome
            else:
                self._jobs_total.labels(status="completed").inc(0)

            # 3. fan cached/computed results out to intra-batch aliases.
            for i, (job, key) in enumerate(zip(jobs, keys)):
                if outcomes[i] is not None:
                    continue
                owner = outcomes[owners[key]]
                assert owner is not None
                outcomes[i] = JobOutcome(
                    job, result=owner.result, error=owner.error,
                    attempts=0, from_cache=True,
                    error_code=owner.error_code,
                    cache_tier=owner.cache_tier or "dedupe",
                )
                if on_outcome is not None:
                    on_outcome(outcomes[i])
        assert all(o is not None for o in outcomes)
        return outcomes  # type: ignore[return-value]

    def close(self) -> None:
        """Drain the worker pool: finish in-flight jobs, cancel pending,
        then let the worker processes exit.

        The shutdown half of the service's SIGTERM contract; see
        :meth:`repro.engine.pool.WorkerPool.close`.  Idempotent, safe
        from any thread.
        """
        self.pool.close()

    def run_strict(self, jobs: Sequence[Job]) -> list[dict]:
        """Like :meth:`run` but unwraps results, raising on any failure."""
        return [outcome.unwrap() for outcome in self.run(jobs)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Engine(jobs={self.jobs}, use_cache={self.use_cache}, "
            f"store={self.store!r})"
        )
