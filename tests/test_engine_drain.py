"""Worker-pool drain/cancellation (``WorkerPool.close``) and the
engine's ``should_stop`` cancellation hook — the shutdown half of the
service's SIGTERM contract."""

from __future__ import annotations

import threading

import pytest

from repro.engine import Engine, Job, WorkerPool, cancelled_outcome
from repro.resilience.errors import JobCancelledError


def echo_job(value) -> Job:
    return Job("engine.test.echo", {"value": value})


class TestCancelledOutcome:
    def test_shape(self):
        out = cancelled_outcome(echo_job(1), "unit test")
        assert not out.ok
        assert out.error_code == JobCancelledError.code == "REPRO-E104"
        assert out.attempts == 0
        assert "unit test" in out.error


class TestInlineClose:
    def test_closed_pool_cancels_everything(self):
        pool = WorkerPool(workers=1)
        pool.close()
        outs = pool.run([echo_job(i) for i in range(3)])
        assert [o.error_code for o in outs] == ["REPRO-E104"] * 3

    def test_reopen_restores_service(self):
        pool = WorkerPool(workers=1)
        pool.close()
        pool.reopen()
        outs = pool.run([echo_job(7)])
        assert outs[0].ok and outs[0].result["value"] == 7

    def test_close_mid_batch_cancels_the_rest(self):
        pool = WorkerPool(workers=1)
        seen = []

        def watch(outcome):
            seen.append(outcome)
            if len(seen) == 2:
                pool.close()  # drain signal lands mid-batch

        outs = pool.run([echo_job(i) for i in range(5)], watch)
        assert outs[0].ok and outs[1].ok
        assert all(o.error_code == "REPRO-E104" for o in outs[2:])

    def test_close_is_idempotent(self):
        pool = WorkerPool(workers=1)
        pool.close()
        pool.close()
        assert pool.closing


class TestProcessPoolClose:
    def test_in_flight_finish_pending_cancel(self):
        pool = WorkerPool(workers=2)
        done = threading.Event()

        def watch(outcome):
            if not done.is_set():
                done.set()
                pool.close()

        outs = pool.run([echo_job(i) for i in range(8)], watch)
        finished = [o for o in outs if o.ok]
        cancelled = [o for o in outs if o.error_code == "REPRO-E104"]
        assert finished, "the in-flight jobs should have completed"
        assert cancelled, "the queued tail should have been cancelled"
        assert len(finished) + len(cancelled) == 8


class TestEngineShouldStop:
    def test_stop_before_run_cancels_all(self):
        engine = Engine(jobs=1)
        outs = engine.run(
            [echo_job(i) for i in range(3)], should_stop=lambda: True
        )
        assert all(o.error_code == "REPRO-E104" for o in outs)

    def test_cache_hits_survive_late_stop(self):
        engine = Engine(jobs=1)
        assert all(o.ok for o in engine.run([echo_job(1)]))
        flag = {"stop": False}
        outs = engine.run(
            [echo_job(1), echo_job(2)],
            should_stop=lambda: flag["stop"],
            on_outcome=lambda o: flag.__setitem__("stop", True),
        )
        # First job was already cached before the stop signal; the
        # second (a miss) must not execute.
        assert outs[0].ok and outs[0].from_cache
        assert outs[1].error_code == "REPRO-E104"

    def test_cancelled_status_metric(self):
        from repro.obs import get_registry

        engine = Engine(jobs=1)
        engine.run([echo_job(99)], should_stop=lambda: True)
        counter = get_registry().counter(
            "engine_jobs_total", "engine jobs by terminal status"
        )
        cancelled = [
            c for c in counter.children()
            if c.labels.get("status") == "cancelled"
        ]
        assert cancelled and cancelled[0].value >= 1

    def test_engine_close_delegates_to_pool(self):
        engine = Engine(jobs=1)
        engine.close()
        assert engine.pool.closing
        outs = engine.run([echo_job(123)])
        # Cache miss + closed pool -> cancellation, not execution.
        assert outs[0].error_code == "REPRO-E104"
