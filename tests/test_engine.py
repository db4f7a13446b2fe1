"""Tests for :mod:`repro.engine` — store, pool, scheduler, consumers.

Covers the subsystem's contract surface:

* cache hit/miss and corrupted-entry recovery;
* worker-crash retry-then-success and permanent per-job failure
  surfacing (one bad job never fails the batch);
* timeout kill of hung jobs, charging only the jobs that overran;
* the pool's lifecycle: workers reused across batches, replaced after a
  death, released by ``close``, gone with a killed parent, and timed
  from dispatch while a job waits behind a running one;
* ``parallel == serial`` equivalence over a small what-if grid, and
  warm-cache re-runs serving every point from the store.

The multiprocess tests use the ``engine.test.*`` job kinds (echo,
fail, sleep, crash, flaky_crash, pid) so they stay model-independent
and fast.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import (
    Engine,
    Job,
    JobError,
    ResultStore,
    WorkerPool,
    make_engine,
    run_job,
    stable_hash,
)
from repro.machine import paper_machine
from repro.model.whatif import SweepPoint, WhatIfSweep
from repro.obs import get_registry
from tests.conftest import make_copy_nest

JOBS = 2  # worker processes for the multiprocess tests (CI runs 2 cores)


def echo_job(value, label="echo") -> Job:
    return Job("engine.test.echo", {"value": value}, label=label)


# ---------------------------------------------------------------------------
# Job identity
# ---------------------------------------------------------------------------


class TestJobKeys:
    def test_key_ignores_payload_and_label(self):
        a = Job("k", {"x": 1}, payload={"big": object()}, label="a")
        b = Job("k", {"x": 1}, payload={}, label="b")
        assert a.key() == b.key()

    def test_key_depends_on_kind_and_spec(self):
        base = Job("k", {"x": 1}).key()
        assert Job("other", {"x": 1}).key() != base
        assert Job("k", {"x": 2}).key() != base

    def test_key_is_order_independent(self):
        assert Job("k", {"a": 1, "b": 2}).key() == Job("k", {"b": 2, "a": 1}).key()

    def test_unknown_kind_raises_joberror(self):
        with pytest.raises(JobError, match="unknown job kind"):
            run_job(Job("no.such.kind", {}))


# ---------------------------------------------------------------------------
# Result store
# ---------------------------------------------------------------------------


class TestResultStore:
    def key(self, n: int = 0) -> str:
        return stable_hash({"n": n})

    def test_miss_then_hit_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = self.key()
        assert store.get(key) is None
        store.put(key, {"answer": 42}, kind="t")
        assert store.get(key) == {"answer": 42}
        assert key in store

    def test_atomic_layout_and_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        for n in range(3):
            store.put(self.key(n), {"n": n}, kind="t")
        stats = store.stats()
        assert stats.entries == 3
        assert stats.by_kind == {"t": 3}
        assert stats.total_bytes > 0
        # no stray temp files survive a put
        assert not list(tmp_path.rglob(".tmp-*"))

    def test_corrupted_entry_recovers_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = self.key()
        store.put(key, {"fine": True}, kind="t")
        path = store._path(key)
        path.write_text("{ not json", encoding="utf-8")
        assert store.get(key) is None  # demoted to a miss...
        assert not path.exists()  # ...and removed
        # wrong schema / key mismatch are equally fatal
        store.put(key, {"fine": True}, kind="t")
        doc = json.loads(path.read_text())
        doc["key"] = "0" * 64
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert store.get(key) is None

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        for n in range(3):
            store.put(self.key(n), {"n": n})
        assert store.clear() == 3
        assert store.stats().entries == 0

    def test_rejects_bad_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="sha256"):
            store.get("../../etc/passwd")


# ---------------------------------------------------------------------------
# Engine + cache behaviour (inline path: deterministic, no subprocesses)
# ---------------------------------------------------------------------------


class TestEngineCaching:
    def test_miss_compute_then_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        job = echo_job("hello")
        first = Engine(jobs=1, store=store).run([job])[0]
        assert first.ok and not first.from_cache
        second = Engine(jobs=1, store=store).run([job])[0]
        assert second.ok and second.from_cache
        assert second.result == first.result
        assert second.attempts == 0

    def test_no_cache_engine_never_touches_store(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = Engine(jobs=1, use_cache=False, store=store)
        engine.run([echo_job("x")])
        assert store.stats().entries == 0

    def test_intra_batch_dedupe_computes_once(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = Engine(jobs=1, store=store)
        outcomes = engine.run([echo_job("same"), echo_job("same")])
        assert [o.ok for o in outcomes] == [True, True]
        assert outcomes[0].from_cache is False
        assert outcomes[1].from_cache is True
        assert store.stats().entries == 1

    def test_failure_surfaces_without_raising(self, tmp_path):
        engine = Engine(jobs=1, store=ResultStore(tmp_path), retries=0)
        ok_job = echo_job("fine")
        bad = Job("engine.test.fail", {"message": "kaput"})
        outcomes = engine.run([ok_job, bad])
        assert outcomes[0].ok
        assert not outcomes[1].ok and "kaput" in outcomes[1].error
        with pytest.raises(RuntimeError, match="kaput"):
            outcomes[1].unwrap()
        # failures are never cached
        assert Engine(jobs=1, store=ResultStore(tmp_path)).store.get(
            bad.key()
        ) is None

    def test_metrics_track_hits_and_misses(self, tmp_path):
        reg = get_registry()
        hits0 = reg.counter("engine_cache_hits_total").value
        misses0 = reg.counter("engine_cache_misses_total").value
        store = ResultStore(tmp_path)
        Engine(jobs=1, store=store).run([echo_job(1)])
        Engine(jobs=1, store=store).run([echo_job(1)])
        assert reg.counter("engine_cache_hits_total").value == hits0 + 1
        assert reg.counter("engine_cache_misses_total").value == misses0 + 1


class TestMakeEngine:
    """``make_engine`` is :class:`Engine` under its former factory name."""

    def test_builds_plain_engine(self, tmp_path):
        assert make_engine is Engine
        engine = make_engine(jobs=2, store=ResultStore(tmp_path))
        assert type(engine) is Engine
        assert engine.jobs == 2 and engine.pool.workers == 2

    def test_no_cache_disables_the_store(self, tmp_path):
        assert make_engine(use_cache=False).store is None
        engine = make_engine(use_cache=False, store=ResultStore(tmp_path))
        assert engine.store is None
        engine.run([echo_job("nc")])
        assert ResultStore(tmp_path).stats().entries == 0


# ---------------------------------------------------------------------------
# Worker pool: crash isolation, retry, timeout (real subprocesses)
# ---------------------------------------------------------------------------


def _counter(name: str) -> float:
    """Current value of an unlabeled counter (0.0 if never touched)."""
    return get_registry().counter(name).value


class TestWorkerPoolFailures:
    def test_inline_retry_exhaustion_counts_attempts(self):
        retries_before = _counter("engine_retries_total")
        pool = WorkerPool(workers=1, retries=2, backoff_s=0.0)
        out = pool.run([Job("engine.test.fail", {"message": "always"})])[0]
        assert not out.ok
        assert out.attempts == 3  # 1 try + 2 retries
        # Structured failure surface: a stable error code plus the
        # per-attempt retry history (docs/RESILIENCE.md).
        assert out.error_code and out.error_code.startswith("REPRO-E")
        assert len(out.retry_history) == 2
        # Each retry is visible in the metrics registry.
        assert _counter("engine_retries_total") == retries_before + 2

    def test_crash_then_success_via_retry(self, tmp_path):
        crashes_before = _counter("engine_worker_crashes_total")
        retries_before = _counter("engine_retries_total")
        job = Job(
            "engine.test.flaky_crash",
            {"sentinel_dir": str(tmp_path / "flaky"), "crashes": 1},
        )
        pool = WorkerPool(workers=JOBS, retries=2, backoff_s=0.0)
        out = pool.run([job])[0]
        assert out.ok, out.error
        assert out.result["attempts_observed"] >= 2
        # The crash and the retry that recovered from it are counted.
        assert _counter("engine_worker_crashes_total") >= crashes_before + 1
        assert _counter("engine_retries_total") >= retries_before + 1
        # A successful outcome still carries its bumpy history.
        assert len(out.retry_history) >= 1

    def test_permanent_crash_fails_one_job_not_the_batch(self):
        crashes_before = _counter("engine_worker_crashes_total")
        crash = Job("engine.test.crash", {"code": 1})
        good = [echo_job(i, label=f"good{i}") for i in range(4)]
        pool = WorkerPool(workers=JOBS, retries=1, backoff_s=0.0)
        outcomes = pool.run([good[0], crash, *good[1:]])
        by_label = {o.job.describe(): o for o in outcomes}
        assert not by_label[crash.describe()].ok
        err = by_label[crash.describe()].error
        assert "died" in err or "crash" in err or "broken" in err
        # Stable code for the worker-death failure mode.
        assert by_label[crash.describe()].error_code == "REPRO-E102"
        for g in good:
            assert by_label[f"good{g.spec['value']}"].ok
        assert sum(o.ok for o in outcomes) == 4
        # 1 try + 1 retry, both crashed, both counted.
        assert _counter("engine_worker_crashes_total") >= crashes_before + 2

    def test_crash_beside_a_running_job_fails_only_the_crasher(self):
        # One worker death breaks every in-flight future at once; the
        # job running beside the crasher must not pay for that death.
        crashes_before = _counter("engine_worker_crashes_total")
        sleeper = Job("engine.test.sleep", {"seconds": 0.5})
        crash = Job("engine.test.crash", {"code": 1})
        pool = WorkerPool(workers=2, retries=0, backoff_s=0.0)
        by_key = {o.job.key(): o for o in pool.run([sleeper, crash])}
        slept = by_key[sleeper.key()]
        assert slept.ok, slept.error
        assert slept.attempts == 1
        assert slept.retry_history == ()
        assert by_key[crash.key()].error_code == "REPRO-E102"
        # One death while both ran, one when the crasher ran alone.
        crashes = _counter("engine_worker_crashes_total") - crashes_before
        assert 1 <= crashes <= 2

    def test_timeout_kills_hung_job(self):
        hang = Job("engine.test.sleep", {"seconds": 30.0})
        quick = echo_job("q")
        pool = WorkerPool(workers=JOBS, timeout_s=1.0, retries=0, backoff_s=0.0)
        import time

        t0 = time.perf_counter()
        outcomes = pool.run([hang, quick])
        elapsed = time.perf_counter() - t0
        assert elapsed < 15.0, "timeout watchdog did not fire"
        by_key = {o.job.key(): o for o in outcomes}
        assert not by_key[hang.key()].ok
        assert "timeout" in by_key[hang.key()].error
        assert by_key[hang.key()].error_code == "REPRO-E103"

    def test_timeout_charges_only_the_overrunning_job(self):
        # The third job starts when the 0.6 s sleeper frees a worker, so
        # it has run 0.4 s when the hung job overruns at 1.0 s: it goes
        # back uncharged and reruns on the fresh executor.
        hang, short, later = (
            Job("engine.test.sleep", {"seconds": s}) for s in (30.0, 0.6, 0.61)
        )
        pool = WorkerPool(workers=2, timeout_s=1.0, retries=0, backoff_s=0.0)
        by_key = {o.job.key(): o for o in pool.run([hang, short, later])}
        assert by_key[hang.key()].error_code == "REPRO-E103"
        assert by_key[short.key()].ok, by_key[short.key()].error
        assert by_key[later.key()].ok, by_key[later.key()].error
        assert by_key[later.key()].attempts == 1
        assert by_key[later.key()].retry_history == ()

    def test_empty_batch(self):
        assert WorkerPool(workers=JOBS).run([]) == []


# ---------------------------------------------------------------------------
# Pool lifecycle: one executor per pool, fed one job ahead per worker
# ---------------------------------------------------------------------------


def pid_jobs(n: int, tag: str = "", seconds: float = 0.2) -> list[Job]:
    """``n`` distinct jobs, each long enough that every worker takes one."""
    return [
        Job("engine.test.pid", {"i": i, "tag": tag, "seconds": seconds})
        for i in range(n)
    ]


def pids(outcomes) -> set[int]:
    assert all(o.ok for o in outcomes), [o.error for o in outcomes]
    return {o.result["pid"] for o in outcomes}


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


class TestPoolLifecycle:
    def test_batches_reuse_the_workers(self):
        engine = Engine(jobs=JOBS, use_cache=False)
        first = pids(engine.run(pid_jobs(4, "a")))
        second = pids(engine.run(pid_jobs(4, "b")))
        assert len(first) == JOBS
        assert second == first

    def test_crash_replaces_the_workers(self):
        pool = WorkerPool(workers=JOBS, retries=0, backoff_s=0.0)
        before = pids(pool.run(pid_jobs(4, "before")))
        rebuilds = _counter("engine_pool_rebuilds_total")
        (crashed,) = pool.run([Job("engine.test.crash", {"code": 1})])
        assert crashed.error_code == "REPRO-E102"
        assert _counter("engine_pool_rebuilds_total") == rebuilds + 1
        after = pids(pool.run(pid_jobs(4, "after")))
        assert len(after) == JOBS
        assert after.isdisjoint(before)

    def test_worker_killed_between_batches_is_replaced(self):
        # The idle executor breaks; the next batch's first submit must
        # put its jobs back for a fresh one, not lose them.
        import os
        import signal
        import time

        pool = WorkerPool(workers=JOBS, backoff_s=0.0)
        before = pids(pool.run(pid_jobs(4, "idle-before")))
        rebuilds = _counter("engine_pool_rebuilds_total")
        os.kill(min(before), signal.SIGKILL)
        time.sleep(0.5)  # let the executor notice the death
        after = pids(pool.run(pid_jobs(4, "idle-after")))
        assert len(after) == JOBS
        assert after.isdisjoint(before)
        assert _counter("engine_pool_rebuilds_total") == rebuilds + 1

    def test_concurrent_batches_take_turns(self):
        # A crash in one thread's batch must not break the executor
        # under the job another thread's batch is running.
        import threading
        import time

        pool = WorkerPool(workers=JOBS, retries=0, backoff_s=0.0)
        outcomes = {}

        def run(name, job):
            outcomes[name] = pool.run([job])[0]

        sleeper = threading.Thread(
            target=run,
            args=("sleep", Job("engine.test.sleep", {"seconds": 0.5})),
        )
        sleeper.start()
        time.sleep(0.2)  # the sleeper's batch is running
        run("crash", Job("engine.test.crash", {"code": 1}))
        sleeper.join(timeout=30)
        assert not sleeper.is_alive()
        assert outcomes["sleep"].ok, outcomes["sleep"].error
        assert outcomes["crash"].error_code == "REPRO-E102"

    def test_look_ahead_clock_starts_at_dispatch(self):
        # Four 0.6 s jobs on two workers end at 1.2 s: timed from
        # submission the second pair would overrun the 1.0 s deadline.
        jobs = [Job("engine.test.sleep", {"seconds": 0.6, "i": i})
                for i in range(4)]
        pool = WorkerPool(workers=2, timeout_s=1.0, retries=0, backoff_s=0.0)
        outcomes = pool.run(jobs)
        assert all(o.ok for o in outcomes), [o.error for o in outcomes]
        assert all(o.duration_s < 1.0 for o in outcomes), [
            o.duration_s for o in outcomes
        ]

    def test_close_releases_idle_workers(self):
        import multiprocessing

        pool = WorkerPool(workers=JOBS)
        workers = pids(pool.run(pid_jobs(4, "close")))
        pool.close()
        live = {p.pid for p in multiprocessing.active_children()}
        assert live.isdisjoint(workers)
        pool.reopen()
        again = pids(pool.run(pid_jobs(4, "reopen")))
        assert len(again) == JOBS
        assert again.isdisjoint(workers)

    def test_workers_exit_with_a_killed_parent(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        import textwrap
        import time
        from pathlib import Path

        report = tmp_path / "pids"
        script = textwrap.dedent("""
            import sys
            import time
            from pathlib import Path
            from repro.engine import Job, WorkerPool

            pool = WorkerPool(workers=2)
            jobs = [Job("engine.test.pid", {"i": i, "seconds": 0.2})
                    for i in range(2)]
            pids = " ".join(str(o.result["pid"]) for o in pool.run(jobs))
            partial = Path(sys.argv[1] + ".part")
            partial.write_text(pids)
            partial.rename(sys.argv[1])
            time.sleep(60)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(report)], env=env
        )
        try:
            deadline = time.monotonic() + 60.0
            while not report.exists():
                assert proc.poll() is None, "the pool's process exited"
                assert time.monotonic() < deadline, "no worker pids reported"
                time.sleep(0.05)
            workers = {int(p) for p in report.read_text().split()}
            assert len(workers) == 2
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not any(map(_alive, workers)), "orphaned workers live on"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


# ---------------------------------------------------------------------------
# Equivalence: parallel == serial over a real what-if grid
# ---------------------------------------------------------------------------


class TestSweepEquivalence:
    THREADS = (2, 4)
    CHUNKS = (1, 2, 4)

    def sweep(self):
        return WhatIfSweep(paper_machine(num_cores=8), predictor_runs=4)

    def test_parallel_equals_serial_bitwise(self, tmp_path):
        nest = make_copy_nest(n=256)
        sweep = self.sweep()
        serial = sweep.sweep(nest, threads=self.THREADS, chunks=self.CHUNKS)
        engine = Engine(jobs=JOBS, store=ResultStore(tmp_path))
        parallel = sweep.sweep(
            nest, threads=self.THREADS, chunks=self.CHUNKS, engine=engine
        )
        # dataclass equality on floats == bit-identical values
        assert parallel == serial

    def test_warm_cache_serves_every_point(self, tmp_path):
        nest = make_copy_nest(n=256)
        sweep = self.sweep()
        store = ResultStore(tmp_path)
        cold = sweep.sweep(
            nest, threads=self.THREADS, chunks=self.CHUNKS,
            engine=Engine(jobs=1, store=store),
        )
        reg = get_registry()
        hits0 = reg.counter("engine_cache_hits_total").value
        warm_engine = Engine(jobs=1, store=store)
        warm = sweep.sweep(
            nest, threads=self.THREADS, chunks=self.CHUNKS, engine=warm_engine
        )
        assert warm == cold
        n_points = len(cold.points)
        assert reg.counter("engine_cache_hits_total").value == hits0 + n_points

    def test_point_jobs_rekey_on_machine_change(self):
        nest = make_copy_nest(n=256)
        j8 = WhatIfSweep(paper_machine(num_cores=8)).point_jobs(
            nest, threads=(2,), chunks=(1,)
        )[0]
        j4 = WhatIfSweep(paper_machine(num_cores=4)).point_jobs(
            nest, threads=(2,), chunks=(1,)
        )[0]
        assert j8.key() != j4.key()

    def test_sweep_points_json_roundtrip_exactly(self):
        nest = make_copy_nest(n=128)
        point = self.sweep().sweep(nest, threads=(2,), chunks=(1,)).points[0]
        again = SweepPoint.from_dict(json.loads(json.dumps(point.to_dict())))
        assert again == point


# ---------------------------------------------------------------------------
# Experiments + sensitivity through the engine
# ---------------------------------------------------------------------------


class TestConsumerParity:
    def test_experiment_driver_job_matches_direct_run(self, tmp_path):
        from repro.analysis.experiments import ExperimentSuite

        suite = ExperimentSuite(scale="tiny")
        direct = suite.run_fig6()
        engine = Engine(jobs=1, store=ResultStore(tmp_path))
        doc = engine.run_strict(suite.experiment_jobs(["run_fig6"]))[0]
        from repro.analysis.report import ExperimentResult

        res = ExperimentResult.from_dict(doc)
        assert res.experiment == direct.experiment
        assert res.columns == direct.columns
        assert [tuple(r) for r in res.rows] == [tuple(r) for r in direct.rows]

    def test_sensitivity_engine_matches_serial(self, tmp_path):
        from repro.analysis.sensitivity import sensitivity
        from repro.kernels import heat_diffusion

        machine = paper_machine()
        kernel = heat_diffusion(rows=6, cols=258)
        constants = ("remote_fetch_cycles", "invalidate_cycles")
        serial = sensitivity(machine, kernel, 2, constants=constants)
        engine = Engine(jobs=1, store=ResultStore(tmp_path))
        parallel = sensitivity(
            machine, kernel, 2, constants=constants, engine=engine
        )
        assert parallel == serial


# ---------------------------------------------------------------------------
# One batch path: no engine still means one Engine.run per batch
# ---------------------------------------------------------------------------


class TestOneBatchPath:
    """Called without an engine, every batch consumer evaluates its
    cells through exactly one ``Engine.run`` on an inline, uncached
    engine."""

    @pytest.fixture
    def runs(self, monkeypatch):
        calls = []
        original = Engine.run

        def counting(engine, jobs, *args, **kwargs):
            jobs = list(jobs)
            calls.append(
                (engine.jobs, engine.store, sorted({j.kind for j in jobs}),
                 len(jobs))
            )
            return original(engine, jobs, *args, **kwargs)

        monkeypatch.setattr(Engine, "run", counting)
        return calls

    def test_sweep(self, runs):
        sweep = WhatIfSweep(paper_machine(num_cores=8), predictor_runs=4)
        result = sweep.sweep(make_copy_nest(n=128), threads=(2, 4),
                             chunks=(1, 2))
        assert runs == [(1, None, ["whatif.point"], 4)]
        assert result.reuse.computed == 4

    def test_run_all(self, runs, monkeypatch):
        import repro.analysis.experiments as experiments

        monkeypatch.setattr(experiments, "DRIVER_ORDER",
                            ("run_fig6", "run_table6"))
        suite = experiments.ExperimentSuite(scale="tiny")
        out = suite.run_all()
        assert runs == [(1, None, ["experiment.driver"], 2)]
        assert [r.experiment for r in out] == ["Fig. 6", "Table VI"]
        assert suite.last_reuse.computed == 2

    def test_sensitivity(self, runs):
        from repro.analysis.sensitivity import sensitivity
        from repro.kernels import heat_diffusion

        entries = sensitivity(
            paper_machine(), heat_diffusion(rows=6, cols=258), 2,
            constants=("remote_fetch_cycles", "invalidate_cycles"),
        )
        assert runs == [(1, None, ["sensitivity.output"], 3)]
        assert len(entries) == 2
