"""``serve``: one closed-loop client driving a ``repro-fs serve`` daemon.

The daemon is a child process with ``--workers nproc``, an explicit
``--journal-dir`` and a fresh ``--store-dir``, and no ``--state-file``.
The client submits predictor-mode sweep jobs (the daemon's default: the
regression predictor, which bypasses the steady-state runner and never
calls the simulator) and streams each job to its last row before it
submits the next.  Each pass submits six kernel sizes new to the run
(two heat, two DFT, two linreg) and three warm repeats of this pass's
grids, in a seeded order, so every pass has the same cold/warm mix.
A job is one HTTP job; its cells are its streamed ``cell`` rows.

Set-up is daemon boot-to-ready, measured over several boots; every
daemon but the last is drained straight away and must exit 0.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import urllib.error
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import repro.frontend as frontend
from repro.kernels import dft_source, heat_source, linreg_source
from repro.machine import paper_machine
from repro.model.whatif import WhatIfSweep, evaluate_point
from repro.service.client import ServiceClient, ServiceClientError

from perfbench import common
from perfbench.hooks import instrument
from perfbench.tracer import Tracer, per_layer, share_table

THREADS = (2, 4, 8, 16, 32, 48)
CHUNKS = (1, 2, 4, 8, 16, 32)
REPEATS_PER_PASS = 3
#: The daemon's defaults for a job that names none: the machine and the
#: predictor settings every served cell is checked against.
CORES = 48
PREDICTOR_RUNS = 8
WORK_ROOT = common.OUT_DIR / "serve-work"
_FIELDS = ("fs_cases", "fs_cycles", "wall_cycles", "fidelity")


def _heat(rng: random.Random) -> str:
    return heat_source(8, rng.randrange(1000, 1100))


def _dft(rng: random.Random) -> str:
    return dft_source(8, rng.randrange(700, 800))


def _linreg(rng: random.Random) -> str:
    return linreg_source(rng.randrange(96, 160), 60)


NEW_PER_PASS = (_heat, _heat, _dft, _dft, _linreg, _linreg)


def pass_sources(rng: random.Random, used: set[str]) -> list[str]:
    """One pass's submissions: new sizes, then warm repeats inserted
    somewhere after their originals."""
    seq = []
    for make in NEW_PER_PASS:
        source = make(rng)
        while source in used:
            source = make(rng)
        used.add(source)
        seq.append(source)
    rng.shuffle(seq)
    for _ in range(REPEATS_PER_PASS):
        pos = rng.randrange(1, len(seq) + 1)
        seq.insert(pos, rng.choice(seq[:pos]))
    return seq


@dataclass
class JobRecord:
    source: str
    repeat: bool
    t_submit: float = 0.0
    t_ack: float = 0.0
    t_first: float | None = None
    t_last: float = 0.0
    status: str = ""
    cells: dict = field(default_factory=dict)
    error: str | None = None
    rejected: bool = False

    @property
    def latency_s(self) -> float:
        return self.t_last - self.t_submit


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``repro-fs serve`` child process with its own state dirs."""

    def __init__(self, workdir) -> None:
        self.workdir = workdir
        self.port = _free_port()
        self.client = ServiceClient(f"http://127.0.0.1:{self.port}",
                                    timeout_s=120)
        self.proc: subprocess.Popen | None = None

    def start(self) -> float:
        """Boot and wait for ``ready``; returns boot-to-ready seconds."""
        self.workdir.mkdir(parents=True)
        env = common.program_env()
        env["REPRO_CACHE_DIR"] = str(self.workdir / "cache")
        t0 = time.perf_counter()
        with open(self.workdir / "daemon.log", "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--host", "127.0.0.1", "--port", str(self.port),
                 "--workers", str(common.nproc()),
                 "--journal-dir", str(self.workdir / "journal"),
                 "--store-dir", str(self.workdir / "store")],
                env=env, cwd=common.ROOT, stdout=log, stderr=log,
            )
        deadline = t0 + 60
        while True:
            try:
                if self.client.healthz().get("status") == "ready":
                    return time.perf_counter() - t0
            except (ServiceClientError, urllib.error.URLError, OSError):
                pass
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(
                    f"daemon did not become ready (exit {self.proc.poll()});"
                    f" see {self.workdir / 'daemon.log'}"
                )
            time.sleep(0.02)

    def stop(self) -> int:
        """SIGTERM drain; returns the exit code (killed: negative)."""
        if self.proc is None or self.proc.poll() is not None:
            return self.proc.returncode if self.proc else 0
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
            return -signal.SIGKILL


def metric_sum(text: str, name: str) -> float:
    """Sum of every sample of one metric family in /metrics text."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        sample, _, value = line.rpartition(" ")
        if sample.partition("{")[0] == name:
            total += float(value)
    return total


def submit_and_stream(client: ServiceClient, source: str,
                      repeat: bool) -> JobRecord:
    job = JobRecord(source, repeat, t_submit=time.perf_counter())
    try:
        doc = client.submit(source, threads=THREADS, chunks=CHUNKS)
    except ServiceClientError as exc:
        job.t_ack = job.t_last = time.perf_counter()
        job.rejected = exc.status in (429, 503)
        job.error = str(exc)
        return job
    job.t_ack = time.perf_counter()
    for row in client.stream(doc["id"]):
        kind = row.get("type")
        if kind == "cell":
            if job.t_first is None:
                job.t_first = time.perf_counter()
            job.cells[(row["threads"], row["chunk"])] = row
        elif kind == "summary":
            job.status = row.get("status", "")
        elif kind == "diagnostic":
            job.error = f"{row.get('code')}: {row.get('message')}"
    job.t_last = time.perf_counter()
    return job


def replay(sources: list[str], machine, tracer: Tracer | None = None):
    """Evaluate every cell of ``sources`` in-process, as the daemon
    would; returns ({source: {(t, c): point}}, wall seconds)."""
    points = {}
    t0 = time.perf_counter()
    for source in sources:
        (kernel,) = frontend.parse_c_source(source)
        grid = WhatIfSweep(machine).feasible_grid(kernel.nest, THREADS,
                                                  CHUNKS)
        mine = points[source] = {}
        for t, c in grid:
            cell = f"{kernel.name}:t{t}c{c}"
            if tracer is None:
                mine[(t, c)] = evaluate_point(
                    machine, kernel.nest, t, c,
                    predictor_runs=PREDICTOR_RUNS)
                continue
            with tracer.cell_span(cell):
                mine[(t, c)] = evaluate_point(
                    machine, kernel.nest, t, c,
                    predictor_runs=PREDICTOR_RUNS)
    return points, time.perf_counter() - t0


def _replay_one(source: str) -> dict:
    points, _ = replay([source], paper_machine(num_cores=CORES))
    return points[source]


def expected_cells(sources: list[str]) -> dict:
    """:func:`replay`'s points for every source, on ``nproc`` worker
    processes (the check is untimed; this only keeps the run short)."""
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(common.nproc(), mp_context=ctx) as pool:
        return dict(zip(sources, pool.map(_replay_one, sources)))


def check(out: common.Outcome, jobs: list[JobRecord], expected) -> None:
    originals: dict[str, JobRecord] = {}
    for job in jobs:
        want = expected[job.source]
        out.attempted += len(want)
        if job.error or job.status != "done":
            out.fail(f"job ({job.status or 'no status'}): {job.error}",
                     cells=max(len(want) - len(job.cells), 1))
        for key, point in want.items():
            row = job.cells.get(key)
            if row is None:
                if job.status == "done":
                    out.fail(f"cell t{key[0]}c{key[1]} missing")
                continue
            if any(row[f] != getattr(point, f) for f in _FIELDS):
                out.fail(f"cell t{key[0]}c{key[1]}: served "
                         f"{[row[f] for f in _FIELDS]}, in-process "
                         f"{[getattr(point, f) for f in _FIELDS]}")
        if not job.repeat:
            originals[job.source] = job
            continue
        cold = originals[job.source].cells
        for key, row in job.cells.items():
            if key in cold and any(row[f] != cold[key][f] for f in _FIELDS):
                out.fail(f"warm repeat t{key[0]}c{key[1]} differs from "
                         "its cold original")


def job_spans(jobs: list[JobRecord], t0: float) -> list[dict]:
    """Client-observed spans: each job and its submit / queue-wait /
    stream phases, one cell id per job."""
    spans = []
    for i, job in enumerate(jobs):
        first = job.t_first if job.t_first is not None else job.t_last
        parent = len(spans)
        spans.append({"id": parent, "name": "service.job", "parent": None,
                      "start": job.t_submit - t0, "end": job.t_last - t0,
                      "cell": f"job{i}"})
        for name, a, b in (("service.submit", job.t_submit, job.t_ack),
                           ("service.queue_wait", job.t_ack, first),
                           ("service.stream", first, job.t_last)):
            spans.append({"id": len(spans), "name": name, "parent": parent,
                          "start": a - t0, "end": b - t0,
                          "cell": f"job{i}"})
    return spans


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    rng = random.Random(seed)
    used: set[str] = set()
    machine = paper_machine(num_cores=CORES)
    root = WORK_ROOT / str(os.getpid())
    out = common.Outcome()
    passes: list[list[JobRecord]] = []
    daemons: list[Daemon] = []

    def boot() -> float:
        """Drain the last daemon booted, boot the next; returns its
        boot-to-ready seconds."""
        if daemons:
            rc = daemons[-1].stop()
            if rc != 0:
                out.fail(f"daemon exited {rc} on its SIGTERM drain")
        daemons.append(Daemon(root / f"boot{len(daemons)}"))
        return daemons[-1].start()

    try:
        boots = [t for _, t in common.timed_units(
            [boot], count=common.SETUP_REPEATS)]
        daemon = daemons[-1]
        client = daemon.client
        before = client.metrics()

        def run_pass() -> None:
            jobs, seen = [], set()
            for source in pass_sources(rng, used):
                jobs.append(submit_and_stream(client, source,
                                              repeat=source in seen))
                seen.add(source)
            passes.append(jobs)

        t_start = time.perf_counter()
        if trace:
            for _ in range(2):
                run_pass()
        else:
            with common.PeakRSS() as rss:
                pass_times = [t for _, t in common.timed_units([run_pass],
                                                               seconds)]
        after = client.metrics()
        rc = daemon.stop()
        if rc != 0:
            out.fail(f"daemon exited {rc} on its SIGTERM drain")
    finally:
        for d in daemons:
            d.stop()
        shutil.rmtree(root, ignore_errors=True)

    jobs = [job for jobs in passes for job in jobs]
    expected = expected_cells([job.source for job in jobs if not job.repeat])
    check(out, jobs, expected)
    journal_errors = (metric_sum(after, "service_journal_errors_total")
                      - metric_sum(before, "service_journal_errors_total"))
    if journal_errors:
        out.fail(f"{journal_errors:g} journal write errors", int(journal_errors))
    rejected = sum(job.rejected for job in jobs)
    streamed = sum(len(job.cells) for job in jobs)
    served = [job for job in jobs if job.t_first is not None]

    if trace:
        last = [job.source for job in passes[-1] if not job.repeat]
        _, untraced = replay(last, machine)
        tracer = Tracer()
        undo = instrument(tracer)
        try:
            _, traced = replay(last, machine, tracer)
        finally:
            undo()
        spans = tracer.spans + [
            {**s, "id": s["id"] + len(tracer.spans),
             "parent": None if s["parent"] is None
             else s["parent"] + len(tracer.spans)}
            for s in job_spans(jobs, t_start)
        ]
        phases = {
            "submit": [j.t_ack - j.t_submit for j in served],
            "queue_wait": [j.t_first - j.t_ack for j in served],
            "stream": [j.t_last - j.t_first for j in served],
        }
        job_total = sum(j.latency_s for j in served)
        print("[perfbench] serve: client-observed phases of "
              f"{len(served)} jobs")
        for name, values in phases.items():
            print(f"[perfbench]   {name:<14} median "
                  f"{1e3 * statistics.median(values):9.3f} ms "
                  f"{100.0 * sum(values) / job_total:6.2f}% of job time")
        out.metrics = per_layer(
            tracer, traced, untraced,
            **{
                "service.submit_ms": 1e3 * statistics.median(phases["submit"]),
                "service.queue_wait_ms":
                    1e3 * statistics.median(phases["queue_wait"]),
                "service.stream_ms": 1e3 * statistics.median(phases["stream"]),
                "service.cache_hit_ratio": (
                    metric_sum(after, "service_cells_cache_tier_total")
                    - metric_sum(before, "service_cells_cache_tier_total")
                ) / max(streamed, 1),
                "service.rejections": rejected + (
                    metric_sum(after, "service_rejections_total")
                    - metric_sum(before, "service_rejections_total")
                ),
            },
        )
        out.report["layers"] = share_table(
            tracer, traced, "serve (in-process replay of the last pass's "
            "cold cells)")
        common.dump_spans("serve", seed, spans)
        return out

    errors = []
    for job in passes[0]:
        if job.repeat or not job.cells:
            continue
        walls = {key: row["wall_cycles"] for key, row in job.cells.items()}
        (kernel,) = frontend.parse_c_source(job.source)
        errors.append(common.chunk_probe(machine, kernel.nest, walls))
    # Every time inside a pass takes that pass's host-speed scale.
    scaled = [(job, t.scale) for pass_jobs, t in zip(passes, pass_times)
              for job in pass_jobs if job.t_first is not None]
    latencies = [job.latency_s * scale for job, scale in scaled]
    first_rows = [(job.t_first - job.t_submit) * scale
                  for job, scale in scaled]
    tail_s, tail_pct = common.tail(latencies)
    wall = statistics.median(t.s for t in pass_times)
    out.metrics = {
        "setup_s": statistics.median(t.s for t in boots),
        "wall_s": wall,
        "cells_per_s": streamed / len(passes) / wall,
        "peak_rss_mb": rss.mb,
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_s,
        "first_row_p50_ms": 1e3 * statistics.median(first_rows),
        "model_error_pp": statistics.fmean(errors),
    }
    out.report.update({
        "input": {"jobs_per_pass": len(passes[0]),
                  "threads": THREADS, "chunks": CHUNKS,
                  "workers": common.nproc(), "passes": len(passes)},
        "setup_s": common.summarize([t.s for t in boots]),
        "setup_raw_s": common.summarize([t.raw_s for t in boots]),
        "pass_s": common.summarize([t.s for t in pass_times]),
        "pass_raw_s": common.summarize([t.raw_s for t in pass_times]),
        "host_scale": common.summarize([t.scale for t in pass_times]),
        "job_s": {**common.summarize(latencies),
                  "tail_percentile": tail_pct},
        "first_row_s": common.summarize(first_rows),
        "rejected_jobs": rejected,
        "probe_error_pp": errors,
    })
    return out
