"""``sweep``: cold, exact what-if landscapes through the engine.

Each kernel takes the path ``repro-fs sweep --exact --jobs nproc`` takes:
``parse_c_source`` → ``WhatIfSweep(use_predictor=False)`` point jobs →
``Engine.run`` on ``make_engine(jobs=nproc)``.  Every pass gets a fresh
result store and memory tier, so every point is computed and the store
only takes writes.  A job is one kernel's landscape; its cells are the
landscape's points.

Every pass sweeps six kernels: per family (heat, DFT, linreg) one whose
parallel trip count is a power of two and one ragged size the seed
draws.  The steady-state runner behaves very differently on the two
(a power-of-two heat landscape costs about three ragged ones), so every
pass holds both in the same mix.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass

import repro.frontend as frontend
from repro.engine import ResultStore, make_engine
from repro.kernels import dft_source, heat_source, linreg_source
from repro.machine import paper_machine
from repro.model.whatif import SweepPoint, WhatIfSweep, evaluate_point

from perfbench import common
from perfbench.hooks import instrument
from perfbench.tracer import Tracer, per_layer, share_table

THREADS = (2, 4, 8, 16, 32)
CHUNKS = (1, 2, 4, 8, 16, 32, 64)
STORE_ROOT = common.OUT_DIR / "sweep-stores"


def make_sources(seed: int) -> list[str]:
    rng = random.Random(seed)
    sources = []
    # The ranges keep every seed's landscapes at about the same cost: a
    # DFT offset below 7 sweeps markedly faster, 112-128 linreg tasks
    # markedly slower.
    for ragged in (False, True):
        offset = rng.randrange(1, 64, 2) if ragged else 0
        sources.append(heat_source(8, 1024 + offset + 2))
        offset = rng.randrange(7, 64, 2) if ragged else 0
        sources.append(dft_source(8, 768 + offset))
        sources.append(linreg_source(rng.randrange(98, 112), 60))
    return sources


def setup(seed: int):
    """Inputs, machine and an engine: everything before the first parse."""
    sources = make_sources(seed)
    machine = paper_machine()
    make_engine(jobs=common.nproc(), store=ResultStore(STORE_ROOT / "unused"))
    return sources, machine


@dataclass
class Landscape:
    nest: object
    outcomes: list
    job_s: float
    first_row_s: float
    engine_s: float

    @property
    def points(self) -> list[SweepPoint | None]:
        return [SweepPoint.from_dict(o.result) if o.ok else None
                for o in self.outcomes]


def one_pass(sources: list[str], machine, workers: int,
             store_dir) -> list[Landscape]:
    engine = make_engine(jobs=workers, store=ResultStore(store_dir))
    sweep = WhatIfSweep(machine, use_predictor=False)
    out = []
    for source in sources:
        t0 = time.perf_counter()
        first: list[float] = []
        for kernel in frontend.parse_c_source(source):
            jobs = sweep.point_jobs(kernel.nest, THREADS, CHUNKS)
            t_engine = time.perf_counter()
            outcomes = engine.run(
                jobs,
                on_outcome=lambda o: first or first.append(time.perf_counter()),
            )
            t1 = time.perf_counter()
            out.append(Landscape(kernel.nest, outcomes, t1 - t0,
                                 first[0] - t0, t1 - t_engine))
    return out


def _dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def check(out: common.Outcome, passes: list[list[Landscape]], machine,
          seed: int) -> None:
    """Every pass equals the first, no point fails, and a seeded point
    per landscape equals the scalar oracle."""
    reference = passes[0]
    for landscapes in passes:
        for mine, ref in zip(landscapes, reference):
            out.attempted += len(mine.outcomes)
            for o in mine.outcomes:
                if not o.ok:
                    out.fail(f"{o.job.label}: {o.error}")
            diff = sum(a != b for a, b in zip(mine.points, ref.points))
            if diff:
                out.fail(f"{mine.outcomes[0].job.label}: {diff} points "
                         "differ between passes", cells=diff)
    rng = random.Random(f"oracle-{seed}")
    for ls in reference:
        i = rng.randrange(len(ls.outcomes))
        spec = ls.outcomes[i].job.spec
        want = evaluate_point(
            machine, ls.nest, spec["threads"], spec["chunk"],
            use_predictor=False, detector_engine="reference",
            steady_state=False,
        )
        if ls.points[i] != want:
            out.fail(f"{ls.outcomes[i].job.label}: {ls.points[i]} != "
                     f"reference oracle {want}")


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    setup_s = common.setup_probe("sweep", seed)
    sources, machine = setup(seed)
    workers = common.nproc()
    root = STORE_ROOT / str(os.getpid())
    out = common.Outcome()
    passes: list[list[Landscape]] = []

    def timed_pass() -> None:
        index = len(passes)
        passes.append(one_pass(sources, machine, workers, root / str(index)))

    try:
        if trace:
            timed_pass()
            busy = sum(o.duration_s for ls in passes[0] for o in ls.outcomes
                       if not o.from_cache)
            engine_s = sum(ls.engine_s for ls in passes[0])
            t0 = time.perf_counter()
            passes.append(one_pass(sources, machine, 1, root / "inline"))
            untraced = time.perf_counter() - t0
            tracer = Tracer()
            undo = instrument(tracer)
            try:
                t0 = time.perf_counter()
                passes.append(one_pass(sources, machine, 1, root / "traced"))
                traced = time.perf_counter() - t0
            finally:
                undo()
            out.metrics = per_layer(
                tracer, traced, untraced,
                **{"engine.pool_utilization": busy / (engine_s * workers),
                   "store.bytes_written": _dir_bytes(root / "traced")},
            )
            out.report["layers"] = share_table(tracer, traced, "sweep")
            common.dump_spans("sweep", seed, tracer.spans)
            check(out, passes, machine, seed)
            return out

        with common.PeakRSS() as rss:
            pass_times = [t for _, t in common.timed_units([timed_pass],
                                                           seconds)]
        check(out, passes, machine, seed)
        errors = [
            common.chunk_probe(machine, ls.nest, {
                (p.threads, p.chunk): p.wall_cycles for p in ls.points if p
            })
            for ls in passes[0]
        ]
    finally:
        shutil.rmtree(root, ignore_errors=True)

    # Every time inside a pass takes that pass's host-speed scale.
    jobs = [ls.job_s * t.scale
            for landscapes, t in zip(passes, pass_times) for ls in landscapes]
    first_rows = [ls.first_row_s * t.scale
                  for landscapes, t in zip(passes, pass_times)
                  for ls in landscapes]
    cells = sum(len(ls.outcomes) for ls in passes[0])
    tail_s, tail_pct = common.tail_by_job(
        jobs, [i for landscapes in passes for i in range(len(landscapes))])
    wall = statistics.median(t.s for t in pass_times)
    out.metrics = {
        "setup_s": statistics.median(t.s for t in setup_s),
        "wall_s": wall,
        "cells_per_s": cells / wall,
        "peak_rss_mb": rss.mb,
        "job_p50_s": statistics.median(jobs),
        "job_tail_s": tail_s,
        "first_row_p50_ms": 1e3 * statistics.median(first_rows),
        "model_error_pp": statistics.fmean(errors),
    }
    out.report.update({
        "input": {"kernels": [f"{ls.nest.name} trips={ls.nest.trip_counts()}"
                              for ls in passes[0]],
                  "threads": THREADS, "chunks": CHUNKS,
                  "cells_per_pass": cells, "workers": workers},
        "setup_s": common.summarize([t.s for t in setup_s]),
        "setup_raw_s": common.summarize([t.raw_s for t in setup_s]),
        "pass_s": common.summarize([t.s for t in pass_times]),
        "pass_raw_s": common.summarize([t.raw_s for t in pass_times]),
        "host_scale": common.summarize([t.scale for t in pass_times]),
        "job_s": {**common.summarize(jobs), "tail_percentile": tail_pct},
        "first_row_s": common.summarize(first_rows),
        "probe_error_pp": errors,
    })
    return out
