"""``reproduce``: the measured-vs-modeled rows of Tables I–III.

Each row makes the calls ``ExperimentSuite._overhead_table`` makes for
one thread count — two ``MulticoreSimulator.run``, two
``FalseSharingModel.analyze`` and Eq. 5 (``fs_overhead_percent``) — at
the full kernel sizes EXPERIMENTS.md records, serially, with no engine
and no cache.  The seed picks one thread count per table from the part
of the paper's sweep where that table's rows cost about the same, so
every seed costs about the same, and the order the rows take turns in.
A job is one table; its cells are its rows.
"""

from __future__ import annotations

import random
import statistics
import time

import repro.model.cost as cost
from repro.analysis.experiments import ExperimentSuite
from repro.analysis.report import format_cell

from perfbench import common
from perfbench.hooks import instrument
from perfbench.tracer import Tracer, per_layer, share_table

#: (experiment, kernel, thread counts the seed draws from).  Row cost and
#: model error both swing with the thread count (measured on a 2-core
#: container: heat rows take 1.9 s at 16 or 24 threads and 2.1 s at 32,
#: and its 40-thread row is off by 13.7 pp; DFT rows take 1.5 s at 2
#: threads, 1.6 s at 4 or 8 and 1.8 s at 16; linreg rows take 1.5 s at
#: 40 threads and 5-40 s below 24), so each table draws only from counts
#: that agree on both.
TABLES = (
    ("Table I", "heat", (16, 24)),
    ("Table II", "dft", (4, 8)),
    ("Table III", "linreg", (40,)),
)


def pick_rows(seed: int) -> list[tuple[str, str, int]]:
    """One row per table, in a seeded order."""
    rng = random.Random(seed)
    rows = [(experiment, kernel, rng.choice(threads))
            for experiment, kernel, threads in TABLES]
    rng.shuffle(rows)
    return rows


def _kernel(suite: ExperimentSuite, kernel: str, threads: int):
    scale = suite.scale
    if kernel == "linreg":
        return scale.linreg(threads)
    return scale.heat() if kernel == "heat" else scale.dft()


def setup(seed: int):
    """The suite and the seeded rows, their kernels built once."""
    suite = ExperimentSuite(scale="full")
    rows = pick_rows(seed)
    for _, kernel, threads in rows:
        _kernel(suite, kernel, threads)
    return suite, rows


def table_row(suite: ExperimentSuite, kernel: str, threads: int) -> tuple:
    """One Table I–III row, by the calls ``_overhead_table`` makes."""
    k = _kernel(suite, kernel, threads)
    s_fs = suite.sim.run(k.nest, threads, chunk=k.fs_chunk)
    s_nfs = suite.sim.run(k.nest, threads, chunk=k.nfs_chunk)
    measured = cost.measured_fs_percent(s_fs.cycles, s_nfs.cycles)
    r_fs = suite.model.analyze(k.nest, threads, chunk=k.fs_chunk)
    r_nfs = suite.model.analyze(k.nest, threads, chunk=k.nfs_chunk)
    report = cost.fs_overhead_percent(
        r_fs, r_nfs, suite.machine, k.reference_nest, suite.total_model
    )
    return (threads, s_fs.seconds * 1e3, s_nfs.seconds * 1e3,
            round(measured, 1), round(report.percent, 1))


def markdown_row(row: tuple) -> str:
    return "| " + " | ".join(format_cell(v) for v in row) + " |"


def committed_rows() -> dict[tuple[str, int], str]:
    """Rows of Tables I–III in the committed EXPERIMENTS.md."""
    wanted = {experiment for experiment, _, _ in TABLES}
    out: dict[tuple[str, int], str] = {}
    current = None
    text = (common.ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    for line in text.splitlines():
        if line.startswith("### "):
            current = line[4:].partition(":")[0]
        elif current in wanted and line.startswith("| ") and line[2].isdigit():
            threads = int(line.split("|")[1].strip().replace(",", ""))
            out[(current, threads)] = line
    return out


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    setup_s = common.setup_probe("reproduce", seed)
    suite, rows = setup(seed)
    out = common.Outcome()
    done: list[tuple[str, tuple]] = []  # (experiment, row) in run order

    def unit(experiment: str, kernel: str, threads: int,
             tracer: Tracer | None = None):
        def one_row() -> None:
            if tracer is None:
                done.append((experiment, table_row(suite, kernel, threads)))
                return
            with tracer.cell_span(f"{experiment}/T{threads}"):
                done.append((experiment, table_row(suite, kernel, threads)))
        return one_row

    if trace:
        t0 = time.perf_counter()
        for row in rows:
            unit(*row)()
        untraced = time.perf_counter() - t0
        tracer = Tracer()
        undo = instrument(tracer)
        try:
            t0 = time.perf_counter()
            for row in rows:
                unit(*row, tracer)()
            traced = time.perf_counter() - t0
        finally:
            undo()
        out.metrics = per_layer(tracer, traced, untraced)
        out.report["layers"] = share_table(tracer, traced, "reproduce")
        common.dump_spans("reproduce", seed, tracer.spans)
    else:
        # A unit is one row; the rows take turns, so every table is
        # repeated about equally often.  The rows run serially, so they
        # run pinned to one CPU.
        with common.PeakRSS() as rss:
            units = common.timed_units([unit(*r) for r in rows], seconds,
                                       count=len(rows), serial=True)

    expected = committed_rows()
    for experiment, row in done:
        out.attempted += 1
        got = markdown_row(row)
        want = expected.get((experiment, row[0]))
        if got != want:
            out.fail(f"{experiment} T={row[0]}: got {got!r}, "
                     f"EXPERIMENTS.md has {want!r}")
    out.report["rows"] = [markdown_row(row) for _, row in done[:len(rows)]]
    if trace:
        return out

    # Each table is one job of one row, so a job's time is its row's.
    jobs = [t.s for _, t in units]
    tables = [rows[i][0] for i, _ in units]
    per_table = {
        experiment: statistics.median(t.s for i, t in units
                                      if rows[i][0] == experiment)
        for experiment, _, _ in rows
    }
    errors = [abs(row[3] - row[4]) for _, row in done[:len(rows)]]
    tail_s, tail_pct = common.tail_by_job(jobs, tables)
    wall = sum(per_table.values())
    out.metrics = {
        "setup_s": statistics.median(t.s for t in setup_s),
        "wall_s": wall,
        "cells_per_s": len(rows) / wall,
        "peak_rss_mb": rss.mb,
        "job_p50_s": statistics.median(jobs),
        "job_tail_s": tail_s,
        "first_row_p50_ms": 1e3 * statistics.median(jobs),
        "model_error_pp": statistics.fmean(errors),
    }
    out.report.update({
        "input": {"rows": [f"{e} T={t}" for e, _, t in rows],
                  "cells_per_pass": len(rows)},
        "setup_s": common.summarize([t.s for t in setup_s]),
        "setup_raw_s": common.summarize([t.raw_s for t in setup_s]),
        "row_s": {e: common.summarize([t.s for i, t in units
                                       if rows[i][0] == e])
                  for e, _, _ in rows},
        "row_raw_s": common.summarize([t.raw_s for _, t in units]),
        "host_scale": common.summarize([t.scale for _, t in units]),
        "job_s": {**common.summarize(jobs), "tail_percentile": tail_pct},
    })
    return out
