"""Ablations and extensions judged on the model alone.

Each test checks one claim beyond the paper's tables, at the sizes the
experiments use (T=4, heat 6×1026, DFT 4×768, linreg 96 tasks):

- Interleaving order: the lockstep model's within-step thread order is
  not load-bearing.
- Line size: FS volume grows with the coherence granularity, and a
  one-line-per-thread chunk cures it.
- φ semantics (Section III-D): literal φ counting undercounts DFT's
  read-modify-write ping-pong against write-invalidate.
- Fit method (Section III-E): the paper's closed-form fit and joint OLS
  both predict the full model.
- Sample count: the predictor's error falls with the chunk runs it
  samples.
- Runtime baseline (Section V): a trace-based detector agrees with the
  model's diagnosis while the predictor reads fewer accesses.
- Contention (Section VI): shared-L3 pressure and bus utilization grow
  with the stream and the thread count.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.baselines import RuntimeFSDetector
from repro.costmodels import ContentionModel, ProcessorModel
from repro.ir import (
    AffineExpr,
    ArrayDecl,
    ArrayRef,
    Assign,
    BinOp,
    Const,
    DOUBLE,
    LoadExpr,
    Loop,
    ParallelLoopNest,
    Schedule,
)
from repro.kernels import dft, heat_diffusion, linear_regression
from repro.machine import CacheLevel, paper_machine
from repro.model import FalseSharingModel, FalseSharingPredictor

THREADS = 4

KERNELS = {
    "heat": lambda: heat_diffusion(rows=6, cols=1026),
    "dft": lambda: dft(samples=4, freqs=768),
    "linreg": lambda: linear_regression(THREADS, tasks=96, total_points=480),
}


def _stream_nest(n: int, op: str, factor: float, schedule: Schedule,
                 names: tuple[str, str]) -> ParallelLoopNest:
    """``parallel for (i) dst[i] = src[i] <op> factor``."""
    a = ArrayDecl.create(names[0], DOUBLE, (n,))
    b = ArrayDecl.create(names[1], DOUBLE, (n,))
    i = AffineExpr.var("i")
    stmt = Assign(
        ArrayRef(b, (i,), is_write=True),
        BinOp(op, LoadExpr(ArrayRef(a, (i,))), Const(factor, DOUBLE)),
    )
    return ParallelLoopNest(
        "stream.i", Loop.create("i", 0, n, [stmt]), "i", schedule=schedule,
    )


def test_interleave_order_is_not_load_bearing():
    machine = paper_machine()
    rng = random.Random(1234)
    orders = [
        tuple(range(THREADS)),
        tuple(reversed(range(THREADS))),
        tuple(rng.sample(range(THREADS), THREADS)),
    ]
    spread = {}
    for name, factory in KERNELS.items():
        k = factory()
        counts = [
            FalseSharingModel(machine, thread_order=order)
            .analyze(k.nest, THREADS, chunk=k.fs_chunk).fs_cases
            for order in orders
        ]
        spread[name] = round(
            100.0 * (max(counts) - min(counts)) / max(max(counts), 1), 2
        )
    # Read-dominated kernels (DFT's RMWs, linreg's accumulators) are
    # exactly order-invariant: every access finds the line dirty no
    # matter who ran first.
    assert spread["dft"] == 0.0
    assert spread["linreg"] == 0.0
    # Write-write handoff chains (heat) shift modestly with the order —
    # ascending ids maximize the within-step handoff chain.  The spread
    # stays well below the effect sizes the model reports (~2x between
    # chunk configs), so the arbitrary order is not load-bearing.
    assert spread["heat"] < 20.0


def _machine_with_line(line_size: int):
    base = paper_machine()
    return dataclasses.replace(
        base,
        l1=CacheLevel(64 * 1024, line_size=line_size, associativity=2,
                      latency_cycles=3),
        l2=CacheLevel(512 * 1024, line_size=line_size, associativity=16,
                      latency_cycles=12),
        l3=CacheLevel(10 * 1024 * 1024, line_size=line_size, associativity=16,
                      latency_cycles=40, shared=True),
    )


def test_fs_cases_grow_with_line_size():
    """The canonical granularity law on a streaming store kernel (one
    write per iteration, chunk 1).  On RMW-heavy struct kernels (linreg)
    the raw count is not monotone in the line size: bigger lines mean
    fewer, hotter lines, and invalidate-mode counting saturates at one
    foreign writer per access."""
    nest = _stream_nest(512, "+", 1.0, Schedule("static", 1), ("src", "dst"))
    cases, cured = [], []
    for line_size in (16, 32, 64, 128, 256):
        model = FalseSharingModel(_machine_with_line(line_size))
        cases.append(model.analyze(nest, THREADS, chunk=1).fs_cases)
        cured.append(
            model.analyze(nest, THREADS, chunk=line_size // 8).fs_cases
        )
    # Monotone growth with coherence granularity...
    assert cases == sorted(cases)
    assert cases[-1] > cases[0]
    # ...and one-line-per-thread chunks always cure it.
    assert cured == [0] * len(cured)


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_literal_phi_undercounts_read_modify_writes(kernel):
    machine = paper_machine()
    k = KERNELS[kernel]()
    inv, lit = (
        FalseSharingModel(machine, mode=mode)
        .analyze(k.nest, THREADS, chunk=k.fs_chunk).fs_cases
        for mode in ("invalidate", "literal")
    )
    assert inv > 0 and lit > 0
    # The two semantics diverge by construction: without invalidations,
    # stale copies stay resident, so repeat accesses hit the thread's
    # own state and φ is never re-evaluated — the literal reading
    # undercounts steady-state ping-pong (most visible for DFT's
    # read-modify-writes).  The detector defaults to write-invalidate
    # for exactly this reason.
    if kernel == "dft":
        assert lit < inv


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_paper_fit_and_joint_ols_predict_the_full_model(kernel):
    model = FalseSharingModel(paper_machine())
    k = KERNELS[kernel]()
    full = model.analyze(k.nest, THREADS, chunk=k.fs_chunk).fs_cases
    preds = {
        method: FalseSharingPredictor(
            model, n_runs=k.pred_chunk_runs, method=method
        ).predict(k.nest, THREADS, chunk=k.fs_chunk).predicted_fs_cases
        for method in ("paper", "ols")
    }
    err = {
        m: round(100.0 * abs(v - full) / full, 2) if full else 0.0
        for m, v in preds.items()
    }
    # Both fitting rules predict the full model closely (DFT's prefix
    # includes cold-start cycles that drag the slope ~10% low — the
    # same underestimate visible in Table V of EXPERIMENTS.md)…
    assert err["paper"] < 12.0 and err["ols"] < 12.0
    # …and agree with each other (the paper's simpler form suffices).
    assert abs(int(preds["paper"]) - int(preds["ols"])) <= max(0.05 * full, 16)


def test_prediction_error_falls_with_sampled_runs():
    model = FalseSharingModel(paper_machine())
    k = heat_diffusion(rows=6, cols=1026)
    full = model.analyze(k.nest, THREADS, chunk=k.fs_chunk).fs_cases
    runs = (2, 5, 10, 20, 40)
    errors = []
    for n_runs in runs:
        pred = FalseSharingPredictor(model, n_runs=n_runs).predict(
            k.nest, THREADS, chunk=k.fs_chunk
        )
        errors.append(
            round(abs(pred.predicted_fs_cases - full) / full * 100, 2)
            if full else 0.0
        )
    # The first chunk runs include cold warm-up, so very small samples
    # underestimate slightly; error falls with the sample and is in the
    # few-percent band from ~10 runs (the paper's smallest published
    # sample count).
    assert errors[-1] < errors[0]
    assert all(e < 20 for e in errors)
    assert all(e < 5 for e, n in zip(errors, runs) if n >= 10)


@pytest.mark.parametrize("kernel", ["heat", "linreg"])
def test_runtime_detector_agrees_with_the_model(kernel):
    machine = paper_machine()
    model = FalseSharingModel(machine)
    k = KERNELS[kernel]()
    rt = RuntimeFSDetector(machine).run(k.nest, THREADS, chunk=k.fs_chunk)
    cases = model.analyze(k.nest, THREADS, chunk=k.fs_chunk).fs_cases
    pred = FalseSharingPredictor(model, n_runs=k.pred_chunk_runs).predict(
        k.nest, THREADS, chunk=k.fs_chunk
    )
    events = rt.stats.false_sharing_events
    # Same diagnosis: both see substantial FS, within a small factor.
    assert events > 0 and cases > 0
    assert 0.3 < events / cases < 3.0
    # The predictor examines a strict subset of what the trace tool must
    # process (that is the compile-time pitch)...
    assert pred.prefix_result.accesses < rt.stats.accesses
    # ...and the prediction still matches the full model.
    assert abs(int(pred.predicted_fs_cases) - cases) / cases < 0.2


def test_contention_grows_with_stream_and_threads():
    machine = paper_machine()
    contention = ContentionModel(machine, bus_bytes_per_cycle=8.0)
    processor = ProcessorModel(machine)
    pressure, utils = {}, {}
    for n in (50_000, 2_000_000):
        nest = _stream_nest(n, "*", 1.5, Schedule("static", None),
                            ("sa", "sb"))
        per_iter = processor.cycles_per_iter(nest)
        for threads in (2, 12, 48):
            est = contention.estimate(
                nest, threads, machine_cycles_per_iter=per_iter
            )
            pressure[n, threads] = round(est.l3_pressure, 3)
            utils[n, threads] = round(est.bus_utilization, 2)
    # Cache-resident streams see no shared-cache contention.
    assert all(pressure[50_000, t] < 1.0 for t in (2, 12, 48))
    # The 32 MB stream overwhelms one socket's L3.
    assert any(pressure[2_000_000, t] > 1.0 for t in (2, 12, 48))
    # Bus utilization grows with thread count for the big stream.
    big = [utils[2_000_000, t] for t in (2, 12, 48)]
    assert big == sorted(big)
