"""FS-detector benchmark (``make bench-model``).

Measures the model's default (the ``fast`` detector with the exact
steady-state early exit) against the scalar ``reference`` detector
without it, and against the plain fast path (``fast`` without it), and
writes the numbers to a JSON report (default ``BENCH_model.json``):

1. **micro** — raw detector throughput (accesses/s) on a pre-generated
   lockstep block: reference vs fast (target ≥10×);
2. **tables** — wall time, best of 5, of representative paper
   configurations (Table 1/2 style heat/DFT points), asserting the
   counters stay bit-identical;
3. **large-grid** — end-to-end model wall time, one run each, on grids
   whose working set far exceeds the modeled private cache, where the
   exact steady-state early exit extrapolates most chunk runs (target
   ≥50×).

Every comparison re-checks result identity — the report is as much a
correctness gate as a speed gate.

Run:  PYTHONPATH=src python benchmarks/bench_model_fastpath.py
      PYTHONPATH=src python benchmarks/bench_model_fastpath.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.kernels import dft, heat_diffusion
from repro.machine import paper_machine
from repro.model import FalseSharingModel, FSDetector, FastFSDetector


def _micro(rounds: int) -> dict:
    """Detector-core throughput on one synthetic lockstep block."""
    rng = np.random.default_rng(7)
    steps, refs, threads = 2000, 6, 4
    lines = [
        rng.integers(0, 256, size=(steps, refs)).astype(np.int64)
        for _ in range(threads)
    ]
    writes = np.array([False, False, False, False, True, True])
    accesses = steps * refs * threads

    def best_of(cls) -> tuple[float, int]:
        best, fs = float("inf"), -1
        for _ in range(rounds):
            d = cls(threads, 8192)
            t0 = time.perf_counter()
            d.process_block(lines, writes)
            # Reading every thread's state makes the fast detector apply
            # its deferred write-back, so both sides time a whole block.
            for t in range(threads):
                d.cache_state(t)
            best = min(best, time.perf_counter() - t0)
            fs = d.stats.fs_cases
        return best, fs

    ref_s, ref_fs = best_of(FSDetector)
    fast_s, fast_fs = best_of(FastFSDetector)
    assert ref_fs == fast_fs, "engines disagree on the micro block"
    return {
        "accesses": accesses,
        "reference_s": round(ref_s, 6),
        "fast_s": round(fast_s, 6),
        "reference_macc_per_s": round(accesses / ref_s / 1e6, 2),
        "fast_macc_per_s": round(accesses / fast_s / 1e6, 2),
        "speedup": round(ref_s / fast_s, 1),
    }


def _identical(a, b) -> bool:
    sa, sb = a.stats, b.stats
    return (
        (a.fs_cases, a.fs_read_cases, a.fs_write_cases, a.accesses,
         sa.misses, sa.invalidations, sa.downgrades, sa.evictions, sa.steps)
        == (b.fs_cases, b.fs_read_cases, b.fs_write_cases, b.accesses,
            sb.misses, sb.invalidations, sb.downgrades, sb.evictions,
            sb.steps)
        and dict(sa.fs_by_line) == dict(sb.fs_by_line)
        and dict(sa.fs_by_pair) == dict(sb.fs_by_pair)
    )


def _timed(model, kernel, threads, chunk, rounds: int):
    """Best wall time of ``rounds`` analyses, and the last result."""
    best, result = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = model.analyze(kernel.nest, threads, chunk=chunk)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _compare(machine, kernel, threads, chunk, rounds: int = 1) -> dict:
    """Reference and plain fast path (both without the early exit) vs
    the default model; identical results."""
    ref_s, r_ref = _timed(
        FalseSharingModel(machine, engine="reference", steady_state=False),
        kernel, threads, chunk, rounds,
    )
    plain_s, r_plain = _timed(
        FalseSharingModel(machine, engine="fast", steady_state=False),
        kernel, threads, chunk, rounds,
    )
    opt_s, r = _timed(
        FalseSharingModel(machine), kernel, threads, chunk, rounds
    )
    for other in (r_plain, r):
        assert _identical(r_ref, other), f"{kernel.nest.name}: results diverged"
    return {
        "kernel": kernel.nest.name,
        "threads": threads,
        "chunk": chunk,
        "engine": r.engine,
        "fs_cases": r.fs_cases,
        "accesses": r.accesses,
        "rounds": rounds,
        "reference_s": round(ref_s, 4),
        "plain_s": round(plain_s, 4),
        "optimized_s": round(opt_s, 4),
        "speedup": round(ref_s / opt_s, 1) if opt_s > 0 else float("inf"),
        "runs_extrapolated": r.runs_extrapolated,
        "total_chunk_runs": r.total_chunk_runs,
        "fidelity": r.fidelity,
        "identical": True,
    }


def _print_row(row: dict) -> None:
    print(f"[bench-model]   {row['kernel']:<18} "
          f"ref {row['reference_s']:8.4f}s "
          f"plain {row['plain_s']:7.4f}s "
          f"opt {row['optimized_s']:7.4f}s  {row['speedup']:6.1f}x  "
          f"engine={row['engine']} "
          f"ext {row['runs_extrapolated']}/{row['total_chunk_runs']}")


def run(out: str, quick: bool) -> int:
    machine = paper_machine()
    report: dict = {"quick": quick, "cpu_count": os.cpu_count() or 1}

    print("[bench-model] micro: detector block throughput")
    report["micro"] = micro = _micro(rounds=3 if quick else 5)
    print(f"[bench-model]   reference {micro['reference_macc_per_s']:.2f} "
          f"Macc/s  fast {micro['fast_macc_per_s']:.2f} Macc/s  "
          f"speedup {micro['speedup']}x")

    print("[bench-model] tables: paper-style configurations")
    table_cfgs = [
        (heat_diffusion(rows=6, cols=1026), 8, 1),
        (dft(samples=4, freqs=768), 8, 1),
        # A tiny table trace (1.5k accesses): the row shows what the
        # default costs on short loops against the plain fast path.
        (heat_diffusion(rows=4, cols=130), 8, 1),
    ]
    report["tables"] = []
    for kernel, threads, chunk in table_cfgs:
        row = _compare(machine, kernel, threads, chunk, rounds=5)
        report["tables"].append(row)
        _print_row(row)

    if quick:
        large_cfgs = [
            (heat_diffusion(rows=3, cols=131074), 8, 1),
            (dft(samples=2, freqs=131072), 8, 1),
        ]
    else:
        large_cfgs = [
            (heat_diffusion(rows=3, cols=2097154), 8, 1),
            (dft(samples=4, freqs=1310720), 8, 1),
        ]
    print("[bench-model] large-grid: steady-state end-to-end")
    report["large_grid"] = large = []
    for kernel, threads, chunk in large_cfgs:
        row = _compare(machine, kernel, threads, chunk)
        large.append(row)
        _print_row(row)

    micro_ok = micro["speedup"] >= (5.0 if quick else 10.0)
    steady_ok = all(r["runs_extrapolated"] > 0 for r in large)
    e2e_ok = quick or all(r["speedup"] >= 50.0 for r in large)

    report["summary"] = {
        "micro_speedup": micro["speedup"],
        "large_grid_speedups": [r["speedup"] for r in large],
        "all_identical": True,  # every _compare above asserted it
        "micro_target_met": micro_ok,
        "steady_state_fired": steady_ok,
        "large_grid_target_met": e2e_ok,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(f"[bench-model] wrote {out}")
    if not (micro_ok and steady_ok and e2e_ok):
        print("[bench-model] FAILED: performance targets not met "
              f"(micro_ok={micro_ok}, steady_ok={steady_ok}, "
              f"e2e_ok={e2e_ok})", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_model.json")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized grids (seconds; the large-grid "
                             "speed target is not asserted)")
    args = parser.parse_args(argv)
    return run(args.out, args.quick)


if __name__ == "__main__":
    raise SystemExit(main())
