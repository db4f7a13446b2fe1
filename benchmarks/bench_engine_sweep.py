"""Cold-vs-warm engine sweep benchmark (``make bench-sweep``).

Runs the same what-if grid twice through one result store: the cold
pass computes every point on the worker pool, the warm pass must be
served entirely from the content-addressed cache.  Wall times, cache
counters and the speedup land in a JSON report (default
``BENCH_engine.json``) so CI and the calibration notes can track the
engine's two headline numbers — parallel throughput and warm-cache
latency — over time.

Both passes use a fresh temporary store that is removed afterwards, so
the run never reads or empties the user's result store.

Run:  python benchmarks/bench_engine_sweep.py --jobs 4
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time

from repro.engine import Engine, ResultStore
from repro.kernels import linear_regression
from repro.machine import paper_machine
from repro.model import WhatIfSweep
from repro.obs import get_registry

THREADS = (2, 4, 8)
CHUNKS = (1, 2, 4, 8)


def _counter(name: str) -> float:
    return get_registry().snapshot()["counters"].get(name, 0.0)


def run(jobs: int, out: str) -> int:
    machine = paper_machine()
    kernel = linear_regression(8, tasks=120, total_points=240)
    sweep = WhatIfSweep(machine, predictor_runs=6)

    def one_pass(label: str, n_jobs: int):
        engine = Engine(jobs=n_jobs, store=store)
        hits0 = _counter("engine_cache_hits_total")
        t0 = time.perf_counter()
        result = sweep.sweep(
            kernel.nest, threads=THREADS, chunks=CHUNKS, engine=engine
        )
        wall = time.perf_counter() - t0
        hits = _counter("engine_cache_hits_total") - hits0
        print(f"[bench-sweep] {label:<6} jobs={n_jobs} "
              f"{wall:.2f}s  cache hits {hits:.0f}/{len(result.points)}")
        return result, wall, hits

    with tempfile.TemporaryDirectory(prefix="repro-bench-sweep-") as root:
        store = ResultStore(root)  # empty: the first pass is cold
        cold, cold_s, cold_hits = one_pass("cold", jobs)
        warm, warm_s, warm_hits = one_pass("warm", 1)

    n = len(cold.points)
    ok = warm == cold and cold_hits == 0 and warm_hits == n
    report = {
        "grid": {"threads": THREADS, "chunks": CHUNKS, "points": n},
        "jobs": jobs,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "warm_hits": warm_hits,
        "summary": {
            "points": n,
            "cold_s": round(cold_s, 2),
            "warm_s": round(warm_s, 2),
            "warm_speedup": round(cold_s / warm_s, 1) if warm_s else None,
            "identical": warm == cold,
        },
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(f"[bench-sweep] wrote {out}")
    if not ok:
        print("[bench-sweep] FAILED: warm pass was not fully cached "
              "or results diverged", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", "-j", type=int, default=4)
    parser.add_argument("--out", default="BENCH_engine.json")
    args = parser.parse_args(argv)
    return run(args.jobs, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
