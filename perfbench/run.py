"""Benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload {reproduce,sweep,serve} \\
        --seed N --seconds S --trace {0,1}

Progress, checks and (with ``--trace 1``) the per-layer share table go
to standard output; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full report, with
provenance and quartiles, is written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("reproduce", "sweep", "serve")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program's sources are missing under "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    # Keep every cache the program might default to inside the checkout.
    os.environ["REPRO_CACHE_DIR"] = str(ROOT / ".perfbench" / "cache")

    from perfbench import common

    workload = importlib.import_module(f"perfbench.{args.workload}")
    trace = bool(args.trace)
    outcome = workload.run(args.seed, args.seconds, trace)
    common.emit(outcome, common.provenance(args.workload, args.seed, trace),
                trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
