"""Regenerate EXPERIMENTS.md: ``python -m repro.analysis.runner [out]``.

Runs every experiment at full scale and writes the results, together
with the paper-vs-measured commentary, to EXPERIMENTS.md (or the path
given as the first argument).  Every experiment is one
:mod:`repro.engine` job, and one engine evaluates them: inline at the
default ``--jobs 1`` (expect minutes of runtime), across ``--jobs N``
worker processes otherwise, memoized in the result store unless
``--no-cache`` asks for a guaranteed cold run.  The document is
byte-identical at every width.  Per-experiment wall times are printed
as the run goes, and a driver that raises does not kill the document:
the failure is reported, the remaining experiments still run, and the
process exits nonzero.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis.experiments import (
    DRIVER_ORDER,
    SUPPLEMENTARY_DRIVERS,
    ExperimentSuite,
)
from repro.analysis.paper import PAPER_EXPECTATIONS, deviations_section
from repro.analysis.report import ExperimentResult
from repro.cli import positive_int
from repro.engine import Engine, ReuseReport
from repro.resilience.partial import FailureReport


def build_markdown(
    results: list[ExperimentResult],
    supplementary: list[ExperimentResult] | None = None,
) -> str:
    """Assemble the EXPERIMENTS.md document."""
    parts = [
        "# EXPERIMENTS — paper vs. reproduction",
        "",
        "Regenerated by `python -m repro.analysis.runner`.  All",
        '"measured" numbers come from the MESI multicore simulator',
        "(`repro.sim`); \"modeled\"/\"predicted\" numbers come from the",
        "compile-time FS cost model (`repro.model`).  See DESIGN.md for",
        "the substitution rationale and the per-experiment module map.",
        "",
    ]
    for res in results:
        parts.append(res.to_markdown())
        expectation = PAPER_EXPECTATIONS.get(res.experiment)
        if expectation:
            parts.append(f"\n**Paper:** {expectation}")
        parts.append("")
    if supplementary:
        parts.append("## Supplementary experiments (beyond the paper)")
        parts.append("")
        for res in supplementary:
            parts.append(res.to_markdown())
            parts.append("")
    parts.append(deviations_section())
    return "\n".join(parts)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro.analysis.runner",
        description="regenerate EXPERIMENTS.md from every paper experiment",
    )
    parser.add_argument("out", nargs="?", default="EXPERIMENTS.md",
                        help="output markdown path (default EXPERIMENTS.md)")
    parser.add_argument("--scale", choices=("tiny", "full"), default="full",
                        help="experiment scale (default full)")
    parser.add_argument("--jobs", "-j", type=positive_int, default=1,
                        metavar="N",
                        help="engine worker processes (default 1 = inline)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result store")
    return parser.parse_args(argv)


def _run_drivers(
    suite: ExperimentSuite, drivers: tuple[str, ...], engine: Engine,
    reuse: ReuseReport,
) -> tuple[list[ExperimentResult], list[FailureReport]]:
    """Evaluate drivers through the engine; never raises per driver."""
    results: list[ExperimentResult] = []
    failures: list[FailureReport] = []
    for name, outcome in zip(
        drivers, engine.run(suite.experiment_jobs(drivers))
    ):
        reuse.record(outcome)
        if outcome.ok:
            res = ExperimentResult.from_dict(outcome.result)
            results.append(res)
            if outcome.from_cache:
                origin = f"cache:{outcome.cache_tier}"
            else:
                origin = f"{outcome.duration_s:.1f}s"
            print(f"[runner] {name:<18} {res.experiment:<10} ({origin})")
        else:
            report = FailureReport.from_outcome(
                outcome, kind="experiment.driver"
            )
            failures.append(report)
            print(f"[runner] {name:<18} FAILED: {report.one_line()}",
                  file=sys.stderr)
    return results, failures


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    t0 = time.perf_counter()
    suite = ExperimentSuite(scale=args.scale)
    engine = Engine(jobs=args.jobs, use_cache=not args.no_cache)
    reuse = ReuseReport()
    try:
        results, failures = _run_drivers(suite, DRIVER_ORDER, engine, reuse)
        supplementary, supp_failures = _run_drivers(
            suite, SUPPLEMENTARY_DRIVERS, engine, reuse
        )
    finally:
        engine.close()
    failures += supp_failures
    doc = build_markdown(results, supplementary)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(doc)
    for res in (*results, *supplementary):
        print(res.to_text())
        print()
    if reuse.total:
        print(f"[runner] reuse: {reuse.one_line()}")
    print(f"wrote {args.out} in {time.perf_counter() - t0:.0f}s "
          f"({len(results) + len(supplementary)} experiments"
          f"{f', {len(failures)} FAILED' if failures else ''})")
    if failures:
        for failure in failures:
            print(f"FAILED: {failure.one_line()}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
