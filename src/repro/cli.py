"""Command-line interface: ``repro-fs`` / ``python -m repro``.

Subcommands
-----------
``analyze``
    Parse a C/OpenMP file, run the FS model on every ``parallel for``
    nest and print an FS report (cases, victims, Eq. (1) share).
``predict``
    Same, but with the fast linear-regression predictor.
``optimize``
    Recommend a schedule chunk size per nest.
``diagnose``
    Full diagnosis: victims, hot lines, the inter-thread conflict matrix.
``sweep``
    What-if landscape over (threads × chunk).
``trace``
    Record the execution's memory trace to a compressed ``.npz``.
``experiments``
    Regenerate the paper's tables and figures (``--scale tiny`` for a
    quick look, ``full`` for the EXPERIMENTS.md numbers).
``profile``
    Run the full analysis with span tracing forced on; write a Chrome
    trace (Perfetto / ``chrome://tracing``) and a metrics dump, and
    print a per-stage timing summary.
``cache``
    Inspect (``stats``) or empty (``clear``) the batch engine's
    content-addressed result store.
``serve``
    Run the analysis-as-a-service daemon: HTTP/JSON job API with
    NDJSON result streaming, multi-tenant quotas, a Prometheus
    ``/metrics`` endpoint and a graceful SIGTERM drain
    (docs/SERVICE.md).
``doctor``
    Self-check the resilience machinery (error taxonomy, budget
    guards, degradation ladder, fault injection, store corruption
    tolerance), the service plumbing (socket bind, tenants parsing,
    store writability) and the journal's crash recovery; exit 0 iff
    every check passes.

Every analysis subcommand accepts ``--profile TRACE.json`` /
``--metrics-out METRICS.json`` (or the ``REPRO_TRACE`` /
``REPRO_METRICS`` environment variables) — see docs/OBSERVABILITY.md.
Each subcommand takes only the flag groups it reads:

* model flag ``--mode``: every analysis subcommand except ``optimize``,
  ``trace`` and ``experiments``;
* budget flags (docs/RESILIENCE.md) ``--deadline SECONDS`` /
  ``--max-iters N``: ``analyze``, ``predict``, ``profile`` and
  ``sweep``, which build a :class:`repro.resilience.Budget` for every
  analysis (sweeps degrade gracefully down the exact → regression →
  analytic ladder instead of dying);
* batch flags: ``sweep`` and ``experiments`` only — ``--jobs N``
  (worker processes; output is byte-identical to ``--jobs 1``),
  ``--no-cache`` (skip the result store), and ``--keep-going``
  (default; isolates per-file and per-point failures into structured
  reports) / ``--fail-fast`` (aborts on the first one) /
  ``--max-failure-rate``.

No flag picks the detector: every subcommand that runs the model runs
the fast detector with the exact steady-state exit.  The scalar oracles
it is checked against are library options
(``FalseSharingModel(engine="reference", steady_state=False)``).

A warm re-run, or one after editing one kernel of several, is served
from the content-addressed result store: only cells whose nest digest
moved are recomputed — see docs/ENGINE.md.  Structured errors print as
one-line diagnostics with stable exit codes (2 usage, 3 frontend,
4 model/resource, 5 engine); set ``REPRO_LOG=debug`` for the raw
traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.costmodels import TotalCostModel
from repro.frontend import parse_c_source
from repro.ir import analyze_dependences
from repro.machine import paper_machine
from repro.model import FalseSharingModel, FalseSharingPredictor
from repro.resilience import Budget, FailurePolicy, FailureReport, ReproError
from repro.transform import ChunkSizeOptimizer


def positive_int(text: str) -> int:
    """argparse ``type=`` for a count: an integer >= 1.

    Anything else is a usage error (exit 2), as the service rejects a
    count below 1 with ``REPRO-U101``.
    """
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def positive_int_list(text: str) -> tuple[int, ...]:
    """The comma-list form of :func:`positive_int` (``2,4,8``)."""
    return tuple(positive_int(item) for item in text.split(","))


def _add_common(
    p: argparse.ArgumentParser,
    *,
    chunk: bool = True,
    model: bool = True,
    budget: bool = True,
) -> None:
    """Input, machine and observability flags, plus the groups the
    subcommand reads: ``--chunk``, ``--mode`` and the budget."""
    p.add_argument("file", nargs="+", metavar="FILE",
                   help="C source file(s) with OpenMP parallel loops")
    p.add_argument("--threads", "-t", type=positive_int, default=None,
                   help="thread count to analyze (default: the pragma's "
                        "num_threads clause, else 8)")
    if chunk:
        p.add_argument("--chunk", "-c", type=positive_int, default=None,
                       help="override the schedule chunk size")
    p.add_argument("--cores", type=positive_int, default=48,
                   help="machine core count (default 48, the paper's box)")
    if model:
        p.add_argument("--mode", choices=("invalidate", "literal"),
                       default="invalidate", help="FS counting semantics")
    p.add_argument("-D", "--define", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="predefine an integer macro (repeatable)")
    p.add_argument("--profile", metavar="TRACE.json", default=None,
                   help="record spans and write a Chrome trace-event "
                        "JSON (open in Perfetto / chrome://tracing)")
    p.add_argument("--metrics-out", metavar="METRICS.json", default=None,
                   help="write the metrics registry at exit; format by "
                        "extension: .json dump, .csv table, or .prom "
                        "Prometheus text exposition")
    if budget:
        _add_budget_flags(p)


def _add_batch_flags(p: argparse.ArgumentParser) -> None:
    """``--jobs``/``--no-cache`` and the failure policy: the flags of the
    commands that run a batch through the engine."""
    p.add_argument("--jobs", "-j", type=positive_int, default=1, metavar="N",
                   help="worker processes for batch evaluation (default 1 "
                        "= serial; results are identical either way)")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the on-disk result store ($REPRO_CACHE_DIR "
                        "or ~/.cache/repro)")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--keep-going", dest="keep_going", action="store_true",
                   default=True,
                   help="isolate per-file/per-point failures into "
                        "structured reports and finish the batch "
                        "(default)")
    g.add_argument("--fail-fast", dest="keep_going", action="store_false",
                   help="abort on the first failure with its structured "
                        "error code")
    p.add_argument("--max-failure-rate", type=float, default=1.0,
                   metavar="FRACTION",
                   help="circuit breaker: abort a keep-going batch once "
                        "this fraction of points has failed (default 1.0 "
                        "= disabled)")


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="wall-clock budget per analysis; over-deadline "
                        "work degrades (sweep) or aborts with REPRO-R002")
    p.add_argument("--max-iters", type=int, default=None, metavar="N",
                   help="cap on lockstep iterations the exact detector may "
                        "evaluate; sweeps degrade down the "
                        "exact→regression→analytic ladder instead of dying")


def _budget_from(args: argparse.Namespace) -> Budget | None:
    if args.deadline is None and args.max_iters is None:
        return None
    return Budget(deadline_s=args.deadline, max_steps=args.max_iters)


def _policy_from(args: argparse.Namespace) -> FailurePolicy:
    return FailurePolicy(
        keep_going=args.keep_going, max_failure_rate=args.max_failure_rate,
    )


def _print_failures(policy: FailurePolicy) -> None:
    if not policy.failures:
        return
    print(
        f"\n{len(policy.failures)} of {policy.evaluated} evaluations "
        "failed (isolated):",
        file=sys.stderr,
    )
    for failure in policy.failures:
        print(f"  {failure.one_line()}", file=sys.stderr)


def _engine_from(args: argparse.Namespace):
    """Build the :class:`repro.engine.Engine` the ``--jobs/--no-cache``
    flags ask for."""
    from repro.engine import Engine

    return Engine(jobs=args.jobs, use_cache=not args.no_cache)


def _macros(defines: list[str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for d in defines:
        name, _, value = d.partition("=")
        if not value.lstrip("-").isdigit():
            raise SystemExit(f"-D {d!r}: value must be an integer")
        out[name] = int(value)
    return out


def _load_kernels(
    args: argparse.Namespace, policy: FailurePolicy | None = None
):
    """Parse every input file into kernels.

    Without a ``policy`` any frontend failure propagates (strict, the
    single-file commands).  With a keep-going policy, a file that fails
    to parse becomes one isolated :class:`FailureReport` and the other
    files still contribute their kernels — a sweep grid with one
    unparsable kernel produces the rest of the landscape plus a
    structured failure, not a dead run.
    """
    kernels = []
    for path in args.file:
        try:
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            raise SystemExit(f"{path}: {exc.strerror or exc}") from exc
        try:
            kernels.extend(
                parse_c_source(source, extra_macros=_macros(args.define))
            )
        except ReproError as exc:
            if policy is None:
                raise
            policy.record_failure(
                FailureReport.from_exception(
                    exc, label=path, kind="frontend", point={"file": path}
                ),
                cause=exc,
            )
    if not kernels and not (policy is not None and policy.failures):
        names = ", ".join(args.file)
        raise SystemExit(f"{names}: no OpenMP parallel for loops found")
    return kernels


def _threads_for(args: argparse.Namespace, kernel) -> int:
    """CLI flag first, then the pragma's num_threads clause, then 8."""
    if getattr(args, "threads", None):
        return args.threads
    if kernel.pragma.num_threads:
        return kernel.pragma.num_threads
    return 8


def cmd_analyze(args: argparse.Namespace) -> int:
    machine = paper_machine(num_cores=args.cores)
    model = FalseSharingModel(machine, mode=args.mode)
    total_model = TotalCostModel(machine)
    budget = _budget_from(args)
    for k in _load_kernels(args):
        threads = _threads_for(args, k)
        deps = analyze_dependences(k.nest)
        if not deps.parallelizable(k.nest.parallel_var):
            print(f"kernel {k.name}: WARNING — the parallel loop "
                  f"{k.nest.parallel_var!r} carries a data dependence:")
            for d in deps.carried_by(k.nest.parallel_var):
                print(f"  {d}")
        r = model.analyze(k.nest, threads, chunk=args.chunk, budget=budget)
        fs_cycles = r.fs_cycles(machine)
        base = total_model.total_cycles(k.nest, threads, fs_cases=0.0)
        share = 100.0 * fs_cycles / (base + fs_cycles) if fs_cycles else 0.0
        print(f"kernel {k.name} ({k.nest.schedule}, {threads} threads)")
        print(f"  false sharing cases : {r.fs_cases:,} "
              f"({r.fs_read_cases:,} read / {r.fs_write_cases:,} write)")
        print(f"  est. FS time share  : {share:.1f}% of loop execution")
        for victim in r.victim_arrays()[:5]:
            print(f"  victim              : {victim.name} "
                  f"({victim.fs_cases:,} cases on {victim.lines:,} lines)")
        detail = f"engine={r.engine}"
        if r.runs_extrapolated:
            detail += (f", {r.runs_extrapolated:,}/{r.total_chunk_runs:,} "
                       f"chunk runs extrapolated exactly")
        print(f"  evaluated           : {r.steps_evaluated:,} iterations "
              f"in {r.elapsed_seconds:.2f}s ({detail})")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    machine = paper_machine(num_cores=args.cores)
    model = FalseSharingModel(machine, mode=args.mode)
    predictor = FalseSharingPredictor(model, n_runs=args.runs)
    budget = _budget_from(args)
    for k in _load_kernels(args):
        p = predictor.predict(k.nest, _threads_for(args, k), chunk=args.chunk,
                              budget=budget)
        print(f"kernel {k.name}: predicted {p.predicted_fs_cases:,.0f} FS cases "
              f"from {p.sampled_runs}/{p.total_runs} chunk runs "
              f"(fit R^2={p.fit.r2:.4f})")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    machine = paper_machine(num_cores=args.cores)
    optimizer = ChunkSizeOptimizer(machine, predictor_runs=args.runs)
    for k in _load_kernels(args):
        rec = optimizer.recommend(k.nest, _threads_for(args, k))
        print(f"kernel {k.name}: recommended schedule(static,{rec.best_chunk})")
        for s in rec.scores:
            marker = " <-- best" if s.chunk == rec.best_chunk else ""
            print(f"  chunk {s.chunk:4d}: {s.total_cycles:14,.0f} cycles "
                  f"({s.fs_cases:,.0f} FS cases){marker}")
        print(f"  predicted improvement vs chunk=1: "
              f"{rec.improvement_percent(1):.1f}%")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.analysis import ExperimentSuite

    suite = ExperimentSuite(scale=args.scale)
    policy = _policy_from(args)
    results = list(suite.run_all(engine=_engine_from(args), policy=policy))
    for res in results:
        print(res.to_text())
        print()
    if suite.last_reuse.total:
        print(f"reuse: {suite.last_reuse.one_line()}")
    _print_failures(policy)
    return 0 if results else 1


def cmd_doctor(args: argparse.Namespace) -> int:
    from repro.resilience.doctor import run_doctor

    results = run_doctor()
    for check in results:
        print(check.one_line())
    failed = [c for c in results if not c.ok]
    print(f"\n{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.model import diagnose

    machine = paper_machine(num_cores=args.cores)
    model = FalseSharingModel(machine, mode=args.mode)
    for k in _load_kernels(args):
        result = model.analyze(k.nest, _threads_for(args, k), chunk=args.chunk)
        print(diagnose(result).to_text())
        print()
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.sim import record_trace

    machine = paper_machine(num_cores=args.cores)
    for k in _load_kernels(args):
        out = args.output or f"{k.name.replace('.', '_')}.npz"
        meta = record_trace(
            k.nest, _threads_for(args, k), machine, out, chunk=args.chunk,
            max_steps=args.max_steps,
        )
        print(f"kernel {k.name}: wrote {meta.total_accesses:,} accesses "
              f"({meta.num_threads} threads, chunk={meta.chunk}) to {out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.engine.incremental import ReuseReport
    from repro.model import WhatIfSweep

    machine = paper_machine(num_cores=args.cores)
    sweep = WhatIfSweep(machine, use_predictor=not args.exact,
                        predictor_runs=args.runs, mode=args.mode)
    engine = _engine_from(args)
    budget = _budget_from(args)
    policy = _policy_from(args)
    produced = 0
    reuse = ReuseReport()
    for k in _load_kernels(args, policy=policy):
        result = sweep.sweep(k.nest, threads=args.threads_list,
                             chunks=args.chunks_list,
                             engine=engine, budget=budget, policy=policy)
        reuse.merge(result.reuse)
        produced += len(result.points)
        print(f"kernel {k.name}: {len(result.points)} configurations")
        print(f"{'threads':>8} | {'chunk':>6} | {'FS cases':>10} | "
              f"{'FS share':>8} | {'est. cycles':>12}")
        for t, c, cases, share, wall in result.to_rows():
            print(f"{t:>8} | {c:>6} | {cases:>10,} | {share:>7.1f}% | "
                  f"{wall:>12,.0f}")
        for p in result.degraded_points:
            print(f"  degraded: t{p.threads} c{p.chunk} -> {p.fidelity} "
                  f"({p.degradation})")
        if result.points:
            best = result.best()
            print(f"best: {best.threads} threads, "
                  f"schedule(static,{best.chunk})")
    if reuse.total:
        print(f"reuse: {reuse.one_line()}")
    _print_failures(policy)
    # Keep-going semantics: a partial landscape is a successful run.
    # Only a sweep that produced *nothing* is a failure.
    return 0 if produced else 1


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import get_registry, get_tracer, span_summary

    rc = cmd_analyze(args)
    rows = span_summary(get_tracer().events())
    print()
    print(f"{'span':<28} {'count':>7} {'total ms':>10} {'mean us':>10}")
    for row in rows:
        print(f"{row.name:<28} {row.count:>7} {row.total_us / 1000:>10.2f} "
              f"{row.mean_us:>10.1f}")
    snap = get_registry().snapshot()
    interesting = ("fs_cases", "misses", "invalidations", "accesses")
    printed = [
        (key, value)
        for key, value in sorted(snap["counters"].items())
        if key.split("{", 1)[0] in interesting
    ]
    if printed:
        print()
        for key, value in printed:
            print(f"{key} = {value:,.0f}")
    print(f"\ntrace   -> {args.profile}")
    print(f"metrics -> {args.metrics_out}")
    return rc


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServeConfig, serve

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        concurrency=args.concurrency,
        batch_cells=args.batch_cells,
        tenants_file=args.tenants_file,
        store_dir=args.store_dir,
        use_cache=not args.no_cache,
        timeout_s=args.timeout,
        journal_dir=args.journal_dir,
        quarantine_after=args.quarantine_after,
        max_queue_depth=args.max_queue_depth,
    )
    return serve(config)


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.engine import ResultStore

    store = ResultStore(args.dir or None)
    if args.cache_op == "stats":
        print(store.stats().to_text())
    else:
        dropped = store.clear()
        print(f"removed {dropped:,} cache entries from {store.root}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fs",
        description="Compile-time false sharing detection via loop cost modeling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full FS model on a C file")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("predict", help="fast FS prediction (linear regression)")
    _add_common(p)
    p.add_argument("--runs", type=positive_int, default=20,
                   help="chunk runs to sample (default 20)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("optimize", help="recommend a schedule chunk size")
    _add_common(p, chunk=False, model=False, budget=False)
    p.add_argument("--runs", type=positive_int, default=10,
                   help="chunk runs sampled per candidate (default 10)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("experiments", help="regenerate the paper's experiments")
    p.add_argument("--scale", choices=("tiny", "full"), default="tiny")
    _add_batch_flags(p)
    p.set_defaults(func=cmd_experiments)

    p = sub.add_parser(
        "doctor",
        help="self-check the resilience machinery (exit 0 iff all pass)",
    )
    p.set_defaults(func=cmd_doctor)

    p = sub.add_parser(
        "cache", help="inspect or clear the engine's on-disk result store"
    )
    p.add_argument("cache_op", choices=("stats", "clear"),
                   help="stats: entry counts/sizes; clear: drop every entry")
    p.add_argument("--dir", default=None,
                   help="cache root (default $REPRO_CACHE_DIR or "
                        "~/.cache/repro)")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "diagnose", help="full FS diagnosis: victims, hot lines, thread pairs"
    )
    _add_common(p, budget=False)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("trace", help="record the memory trace to a .npz file")
    _add_common(p, model=False, budget=False)
    p.add_argument("--output", "-o", default=None, help="trace file path")
    p.add_argument("--max-steps", type=positive_int, default=None,
                   help="truncate the trace after N lockstep steps")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "sweep", help="what-if landscape over (threads x chunk)"
    )
    # --threads and --chunk stay although sweep reads the -list forms:
    # without them argparse would take them as abbreviations of those.
    _add_common(p)
    _add_batch_flags(p)
    p.add_argument("--runs", type=positive_int, default=8,
                   help="chunk runs sampled per configuration (default 8)")
    p.add_argument("--threads-list", type=positive_int_list, default="2,4,8",
                   help="comma-separated thread counts (default 2,4,8)")
    p.add_argument("--chunks-list", type=positive_int_list,
                   default="1,2,4,8,16",
                   help="comma-separated chunk sizes (default 1,2,4,8,16)")
    p.add_argument("--exact", action="store_true",
                   help="request the full exact model per point instead of "
                        "the regression predictor (degrades down the "
                        "ladder under --max-iters/--deadline)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "profile",
        help="run the analysis under the tracer; write trace + metrics",
    )
    _add_common(p)
    p.set_defaults(func=cmd_profile, _force_profile=True)

    p = sub.add_parser(
        "serve",
        help="run the analysis service daemon (HTTP/JSON API, "
             "/metrics, SIGTERM drain)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8377,
                   help="TCP port; 0 picks an ephemeral one (default 8377)")
    p.add_argument("--workers", type=int, default=2,
                   help="engine worker processes for sweep cells "
                        "(default 2)")
    p.add_argument("--concurrency", type=int, default=2,
                   help="jobs progressing concurrently (default 2)")
    p.add_argument("--batch-cells", type=int, default=16,
                   help="cells submitted to the engine per batch; also "
                        "the cancellation granularity (default 16)")
    p.add_argument("--tenants-file", default=None,
                   help="tenants JSON (API keys + quotas); omit for a "
                        "single key-less public tenant")
    p.add_argument("--store-dir", default=None,
                   help="result-store root (default $REPRO_CACHE_DIR "
                        "or ~/.cache/repro)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result store (every cell recomputes)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-cell wall-clock timeout in the engine pool")
    p.add_argument("--journal-dir", default=None,
                   help="write-ahead journal directory (default "
                        "$REPRO_CACHE_DIR/journal or "
                        "~/.cache/repro/journal): admissions, result rows "
                        "and terminal states are fsync'd before "
                        "publication and the next boot resumes mid-sweep "
                        "— survives SIGKILL; one daemon per directory")
    p.add_argument("--quarantine-after", type=int, default=3,
                   metavar="N",
                   help="quarantine a job (REPRO-E105) after it crashes "
                        "worker processes N times; 0 disables "
                        "(default 3)")
    p.add_argument("--max-queue-depth", type=int, default=0, metavar="N",
                   help="shed new submissions with 503 + Retry-After "
                        "(REPRO-E106) while N or more jobs are queued; "
                        "0 = unbounded (default)")
    p.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.obs import ObsConfig, session

    args = build_parser().parse_args(argv)
    if getattr(args, "_force_profile", False):
        args.profile = args.profile or "trace.json"
        args.metrics_out = args.metrics_out or "metrics.json"
    config = ObsConfig.from_env().with_cli(
        trace_path=getattr(args, "profile", None),
        metrics_path=getattr(args, "metrics_out", None),
    )
    try:
        with session(config, reset_metrics=config.any_enabled):
            return args.func(args)
    except ReproError as exc:
        # Structured errors become one-line diagnostics with a stable
        # exit code (docs/RESILIENCE.md); the raw traceback is only for
        # REPRO_LOG=debug sessions.
        if os.environ.get("REPRO_LOG", "").strip().lower() == "debug":
            raise
        print(exc.one_line(), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
