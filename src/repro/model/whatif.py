"""What-if sweeps: the FS landscape over (threads × chunk) space.

The paper closes with the model's intended use: helping "programmers
and compilers to choose the optimal chunk size for OpenMP loops and the
optimal number of threads to execute the loop."  This module sweeps
both knobs at once and returns the full landscape — FS cases, FS cycle
share and estimated wall time per configuration — ready for a table,
a CSV export or an ``argmin``.

The sweep uses the linear-regression predictor by default, making a
48-configuration landscape a sub-second operation.  Every grid point is
an independent, content-addressed :mod:`repro.engine` job, and
:meth:`WhatIfSweep.sweep` always evaluates the landscape through
``Engine.run``: ``sweep(nest, engine=Engine(jobs=4))`` fans out across
worker processes and serves a re-run from the on-disk result store,
while ``sweep(nest)`` runs the same jobs inline, uncached.  Every width
produces *identical* :class:`SweepPoint` values — the point evaluation
is deterministic (:func:`evaluate_point`), and results survive the JSON
cache round-trip exactly (floats round-trip losslessly through JSON).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.costmodels import TotalCostModel
from repro.engine import (
    Engine,
    Job,
    JobOutcome,
    ReuseReport,
    nest_digest,
    reuse_from_outcomes,
)
from repro.ir.loops import ParallelLoopNest
from repro.machine import MachineConfig
from repro.model.fastdetect import ENGINES
from repro.model.fsmodel import FalseSharingModel
from repro.resilience.budget import Budget
from repro.resilience.errors import ModelError
from repro.resilience.ladder import analyze_with_ladder
from repro.resilience.partial import FailurePolicy, FailureReport
from repro.obs import get_registry
from repro.util import get_logger

logger = get_logger(__name__)


def _account_fallbacks(
    engine: Engine, outcomes: Sequence[JobOutcome]
) -> None:
    """Count degraded points whose ladder ran outside this process.

    The degradation ladder bumps ``resilience_fallbacks_total`` where it
    runs.  A point computed inline (``engine.jobs <= 1``) has already
    been counted; a point computed in a worker process, whose registry
    never reaches this one, or served from the store has not.  Counting
    those here keeps ``resilience_fallbacks_total{level=...}`` visible
    in the sweep's own metrics dump, once per degraded point.
    """
    counter = None
    for outcome in outcomes:
        if not outcome.ok or outcome.result.get("degradation") is None:
            continue
        if engine.jobs <= 1 and not outcome.from_cache:
            continue
        if counter is None:
            counter = get_registry().counter(
                "resilience_fallbacks_total",
                "analyses degraded to a cheaper fidelity level by a "
                "budget guard",
            )
        counter.labels(level=outcome.result["fidelity"]).inc()


@dataclass(frozen=True)
class SweepPoint:
    """One (threads, chunk) configuration's predicted behaviour."""

    threads: int
    chunk: int
    fs_cases: float
    fs_cycles: float
    wall_cycles: float
    #: Fidelity level that produced this point ("exact", "regression"
    #: or "analytic") and the degradation reason when a budget forced a
    #: drop below the requested level (see repro.resilience.ladder).
    fidelity: str = "regression"
    degradation: str | None = None

    @property
    def fs_share(self) -> float:
        """FS cycles as a fraction of the configuration's wall time."""
        return self.fs_cycles / self.wall_cycles if self.wall_cycles else 0.0

    @property
    def degraded(self) -> bool:
        return self.degradation is not None

    def to_dict(self) -> dict:
        """JSON-able form (the engine's cached job result)."""
        doc = {
            "threads": self.threads,
            "chunk": self.chunk,
            "fs_cases": self.fs_cases,
            "fs_cycles": self.fs_cycles,
            "wall_cycles": self.wall_cycles,
            "fidelity": self.fidelity,
        }
        if self.degradation is not None:
            doc["degradation"] = self.degradation
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "SweepPoint":
        return SweepPoint(
            threads=int(doc["threads"]),
            chunk=int(doc["chunk"]),
            fs_cases=float(doc["fs_cases"]),
            fs_cycles=float(doc["fs_cycles"]),
            wall_cycles=float(doc["wall_cycles"]),
            fidelity=str(doc.get("fidelity", "regression")),
            degradation=doc.get("degradation"),
        )


@dataclass(frozen=True)
class SweepResult:
    """The full landscape plus convenience queries.

    ``failures`` holds one
    :class:`~repro.resilience.partial.FailureReport` per isolated
    grid-point failure when the sweep ran under a keep-going
    :class:`~repro.resilience.partial.FailurePolicy`; it is empty for
    strict sweeps, which raise instead.

    ``reuse`` classifies every cell by provenance (result store,
    in-batch dedupe, fresh compute); an uncached sweep reports every
    cell as computed.  It feeds the ``reuse`` block of sweep summaries.
    """

    nest_name: str
    points: tuple[SweepPoint, ...]
    failures: tuple[FailureReport, ...] = ()
    #: Provenance, not identity: a cache-served landscape equals its
    #: freshly computed twin, so reuse stays out of ==.
    reuse: ReuseReport = field(default_factory=ReuseReport, compare=False)

    @property
    def degraded_points(self) -> tuple[SweepPoint, ...]:
        return tuple(p for p in self.points if p.degraded)

    def best(self) -> SweepPoint:
        """The configuration with the smallest estimated wall time."""
        return min(self.points, key=lambda p: p.wall_cycles)

    def best_chunk_for(self, threads: int) -> SweepPoint:
        candidates = [p for p in self.points if p.threads == threads]
        if not candidates:
            raise ModelError(f"no sweep points for {threads} threads")
        return min(candidates, key=lambda p: p.wall_cycles)

    def grid(self) -> dict[tuple[int, int], SweepPoint]:
        return {(p.threads, p.chunk): p for p in self.points}

    def to_rows(self) -> list[tuple]:
        """Rows for reporting/CSV: (threads, chunk, fs_cases, fs_share %, ms-ish)."""
        return [
            (
                p.threads,
                p.chunk,
                int(p.fs_cases),
                round(100.0 * p.fs_share, 1),
                p.wall_cycles,
            )
            for p in self.points
        ]


def evaluate_point(
    machine: MachineConfig,
    nest: ParallelLoopNest,
    threads: int,
    chunk: int,
    use_predictor: bool = True,
    predictor_runs: int = 8,
    mode: str = "invalidate",
    budget: Budget | None = None,
    detector_engine: str = "fast",
    steady_state: bool = True,
) -> SweepPoint:
    """Evaluate one (threads, chunk) configuration.

    This is the single source of truth for a sweep point — the engine
    runner (:func:`run_point_job`), inline or in a worker process, and
    any external caller all go through it, which is what makes
    ``--jobs N`` output bit-identical to ``--jobs 1``.  The computation
    is deterministic: the predictor samples a fixed prefix of chunk
    runs, not a random subset.

    ``detector_engine`` and ``steady_state`` select the detector
    implementation (see :class:`FalseSharingModel`).  Both knobs are
    *result-invariant* — every engine produces bit-identical counters —
    so they deliberately do **not** participate in the engine cache key
    (:meth:`WhatIfSweep.point_jobs` puts them in the job payload, not
    the spec): a sweep cached under one engine is valid for all.

    With a ``budget``, the evaluation goes through the degradation
    ladder (:func:`repro.resilience.ladder.analyze_with_ladder`): an
    over-budget exact analysis falls back to the regression prediction,
    and an over-budget prediction to the analytic upper bound.  The
    achieved level and the reason are recorded on the returned
    :class:`SweepPoint` (``fidelity`` / ``degradation``).
    """
    model = FalseSharingModel(
        machine, mode=mode, engine=detector_engine, steady_state=steady_state,
    )
    total_model = TotalCostModel(machine)
    candidate = nest.with_chunk(chunk)
    prefer = "exact" if not use_predictor else "regression"
    outcome = analyze_with_ladder(
        machine,
        candidate,
        threads,
        budget=budget,
        prefer=prefer,
        predictor_runs=predictor_runs,
        mode=mode,
        model=model,
    )
    fs_cases = outcome.fs_cases
    fs_cycles = outcome.fs_cycles(machine)
    breakdown = total_model.breakdown(
        candidate, num_threads=threads, fs_cases=0.0
    )
    work = (
        breakdown.machine + breakdown.cache + breakdown.tlb
        + breakdown.loop_overhead
    ) / threads
    wall = work + breakdown.parallel_overhead + fs_cycles
    return SweepPoint(
        threads=threads, chunk=chunk,
        fs_cases=fs_cases, fs_cycles=fs_cycles, wall_cycles=wall,
        fidelity=outcome.fidelity, degradation=outcome.degradation,
    )


def run_point_job(job) -> dict:
    """Engine runner for ``whatif.point`` jobs (executes in a worker).

    The spec carries the hashed identity (kernel digest, machine key
    dict, knobs); the payload carries the live ``MachineConfig`` and
    ``ParallelLoopNest`` objects the evaluation needs.
    """
    machine: MachineConfig = job.payload["machine"]
    nest: ParallelLoopNest = job.payload["nest"]
    point = evaluate_point(
        machine,
        nest,
        int(job.spec["threads"]),
        int(job.spec["chunk"]),
        use_predictor=bool(job.spec["use_predictor"]),
        predictor_runs=int(job.spec["predictor_runs"]),
        mode=str(job.spec["mode"]),
        budget=Budget.from_key_dict(job.spec.get("budget")),
        # Engine knobs ride in the payload (not the hashed spec):
        # results are engine-invariant, so cache keys must not fork on
        # them — a landscape computed with the fast path serves a
        # reference-engine re-run and vice versa.
        detector_engine=str(job.payload.get("detector_engine", "fast")),
        steady_state=bool(job.payload.get("steady_state", True)),
    )
    return point.to_dict()


class WhatIfSweep:
    """Sweep (threads × chunks) with the compile-time model.

    Parameters
    ----------
    machine:
        Target machine description.
    use_predictor:
        Use the LR predictor (default) or the full model per point.
    predictor_runs:
        Chunk runs sampled per point in predictor mode.
    detector_engine:
        Detector engine per point: ``"fast"`` (default) or
        ``"reference"``.  Result-invariant, so it never enters the
        engine cache key.
    steady_state:
        Enable the exact steady-state early exit (default ``True``).
    """

    def __init__(
        self,
        machine: MachineConfig,
        use_predictor: bool = True,
        predictor_runs: int = 8,
        mode: str = "invalidate",
        detector_engine: str = "fast",
        steady_state: bool = True,
    ) -> None:
        if detector_engine not in ENGINES:
            raise ModelError(
                f"unknown detector engine {detector_engine!r}; "
                f"use one of {ENGINES}"
            )
        self.machine = machine
        self.use_predictor = use_predictor
        self.predictor_runs = predictor_runs
        self.mode = mode
        self.detector_engine = detector_engine
        self.steady_state = steady_state

    def feasible_grid(
        self,
        nest: ParallelLoopNest,
        threads: Sequence[int] = (2, 4, 8, 16, 24, 32, 48),
        chunks: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    ) -> list[tuple[int, int]]:
        """The feasible (threads, chunk) grid, in sweep order.

        Public admission-control hook: the analysis service sizes and
        cost-estimates a submitted sweep from this grid *before*
        queueing it, without building any engine jobs.
        """
        trip = nest.trip_counts()[nest.parallel_depth()]
        grid = [
            (t, c) for t in threads for c in chunks if c * t <= trip
        ]
        if not grid:
            raise ModelError(
                f"no feasible (threads, chunk) points for trip count {trip}"
            )
        return grid

    def point_jobs(
        self,
        nest: ParallelLoopNest,
        threads: Sequence[int] = (2, 4, 8, 16, 24, 32, 48),
        chunks: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
        budget: Budget | None = None,
    ) -> list[Job]:
        """One engine job per feasible grid point, in sweep order.

        A non-empty budget joins the job spec (and therefore the cache
        key): a budgeted, possibly degraded point must never alias the
        cache entry of an unbudgeted exact one.
        """
        digest = nest_digest(nest)
        machine_key = self.machine.to_key_dict()
        # detector_engine / steady_state stay OUT of the spec (and
        # therefore out of the cache key): both engines are
        # result-identical, so forking the key on them would only
        # defeat the result store.
        payload = {
            "machine": self.machine,
            "nest": nest,
            "detector_engine": self.detector_engine,
            "steady_state": self.steady_state,
        }
        budget_key = budget.to_key_dict() if budget is not None else {}
        jobs = []
        for t, c in self.feasible_grid(nest, threads, chunks):
            spec = {
                "kernel_sha256": digest,
                "machine": machine_key,
                "threads": t,
                "chunk": c,
                "use_predictor": self.use_predictor,
                "predictor_runs": self.predictor_runs,
                "mode": self.mode,
            }
            if budget_key:
                spec["budget"] = budget_key
            jobs.append(
                Job(
                    kind="whatif.point",
                    spec=spec,
                    payload=payload,
                    label=f"whatif:{nest.name}:t{t}c{c}",
                )
            )
        return jobs

    def sweep(
        self,
        nest: ParallelLoopNest,
        threads: Sequence[int] = (2, 4, 8, 16, 24, 32, 48),
        chunks: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
        engine: Engine | None = None,
        budget: Budget | None = None,
        policy: FailurePolicy | None = None,
    ) -> SweepResult:
        """Evaluate the landscape; infeasible (chunk·T > trip) points
        are skipped.

        Every point is a content-addressed job, evaluated by one
        ``engine.run``: points run across the engine's worker pool and
        repeat sweeps are served from its result store.  Without an
        ``engine`` the jobs run inline, uncached
        (``Engine(jobs=1, use_cache=False)``); point values are the same
        at every width.

        Failure semantics: without a ``policy`` any point failure raises
        the engine's :class:`~repro.resilience.errors.EngineError`
        carrying the point's error code (strict).  With a keep-going
        :class:`~repro.resilience.partial.FailurePolicy`, failed points
        are isolated into ``SweepResult.failures`` while the rest of the
        grid completes — unless the policy's failure-rate circuit
        breaker trips first (``REPRO-E201``).  A ``budget`` flows into
        every point evaluation (degradation ladder; see
        :func:`evaluate_point`).
        """
        if engine is None:
            engine = Engine(jobs=1, use_cache=False)
        outcomes = engine.run(
            self.point_jobs(nest, threads, chunks, budget=budget)
        )
        points: list[SweepPoint] = []
        for outcome in outcomes:
            if outcome.ok:
                points.append(SweepPoint.from_dict(outcome.result))
                if policy is not None:
                    policy.record_success()
            elif policy is None:
                outcome.unwrap()
            else:
                policy.record_failure(
                    FailureReport.from_outcome(
                        outcome,
                        kind="sweep.point",
                        point={
                            "threads": outcome.job.spec.get("threads"),
                            "chunk": outcome.job.spec.get("chunk"),
                        },
                    )
                )
        _account_fallbacks(engine, outcomes)
        failures = tuple(policy.failures) if policy is not None else ()
        logger.debug(
            "what-if sweep on %s: %d points (%d failures, jobs=%d)",
            nest.name, len(points), len(failures), engine.jobs,
        )
        return SweepResult(
            nest_name=nest.name,
            points=tuple(points),
            failures=failures,
            reuse=reuse_from_outcomes(outcomes),
        )
