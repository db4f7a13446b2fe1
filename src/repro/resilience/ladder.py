"""The graceful-degradation ladder: exact → regression → analytic.

When a :class:`~repro.resilience.budget.Budget` rules out the requested
analysis, the right answer inside a compiler pass is not "crash" and
not "silently skip" — it is *the best answer the budget affords, tagged
with how it was obtained*.  The ladder formalizes the three fidelity
levels the paper's machinery supports:

``exact``
    the full lockstep detector over every iteration
    (:meth:`~repro.model.fsmodel.FalseSharingModel.analyze`);
``regression``
    the Section III-E prediction — evaluate a short chunk-run prefix,
    fit ``y = a·x + b``, extrapolate to ``x_max``
    (:class:`~repro.model.regression.FalseSharingPredictor`), with the
    prefix length shrunk to whatever the steps budget allows;
``analytic``
    a closed-form upper bound requiring *no* iteration walk: every
    modeled access can collide with at most ``num_threads − 1`` other
    threads' cached copies, so ``fs_cases ≤ accesses × (T − 1)``.
    Wildly pessimistic, but computable from trip counts alone and
    therefore always within budget.

:func:`analyze_with_ladder` tries levels from the requested one down,
returns a :class:`LadderOutcome` tagging the achieved ``fidelity`` and
the ``degradation`` reason (the budget guard that forced the drop), and
bumps ``resilience_fallbacks_total{level=...}`` so degraded sweeps are
visible in the metrics dump, not just in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.obs import get_registry, span
from repro.resilience.budget import Budget, CostEstimate, estimate_cost
from repro.resilience.errors import BudgetExceededError
from repro.util import get_logger

__all__ = [
    "FIDELITY_LEVELS",
    "LadderOutcome",
    "analyze_with_ladder",
    "fidelity_tier",
]

logger = get_logger(__name__)

#: Fidelity levels in decreasing order of faithfulness.  The exact tier
#: has two spellings: ``"exact"`` (every chunk run simulated) and
#: ``"exact-steady-state"`` (a detected periodic steady state let the
#: model extrapolate the remaining runs *without* approximation — the
#: counters are still bit-identical to the full simulation).  Both map
#: to the ``"exact"`` rung; use :func:`fidelity_tier` to normalize.
FIDELITY_LEVELS = ("exact", "regression", "analytic")

#: Fidelity tags that belong to the exact tier.
EXACT_FIDELITIES = ("exact", "exact-steady-state")


def fidelity_tier(fidelity: str) -> str:
    """Map a result fidelity tag onto its ladder rung.

    ``"exact-steady-state"`` is an *exact* result (the steady-state
    early exit is a lossless extrapolation), so it normalizes to
    ``"exact"``; every other tag maps to itself.
    """
    return "exact" if fidelity in EXACT_FIDELITIES else fidelity


@dataclass(frozen=True)
class LadderOutcome:
    """Result of one budgeted analysis, tagged with how it was obtained.

    ``fs_cases`` is exact (``fidelity="exact"``), extrapolated
    (``"regression"``) or an upper bound (``"analytic"``).
    ``fs_read_fraction`` / ``fs_write_fraction`` carry the observed
    read/write split (the analytic level assumes all-write: invalidation
    cost is the conservative choice).  ``degradation`` is ``None`` when
    the requested level ran, else a human-readable reason naming the
    guard that forced the drop.
    """

    nest_name: str
    num_threads: int
    chunk: int
    fidelity: str
    requested: str
    fs_cases: float
    fs_read_fraction: float
    fs_write_fraction: float
    degradation: str | None = None
    #: Level-specific detail object: FSModelResult for "exact",
    #: FSPrediction for "regression", CostEstimate for "analytic";
    #: ``None`` when the model proved the analysis free of FS and
    #: skipped the walk (``FalseSharingModel.fs_proof``).
    detail: object | None = None

    @property
    def degraded(self) -> bool:
        return self.degradation is not None

    def fs_cycles(self, machine) -> float:
        """``FalseSharing_c`` under this outcome's read/write split."""
        return self.fs_cases * (
            self.fs_read_fraction * machine.fs_read_penalty_cycles
            + self.fs_write_fraction * machine.fs_write_penalty_cycles
        )


def _record_fallback(level: str, reason: str, kernel: str) -> None:
    get_registry().counter(
        "resilience_fallbacks_total",
        "analyses degraded to a cheaper fidelity level by a budget guard",
    ).labels(level=level).inc()
    logger.info(
        "falling back to %s for %s: %s", level, kernel, reason
    )


def _split(fs_cases: int, read_cases: int, write_cases: int) -> tuple[float, float]:
    total = max(fs_cases, 1)
    return read_cases / total, write_cases / total


def _chunk_of(nest, num_threads) -> int:
    """The chunk an analysis of ``nest`` runs with."""
    from repro.model.schedule import effective_chunk

    return effective_chunk(nest, num_threads)


def _fs_free(nest, num_threads, fidelity) -> LadderOutcome:
    """The outcome of an analysis the model proved free of FS: what the
    walk would report, 0 cases (see ``FalseSharingModel.fs_proof``)."""
    read_f, write_f = _split(0, 0, 0)
    return LadderOutcome(
        nest_name=nest.name,
        num_threads=num_threads,
        chunk=_chunk_of(nest, num_threads),
        fidelity=fidelity,
        requested=fidelity,
        fs_cases=0.0,
        fs_read_fraction=read_f,
        fs_write_fraction=write_f,
    )


def _try_exact(model, nest, num_threads, budget, proofs) -> LadderOutcome:
    proofs.append(model.fs_proof(nest, num_threads, budget=budget))
    if proofs[-1] == "disjoint":
        return _fs_free(nest, num_threads, "exact")
    result = model.analyze(nest, num_threads, budget=budget)
    read_f, write_f = _split(
        result.fs_cases, result.fs_read_cases, result.fs_write_cases
    )
    return LadderOutcome(
        nest_name=result.nest_name,
        num_threads=num_threads,
        chunk=result.chunk,
        # Pass the model's own tag through: "exact-steady-state" when the
        # periodic early exit fired (still bit-identical counters), plain
        # "exact" otherwise.  Ladder consumers compare tiers via
        # fidelity_tier(), so both count as the exact rung.
        fidelity=getattr(result, "fidelity", "exact"),
        requested="exact",
        fs_cases=float(result.fs_cases),
        fs_read_fraction=read_f,
        fs_write_fraction=write_f,
        detail=result,
    )


def _fit_runs(estimate: CostEstimate, budget: Budget | None, requested: int) -> int:
    """Largest prefix (in chunk runs) the steps budget allows, capped at
    ``requested``; 0 when not even one run fits."""
    runs = min(requested, max(estimate.total_chunk_runs, 1))
    if budget is None or budget.max_steps is None:
        return runs
    per_run = max(estimate.steps_per_chunk_run, 1)
    affordable = budget.max_steps // per_run
    return min(runs, affordable)


def _try_regression(
    model, nest, num_threads, budget, predictor_runs, method, proofs
) -> tuple[LadderOutcome | None, str | None]:
    """Attempt the regression level; (outcome, None) on success,
    (None, reason) when it cannot fit the budget.

    A prefix proved free of FS samples an all-zero series, whose fit
    predicts exactly 0.0 under either fitting rule, so the walk and the
    fit are skipped."""
    from repro.model.regression import FalseSharingPredictor

    estimate = estimate_cost(nest, num_threads, model.machine)
    runs = _fit_runs(estimate, budget, predictor_runs)
    if runs <= 0:
        return None, (
            f"not even one chunk run ({estimate.steps_per_chunk_run:,} "
            f"steps) fits the steps budget"
        )
    if budget is not None and not budget.allows_state(estimate.state_bytes):
        return None, (
            f"estimated cache-state memory ({estimate.state_bytes:,} B) "
            "exceeds the budget"
        )
    predictor = FalseSharingPredictor(model, n_runs=runs, method=method)
    try:
        proofs.append(
            model.fs_proof(
                nest, num_threads, max_chunk_runs=runs, budget=budget
            )
        )
        if proofs[-1] == "disjoint":
            return _fs_free(nest, num_threads, "regression"), None
        pred = predictor.predict(nest, num_threads, budget=budget)
    except BudgetExceededError as exc:
        return None, exc.message
    prefix = pred.prefix_result
    read_f, write_f = _split(
        prefix.fs_cases, prefix.fs_read_cases, prefix.fs_write_cases
    )
    return (
        LadderOutcome(
            nest_name=pred.nest_name,
            num_threads=num_threads,
            chunk=pred.chunk,
            fidelity="regression",
            requested="regression",
            fs_cases=pred.predicted_fs_cases,
            fs_read_fraction=read_f,
            fs_write_fraction=write_f,
            detail=pred,
        ),
        None,
    )


def _analytic_bound(machine, nest, num_threads) -> LadderOutcome:
    """The always-affordable level: ``fs_cases ≤ accesses × (T − 1)``.

    Each modeled access touches one cache line; in the detector's
    1-to-All comparison that line can at worst be resident in every
    other thread's cache state, contributing ``T − 1`` FS cases.  The
    bound is computed from trip-count arithmetic only — no iteration is
    ever enumerated, so it cannot exceed any budget.
    """
    estimate = estimate_cost(nest, num_threads, machine)
    return LadderOutcome(
        nest_name=nest.name,
        num_threads=num_threads,
        chunk=_chunk_of(nest, num_threads),
        fidelity="analytic",
        requested="analytic",
        fs_cases=float(estimate.accesses * max(num_threads - 1, 0)),
        # Upper bound: price every case as a write (invalidation), the
        # conservative end of the detector's cost split.
        fs_read_fraction=0.0,
        fs_write_fraction=1.0,
        detail=estimate,
    )


def analyze_with_ladder(
    machine,
    nest,
    num_threads: int,
    chunk: int | None = None,
    budget: Budget | None = None,
    prefer: str = "exact",
    predictor_runs: int = 8,
    mode: str = "invalidate",
    method: str = "paper",
    model=None,
) -> LadderOutcome:
    """Run the best analysis the budget affords, never raising for
    budget reasons.

    Parameters
    ----------
    prefer:
        The requested fidelity: ``"exact"`` or ``"regression"``
        (requesting ``"analytic"`` directly is allowed but unusual).
    model:
        Optional pre-built :class:`~repro.model.fsmodel.FalseSharingModel`
        (reused across a sweep); built from ``machine``/``mode`` when
        omitted.

    Frontend/model errors (:class:`~repro.resilience.errors.ModelError`
    etc.) still propagate — the ladder degrades on *resource* pressure,
    not on wrong inputs.

    Each model rung first asks ``model.fs_proof`` whether its walk can
    be skipped, after that rung's budget decisions (the estimate check,
    the affordable prefix, the state guard), so a point degrades exactly
    as it would with the walk.  A proved rung returns 0 FS cases at the
    fidelity the walk would report.  The span's ``fs_proof`` attribute
    records the last answer: ``disjoint`` (walk skipped), ``overlap``,
    ``oracle`` (the reference engine always walks) or ``steady-state``
    (the steady-state runner would run).
    """
    if prefer not in FIDELITY_LEVELS:
        raise ValueError(f"unknown fidelity level {prefer!r}")
    if model is None:
        from repro.model.fsmodel import FalseSharingModel

        model = FalseSharingModel(machine, mode=mode)
    if chunk is not None:
        # Every rung analyzes this one nest object, so the walk reuses
        # the generator the proof built for it.
        nest = nest.with_chunk(chunk)

    requested = prefer
    degradation: str | None = None
    #: the model's answer on skipping the walk, per rung that asked
    proofs: list[str] = []
    with span(
        "resilience.ladder", kernel=nest.name, threads=num_threads,
        prefer=prefer,
    ) as sp:
        if prefer == "exact":
            try:
                outcome = _try_exact(model, nest, num_threads, budget, proofs)
                sp.set(fidelity=outcome.fidelity, fs_proof=proofs[-1])
                return outcome
            except BudgetExceededError as exc:
                degradation = f"exact analysis over budget: {exc.message}"
                _record_fallback("regression", degradation, nest.name)

        if prefer in ("exact", "regression"):
            outcome, reason = _try_regression(
                model, nest, num_threads, budget, predictor_runs, method,
                proofs,
            )
            if proofs:
                sp.set(fs_proof=proofs[-1])
            if outcome is not None:
                sp.set(fidelity="regression")
                if requested == "regression":
                    return outcome
                return replace(
                    outcome, requested=requested, degradation=degradation
                )
            next_reason = f"regression prefix over budget: {reason}"
            degradation = (
                f"{degradation}; {next_reason}" if degradation else next_reason
            )
            _record_fallback("analytic", next_reason, nest.name)

        outcome = _analytic_bound(machine, nest, num_threads)
        sp.set(fidelity="analytic")
        if requested == "analytic":
            return outcome
        return replace(outcome, requested=requested, degradation=degradation)
