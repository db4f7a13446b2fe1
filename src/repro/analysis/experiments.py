"""Experiment drivers: one function per table/figure of the paper.

Every driver returns an :class:`~repro.analysis.report.ExperimentResult`
whose rows mirror the paper's columns; ``repro.analysis.runner`` strings
them into EXPERIMENTS.md, and the tests check the paper's claims on them
at reduced scale.

Scales
------
``full``
    Default kernel sizes, the paper's thread sweep 2..48.  This is what
    EXPERIMENTS.md records.
``tiny``
    Miniature kernels and threads (2, 4, 8) for tests and quick looks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.analysis.report import ExperimentResult
from repro.analysis.supplementary import SupplementaryMixin
from repro.costmodels import TotalCostModel
from repro.engine import Engine, Job, ReuseReport, reuse_from_outcomes
from repro.kernels import KernelInstance, dft, heat_diffusion, linear_regression
from repro.machine import MachineConfig, paper_machine
from repro.model import (
    FalseSharingModel,
    FalseSharingPredictor,
    fs_overhead_percent,
    measured_fs_percent,
    ols_fit,
    predicted_fs_percent,
)
from repro.resilience.partial import FailurePolicy, FailureReport
from repro.sim import MulticoreSimulator

#: The paper's thread sweep (Section IV-B: 2 to 48 cores).
PAPER_THREADS: tuple[int, ...] = (2, 4, 8, 16, 24, 32, 40, 48)
TINY_THREADS: tuple[int, ...] = (2, 4, 8)


@dataclass(frozen=True)
class Scale:
    """Kernel factories and thread sweep for one experiment scale."""

    name: str
    threads: tuple[int, ...]
    heat: Callable[[], KernelInstance]
    dft: Callable[[], KernelInstance]
    linreg: Callable[[int], KernelInstance]
    fig2_chunks: tuple[int, ...]
    fig2_threads: int
    fig6_runs: int


FULL_SCALE = Scale(
    name="full",
    threads=PAPER_THREADS,
    heat=lambda: heat_diffusion(),
    dft=lambda: dft(),
    linreg=lambda T: linear_regression(T),
    fig2_chunks=(1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 25, 30),
    fig2_threads=8,
    fig6_runs=40,
)

TINY_SCALE = Scale(
    name="tiny",
    threads=TINY_THREADS,
    heat=lambda: heat_diffusion(rows=6, cols=1026),
    dft=lambda: dft(samples=4, freqs=768),
    linreg=lambda T: linear_regression(T, tasks=96, total_points=480),
    fig2_chunks=(1, 2, 4, 8),
    fig2_threads=4,
    fig6_runs=12,
)

SCALES = {"full": FULL_SCALE, "tiny": TINY_SCALE}


class ExperimentSuite(SupplementaryMixin):
    """Shared machinery for running the paper's experiments.

    Parameters
    ----------
    machine:
        Machine description; defaults to the paper's 48-core preset.
    scale:
        ``"full"`` or ``"tiny"`` (see module docstring).
    """

    def __init__(
        self,
        machine: MachineConfig | None = None,
        scale: str = "full",
    ) -> None:
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; use one of {set(SCALES)}")
        self.machine = machine or paper_machine()
        self.scale = SCALES[scale]
        self.model = FalseSharingModel(self.machine)
        self.sim = MulticoreSimulator(self.machine)
        self.total_model = TotalCostModel(self.machine)
        # Refreshed by run_all(): provenance of the last suite run
        # (computed vs served-from-cache per driver).
        self.last_reuse = ReuseReport()

    # -- Tables I-III: measured vs modeled FS overhead -------------------------

    def _overhead_table(
        self,
        experiment: str,
        title: str,
        factory: Callable[[int], KernelInstance],
    ) -> ExperimentResult:
        result = ExperimentResult(
            experiment=experiment,
            title=title,
            columns=(
                "threads",
                "T_fs (ms)",
                "T_nfs (ms)",
                "measured FS %",
                "modeled FS %",
            ),
        )
        t0 = time.perf_counter()
        for T in self.scale.threads:
            k = factory(T)
            s_fs = self.sim.run(k.nest, T, chunk=k.fs_chunk)
            s_nfs = self.sim.run(k.nest, T, chunk=k.nfs_chunk)
            measured = measured_fs_percent(s_fs.cycles, s_nfs.cycles)
            r_fs = self.model.analyze(k.nest, T, chunk=k.fs_chunk)
            r_nfs = self.model.analyze(k.nest, T, chunk=k.nfs_chunk)
            report = fs_overhead_percent(
                r_fs, r_nfs, self.machine, k.reference_nest, self.total_model
            )
            result.add_row(
                T,
                s_fs.seconds * 1e3,
                s_nfs.seconds * 1e3,
                round(measured, 1),
                round(report.percent, 1),
            )
        k0 = factory(self.scale.threads[0])
        result.notes.append(
            f"kernel params: {dict(k0.params)}; FS chunk={k0.fs_chunk}, "
            f"non-FS chunk={k0.nfs_chunk}; times are simulated wall-clock"
        )
        result.elapsed_seconds = time.perf_counter() - t0
        return result

    def run_table1(self) -> ExperimentResult:
        """Table I: heat diffusion, measured vs modeled FS overhead %."""
        return self._overhead_table(
            "Table I", "heat diffusion: FS overhead, measured vs modeled",
            lambda T: self.scale.heat(),
        )

    def run_table2(self) -> ExperimentResult:
        """Table II: DFT, measured vs modeled FS overhead %."""
        return self._overhead_table(
            "Table II", "DFT: FS overhead, measured vs modeled",
            lambda T: self.scale.dft(),
        )

    def run_table3(self) -> ExperimentResult:
        """Table III: linear regression (outer-loop parallel) — the
        configuration where the paper reports model/measurement divergence."""
        return self._overhead_table(
            "Table III", "linear regression: FS overhead, measured vs modeled",
            self.scale.linreg,
        )

    # -- Tables IV-VI: predicted vs modeled FS cases -----------------------------

    def _prediction_table(
        self,
        experiment: str,
        title: str,
        factory: Callable[[int], KernelInstance],
    ) -> ExperimentResult:
        k0 = factory(self.scale.threads[0])
        result = ExperimentResult(
            experiment=experiment,
            title=title,
            columns=(
                "threads",
                f"pred FS cases (chunk={k0.fs_chunk})",
                f"pred FS cases (chunk={k0.nfs_chunk})",
                "pred FS %",
                f"model FS cases (chunk={k0.fs_chunk})",
                f"model FS cases (chunk={k0.nfs_chunk})",
                "model FS %",
            ),
        )
        t0 = time.perf_counter()
        for T in self.scale.threads:
            k = factory(T)
            predictor = FalseSharingPredictor(self.model, n_runs=k.pred_chunk_runs)
            p_fs = predictor.predict(k.nest, T, chunk=k.fs_chunk)
            p_nfs = predictor.predict(k.nest, T, chunk=k.nfs_chunk)
            r_fs = self.model.analyze(k.nest, T, chunk=k.fs_chunk)
            r_nfs = self.model.analyze(k.nest, T, chunk=k.nfs_chunk)
            ref_cycles = self.total_model.breakdown(
                k.reference_nest, num_threads=T, fs_cases=0.0
            ).total
            pred_pct = predicted_fs_percent(
                p_fs.predicted_fs_cases,
                p_nfs.predicted_fs_cases,
                p_fs.prefix_result,
                self.machine,
                ref_cycles,
            )
            model_pct = fs_overhead_percent(
                r_fs, r_nfs, self.machine, k.reference_nest, self.total_model
            ).percent
            result.add_row(
                T,
                int(p_fs.predicted_fs_cases),
                int(p_nfs.predicted_fs_cases),
                round(pred_pct, 1),
                r_fs.fs_cases,
                r_nfs.fs_cases,
                round(model_pct, 1),
            )
        result.notes.append(
            f"prediction sampled {k0.pred_chunk_runs} chunk runs "
            f"(paper: {k0.pred_chunk_runs}); kernel params: {dict(k0.params)}"
        )
        result.elapsed_seconds = time.perf_counter() - t0
        return result

    def run_table4(self) -> ExperimentResult:
        """Table IV: heat — predicted vs modeled FS cases and %."""
        return self._prediction_table(
            "Table IV", "heat diffusion: predicted vs modeled FS cases",
            lambda T: self.scale.heat(),
        )

    def run_table5(self) -> ExperimentResult:
        """Table V: DFT — predicted vs modeled FS cases and %."""
        return self._prediction_table(
            "Table V", "DFT: predicted vs modeled FS cases",
            lambda T: self.scale.dft(),
        )

    def run_table6(self) -> ExperimentResult:
        """Table VI: linear regression — predicted vs modeled FS cases."""
        return self._prediction_table(
            "Table VI", "linear regression: predicted vs modeled FS cases",
            self.scale.linreg,
        )

    # -- Figures ------------------------------------------------------------------

    def run_fig2(self) -> ExperimentResult:
        """Fig. 2: linear regression execution time vs chunk size."""
        T = self.scale.fig2_threads
        k = self.scale.linreg(T)
        result = ExperimentResult(
            experiment="Fig. 2",
            title=f"linear regression: execution time vs chunk size (T={T})",
            columns=("chunk", "time (ms)", "improvement vs chunk=1 (%)"),
        )
        t0 = time.perf_counter()
        base_ms: float | None = None
        for chunk in self.scale.fig2_chunks:
            s = self.sim.run(k.nest, T, chunk=chunk)
            ms = s.seconds * 1e3
            if base_ms is None:
                base_ms = ms
            result.add_row(chunk, ms, round(100.0 * (base_ms - ms) / base_ms, 1))
        result.notes.append(
            "the paper reports up to ~30% improvement from chunk 1 -> 30; the "
            "simulated substrate exposes every coherence stall, so the "
            "improvement here is larger — the shape (monotone decrease, then "
            "flattening) is the reproduced claim"
        )
        result.elapsed_seconds = time.perf_counter() - t0
        return result

    def run_fig6(self) -> ExperimentResult:
        """Fig. 6: FS cases grow linearly with the number of chunk runs."""
        T = self.scale.fig2_threads
        k = self.scale.heat()
        runs = self.scale.fig6_runs
        t0 = time.perf_counter()
        r = self.model.analyze(
            k.nest, T, chunk=k.fs_chunk, max_chunk_runs=runs, record_series=True
        )
        series = r.per_chunk_run
        assert series is not None
        result = ExperimentResult(
            experiment="Fig. 6",
            title=f"heat: cumulative FS cases per chunk run (T={T}, chunk={k.fs_chunk})",
            columns=("chunk run", "cumulative FS cases"),
        )
        for i, y in enumerate(series.tolist(), start=1):
            result.add_row(i, int(y))
        x = np.arange(1, len(series) + 1, dtype=np.float64)
        fit = ols_fit(x, series.astype(np.float64))
        result.notes.append(
            f"OLS fit: y = {fit.a:.1f}x + {fit.b:.1f}, R^2 = {fit.r2:.6f} "
            "(linearity is the paper's premise for the prediction model)"
        )
        result.elapsed_seconds = time.perf_counter() - t0
        return result

    def _summary_figure(
        self,
        experiment: str,
        title: str,
        factory: Callable[[int], KernelInstance],
    ) -> ExperimentResult:
        """Figs. 8/9: measured vs modeled vs LR-predicted FS percentages."""
        result = ExperimentResult(
            experiment=experiment,
            title=title,
            columns=("threads", "measured %", "modeled %", "predicted %"),
        )
        t0 = time.perf_counter()
        for T in self.scale.threads:
            k = factory(T)
            s_fs = self.sim.run(k.nest, T, chunk=k.fs_chunk)
            s_nfs = self.sim.run(k.nest, T, chunk=k.nfs_chunk)
            measured = measured_fs_percent(s_fs.cycles, s_nfs.cycles)
            r_fs = self.model.analyze(k.nest, T, chunk=k.fs_chunk)
            r_nfs = self.model.analyze(k.nest, T, chunk=k.nfs_chunk)
            modeled = fs_overhead_percent(
                r_fs, r_nfs, self.machine, k.reference_nest, self.total_model
            ).percent
            predictor = FalseSharingPredictor(self.model, n_runs=k.pred_chunk_runs)
            p_fs = predictor.predict(k.nest, T, chunk=k.fs_chunk)
            p_nfs = predictor.predict(k.nest, T, chunk=k.nfs_chunk)
            ref_cycles = self.total_model.breakdown(
                k.reference_nest, num_threads=T, fs_cases=0.0
            ).total
            predicted = predicted_fs_percent(
                p_fs.predicted_fs_cases,
                p_nfs.predicted_fs_cases,
                p_fs.prefix_result,
                self.machine,
                ref_cycles,
            )
            result.add_row(
                T, round(measured, 1), round(modeled, 1), round(predicted, 1)
            )
        result.elapsed_seconds = time.perf_counter() - t0
        return result

    def run_fig8(self) -> ExperimentResult:
        """Fig. 8: heat — measured/modeled/predicted FS% across threads."""
        return self._summary_figure(
            "Fig. 8", "heat: FS effect comparison across thread counts",
            lambda T: self.scale.heat(),
        )

    def run_fig9(self) -> ExperimentResult:
        """Fig. 9: DFT — measured/modeled/predicted FS% across threads."""
        return self._summary_figure(
            "Fig. 9", "DFT: FS effect comparison across thread counts",
            lambda T: self.scale.dft(),
        )

    # -- whole-suite --------------------------------------------------------------

    def run_driver(self, name: str) -> ExperimentResult:
        """Run one named driver (e.g. ``"run_table1"``)."""
        if name not in DRIVER_ORDER and name not in SUPPLEMENTARY_DRIVERS:
            raise ValueError(f"unknown experiment driver {name!r}")
        return getattr(self, name)()

    def experiment_jobs(
        self, drivers: Sequence[str] | None = None
    ) -> list[Job]:
        """One engine job per driver, each reconstructing the suite in
        its worker from (machine, scale)."""
        machine_key = self.machine.to_key_dict()
        payload = {"machine": self.machine}
        jobs = []
        for name in drivers if drivers is not None else DRIVER_ORDER:
            spec = {
                "driver": name,
                "scale": self.scale.name,
                "machine": machine_key,
            }
            jobs.append(
                Job(
                    kind="experiment.driver",
                    spec=spec,
                    payload=payload,
                    label=f"experiment:{name}:{self.scale.name}",
                )
            )
        return jobs

    def run_all(
        self,
        engine: Engine | None = None,
        policy: FailurePolicy | None = None,
    ) -> list[ExperimentResult]:
        """Regenerate every table and figure, in paper order.

        Each driver is one engine job (the tables are independent), and
        one ``engine.run`` evaluates them all: across the engine's
        worker pool, memoized in its store.  Without an ``engine`` the
        jobs run inline, uncached (``Engine(jobs=1, use_cache=False)``).

        Failure semantics: without a ``policy`` a driver failure raises
        the engine's :class:`~repro.resilience.errors.EngineError`
        carrying the driver's error code (strict).  With a keep-going
        :class:`~repro.resilience.partial.FailurePolicy`, failed
        drivers are isolated into ``policy.failures`` and the rest of
        the suite completes.

        ``self.last_reuse`` is refreshed with a per-driver
        :class:`~repro.engine.incremental.ReuseReport` (each driver
        classified by where its result came from) — ``repro-fs
        experiments`` prints it as its ``reuse:`` line.
        """
        if engine is None:
            engine = Engine(jobs=1, use_cache=False)
        outcomes = engine.run(self.experiment_jobs())
        self.last_reuse = reuse_from_outcomes(outcomes)
        out: list[ExperimentResult] = []
        for outcome in outcomes:
            if outcome.ok:
                out.append(ExperimentResult.from_dict(outcome.result))
                if policy is not None:
                    policy.record_success()
            elif policy is None:
                outcome.unwrap()
            else:
                policy.record_failure(
                    FailureReport.from_outcome(
                        outcome, kind="experiment.driver"
                    )
                )
        return out


#: Paper-order driver methods of :class:`ExperimentSuite`.
DRIVER_ORDER: tuple[str, ...] = (
    "run_fig2",
    "run_fig6",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_fig8",
    "run_fig9",
)

#: Beyond-the-paper drivers from :class:`SupplementaryMixin`.
SUPPLEMENTARY_DRIVERS: tuple[str, ...] = (
    "run_supp_victims",
    "run_supp_baseline",
    "run_supp_mitigation",
)


def run_experiment_job(job) -> dict:
    """Engine runner for ``experiment.driver`` jobs (executes in a worker).

    Rebuilds the suite from the payload machine and the spec's scale,
    runs one driver, and returns the result's JSON form.
    """
    machine: MachineConfig = job.payload["machine"]
    suite = ExperimentSuite(machine=machine, scale=str(job.spec["scale"]))
    return suite.run_driver(str(job.spec["driver"])).to_dict()
