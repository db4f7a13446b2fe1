"""The compile-time false-sharing cost model (Section III driver).

:class:`FalseSharingModel` wires the four steps of the paper together:

1. array references come from the nest's innermost loop
   (``nest.innermost_accesses()``, produced by the frontend or builders);
2. :class:`~repro.model.ownership.OwnershipListGenerator` produces the
   per-thread cache line ownership lists, block by block;
3. + 4. :class:`~repro.model.detector.FSDetector` maintains the per-thread
   LRU cache states and performs the φ/mask 1-to-All comparison.

``analyze`` evaluates the paper's ``All_num_iters / num_threads``
lockstep steps (optionally truncated to a prefix of *chunk runs* for the
prediction model) and returns an :class:`FSModelResult` with total FS
cases, read/write split, per-line victim attribution and the optional
per-chunk-run cumulative series behind Fig. 6.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from repro.ir.loops import ParallelLoopNest
from repro.ir.refs import AddressSpace
from repro.ir.validate import validate_nest
from repro.machine import MachineConfig
from repro.model.detector import FSStats
from repro.model.disjoint import lines_disjoint
from repro.model.fastdetect import ENGINES, make_detector
from repro.model.ownership import OwnershipListGenerator
from repro.model.schedule import IterationSpace
from repro.model.steadystate import (
    SteadyStateRunner,
    steady_state_gate,
    steady_state_runner,
)
from repro.obs import get_registry, span
from repro.resilience.budget import Budget, estimate_cost
from repro.resilience.errors import ModelError
from repro.util import get_logger

logger = get_logger(__name__)


@dataclass(frozen=True)
class VictimArray:
    """An array implicated in false sharing, with its share of cases."""

    name: str
    fs_cases: int
    lines: int


@dataclass(frozen=True)
class FSCycleRate:
    """FS rate for loops with unknown boundaries (Section III preamble).

    "If the loop boundaries are not known at compile-time, the model
    only outputs the FS rate estimated per full cycle of iterations
    executed by all of the threads" — one full cycle being one chunk
    run (``num_threads × chunk_size`` parallel iterations).
    """

    nest_name: str
    num_threads: int
    chunk: int
    cycles_evaluated: int
    fs_cases_per_cycle: float
    accesses_per_cycle: float
    result: "FSModelResult"

    def extrapolate(self, total_cycles: int) -> float:
        """Projected FS cases for a loop of ``total_cycles`` chunk runs."""
        if total_cycles < 0:
            raise ModelError("total_cycles must be non-negative")
        return self.fs_cases_per_cycle * total_cycles


@dataclass
class FSModelResult:
    """Outcome of one compile-time FS analysis."""

    nest_name: str
    num_threads: int
    chunk: int
    mode: str
    fs_cases: int
    fs_read_cases: int
    fs_write_cases: int
    steps_evaluated: int
    chunk_runs_evaluated: int
    total_chunk_runs: int
    accesses: int
    stats: FSStats
    space: AddressSpace
    elapsed_seconds: float
    line_size: int = 64
    per_chunk_run: np.ndarray | None = None
    #: ``"exact"`` for full simulation, ``"exact-steady-state"`` when
    #: part of the loop was closed by exact periodic extrapolation (both
    #: are bit-identical to full simulation; the label records *how* the
    #: result was obtained for the resilience ladder / provenance).
    fidelity: str = "exact"
    #: detector engine that produced the result (``fast``/``reference``)
    engine: str = "reference"
    #: chunk runs actually walked by the detector
    runs_simulated: int = 0
    #: chunk runs closed by exact steady-state extrapolation
    runs_extrapolated: int = 0
    _victims: tuple[VictimArray, ...] | None = field(default=None, repr=False)

    def fs_cycles(self, machine: MachineConfig) -> float:
        """Convert FS cases to cycles (``FalseSharing_c``).

        Read cases stall on cache-to-cache transfers; write cases pay the
        (store-buffer-absorbed) invalidation cost — see detector docs.
        """
        return (
            self.fs_read_cases * machine.fs_read_penalty_cycles
            + self.fs_write_cases * machine.fs_write_penalty_cycles
        )

    def fs_cycles_numa(
        self, machine: MachineConfig, placement: str = "contiguous"
    ) -> float:
        """NUMA-aware ``FalseSharing_c`` using the thread-pair matrix.

        Each (writer, accessor) pair's cases are scaled by the machine's
        ``cross_socket_factor`` when the pair straddles sockets under the
        given thread placement.  With the default factor of 1.0 this
        degenerates to :meth:`fs_cycles`.
        """
        from repro.machine.topology import pair_penalty_factory

        if self.fs_cases == 0:
            return 0.0
        penalty = pair_penalty_factory(
            self.num_threads,
            machine.cores_per_socket,
            placement,
            machine.coherence.cross_socket_factor,
        )
        # Apply the overall read/write split to each pair's case count.
        read_frac = self.fs_read_cases / self.fs_cases
        write_frac = self.fs_write_cases / self.fs_cases
        per_case = (
            read_frac * machine.fs_read_penalty_cycles
            + write_frac * machine.fs_write_penalty_cycles
        )
        return sum(
            cases * per_case * penalty(writer, accessor)
            for (writer, accessor), cases in self.stats.fs_by_pair.items()
        )

    def victim_arrays(self) -> tuple[VictimArray, ...]:
        """Arrays ranked by the FS cases attributed to their lines.

        This is the diagnostic the paper motivates: pointing the
        programmer at the data structure *causing* the false sharing.
        """
        if self._victims is not None:
            return self._victims
        per_array: Counter = Counter()
        lines_per_array: Counter = Counter()
        for line, cases in self.stats.fs_by_line.items():
            name = self._array_of_address(line * self.line_size)
            per_array[name] += cases
            lines_per_array[name] += 1
        self._victims = tuple(
            VictimArray(name, cases, lines_per_array[name])
            for name, cases in per_array.most_common()
        )
        return self._victims

    def _array_of_address(self, addr: int) -> str:
        for arr in self.space.arrays():
            base = self.space.base(arr.name)
            if base <= addr < base + arr.size_bytes():
                return arr.name
        return "<unknown>"


class FalseSharingModel:
    """The paper's compile-time FS cost model.

    Parameters
    ----------
    machine:
        Target machine; supplies the line size and the per-thread cache
        state depth (fully-associative approximation of the private L2).
    mode:
        FS counting semantics, ``"invalidate"`` (default) or
        ``"literal"`` — see :mod:`repro.model.detector`.
    block_steps:
        Lockstep steps processed per vectorized block.
    engine:
        Detector engine: ``"fast"`` (default — the vectorized detector,
        which falls back block by block to the scalar path where it
        must) or ``"reference"`` (the scalar oracle).  Both are
        result-identical (see :mod:`repro.model.fastdetect`).
    steady_state:
        Enable the exact steady-state early-exit (see
        :mod:`repro.model.steadystate`).  Only engages on full-loop
        analyses of eligible nests that are long enough and evict
        lines, where it can extrapolate; also result-identical.

    Every CLI command, the experiments runner and the service build the
    default model; ``engine="reference", steady_state=False`` is the
    oracle that tests and benchmarks check it against.
    """

    def __init__(
        self,
        machine: MachineConfig,
        mode: str = "invalidate",
        block_steps: int = 4096,
        thread_order: tuple[int, ...] | None = None,
        engine: str = "fast",
        steady_state: bool = True,
    ) -> None:
        self.machine = machine
        self.mode = mode
        self.block_steps = block_steps
        #: Optional within-step thread processing order (ablation knob;
        #: the lockstep model's default is ascending thread id).
        self.thread_order = thread_order
        if engine not in ENGINES:
            raise ModelError(
                f"unknown detector engine {engine!r}; use one of {ENGINES}"
            )
        self.engine = engine
        self.steady_state = steady_state
        #: what :meth:`fs_proof` left for the walk that follows it: the
        #: arguments it checked, ``(nest, num_threads, chunk,
        #: max_chunk_runs, budget)``, then the generator it built
        self._pending: tuple | None = None

    def analyze(
        self,
        nest: ParallelLoopNest,
        num_threads: int,
        chunk: int | None = None,
        max_chunk_runs: int | None = None,
        record_series: bool = False,
        space: AddressSpace | None = None,
        budget: Budget | None = None,
    ) -> FSModelResult:
        """Run the full FS analysis.

        Parameters
        ----------
        nest:
            Bound parallel loop nest (symbolic parameters resolved).
        num_threads:
            Thread count executing the loop.
        chunk:
            Override for the nest's schedule chunk (the evaluation
            compares chunk configurations of the same loop).
        max_chunk_runs:
            Evaluate only this many chunk runs (prediction-model prefix);
            ``None`` evaluates the whole loop.
        record_series:
            Record the cumulative FS count after every chunk run
            (required by the Fig. 6 linearity study and the predictor).
            The detector samples it inside each block
            (``process_block(run_steps=...)``), one call per block.
        space:
            Optional pre-populated address space (shared with other
            models for placement-consistent analyses).
        budget:
            Optional :class:`~repro.resilience.budget.Budget`.  The
            steps/state guards are enforced *before* the walk starts
            (pre-run estimate, ``REPRO-R001``/``REPRO-R003``); the
            deadline is checked between detector blocks while it runs
            (``REPRO-R002``).  A budgeted caller that wants graceful
            degradation instead of an exception should go through
            :func:`repro.resilience.ladder.analyze_with_ladder`.

        Notes
        -----
        The result's ``fs_cases`` is the paper's ``N_fs_model`` /
        ``N_nfs_model`` depending on the chunk configuration analyzed.
        """
        pending, self._pending = self._pending, None
        if (
            pending is not None
            and space is None
            and pending[0] is nest
            and pending[4] is budget
            and pending[1:4] == (num_threads, chunk, max_chunk_runs)
        ):
            gen = pending[5]
            nest = gen.nest
        else:
            gen = None
            nest = self._checked(
                nest, num_threads, chunk, max_chunk_runs, budget
            )
        with span(
            "model.analyze", kernel=nest.name, threads=num_threads,
            mode=self.mode,
        ) as sp:
            result, steady = self._analyze(
                nest, num_threads, max_chunk_runs, record_series, space,
                budget, gen,
            )
            sp.set(
                chunk=result.chunk, fs_cases=result.fs_cases,
                engine=result.engine, fidelity=result.fidelity,
                steady_state=steady,
            )
        return result

    def _checked(
        self,
        nest: ParallelLoopNest,
        num_threads: int,
        chunk: int | None,
        max_chunk_runs: int | None,
        budget: Budget | None,
    ) -> ParallelLoopNest:
        """The pre-walk checks: arguments, the nest, the budget estimate.

        Returns the nest at the analyzed chunk.
        """
        if num_threads <= 0:
            raise ModelError(f"num_threads must be positive, got {num_threads}")
        if chunk is not None:
            nest = nest.with_chunk(chunk)
        validate_nest(nest)
        if budget is not None and not budget.unlimited:
            estimate = estimate_cost(nest, num_threads, self.machine)
            if max_chunk_runs is not None:
                # Only the prefix will run; guard what will actually
                # be evaluated, not the whole loop.
                prefix_steps = estimate.steps_for_runs(max_chunk_runs)
                estimate = replace(estimate, steps=prefix_steps)
            budget.check_estimate(estimate, where=nest.name)
        return nest

    def fs_proof(
        self,
        nest: ParallelLoopNest,
        num_threads: int,
        chunk: int | None = None,
        max_chunk_runs: int | None = None,
        budget: Budget | None = None,
    ) -> str:
        """Decide before the walk whether :meth:`analyze` would count 0.

        For callers that need only the FS counts of an analysis (a sweep
        point, through the resilience ladder).  Returns

        ``"disjoint"``
            :func:`~repro.model.disjoint.lines_disjoint` holds: no line
            one thread writes is touched by another, so the analysis
            counts 0 FS cases (read and write) and reports ``"exact"``
            fidelity — the caller may skip the walk;
        ``"overlap"``
            the proof does not hold, so the walk decides;
        ``"oracle"``
            the reference engine, which always walks (it is the oracle
            every served point is checked against);
        ``"steady-state"``
            a full-loop analysis the steady-state gate would hand to its
            runner, which may report ``"exact-steady-state"``.

        The same pre-walk checks as :meth:`analyze` run first, so an
        over-budget estimate raises here exactly as it would there; a
        proved analysis also checks the deadline once, as the walk does
        before its first block.  Unless the answer is ``"disjoint"`` or
        ``"oracle"``, the next :meth:`analyze` with the same arguments
        (the same nest and budget objects) skips those checks and walks
        the generator built here.
        """
        self._pending = None
        checked = self._checked(
            nest, num_threads, chunk, max_chunk_runs, budget
        )
        if self.engine != "fast":
            return "oracle"
        gen = OwnershipListGenerator(
            checked,
            num_threads,
            line_size=self.machine.line_size,
            block_steps=self.block_steps,
        )
        pending = (nest, num_threads, chunk, max_chunk_runs, budget, gen)
        if max_chunk_runs is None and self.steady_state:
            if steady_state_gate(gen, self.machine.model_stack_lines)[1] == "ran":
                self._pending = pending
                return "steady-state"
        spr = gen.iteration_space.steps_per_chunk_run
        max_steps = None if max_chunk_runs is None else max_chunk_runs * spr
        if not lines_disjoint(gen, max_steps):
            self._pending = pending
            return "overlap"
        if budget is not None:
            budget.check_deadline(f"analysis of {checked.name}")
        get_registry().counter(
            "model_fs_free_points_total",
            "analyses proved free of false sharing without a walk",
        ).labels(kernel=checked.name).inc()
        return "disjoint"

    def _analyze(
        self,
        nest: ParallelLoopNest,
        num_threads: int,
        max_chunk_runs: int | None,
        record_series: bool,
        space: AddressSpace | None,
        budget: Budget | None = None,
        gen: OwnershipListGenerator | None = None,
    ) -> tuple[FSModelResult, str]:
        """The analysis, and why the steady-state runner did or did not
        run: ``"off"``, ``"prefix"`` or :func:`steady_state_runner`'s
        reason.  ``gen`` is the generator :meth:`fs_proof` built for this
        analysis, if any."""
        t0 = time.perf_counter()
        if gen is None:
            gen = OwnershipListGenerator(
                nest,
                num_threads,
                line_size=self.machine.line_size,
                space=space,
                block_steps=self.block_steps,
            )
        ispace: IterationSpace = gen.iteration_space

        steps_per_run = ispace.steps_per_chunk_run
        max_steps: int | None = None
        if max_chunk_runs is not None:
            max_steps = max_chunk_runs * steps_per_run
        detector = make_detector(
            self.engine,
            num_threads,
            self.machine.model_stack_lines,
            mode=self.mode,
        )

        runs_simulated = 0
        runs_extrapolated = 0
        series: list[int] | None = None
        steady_runner: SteadyStateRunner | None = None
        if not self.steady_state:
            steady = "off"
        elif max_chunk_runs is not None:
            # A truncated prefix is the predictor's job.
            steady = "prefix"
        else:
            steady_runner, steady = steady_state_runner(
                gen,
                detector,
                thread_order=self.thread_order,
                budget=budget,
                record_series=record_series,
                block_steps=self.block_steps,
            )
        if steady_runner is not None:
            runs_simulated, runs_extrapolated, series = steady_runner.run()
        elif record_series:
            # Align block emission to chunk-run boundaries so the
            # detector samples cumulative counts exactly at run ends.
            runs_per_block = max(1, self.block_steps // max(steps_per_run, 1))
            gen.enum.block_steps = runs_per_block * steps_per_run
            series = []
            for block in gen.blocks(max_steps):
                if budget is not None:
                    budget.check_deadline(f"analysis of {nest.name}")
                series += detector.process_block(
                    block.lines, gen.write_mask,
                    thread_order=self.thread_order, run_steps=steps_per_run,
                )
        else:
            for block in gen.blocks(max_steps):
                if budget is not None:
                    budget.check_deadline(f"analysis of {nest.name}")
                detector.process_block(
                    block.lines, gen.write_mask, thread_order=self.thread_order
                )

        elapsed = time.perf_counter() - t0
        stats = detector.stats
        runs_evaluated = (
            stats.steps // steps_per_run if steps_per_run else 0
        )
        # Bridge the detector's per-run counters into the obs registry
        # and record model-side throughput (accesses/sec) + duration.
        stats.publish(
            kernel=nest.name, threads=num_threads, chunk=ispace.chunk,
            mode=self.mode,
        )
        if steady_runner is None:
            runs_simulated = runs_evaluated
        registry = get_registry()
        registry.histogram(
            "model_analyze_seconds", "wall time of FalseSharingModel.analyze"
        ).labels(kernel=nest.name).observe(elapsed)
        if elapsed > 0:
            registry.gauge(
                "model_accesses_per_sec",
                "modeled accesses processed per second by the last analysis",
            ).labels(kernel=nest.name).set(stats.accesses / elapsed)
            registry.gauge(
                "detector_accesses_per_second",
                "detector throughput of the last analysis (incl. "
                "extrapolated accesses), by engine",
            ).labels(kernel=nest.name, engine=self.engine).set(
                stats.accesses / elapsed
            )
        result = FSModelResult(
            nest_name=nest.name,
            num_threads=num_threads,
            chunk=ispace.chunk,
            mode=self.mode,
            fs_cases=stats.fs_cases,
            fs_read_cases=stats.fs_read_cases,
            fs_write_cases=stats.fs_write_cases,
            steps_evaluated=stats.steps,
            chunk_runs_evaluated=runs_evaluated,
            total_chunk_runs=ispace.total_chunk_runs,
            accesses=stats.accesses,
            stats=stats,
            space=gen.space,
            elapsed_seconds=elapsed,
            line_size=self.machine.line_size,
            per_chunk_run=np.asarray(series, dtype=np.int64) if series else None,
            fidelity=(
                "exact-steady-state" if runs_extrapolated > 0 else "exact"
            ),
            engine=self.engine,
            runs_simulated=runs_simulated,
            runs_extrapolated=runs_extrapolated,
        )
        logger.debug(
            "FS analysis %s T=%d chunk=%d: %d cases in %d steps "
            "(%.3fs, engine=%s, %d runs extrapolated)",
            nest.name, num_threads, ispace.chunk, stats.fs_cases,
            stats.steps, elapsed, self.engine, runs_extrapolated,
        )
        return result, steady

    def analyze_cycle_rate(
        self,
        nest: ParallelLoopNest,
        num_threads: int,
        chunk: int,
        warmup_cycles: int = 1,
        measured_cycles: int = 4,
    ) -> FSCycleRate:
        """FS rate per full cycle for loops with *unknown boundaries*.

        The paper's fallback when trip counts are not compile-time
        constants: evaluate full cycles of iterations (one cycle =
        ``num_threads × chunk`` parallel iterations) and report the FS
        rate per cycle.  The nest's parallel-loop upper bound may be a
        single symbolic parameter; it is bound to exactly
        ``warmup_cycles + measured_cycles`` cycles of iterations, the
        warm-up cycles are discarded (cold effects), and the steady-state
        rate is returned.

        Raises when more than the parallel bound is symbolic — inner trip
        counts and array extents must still be known, as in the paper.
        """
        if chunk <= 0:
            raise ModelError("chunk must be positive for cycle-rate analysis")
        if measured_cycles <= 0 or warmup_cycles < 0:
            raise ModelError("need measured_cycles > 0 and warmup_cycles >= 0")
        nest = nest.with_chunk(chunk)
        parallel = nest.parallel_loop()
        free = set(parallel.upper.variables())
        total_cycles = warmup_cycles + measured_cycles
        if free:
            if len(free) > 1:
                raise ModelError(
                    f"parallel bound {parallel.upper} uses several unknowns "
                    f"{sorted(free)}; only one symbolic boundary is supported",
                    code="REPRO-M102",
                )
            (param,) = free
            if parallel.upper.coeff(param) != 1:
                raise ModelError(
                    f"symbolic parallel bound must be linear in {param!r} "
                    "with coefficient 1",
                    code="REPRO-M102",
                )
            # Bind the unknown so the loop runs exactly total_cycles runs.
            needed_trip = num_threads * chunk * total_cycles
            lower = parallel.lower
            if not lower.is_constant:
                raise ModelError(
                    "parallel lower bound must be constant", code="REPRO-M102"
                )
            value = (
                lower.as_int()
                + needed_trip * parallel.step
                - parallel.upper.const
            )
            nest = nest.bind({param: value})
        result = self.analyze(
            nest, num_threads, max_chunk_runs=total_cycles, record_series=True
        )
        series = result.per_chunk_run
        assert series is not None and len(series) >= 1
        if warmup_cycles and len(series) > warmup_cycles:
            steady = series[warmup_cycles:]
            base = series[warmup_cycles - 1]
            per_cycle = (steady[-1] - base) / len(steady)
            cycles = len(steady)
        else:
            per_cycle = series[-1] / len(series)
            cycles = len(series)
        return FSCycleRate(
            nest_name=result.nest_name,
            num_threads=num_threads,
            chunk=result.chunk,
            cycles_evaluated=cycles,
            fs_cases_per_cycle=float(per_cycle),
            accesses_per_cycle=result.accesses / max(len(series), 1),
            result=result,
        )
