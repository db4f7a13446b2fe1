"""Exact steady-state early-exit for the lockstep simulation.

Section III-E (Fig. 6) observes that FS case counts are piecewise
*linear* in the chunk-run index: after a short warm-up the per-chunk-run
cache-state transition becomes periodic, because consecutive chunk runs
execute the *same* access pattern merely shifted through memory by a
constant byte stride (the static round-robin schedule advances every
thread's parallel positions by ``num_threads × chunk`` each run).  This
module turns that observation into an **exact** early exit — not a
regression: once two consecutive chunk-run boundaries reach
shift-isomorphic cache states *and* produce identical stat deltas, every
remaining run is a renamed replay of the last simulated one, so the
remainder is extrapolated in closed form and the detector state is
advanced by renaming lines (:meth:`~repro.model.detector.FSDetector.
shift_lines`), which commutes with detector transitions.

The four pieces:

:class:`ShiftProfile`
    Compile-time check that the nest admits a uniform per-run shift at
    all (needs full chunk runs — ``parallel_trip % (T·chunk) == 0`` —
    and a single parallel-loop stride per array), plus the smallest
    period ``p`` (in chunk runs) for which every array's shift is a
    whole number of cache lines.
:func:`compute_shift_profile`
    Builds the profile from an ownership generator, or returns ``None``
    when the loop does not qualify (the model then falls back to plain
    full simulation — the early exit is strictly opt-in-when-provable).
:func:`steady_state_gate` / :func:`steady_state_runner`
    The gate: builds the runner only when it can extrapolate at least
    one chunk run, and otherwise leaves the model to its plain walk.
:class:`SteadyStateRunner`
    Drives the simulation period by period, fingerprints the canonical
    (shift-normalized) cache state at period boundaries, and on the
    first repeat extrapolates all skippable periods exactly: scalar
    counters and the pair/thread matrices scale linearly, the per-line
    victim attribution is replayed with per-period line shifts, the
    optional Fig. 6 series is tiled from the matched window, and the
    cache state is renamed to what full simulation would have produced
    so the tail (and any later outer-loop executions) resume exactly.

Outer loops around the parallel loop restart the sweep through memory,
so periodicity tracking resets at each outer execution while the
detector state carries across — identical to the reference walk.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.model.detector import FSDetector, FSStats
from repro.model.ownership import OwnershipListGenerator
from repro.obs import get_registry, span
from repro.resilience.budget import Budget

__all__ = [
    "ShiftProfile",
    "SteadyStateRunner",
    "compute_shift_profile",
    "steady_state_gate",
    "steady_state_runner",
]

#: scalar FSStats fields propagated through window deltas/extrapolation
_SCALARS = FSStats._SCALARS


@dataclass(frozen=True)
class ShiftProfile:
    """Per-chunk-run memory-shift structure of a schedulable nest.

    Attributes
    ----------
    period_runs:
        Chunk runs per canonical period ``p`` — the smallest count for
        which every array's per-run byte shift is a whole number of
        cache lines.
    runs_per_exec:
        Full chunk runs in one execution of the parallel loop.
    execs:
        Executions of the parallel loop (product of outer trip counts).
    array_names / array_start_lines / array_end_lines:
        Placed arrays sorted by start line (inclusive bounds), for
        line → array classification.
    line_shifts:
        Cache-line shift of each array per period, aligned with
        ``array_names``.
    footprint_lines:
        Upper bound on the distinct cache lines the whole nest touches:
        per referenced array, the span of lines its references can
        reach over the (rectangular) iteration space.  At most the
        arrays' own line counts when every subscript stays in bounds.
    """

    period_runs: int
    runs_per_exec: int
    execs: int
    array_names: tuple[str, ...]
    array_start_lines: tuple[int, ...]
    array_end_lines: tuple[int, ...]
    line_shifts: tuple[int, ...]
    footprint_lines: int

    def classify(self, line: int) -> int:
        """Index of the array owning ``line`` (−1 when unplaced)."""
        i = bisect_right(self.array_start_lines, line) - 1
        if i >= 0 and line <= self.array_end_lines[i]:
            return i
        return -1

    def shift_of(self, line: int) -> int:
        """Line shift per period for the array owning ``line``."""
        i = self.classify(line)
        return self.line_shifts[i] if i >= 0 else 0

    def canon(self, boundary: int) -> Callable[[int], object]:
        """Shift-normalizing key function for period boundary ``b``.

        Two cache states at boundaries ``b`` and ``b'`` are
        shift-isomorphic iff their canonical fingerprints are equal.
        """
        shifts = tuple(boundary * d for d in self.line_shifts)

        def _canon(line: int) -> object:
            i = self.classify(line)
            if i < 0:
                return line
            return (i, line - shifts[i])

        return _canon

    def renamer(self, periods: int) -> Callable[[int], int]:
        """Line renaming that advances the state by ``periods`` periods."""
        shifts = tuple(periods * d for d in self.line_shifts)

        def _rename(line: int) -> int:
            i = self.classify(line)
            return line + shifts[i] if i >= 0 else line

        return _rename

    # -- vectorized variants (semantics identical, array-at-a-time) ---------------

    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        starts = np.asarray(self.array_start_lines, dtype=np.int64)
        ends = np.asarray(self.array_end_lines, dtype=np.int64)
        shifts = np.asarray(self.line_shifts, dtype=np.int64)
        return starts, ends, shifts

    def classify_arrays(self, lines: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`classify` over an int64 line-id array."""
        starts, ends, _ = self._tables()
        idx = np.searchsorted(starts, lines, side="right") - 1
        valid = (idx >= 0) & (lines <= ends[np.maximum(idx, 0)])
        return np.where(valid, idx, -1)

    def shift_of_arrays(self, lines: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`shift_of` over an int64 line-id array."""
        _, _, shifts = self._tables()
        idx = self.classify_arrays(lines)
        return np.where(idx >= 0, shifts[np.maximum(idx, 0)], 0)

    def canon_arrays(
        self, boundary: int
    ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """Vectorized :meth:`canon`: lines → ``(array_idx, shifted)``.

        Feeds :meth:`~repro.model.detector.FSDetector.state_fingerprint`
        via its ``canon_arrays`` parameter; digests are only comparable
        against other vectorized-canon digests.
        """
        starts, ends, shifts = self._tables()
        shifted = shifts * boundary

        def _canon(lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            idx = np.searchsorted(starts, lines, side="right") - 1
            safe = np.maximum(idx, 0)
            valid = (idx >= 0) & (lines <= ends[safe])
            aidx = np.where(valid, idx, -1)
            return aidx, lines - np.where(valid, shifted[safe], 0)

        return _canon

    def renamer_arrays(
        self, periods: int
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorized :meth:`renamer` (for ``shift_lines``)."""
        starts, ends, shifts = self._tables()
        shifted = shifts * periods

        def _rename(lines: np.ndarray) -> np.ndarray:
            idx = np.searchsorted(starts, lines, side="right") - 1
            safe = np.maximum(idx, 0)
            valid = (idx >= 0) & (lines <= ends[safe])
            return lines + np.where(valid, shifted[safe], 0)

        return _rename


def compute_shift_profile(
    gen: OwnershipListGenerator, num_threads: int
) -> ShiftProfile | None:
    """Shift profile of the generator's nest, or ``None`` if ineligible.

    Eligibility (all decidable at compile time):

    - the parallel trip count is a multiple of ``num_threads × chunk``
      (every chunk run is *full*, so consecutive runs are exact
      translates — a ragged tail breaks the isomorphism);
    - every reference to a given array has the same parallel-loop
      coefficient (one uniform byte shift per array per run).

    Whether the loop is long enough to pay is :func:`steady_state_runner`'s
    decision, not the profile's.
    """
    space = gen.iteration_space
    T = num_threads
    c = space.chunk
    ptrip = space.parallel_trip
    if ptrip <= 0 or c <= 0 or T <= 0:
        return None
    if ptrip % (T * c) != 0:
        return None
    runs_per_exec = ptrip // (T * c)
    ploop = gen.enum.parallel_loop
    line_size = gen.line_size
    # Per-array byte delta per chunk run: the parallel variable's value
    # advances by T·c·step, scaled by the reference's coefficient.
    deltas: dict[str, int] = {}
    # Per-array [lowest, highest] byte address its references reach.
    reach: dict[str, tuple[int, int]] = {}
    for ref, expr, (lo, hi) in zip(
        gen.refs, gen.addr_exprs, gen.address_extremes()
    ):
        a = expr.coeff(ploop.var) * ploop.step * T * c
        name = ref.array.name
        if name in deltas and deltas[name] != a:
            return None  # conflicting strides: no uniform shift
        deltas[name] = a
        if name in reach:
            lo, hi = min(lo, reach[name][0]), max(hi, reach[name][1])
        reach[name] = (lo, hi)
    period = 1
    for a in deltas.values():
        if a:
            pa = line_size // math.gcd(line_size, abs(a))
            period = period * pa // math.gcd(period, pa)
    placed = sorted(
        gen.space.arrays(), key=lambda arr: gen.space.base(arr.name)
    )
    names: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    shifts: list[int] = []
    for arr in placed:
        base = gen.space.base(arr.name)
        names.append(arr.name)
        starts.append(base // line_size)
        ends.append((base + max(arr.size_bytes(), 1) - 1) // line_size)
        shifts.append(deltas.get(arr.name, 0) * period // line_size)
    return ShiftProfile(
        period_runs=period,
        runs_per_exec=runs_per_exec,
        execs=space.outer_total,
        array_names=tuple(names),
        array_start_lines=tuple(starts),
        array_end_lines=tuple(ends),
        line_shifts=tuple(shifts),
        footprint_lines=sum(
            hi // line_size - lo // line_size + 1 for lo, hi in reach.values()
        ),
    )


@dataclass
class _WindowDelta:
    """Stat movement across one detection window (``P`` chunk runs)."""

    scalars: tuple[int, ...]
    by_thread: dict[int, int]
    by_line: dict[int, int]
    by_pair: dict[tuple[int, int], int]
    per_run_fs: list[int] | None  # per-run fs-case deltas (series mode)


class SteadyStateRunner:
    """Period-aware driver for one full-loop analysis (see module docs).

    The model builds it through :func:`steady_state_runner`, whose rule 2
    guarantees that every execution holds the bulk warm-up block plus
    the windows detection needs.

    Parameters
    ----------
    gen / detector:
        The ownership generator and (possibly fast) detector to drive.
    profile:
        Shift profile from :func:`compute_shift_profile`.
    thread_order:
        Within-step thread interleaving override (ablation knob).
    budget:
        Optional deadline budget, checked between detector blocks.
    record_series:
        Sample cumulative FS cases at every chunk-run boundary.  Each
        simulated block is a whole number of chunk runs and the detector
        samples inside it (``process_block(run_steps=...)``), so batching
        periods into one block costs the series nothing.
    block_steps:
        Target lockstep steps per detector call; periods are batched up
        to this size so short periods don't pay per-call overhead (any
        multiple of the period is itself a valid period).
    """

    def __init__(
        self,
        gen: OwnershipListGenerator,
        detector: FSDetector,
        profile: ShiftProfile,
        thread_order: Sequence[int] | None = None,
        budget: Budget | None = None,
        record_series: bool = False,
        block_steps: int = 4096,
    ) -> None:
        self.gen = gen
        self.detector = detector
        self.profile = profile
        self.thread_order = thread_order
        self.budget = budget
        self.record_series = record_series
        self.block_steps = block_steps
        self.runs_simulated = 0
        self.runs_extrapolated = 0
        self.steady_hits = 0
        #: live stat-capture state (see ``_begin_capture``)
        self._saved_counters: tuple | None = None
        self._cap_scalars: tuple[int, ...] = ()
        #: detection-window size in chunk runs (a multiple of the period)
        #: and the first window whose boundary is fingerprinted
        self.window_runs, self.first_attempt_window = _window_plan(
            profile, gen.iteration_space.steps_per_chunk_run,
            detector.stack_lines,
        )

    # -- simulation --------------------------------------------------------------

    def _simulate_runs(
        self,
        exec_base_step: int,
        run_start: int,
        n_runs: int,
        series: list[int] | None,
    ) -> None:
        """Simulate ``n_runs`` chunk runs of the current execution."""
        gen = self.gen
        enum = gen.enum
        detector = self.detector
        write_mask = gen.write_mask
        spr = gen.iteration_space.steps_per_chunk_run
        num_threads = gen.num_threads
        thread_order = self.thread_order
        lines_counter = get_registry().counter(
            "ownership_line_ids", "line ids generated by the ownership stage"
        ).labels(kernel=gen.nest.name)
        start = exec_base_step + run_start * spr
        stop = start + n_runs * spr
        stride = max(spr, (self.block_steps // spr) * spr)
        for s0 in range(start, stop, stride):
            if self.budget is not None:
                self.budget.check_deadline(
                    f"steady-state analysis of {gen.nest.name}"
                )
            s1 = min(s0 + stride, stop)
            # Same span/counter contract as OwnershipListGenerator.blocks —
            # the runner materializes its own (larger) blocks for batching.
            with span("ownership.block", start_step=s0) as sp:
                lines = tuple(
                    gen.lines_for_env(enum.env_block(t, s0, s1))
                    for t in range(num_threads)
                )
                n_ids = sum(mat.size for mat in lines)
                sp.set(line_ids=n_ids)
            lines_counter.inc(n_ids)
            # In series mode the detector samples cumulative FS cases at
            # every run boundary of the (run-aligned) block.
            sampled = detector.process_block(
                lines, write_mask, thread_order=thread_order,
                run_steps=None if series is None else spr,
            )
            if series is not None:
                series += sampled
        self.runs_simulated += n_runs

    # -- window accounting --------------------------------------------------------

    def _scalar_snapshot(self) -> tuple[int, ...]:
        st = self.detector.stats
        return tuple(getattr(st, name) for name in _SCALARS)

    def _begin_capture(self) -> None:
        """Start O(Δ) stat capture by swapping in fresh counters.

        Diffing dict snapshots would cost O(|accumulated stats|) per
        fingerprint attempt (the per-line counter keeps growing for the
        whole analysis); routing the window's increments into fresh
        counters makes both capture and delta extraction proportional to
        the window itself.
        """
        st = self.detector.stats
        self._saved_counters = (st.fs_by_thread, st.fs_by_line, st.fs_by_pair)
        st.fs_by_thread = Counter()
        st.fs_by_line = Counter()
        st.fs_by_pair = Counter()
        self._cap_scalars = self._scalar_snapshot()

    def _end_capture(self) -> tuple[dict, dict, dict]:
        """Fold captured counters back; returns the window's deltas."""
        st = self.detector.stats
        bt, bl, bp = st.fs_by_thread, st.fs_by_line, st.fs_by_pair
        sbt, sbl, sbp = self._saved_counters
        sbt.update(bt)
        sbl.update(bl)
        sbp.update(bp)
        st.fs_by_thread, st.fs_by_line, st.fs_by_pair = sbt, sbl, sbp
        self._saved_counters = None
        return bt, bl, bp

    def _captured_delta(
        self, series: list[int] | None, window_runs: int
    ) -> _WindowDelta:
        scalars0 = self._cap_scalars
        scalars = tuple(
            b - a for a, b in zip(scalars0, self._scalar_snapshot())
        )
        by_thread, by_line, by_pair = self._end_capture()
        per_run: list[int] | None = None
        if series is not None:
            window = series[-window_runs:]
            base = (
                series[-window_runs - 1]
                if len(series) > window_runs
                else scalars0[_SCALARS.index("fs_cases")]
            )
            per_run = [b - a for a, b in zip([base] + window[:-1], window)]
        return _WindowDelta(
            scalars, dict(by_thread), dict(by_line), dict(by_pair), per_run
        )

    def _extrapolate(
        self,
        delta: _WindowDelta,
        windows: int,
        window_runs: int,
        series: list[int] | None,
    ) -> None:
        """Apply ``windows`` exact repetitions of the captured window."""
        st = self.detector.stats
        for name, v in zip(_SCALARS, delta.scalars):
            setattr(st, name, getattr(st, name) + v * windows)
        for t, cnt in delta.by_thread.items():
            st.fs_by_thread[t] += cnt * windows
        for pair, cnt in delta.by_pair.items():
            st.fs_by_pair[pair] += cnt * windows
        periods_per_window = window_runs // self.profile.period_runs
        by_line = st.fs_by_line
        items = delta.by_line
        if items:
            n = len(items)
            lines = np.fromiter(items.keys(), np.int64, count=n)
            cnts = np.fromiter(items.values(), np.int64, count=n)
            d = self.profile.shift_of_arrays(lines) * periods_per_window
            zero = d == 0
            if zero.any():
                for ln, c in zip(
                    lines[zero].tolist(), cnts[zero].tolist()
                ):
                    by_line[ln] += c * windows
            moving = ~zero
            if moving.any():
                # All (line + j·d) targets at once, aggregated densely:
                # the targets of one window tile a contiguous band, so a
                # bincount over the offset range beats per-key updates.
                tgt = (
                    lines[moving][:, None]
                    + d[moving][:, None]
                    * np.arange(1, windows + 1, dtype=np.int64)
                ).ravel()
                wts = np.repeat(cnts[moving], windows)
                lo = int(tgt.min())
                acc = np.bincount(tgt - lo, weights=wts)
                for off in np.flatnonzero(acc).tolist():
                    by_line[lo + off] += int(acc[off])
        if series is not None and delta.per_run_fs is not None:
            tiled = np.tile(
                np.asarray(delta.per_run_fs, dtype=np.int64), windows
            ).cumsum()
            series.extend((tiled + series[-1]).tolist())
        # Advance the cache state to where full simulation would be.
        self.detector.shift_lines(
            rename_arrays=self.profile.renamer_arrays(
                windows * periods_per_window
            )
        )
        self.runs_extrapolated += windows * window_runs

    # -- driver -------------------------------------------------------------------

    def _run_exec(
        self, base: int, E: int, series: list[int] | None, hits, skipped
    ) -> None:
        """One execution of the parallel loop, with early-exit detection.

        Detection is staged so the steady path costs almost nothing when
        periodicity never materializes:

        1. every window, compare the 9 scalar stat deltas against the
           previous window's (a tuple compare) and the per-thread stack
           *sizes* (an ``O(T)`` equilibrium proxy: during LRU warm-up
           sizes grow monotonically, so no hashing happens until the
           footprint saturates);
        2. while both repeat, fingerprint the canonical cache state at
           boundaries with exponential backoff — a kernel whose counters
           are periodic but whose state never converges costs only
           ``O(log windows)`` hashes; attempts further wait out the
           estimated warm-up horizon (see ``first_attempt_window``);
        3. each attempt also snapshots the full stat state, so two
           boundaries with equal canonical fingerprints — which prove
           the states are shift-isomorphic — immediately yield the
           repeat unit (stats now − stats at the matching boundary) and
           the remainder is closed over all remaining whole units with
           no further simulation; the ragged tail is simulated.

        Step 3's exactness needs no delta verification at all: equal
        canonical fingerprints mean every future unit is the shifted
        image of the captured one (detector transitions commute with
        line renaming) — the delta comparisons only gate *when* hashing
        is worth attempting.
        """
        P = self.window_runs
        p = self.profile.period_runs
        # Bulk-simulate the estimated warm-up (minus the two windows the
        # detection chain needs as context) in one big-block call —
        # detection bookkeeping is pointless before isomorphism is even
        # possible, and bigger blocks amortize the vectorized core.  The
        # gate (rule 2 of ``steady_state_runner``) guarantees it fits.
        r = (self.first_attempt_window - 2) * P
        self._simulate_runs(base, 0, r, series)
        prev_scalars: tuple[int, ...] | None = None
        prev_sizes: tuple[int, ...] | None = None
        pending_fp: bytes | None = None
        pending_r = -1
        next_attempt = self.first_attempt_window
        fp_gap = 1
        while r + P <= E:
            before = self._scalar_snapshot()
            self._simulate_runs(base, r, P, series)
            r += P
            window_idx = r // P
            after = self._scalar_snapshot()
            delta_s = tuple(b - a for a, b in zip(before, after))
            sizes = self.detector.stack_sizes()
            if (
                prev_scalars is None
                or delta_s != prev_scalars
                or sizes != prev_sizes
            ):
                prev_scalars = delta_s
                prev_sizes = sizes
                if pending_fp is not None:
                    self._end_capture()
                pending_fp = None
                pending_r = -1
                continue
            prev_scalars = delta_s
            prev_sizes = sizes
            if window_idx < next_attempt:
                continue
            fp = self.detector.state_fingerprint(
                canon_arrays=self.profile.canon_arrays(r // p)
            )
            if pending_fp is None or fp != pending_fp:
                if pending_fp is not None:
                    fp_gap *= 2  # state not converged yet: back off
                    self._end_capture()
                pending_fp = fp
                pending_r = r
                self._begin_capture()
                next_attempt = window_idx + fp_gap
                continue
            # States at pending_r and r are shift-isomorphic: the runs
            # in between are the repeat unit, already simulated and
            # captured — close the remainder exactly with no further
            # simulation.
            D = r - pending_r
            windows = (E - r) // D
            if windows == 0:
                # Remainder shorter than the unit: tighten the pending
                # boundary so a later (smaller-gap) match can still win.
                self._end_capture()
                pending_fp = fp
                pending_r = r
                self._begin_capture()
                continue
            delta = self._captured_delta(series, D)
            self._extrapolate(delta, windows, D, series)
            r += windows * D
            self.steady_hits += 1
            hits.inc()
            skipped.inc(windows * D)
            break
        if self._saved_counters is not None:
            self._end_capture()
        if r < E:
            self._simulate_runs(base, r, E - r, series)

    def run(self) -> tuple[int, int, list[int] | None]:
        """Execute the whole loop; returns (simulated, extrapolated, series)."""
        series: list[int] | None = [] if self.record_series else None
        profile = self.profile
        E = profile.runs_per_exec
        spr = self.gen.iteration_space.steps_per_chunk_run
        kernel = self.gen.nest.name
        registry = get_registry()
        hits = registry.counter(
            "steadystate_hits_total",
            "periodicity detections that triggered exact extrapolation",
        ).labels(kernel=kernel)
        skipped = registry.counter(
            "steadystate_runs_extrapolated_total",
            "chunk runs closed by exact steady-state extrapolation",
        ).labels(kernel=kernel)
        with span(
            "model.steadystate", kernel=kernel,
            period_runs=profile.period_runs, window_runs=self.window_runs,
        ) as sp:
            for o in range(profile.execs):
                self._run_exec(o * E * spr, E, series, hits, skipped)
            sp.set(
                runs_simulated=self.runs_simulated,
                runs_extrapolated=self.runs_extrapolated,
                hits=self.steady_hits,
            )
        return self.runs_simulated, self.runs_extrapolated, series


def _window_plan(
    profile: ShiftProfile, steps_per_run: int, stack_lines: int
) -> tuple[int, int]:
    """The runner's detection window (chunk runs) and first attempt.

    Window sizing: big enough that one window amortizes the vectorized
    detector's per-call cost (~a few hundred lockstep steps), small
    enough that an execution holds many windows — detection latency,
    and therefore the simulated prefix, is one window granule.

    When some array shifts, the gate only lets the runner see loops
    whose footprint exceeds the per-thread stack capacity (the eviction
    regime).  There the first ~capacity/lines-per-run chunk runs of
    every execution are a warm-up: residual lines from the cold cache
    (or the previous execution) are still being evicted, so boundary
    states cannot be shift-isomorphic yet even though the stat deltas
    and stack sizes already look steady.  Estimating that horizon up
    front avoids burning fingerprint backoff on provably-premature
    attempts; correctness never depends on it.
    """
    p = profile.period_runs
    target_steps = max(steps_per_run, 256)
    batch = max(1, target_steps // max(p * steps_per_run, 1))
    batch = min(batch, max(1, profile.runs_per_exec // (8 * p)))
    window_runs = batch * p
    first_attempt_window = 2
    shift_total = sum(abs(d) for d in profile.line_shifts)
    if shift_total > 0:
        warmup_runs = stack_lines * p // shift_total
        first_attempt_window = max(2, warmup_runs // window_runs + 1)
    return window_runs, first_attempt_window


def steady_state_gate(
    gen: OwnershipListGenerator, stack_lines: int
) -> tuple[ShiftProfile | None, str]:
    """Whether the runner could extrapolate a full-loop analysis.

    Returns the shift profile (``None`` when the nest has none) and the
    reason: ``"ran"`` when the runner may extrapolate, else
    ``"ineligible"`` (no shift profile), ``"no-eviction"`` (rule 1) or
    ``"too-short"`` (rule 2).  Each rule sets a minimum chunk-run count
    per execution — unbounded for rule 1 — below which the runner
    provably extrapolates nothing, so a decline changes no result,
    counter or ``runs_extrapolated`` value.

    **Rule 1: no eviction → never.**  Applies when some referenced array
    shifts by ``d_i != 0`` lines per period and the nest's footprint
    fits the per-thread stack (``footprint_lines <= stack_lines``).
    Then no line is ever evicted, so a line leaves a thread's stack only
    when another thread writes it, and that thread then holds it: the
    union ``U`` of held lines only grows.  Equal canonical fingerprints
    at boundaries ``b < b'``, ``k`` periods apart, would need
    ``U_i(b') = U_i(b) + k·d_i``.  Since ``U_i(b) ⊆ U_i(b')`` and both
    sets are the same size, they are equal, and a finite non-empty set
    cannot equal its own non-zero translate.  (``U_i`` is non-empty from
    the first window on: every step references array ``i``.)

    **Rule 2: too short → never.**  The first fingerprint waits for
    window ``first_attempt_window``, a match needs one more window, and
    extrapolation then needs at least one whole repeat unit, which is at
    least one window.  An execution shorter than
    ``(first_attempt_window + 2) · window_runs`` chunk runs ends first.

    The window size and warm-up horizon are the runner's own
    (:func:`_window_plan`), so the gate and the walk it guards cannot
    disagree about them.
    """
    profile = compute_shift_profile(gen, gen.num_threads)
    if profile is None:
        return None, "ineligible"
    if any(profile.line_shifts) and profile.footprint_lines <= stack_lines:
        return profile, "no-eviction"
    window_runs, first_attempt_window = _window_plan(
        profile, gen.iteration_space.steps_per_chunk_run, stack_lines
    )
    if profile.runs_per_exec < (first_attempt_window + 2) * window_runs:
        return profile, "too-short"
    return profile, "ran"


def steady_state_runner(
    gen: OwnershipListGenerator,
    detector: FSDetector,
    thread_order: Sequence[int] | None = None,
    budget: Budget | None = None,
    record_series: bool = False,
    block_steps: int = 4096,
) -> tuple[SteadyStateRunner | None, str]:
    """The runner for a full-loop analysis, or ``None`` where it cannot win.

    Returns the runner (``None`` tells the model to walk plain blocks)
    and :func:`steady_state_gate`'s reason.
    """
    profile, reason = steady_state_gate(gen, detector.stack_lines)
    if reason != "ran":
        return None, reason
    runner = SteadyStateRunner(
        gen,
        detector,
        profile,
        thread_order=thread_order,
        budget=budget,
        record_series=record_series,
        block_steps=block_steps,
    )
    return runner, reason
