"""The multicore execution substrate — the reproduction's "testbed".

:class:`MulticoreSimulator` executes a parallel loop nest's memory trace
through per-core MESI caches with per-access timing, producing the
``T_fs_measure`` / ``T_nfs_measure`` numbers of the paper's Eq. (5) left
side.  It deliberately shares *inputs* with the analytic side — the same
IR, the same static schedule, the same :class:`MachineConfig` — but none
of its *mechanism*: the model counts FS cases analytically over
fully-associative cache states; the simulator runs every access through
set-associative caches, a MESI directory and a cost table.  Agreement
between the two is therefore evidence the model works, not an identity.

Two executors walk each lockstep block.  :class:`LoopSimulator` runs
every access through one flattened loop; it is the oracle, and the
fallback for blocks in which a TLB can overflow or that have more
threads than the core's holder masks.  :class:`MulticoreSimulator`
sends every other block to the NumPy block core of
:mod:`repro.sim.blockcore`, which computes the same outcomes, evictions,
costs and cycle floats for the whole block at once.

Timing model
------------
Per-thread cycle accumulators advance access by access; the compute cost
of each innermost iteration comes from the shared
:class:`~repro.costmodels.ProcessorModel`, and loop/parallel overheads
from :class:`~repro.costmodels.ParallelModel`.  The loop's wall-clock
cycles are the slowest thread's total plus the runtime overheads —
threads synchronize only at worksharing boundaries, as in OpenMP.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.costmodels.parallel import ParallelModel
from repro.costmodels.processor import ProcessorModel
from repro.ir.loops import ParallelLoopNest
from repro.ir.refs import AddressSpace
from repro.ir.validate import validate_nest
from repro.machine import MachineConfig
from repro.machine.topology import pair_penalty_factory
from repro.model.ownership import OwnershipListGenerator
from repro.obs import get_registry, span
from repro.sim import blockcore
from repro.sim.cache import set_geometry
from repro.sim.timing import AccessCosts
from repro.util import get_logger

logger = get_logger(__name__)

#: Integer-coded MESI states of the access loop (Invalid is absence).
_S, _E, _M = blockcore.S, blockcore.E, blockcore.M


@dataclass
class SimCounters:
    """Event counts accumulated over a simulated execution."""

    loads: int = 0
    stores: int = 0
    load_hits: int = 0
    store_hits: int = 0
    load_prefetched: int = 0
    load_shared_fills: int = 0
    load_cold: int = 0
    load_remote_modified: int = 0
    store_upgrades: int = 0
    store_miss_clean: int = 0
    store_miss_remote_modified: int = 0
    invalidations: int = 0
    downgrades: int = 0
    evictions: int = 0
    tlb_misses: int = 0

    @property
    def coherence_events(self) -> int:
        """Accesses that found the line dirty in a remote cache —
        the simulator-side analogue of the model's FS cases."""
        return self.load_remote_modified + self.store_miss_remote_modified

    @property
    def accesses(self) -> int:
        return self.loads + self.stores


@dataclass
class SimResult:
    """Outcome of one simulated execution of a parallel nest."""

    nest_name: str
    num_threads: int
    chunk: int
    cycles: float
    per_thread_cycles: np.ndarray
    compute_cycles_per_iter: float
    steps: int
    counters: SimCounters
    elapsed_seconds: float
    freq_ghz: float = 2.2

    @property
    def seconds(self) -> float:
        """Simulated wall-clock time of the loop."""
        return self.cycles / (self.freq_ghz * 1e9)

    @property
    def memory_cycles(self) -> float:
        """The slowest thread's total cycles: its accesses plus its
        compute and loop overhead, before the runtime overheads that
        ``cycles`` adds (not memory cycles alone, despite the name)."""
        return float(self.per_thread_cycles.max()) if len(self.per_thread_cycles) else 0.0


def _stride_predictions(
    lines: np.ndarray, last: np.ndarray, stride: np.ndarray
) -> np.ndarray:
    """Which of one thread's accesses in a block the stride prefetcher
    predicts: a bool array shaped like ``lines`` ``[steps, refs]``.

    Each reference keeps its last line and its learned line stride; an
    access is predicted when it moves by a nonzero stride equal to the
    learned one.  A zero move (sub-line progress) neither predicts nor
    changes the learned stride.  ``last`` and ``stride`` carry the state
    across blocks and are updated in place.
    """
    n = len(lines)
    if not n:
        return np.zeros(lines.shape, dtype=bool)
    delta = lines - np.vstack([last[None, :], lines[:-1]])
    moved = delta != 0
    # Index of the latest move at or before each step (-1: none yet).
    latest = np.where(moved, np.arange(n)[:, None], -1)
    np.maximum.accumulate(latest, axis=0, out=latest)
    learned = np.empty_like(delta)
    learned[0] = stride
    prior = latest[:-1]
    learned[1:] = np.where(
        prior >= 0,
        np.take_along_axis(delta, np.maximum(prior, 0), axis=0),
        stride,
    )
    last[:] = lines[-1]
    final = latest[-1]
    stride[:] = np.where(
        final >= 0, delta[np.maximum(final, 0), np.arange(lines.shape[1])], stride
    )
    return moved & (delta == learned)


class SimRun:
    """The mutable state of one simulation, shared by the loop and the
    block core: every cache, TLB, directory entry, memo, cycle total
    and counter the walk carries from block to block."""

    def __init__(
        self,
        sim: LoopSimulator,
        gen: OwnershipListGenerator,
        num_threads: int,
        per_step_cycles: float,
    ) -> None:
        machine = sim.machine
        c = sim.costs
        self.num_threads = num_threads
        self.per_step_cycles = per_step_cycles
        self.costs = c
        # Dirty-remote costs by (requester, owner): the base cost scaled
        # by the pair's socket penalty, truncated to whole cycles.
        penalty = pair_penalty_factory(
            num_threads,
            machine.cores_per_socket,
            sim.thread_placement,
            machine.coherence.cross_socket_factor,
        )

        def pair_costs(base: int) -> list[list[int]]:
            return [
                [int(base * penalty(t, k)) for k in range(num_threads)]
                for t in range(num_threads)
            ]

        self.load_rm_costs = pair_costs(c.load_remote_modified)
        self.store_rm_costs = pair_costs(c.store_miss_remote_modified)

        l2 = machine.l2
        self.num_sets, self.ways = set_geometry(
            l2.num_lines, 0 if sim.fully_associative else l2.associativity
        )
        # caches[t][set] maps line -> state; the first key is the LRU way.
        self.caches: list[list[dict[int, int]]] = [
            [{} for _ in range(self.num_sets)] for _ in range(num_threads)
        ]
        # Per-thread fully-associative TLBs at page granularity (the
        # paper models the TLB as another cache level), plus the page
        # each TLB touched last: re-touching it changes nothing.
        self.lines_per_page = machine.page_size // machine.line_size
        self.tlb_entries = machine.tlb_entries
        self.tlb_miss_cycles = machine.tlb_miss_cycles
        self.tlbs: list[dict[int, None]] = [{} for _ in range(num_threads)]
        self.tlb_last: list[int | None] = [None] * num_threads
        self.holders: dict[int, int] = {}
        self.writers: dict[int, int] = {}
        self.l3_seen: set[int] = set()
        # MRU memo: a thread re-touching its last line, with a state that
        # needs no transition, is a hit that moves nothing.
        self.mru_line: list[int | None] = [None] * num_threads
        self.mru_mod: list[bool] = [False] * num_threads
        self.cycles = [0.0] * num_threads

        self.writes = tuple(bool(w) for w in gen.write_mask)
        self.hit_costs = tuple(c.store_hit if w else c.load_hit for w in self.writes)
        # Step memo: a thread repeating its last step's lines hits on
        # every access and changes no cache, TLB or memo state, provided
        # that step evicted nothing and no other thread has invalidated
        # or downgraded one of its copies since.  Such a step costs the
        # same float sum as any all-hit step.
        self.last_row: list[list[int] | None] = [None] * num_threads
        self.undisturbed = [False] * num_threads
        repeat_cost = per_step_cycles
        for hit_cost in self.hit_costs:
            repeat_cost += hit_cost
        self.repeat_cost = repeat_cost
        # Misses, invalidations, downgrades, evictions and TLB misses;
        # the access and hit counts are derived when the run ends.
        self.counters = SimCounters()
        #: the block core's unapplied write-back (see ``blockcore``)
        self.pending: object | None = None


class LoopSimulator:
    """Cycle-approximate multicore cache/coherence simulator that walks
    every access through one flattened loop.

    It is the oracle of :class:`MulticoreSimulator` and its fallback for
    blocks the block core cannot take; tests build it directly.

    Parameters
    ----------
    machine:
        Machine description (cache geometry, penalties, overheads).
    block_steps:
        Lockstep steps fetched per trace block.
    fully_associative:
        Force fully-associative private caches (for the associativity
        ablation; default uses the machine's set-associative geometry).
    """

    def __init__(
        self,
        machine: MachineConfig,
        block_steps: int = 4096,
        fully_associative: bool = False,
        prefetcher: bool = True,
        thread_placement: str = "contiguous",
    ) -> None:
        self.machine = machine
        self.block_steps = block_steps
        self.fully_associative = fully_associative
        #: Thread-to-socket pinning policy; coherence penalties between
        #: threads on different sockets scale by
        #: ``machine.coherence.cross_socket_factor`` (1.0 by default).
        self.thread_placement = thread_placement
        #: Per-(thread, reference) constant-stride prefetcher.  Modern
        #: cores hide constant-stride load streams almost entirely; a
        #: coherence miss (dirty remote copy) cannot be hidden because
        #: any prefetched copy is invalidated before use — which is
        #: precisely why false sharing survives prefetching on real
        #: hardware while plain streaming misses do not.
        self.prefetcher = prefetcher
        self.costs = AccessCosts.from_machine(machine)
        self._processor = ProcessorModel(machine)
        self._parallel = ParallelModel(machine)

    def run(
        self,
        nest: ParallelLoopNest,
        num_threads: int,
        chunk: int | None = None,
        space: AddressSpace | None = None,
        max_steps: int | None = None,
    ) -> SimResult:
        """Simulate the nest and return timing plus event counts."""
        if num_threads <= 0:
            raise ValueError(f"num_threads must be positive, got {num_threads}")
        if chunk is not None:
            nest = nest.with_chunk(chunk)
        validate_nest(nest)

        with span("sim.run", kernel=nest.name, threads=num_threads) as sp:
            result = self._run(nest, num_threads, space, max_steps)
            sp.set(
                chunk=result.chunk,
                accesses=result.counters.accesses,
                coherence_events=result.counters.coherence_events,
            )
        return result

    def _run(
        self,
        nest: ParallelLoopNest,
        num_threads: int,
        space: AddressSpace | None,
        max_steps: int | None,
    ) -> SimResult:
        """Walk the trace block by block through every core's caches."""
        t0 = time.perf_counter()
        machine = self.machine
        gen = OwnershipListGenerator(
            nest,
            num_threads,
            line_size=machine.line_size,
            space=space,
            block_steps=self.block_steps,
        )
        compute = self._processor.cycles_per_iter(nest)
        loop_oh = self._parallel.loop_overhead_per_iter(nest)
        run = SimRun(self, gen, num_threads, compute + loop_oh)
        n_refs = len(run.writes)
        # Stride-prefetcher state per (thread, reference), carried from
        # block to block by _stride_predictions.
        use_pf = self.prefetcher
        pf_last = [np.full(n_refs, -1, dtype=np.int64) for _ in range(num_threads)]
        pf_delta = [np.zeros(n_refs, dtype=np.int64) for _ in range(num_threads)]

        thread_steps = total_steps = 0
        steps_per_run = max(gen.iteration_space.steps_per_chunk_run, 1)
        progress = get_registry().gauge(
            "sim_progress_chunk_runs",
            "chunk runs completed by the in-flight simulation",
        ).labels(kernel=nest.name, threads=num_threads)
        for block in gen.blocks(max_steps):
            with span("sim.block", start_step=block.start_step) as block_span:
                lines = block.lines
                flags = None
                if use_pf:
                    flags = tuple(
                        _stride_predictions(mat, pf_last[t], pf_delta[t])
                        for t, mat in enumerate(lines)
                    )
                n_steps = max((len(m) for m in lines), default=0)
                total_steps += n_steps
                thread_steps += sum(len(m) for m in lines)
                self._simulate_block(run, lines, flags)
                # block ends; state persists across blocks
                block_span.set(steps=n_steps)
            progress.set(total_steps // steps_per_run)
            logger.debug(
                "sim %s: %d chunk runs done (%d steps)",
                nest.name, total_steps // steps_per_run, total_steps,
            )

        n_writes = sum(run.writes)
        ctr = run.counters
        ctr.loads = thread_steps * (n_refs - n_writes)
        ctr.stores = thread_steps * n_writes
        # Every access is exactly one hit or one of the miss outcomes,
        # so hits are what the misses leave of the loads and stores.
        ctr.load_hits = (
            ctr.loads - ctr.load_prefetched - ctr.load_shared_fills
            - ctr.load_cold - ctr.load_remote_modified
        )
        ctr.store_hits = (
            ctr.stores - ctr.store_upgrades - ctr.store_miss_clean
            - ctr.store_miss_remote_modified
        )

        par_oh = machine.overheads
        trips = nest.trip_counts()
        d = nest.parallel_depth()
        outer_runs = 1
        for tr in trips[:d]:
            outer_runs *= max(tr, 1)
        est = self._parallel.estimate(nest, num_threads)
        cycles = run.cycles
        wall = (
            max(cycles)
            + par_oh.parallel_startup_cycles
            + est.dispatch_cycles / num_threads
            + par_oh.barrier_cycles_per_thread * outer_runs
        )
        elapsed = time.perf_counter() - t0
        registry = get_registry()
        if elapsed > 0:
            registry.gauge(
                "sim_accesses_per_sec",
                "simulated accesses processed per second by the last run",
            ).labels(kernel=nest.name, threads=num_threads).set(
                ctr.accesses / elapsed
            )
        registry.counter(
            "sim_coherence_events",
            "accesses that found the line dirty in a remote cache",
        ).labels(kernel=nest.name, threads=num_threads).inc(
            ctr.coherence_events
        )
        registry.histogram(
            "sim_run_seconds", "wall time of MulticoreSimulator.run"
        ).labels(kernel=nest.name).observe(elapsed)
        result = SimResult(
            nest_name=nest.name,
            num_threads=num_threads,
            chunk=gen.iteration_space.chunk,
            cycles=wall,
            per_thread_cycles=np.asarray(cycles),
            compute_cycles_per_iter=compute,
            steps=total_steps,
            counters=ctr,
            elapsed_seconds=elapsed,
            freq_ghz=machine.freq_ghz,
        )
        logger.debug(
            "sim %s T=%d chunk=%d: %.0f cycles, %d coherence events (%.3fs)",
            nest.name, num_threads, result.chunk, wall,
            ctr.coherence_events, elapsed,
        )
        return result

    def _simulate_block(
        self,
        run: SimRun,
        lines: tuple[np.ndarray, ...],
        flags: tuple[np.ndarray, ...] | None,
    ) -> None:
        """Walk one block (or a step range of one) access by access.

        Every MESI transition, directory update and LRU move happens in
        line, on per-thread lists of per-set ``dict`` objects (insertion
        order is LRU order) holding integer-coded states.  Each thread's
        step cost starts at ``per_step_cycles`` and adds its accesses'
        TLB and access costs in trace order.
        """
        rows = [mat.tolist() for mat in lines]
        lengths = [len(r) for r in rows]
        n_steps = max(lengths, default=0)
        use_pf = flags is not None
        if use_pf:
            predictions = [f.tobytes() for f in flags]

        c = run.costs
        load_hit, store_hit = c.load_hit, c.store_hit
        load_prefetched, load_shared_fill = c.load_prefetched, c.load_shared_fill
        load_cold, store_upgrade = c.load_cold, c.store_upgrade
        store_miss_clean = c.store_miss_clean
        per_step_cycles = run.per_step_cycles
        repeat_cost = run.repeat_cost
        writes = run.writes
        hit_costs = run.hit_costs
        n_refs = len(writes)
        set_mask = run.num_sets - 1
        ways = run.ways
        caches = run.caches
        lines_per_page = run.lines_per_page
        tlb_entries = run.tlb_entries
        tlb_miss_cycles = run.tlb_miss_cycles
        tlb_last = run.tlb_last
        holders = run.holders
        writers = run.writers
        l3_seen = run.l3_seen
        mru_line = run.mru_line
        mru_mod = run.mru_mod
        last_row = run.last_row
        undisturbed = run.undisturbed
        cycles = run.cycles
        threads = [
            (t, 1 << t, caches[t], run.tlbs[t], run.load_rm_costs[t],
             run.store_rm_costs[t])
            for t in range(run.num_threads)
        ]

        # Event counts.  Hits are not counted: every access is exactly
        # one hit or one of the miss outcomes below.
        load_prefetched_n = load_shared_fills = load_cold_n = 0
        load_remote_modified = store_upgrades = store_miss_clean_n = 0
        store_miss_remote_modified = invalidations = downgrades = 0
        evictions = tlb_misses = 0

        for s in range(n_steps):
            for t, bit, sets, tlb, load_rm, store_rm in threads:
                if s >= lengths[t]:
                    continue
                row = rows[t][s]
                if undisturbed[t] and row == last_row[t]:
                    cycles[t] += repeat_cost
                    continue
                cost = per_step_cycles
                m_line = mru_line[t]
                m_mod = mru_mod[t]
                last_page = tlb_last[t]
                evicted = False
                for k, line in enumerate(row):
                    w = writes[k]
                    if line == m_line and (m_mod or not w):
                        cost += hit_costs[k]
                        continue
                    # TLB lookup; the MRU path above implies a
                    # same-page hit.
                    page = line // lines_per_page
                    if page != last_page:
                        if page in tlb:
                            del tlb[page]
                        else:
                            tlb_misses += 1
                            cost += tlb_miss_cycles
                            if len(tlb) == tlb_entries:
                                del tlb[next(iter(tlb))]
                                evicted = True
                        tlb[page] = None
                        last_page = page

                    si = line & set_mask
                    cset = sets[si]
                    # A hit re-inserts the line at the MRU end.
                    st = cset.pop(line, None)
                    if st is not None:  # ---- hit ----
                        if not w:
                            cset[line] = st
                            m_line = line
                            m_mod = st == _M
                            cost += load_hit
                        elif st != _S:
                            if st == _E:
                                writers[line] = writers.get(line, 0) | bit
                            cset[line] = _M
                            m_line = line
                            m_mod = True
                            cost += store_hit
                        else:
                            # S: upgrade, invalidating the other
                            # sharers.
                            remote = holders.get(line, 0) & ~bit
                            while remote:
                                low = remote & -remote
                                r = low.bit_length() - 1
                                if caches[r][si].pop(line, None) is not None:
                                    invalidations += 1
                                if mru_line[r] == line:
                                    mru_line[r] = None
                                undisturbed[r] = False
                                remote ^= low
                            holders[line] = bit
                            writers[line] = bit
                            cset[line] = _M
                            m_line = line
                            m_mod = True
                            store_upgrades += 1
                            cost += store_upgrade
                        continue

                    # ---- miss ----
                    foreign_writers = writers.get(line, 0) & ~bit
                    line_holders = holders.get(line, 0)
                    foreign_holders = line_holders & ~bit
                    if not w:
                        # Remote M/E copies drop to S; only a
                        # dirty owner's downgrade is counted.
                        if foreign_writers:
                            acc = load_rm[foreign_writers.bit_length() - 1]
                            load_remote_modified += 1
                            remote = foreign_writers
                            counted = True
                            writers[line] = 0
                            state = _S
                        else:
                            if use_pf and predictions[t][s * n_refs + k]:
                                acc = load_prefetched
                                load_prefetched_n += 1
                            elif foreign_holders or line in l3_seen:
                                acc = load_shared_fill
                                load_shared_fills += 1
                            else:
                                acc = load_cold
                                load_cold_n += 1
                            remote = foreign_holders
                            counted = False
                            state = _S if foreign_holders else _E
                        # An M or E copy is always its line's
                        # only copy, so a downgrade among two or
                        # more holders changes nothing.
                        if remote and not remote & (remote - 1):
                            r = remote.bit_length() - 1
                            rset = caches[r][si]
                            if rset.get(line, _S) != _S:
                                rset[line] = _S
                                if counted:
                                    downgrades += 1
                            if mru_line[r] == line:
                                mru_mod[r] = False
                            undisturbed[r] = False
                        holders[line] = line_holders | bit
                        cset[line] = state
                        m_line = line
                        m_mod = False
                    else:
                        if foreign_writers:
                            acc = store_rm[foreign_writers.bit_length() - 1]
                            store_miss_remote_modified += 1
                        else:
                            acc = store_miss_clean
                            store_miss_clean_n += 1
                        remote = foreign_writers | foreign_holders
                        while remote:
                            low = remote & -remote
                            r = low.bit_length() - 1
                            if caches[r][si].pop(line, None) is not None:
                                invalidations += 1
                            if mru_line[r] == line:
                                mru_line[r] = None
                            undisturbed[r] = False
                            remote ^= low
                        holders[line] = bit
                        writers[line] = bit
                        cset[line] = _M
                        m_line = line
                        m_mod = True
                    l3_seen.add(line)
                    if len(cset) > ways:
                        # Evict the LRU way.  It is never the line
                        # just inserted, so the MRU memo stands.
                        victim = next(iter(cset))
                        del cset[victim]
                        holders[victim] = holders.get(victim, 0) & ~bit
                        writers[victim] = writers.get(victim, 0) & ~bit
                        evictions += 1
                        evicted = True
                    cost += acc
                mru_line[t] = m_line
                mru_mod[t] = m_mod
                tlb_last[t] = last_page
                last_row[t] = row
                undisturbed[t] = not evicted
                cycles[t] += cost

        ctr = run.counters
        ctr.load_prefetched += load_prefetched_n
        ctr.load_shared_fills += load_shared_fills
        ctr.load_cold += load_cold_n
        ctr.load_remote_modified += load_remote_modified
        ctr.store_upgrades += store_upgrades
        ctr.store_miss_clean += store_miss_clean_n
        ctr.store_miss_remote_modified += store_miss_remote_modified
        ctr.invalidations += invalidations
        ctr.downgrades += downgrades
        ctr.evictions += evictions
        ctr.tlb_misses += tlb_misses


class MulticoreSimulator(LoopSimulator):
    """The production simulator: :class:`LoopSimulator` with each block
    dispatched to the vectorized block core where it qualifies.

    Results equal the loop's, field by field.  ``fast_blocks`` and
    ``fallback_blocks`` count the blocks (or block pieces) each path
    ran, so callers and tests can see which path ran.
    """

    # Bound on this class as well, so instrumentation that wraps the
    # class's own ``run`` attribute finds it.
    run = LoopSimulator.run

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: blocks (or pieces) simulated by the vectorized core
        self.fast_blocks = 0
        #: blocks (or pieces) walked by the flattened loop
        self.fallback_blocks = 0

    def _simulate_block(
        self,
        run: SimRun,
        lines: tuple[np.ndarray, ...],
        flags: tuple[np.ndarray, ...] | None,
    ) -> None:
        """Run the block through the core if it qualifies; else cut it
        where the qualifying steps end, or walk it in the loop.

        Processing a block equals processing any step-axis split of it
        in sequence.  When the steps before the first access that could
        overflow a TLB are at least a quarter of the block, the core
        takes them and the rest is dispatched again; otherwise the loop
        walks the whole block, so a block that overflows from its start
        costs one failed check, not one per halving.
        """
        # The last core block's write-back lands before this block is
        # qualified or walked.
        blockcore.sync(run)
        n_steps = max((len(m) for m in lines), default=0)
        fit = blockcore.simulate(run, lines, flags)
        if fit == n_steps:
            self.fast_blocks += 1
        elif fit and fit >= n_steps // 4:
            for part in (slice(None, fit), slice(fit, None)):
                self._simulate_block(
                    run,
                    tuple(m[part] for m in lines),
                    None if flags is None else tuple(f[part] for f in flags),
                )
        else:
            self.fallback_blocks += 1
            super()._simulate_block(run, lines, flags)
