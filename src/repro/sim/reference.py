"""The simulator's scalar oracle: the executor as it was before the
flattened access loop.

:class:`ReferenceSimulator` runs every access through
:class:`~repro.sim.cache.PrivateCache` objects and per-access method
calls (``_access``, ``_invalidate_remote``, ``_downgrade_remote``).  It
is slow, but each MESI transition reads as one method, which makes it
the simulator's counterpart of :class:`~repro.model.detector.FSDetector`:
``tests/test_sim_equivalence.py`` checks that
:class:`~repro.sim.executor.MulticoreSimulator` returns a
:class:`~repro.sim.executor.SimResult` equal to this one's, field by
field.  Only tests use it; nothing in the program selects it.
"""

from __future__ import annotations

import time

import numpy as np

from repro.ir.loops import ParallelLoopNest
from repro.ir.refs import AddressSpace
from repro.model.ownership import OwnershipListGenerator
from repro.obs import get_registry, span
from repro.sim.cache import E, M, PrivateCache, S
from repro.sim.executor import MulticoreSimulator, SimCounters, SimResult
from repro.util import get_logger

logger = get_logger(__name__)


class ReferenceSimulator(MulticoreSimulator):
    """The per-access, method-call MESI executor (test oracle).

    Takes the same constructor arguments as :class:`MulticoreSimulator`
    and inherits its ``run``; only the access loop differs.
    """

    def _run(
        self,
        nest: ParallelLoopNest,
        num_threads: int,
        space: AddressSpace | None,
        max_steps: int | None,
    ) -> SimResult:
        t0 = time.perf_counter()
        gen = OwnershipListGenerator(
            nest,
            num_threads,
            line_size=self.machine.line_size,
            space=space,
            block_steps=self.block_steps,
        )
        compute = self._processor.cycles_per_iter(nest)
        loop_oh = self._parallel.loop_overhead_per_iter(nest)
        per_step_cycles = compute + loop_oh

        from repro.machine.topology import pair_penalty_factory

        self._pair_penalty = pair_penalty_factory(
            num_threads,
            self.machine.cores_per_socket,
            self.thread_placement,
            self.machine.coherence.cross_socket_factor,
        )
        l2 = self.machine.l2
        ways = 0 if self.fully_associative else l2.associativity
        caches = [PrivateCache(l2.num_lines, ways) for _ in range(num_threads)]
        # Per-thread TLBs at page granularity (the paper models the TLB
        # as another cache level; the simulator gives each core one).
        lines_per_page = self.machine.page_size // self.machine.line_size
        tlbs = [
            PrivateCache(self.machine.tlb_entries, 0) for _ in range(num_threads)
        ]
        tlb_miss_cycles = self.machine.tlb_miss_cycles
        holders: dict[int, int] = {}
        writers: dict[int, int] = {}
        l3_seen: set[int] = set()
        mru_line: list[int | None] = [None] * num_threads
        mru_mod: list[bool] = [False] * num_threads
        cycles = [0.0] * num_threads
        c = self.costs
        counters = SimCounters()
        total_steps = 0

        writes = tuple(bool(w) for w in gen.write_mask)
        n_refs = len(writes)
        # Stride-prefetcher state per (thread, reference).
        use_pf = self.prefetcher
        pf_last = [[-1] * n_refs for _ in range(num_threads)]
        pf_delta = [[0] * n_refs for _ in range(num_threads)]

        steps_per_run = max(gen.iteration_space.steps_per_chunk_run, 1)
        progress = get_registry().gauge(
            "sim_progress_chunk_runs",
            "chunk runs completed by the in-flight simulation",
        ).labels(kernel=nest.name, threads=num_threads)
        for block in gen.blocks(max_steps):
            block_span = span("sim.block", start_step=block.start_step)
            block_span.__enter__()
            rows = [mat.tolist() for mat in block.lines]
            lengths = [len(r) for r in rows]
            n_steps = max(lengths, default=0)
            total_steps += n_steps
            for s in range(n_steps):
                for t in range(num_threads):
                    if s >= lengths[t]:
                        continue
                    row = rows[t][s]
                    cost = per_step_cycles
                    pl = pf_last[t]
                    pd = pf_delta[t]
                    for k in range(n_refs):
                        line = row[k]
                        w = writes[k]
                        # Prefetch prediction (evaluate before updating).
                        # Zero deltas (sub-line progress) do not disturb a
                        # learned line stride — real stride prefetchers
                        # track byte strides below line granularity.
                        delta = line - pl[k]
                        if delta:
                            predicted = use_pf and delta == pd[k]
                            pd[k] = delta
                        else:
                            predicted = False
                        pl[k] = line
                        # MRU fast path: re-touch with sufficient state.
                        if line == mru_line[t] and (mru_mod[t] or not w):
                            if w:
                                cost += c.store_hit
                                counters.stores += 1
                                counters.store_hits += 1
                            else:
                                cost += c.load_hit
                                counters.loads += 1
                                counters.load_hits += 1
                            continue
                        # TLB lookup (page granularity, per thread); the
                        # MRU fast path above implies a same-page hit.
                        page = line // lines_per_page
                        if tlbs[t].state(page) is None:
                            counters.tlb_misses += 1
                            cost += tlb_miss_cycles
                        tlbs[t].touch(page, S)
                        cost += self._access(
                            t, line, w, caches, holders, writers, l3_seen,
                            mru_line, mru_mod, counters, predicted,
                        )
                    cycles[t] += cost
            # block ends; state persists across blocks
            block_span.set(steps=n_steps)
            block_span.__exit__(None, None, None)
            progress.set(total_steps // steps_per_run)
            logger.debug(
                "sim %s: %d chunk runs done (%d steps)",
                nest.name, total_steps // steps_per_run, total_steps,
            )

        par_oh = self.machine.overheads
        trips = nest.trip_counts()
        d = nest.parallel_depth()
        outer_runs = 1
        for tr in trips[:d]:
            outer_runs *= max(tr, 1)
        est = self._parallel.estimate(nest, num_threads)
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
                counters.accesses / elapsed
            )
        registry.counter(
            "sim_coherence_events",
            "accesses that found the line dirty in a remote cache",
        ).labels(kernel=nest.name, threads=num_threads).inc(
            counters.coherence_events
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
            counters=counters,
            elapsed_seconds=elapsed,
            freq_ghz=self.machine.freq_ghz,
        )
        logger.debug(
            "sim %s T=%d chunk=%d: %.0f cycles, %d coherence events (%.3fs)",
            nest.name, num_threads, result.chunk, wall,
            counters.coherence_events, elapsed,
        )
        return result

    def _access(
        self,
        t: int,
        line: int,
        w: bool,
        caches: list[PrivateCache],
        holders: dict[int, int],
        writers: dict[int, int],
        l3_seen: set[int],
        mru_line: list[int | None],
        mru_mod: list[bool],
        counters: SimCounters,
        predicted: bool = False,
    ) -> int:
        """Full MESI transition for one access; returns its cycle cost."""
        bit = 1 << t
        cache = caches[t]
        st = cache.state(line)

        if w:
            counters.stores += 1
        else:
            counters.loads += 1

        if st is not None:  # ---- hit ----
            if not w:
                counters.load_hits += 1
                cache.touch(line, st)
                mru_line[t] = line
                mru_mod[t] = st == M
                return self.costs.load_hit
            if st in (M, E):
                counters.store_hits += 1
                if st == E:
                    writers[line] = writers.get(line, 0) | bit
                cache.touch(line, M)
                mru_line[t] = line
                mru_mod[t] = True
                return self.costs.store_hit
            # S: upgrade — invalidate the other sharers.
            remote = holders.get(line, 0) & ~bit
            self._invalidate_remote(line, remote, caches, mru_line, counters)
            holders[line] = bit
            writers[line] = bit
            cache.touch(line, M)
            mru_line[t] = line
            mru_mod[t] = True
            counters.store_upgrades += 1
            return self.costs.store_upgrade

        # ---- miss ----
        foreign_writers = writers.get(line, 0) & ~bit
        foreign_holders = holders.get(line, 0) & ~bit
        evicted: int | None
        if not w:
            if foreign_writers:
                writer = foreign_writers.bit_length() - 1
                cost = int(
                    self.costs.load_remote_modified * self._pair_penalty(t, writer)
                )
                counters.load_remote_modified += 1
                self._downgrade_remote(
                    line, foreign_writers, caches, mru_line, mru_mod, counters
                )
                writers[line] = 0
                state = S
            elif foreign_holders:
                if predicted:
                    cost = self.costs.load_prefetched
                    counters.load_prefetched += 1
                else:
                    cost = self.costs.load_shared_fill
                    counters.load_shared_fills += 1
                # An exclusive-clean holder loses E.
                self._downgrade_remote(
                    line, foreign_holders, caches, mru_line, mru_mod, counters,
                    count=False,
                )
                state = S
            else:
                if predicted:
                    cost = self.costs.load_prefetched
                    counters.load_prefetched += 1
                elif line in l3_seen:
                    cost = self.costs.load_shared_fill
                    counters.load_shared_fills += 1
                else:
                    cost = self.costs.load_cold
                    counters.load_cold += 1
                state = E
            holders[line] = holders.get(line, 0) | bit
            evicted = cache.touch(line, state)
            mru_line[t] = line
            mru_mod[t] = False
        else:
            if foreign_writers:
                writer = foreign_writers.bit_length() - 1
                cost = int(
                    self.costs.store_miss_remote_modified
                    * self._pair_penalty(t, writer)
                )
                counters.store_miss_remote_modified += 1
            else:
                cost = self.costs.store_miss_clean
                counters.store_miss_clean += 1
            remote = foreign_writers | foreign_holders
            self._invalidate_remote(line, remote, caches, mru_line, counters)
            holders[line] = bit
            writers[line] = bit
            evicted = cache.touch(line, M)
            mru_line[t] = line
            mru_mod[t] = True
        l3_seen.add(line)

        if evicted is not None:
            holders[evicted] = holders.get(evicted, 0) & ~bit
            writers[evicted] = writers.get(evicted, 0) & ~bit
            if mru_line[t] == evicted:
                mru_line[t] = None
            counters.evictions += 1
        return cost

    def _invalidate_remote(
        self, line, mask, caches, mru_line, counters
    ) -> None:
        while mask:
            low = mask & -mask
            k = low.bit_length() - 1
            if caches[k].invalidate(line):
                counters.invalidations += 1
            if mru_line[k] == line:
                mru_line[k] = None
            mask ^= low

    def _downgrade_remote(
        self, line, mask, caches, mru_line, mru_mod, counters, count: bool = True
    ) -> None:
        while mask:
            low = mask & -mask
            k = low.bit_length() - 1
            if caches[k].downgrade(line) and count:
                counters.downgrades += 1
            if mru_line[k] == line:
                mru_mod[k] = False
            mask ^= low
