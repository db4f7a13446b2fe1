"""Vectorized fast path for the FS detector (the model's hot engine).

:class:`FastFSDetector` processes an entire lockstep block with NumPy
array operations instead of the reference detector's per-access Python
loop.  It is **result-identical** to :class:`~repro.model.detector.
FSDetector` — same ``FSStats`` counters, same per-thread LRU stacks
(content, order *and* M/S states), same holder/writer bitmasks — which
the property suite (``tests/test_fastdetect.py``) asserts on random
traces and the benchmark harness asserts on every table/figure config.

How it works
------------
In ``invalidate`` mode the per-line coherence state collapses to
``(owner, holders)``: a write sets ``writers[line] = {t}`` and a read
clears all foreign writer bits, so at most one writer exists at any
time.  With that invariant, and as long as **no evicted line interacts
with any in-block access**, lines evolve independently — the only
cross-line coupling in the detector is LRU capacity pressure.  The
fast path therefore:

1. stacks the block column-major and gives every access a timestamp
   encoding the lockstep interleaving (step-major, then thread order,
   then program order of references) in power-of-two bit fields;
2. collapses each thread's same-line references within a step to the
   first one, plus the first write after a leading read: the thread's
   references in one step have consecutive timestamps, so the others
   find it already a reader or the sole owner and change nothing but
   LRU order;
3. groups the kept events by line with one index-free ``np.sort`` of
   packed ``line << span_bits | ts`` keys (a two-key ``np.lexsort``
   only for negative or astronomical line ids) and splits each group
   into *segments* at write events — within a segment the owner is
   constant until the first foreign read downgrades it;
4. evaluates φ/mask per segment: the write leading a segment is an FS
   write case iff the previous segment (or the carried state) ends with
   a foreign owner; the first foreign read of a segment is the single
   FS read case + downgrade the reference detector would count;
   misses are first occurrences of ``(segment, thread)`` outside the
   segment's base holder mask; invalidations are popcounts of the
   holder mask a write destroys — all with ``reduceat``/``unique``;
5. writes the final ``(owner, holders)`` per line back into the dicts
   and reconstructs each thread's LRU stack exactly: surviving
   untouched lines keep their relative order, touched-and-held lines
   re-enter above them ordered by their last own access — the last
   column of the step's row that holds the line, which the collapse
   may have dropped — precisely where the reference's pop/re-insert
   discipline puts them.
   This write-back is *deferred*: the block leaves its final per-line
   arrays pending, and they are applied the first time anything reads
   or advances the detector (the next block, ``access``, fingerprinting,
   shifting or inspection).  A model analysis reads only ``stats`` after
   its last block, so there the write-back never runs.

A caller that needs the cumulative FS count after every chunk run (the
predictor, Fig. 6) passes ``run_steps``, and the block still takes one
core call: each FS case lands in the run its step falls in — the step
field of the timestamp of its segment's first foreign read or leading
write — and the series is the runs' prefix sums.

Capacity pressure is handled in the common *streaming* shape: when the
``K`` evictions a thread's stack needs (``|stack| + |new lines| −
capacity``) all land on its ``K`` least-recently-used entries and none
of those entries is touched by *any* thread in the block, the evictions
cannot interact with any in-block access — the reference would pop
exactly those ``K`` entries — so the fast path applies them as a
batched epilogue.  Blocks where an eviction candidate *is* re-touched
(LRU thrashing), ``literal``-mode detectors and thread counts beyond
the 63-bit mask width fall back transparently to the reference scalar
path, so `FastFSDetector` is safe to use unconditionally; the
``detector_fast_blocks_total`` / ``detector_fallback_blocks_total``
counters make the split observable.
"""

from __future__ import annotations

from itertools import islice
from typing import Sequence

import numpy as np

from repro.model.detector import FSDetector
from repro.model.stackdist import MODIFIED, SHARED
from repro.obs import get_registry
from repro.resilience.errors import ModelError

__all__ = [
    "ENGINES",
    "MAX_FAST_THREADS",
    "MIN_FAST_EVENTS",
    "FastFSDetector",
    "make_detector",
]

#: Valid values for the model's ``engine`` knob: the vectorized detector
#: (the default everywhere) and the scalar reference it is checked against.
ENGINES = ("fast", "reference")

#: The vectorized core keeps thread-holder sets in uint64 bitmasks;
#: thread counts beyond this fall back to the reference detector.
MAX_FAST_THREADS = 63

#: Blocks with fewer total events than this run through the scalar
#: reference path — the array setup cost exceeds the per-access loop.
MIN_FAST_EVENTS = 192

_POP8: np.ndarray | None = None


def _popcount(x: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array (with pre-2.0 fallback)."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x)
    global _POP8
    if _POP8 is None:
        _POP8 = np.array(
            [bin(i).count("1") for i in range(256)], dtype=np.int64
        )
    x = np.asarray(x, dtype=np.uint64)
    out = np.zeros(x.shape, dtype=np.int64)
    for shift in range(0, 64, 8):
        out += _POP8[((x >> np.uint64(shift)) & np.uint64(0xFF)).astype(np.intp)]
    return out


def make_detector(
    engine: str, num_threads: int, stack_lines: int, mode: str = "invalidate"
) -> FSDetector:
    """Build the detector ``engine`` names.

    ``"fast"`` gives a :class:`FastFSDetector` (which falls back block by
    block to the scalar path where it must) and ``"reference"`` the
    scalar :class:`~repro.model.detector.FSDetector`; both produce
    identical results, so the choice is a pure performance knob.
    """
    if engine not in ENGINES:
        raise ModelError(
            f"unknown detector engine {engine!r}; use one of {ENGINES}"
        )
    cls = FastFSDetector if engine == "fast" else FSDetector
    return cls(num_threads, stack_lines, mode=mode)


class FastFSDetector(FSDetector):
    """Drop-in detector with a vectorized block path (see module docs).

    Exposes ``fast_blocks`` / ``fallback_blocks`` counters so callers
    (and tests) can verify which path ran.  All inherited APIs —
    single-access, fingerprinting, state shifting, inspection — operate
    on the same underlying structures and remain valid.
    """

    def __init__(
        self, num_threads: int, stack_lines: int, mode: str = "invalidate"
    ) -> None:
        super().__init__(num_threads, stack_lines, mode=mode)
        #: blocks processed by the vectorized core
        self.fast_blocks = 0
        #: blocks routed to the reference scalar path
        self.fallback_blocks = 0
        #: planned LRU pops for the current block (set by eligibility)
        self._block_evictions: tuple[tuple[int, int], ...] = ()
        #: the last vectorized block's unapplied write-back (see ``_sync``)
        self._pending: tuple | None = None
        registry = get_registry()
        self._fast_counter = registry.counter(
            "detector_fast_blocks_total",
            "lockstep blocks processed by the vectorized detector core",
        ).labels(mode=mode)
        self._fallback_counter = registry.counter(
            "detector_fallback_blocks_total",
            "lockstep blocks that fell back to the reference scalar path",
        ).labels(mode=mode)

    # -- dispatch ---------------------------------------------------------------

    def _process_block(
        self,
        thread_lines: Sequence[np.ndarray],
        write_mask: np.ndarray,
        thread_order: Sequence[int] | None = None,
        run_steps: int | None = None,
    ) -> list[int] | None:
        order = tuple(thread_order) if thread_order is not None else tuple(
            range(self.num_threads)
        )
        if sorted(order) != list(range(self.num_threads)):
            raise ModelError("thread_order must be a permutation of thread ids")
        self._sync()
        if self.mode != "invalidate" or self.num_threads > MAX_FAST_THREADS:
            self.fallback_blocks += 1
            self._fallback_counter.inc()
            return super()._process_block(
                thread_lines, write_mask, thread_order, run_steps
            )
        if run_steps is None:
            self._dispatch(thread_lines, write_mask, order)
            return None
        # The series in one pass: every piece adds its FS cases to the
        # run they fall in, and the series is the runs' prefix sums.
        n_steps = max((len(m) for m in thread_lines), default=0)
        runs = np.zeros(-(-n_steps // run_steps), dtype=np.int64)
        base = self.stats.fs_cases
        self._dispatch(thread_lines, write_mask, order, (run_steps, runs))
        return (base + np.cumsum(runs)).tolist()

    def _dispatch(
        self,
        thread_lines: Sequence[np.ndarray],
        write_mask: np.ndarray,
        order: tuple[int, ...],
        runs: tuple[int, np.ndarray] | None = None,
        first: int = 0,
    ) -> None:
        """Route a block to the fast core, subdividing under pressure.

        Processing a lockstep block is equivalent to processing any
        step-axis split of it in sequence, so when a big block fails the
        capacity checks — e.g. it alone streams more new lines than the
        stack holds, or its eviction prefix reaches into recently-used
        lines — halving it shrinks the per-piece eviction demand until
        the pieces qualify.  Genuinely thrashing pieces bottom out in
        the scalar path.

        ``runs`` is ``(run_steps, cases per run)`` when the caller
        samples a series, and ``first`` is this piece's first step in
        the caller's block: a half need not start on a run boundary, so
        every piece counts its cases into the block's runs, not its own.
        """
        # The first half's write-back lands before the second half is
        # planned or walked.
        self._sync()
        if self._fast_eligible(thread_lines):
            self.fast_blocks += 1
            self._fast_counter.inc()
            self._process_block_fast(
                thread_lines, write_mask, order, runs, first
            )
            return
        n_steps = max((len(m) for m in thread_lines), default=0)
        total = sum(m.size for m in thread_lines)
        if n_steps >= 2 and total >= 2 * MIN_FAST_EVENTS:
            h = n_steps // 2
            self._dispatch(
                tuple(m[:h] for m in thread_lines), write_mask, order,
                runs, first,
            )
            self._dispatch(
                tuple(m[h:] for m in thread_lines), write_mask, order,
                runs, first + h,
            )
            return
        self.fallback_blocks += 1
        self._fallback_counter.inc()
        if runs is None:
            self._walk(thread_lines, write_mask, order)
            return
        run_steps, per_run = runs
        before = self.stats.fs_cases
        for run, fs in self._walk_runs(
            thread_lines, write_mask, order, run_steps, first
        ):
            per_run[run] += fs - before
            before = fs

    def _fast_eligible(self, thread_lines: Sequence[np.ndarray]) -> bool:
        """Whether this block can run vectorized (planning evictions).

        The per-line decomposition is exact when evictions cannot
        interact with in-block accesses.  A thread's stack grows solely
        by insertion of *new* lines, so it needs exactly ``K = |stack| +
        |new lines| − capacity`` evictions (when positive).  The
        reference pops the current LRU entry at each overflow; if the
        ``K`` least-recently-used entries at block start are untouched
        by **every** thread, those are exactly the entries it would pop
        (untouched entries never move, so the LRU front stays inside
        that prefix until it is exhausted), no evicted line is
        re-accessed, and no access observes a holder bit an eviction
        cleared.  The planned ``(thread, K)`` pops are stashed in
        ``_block_evictions`` for the vectorized core's epilogue; any
        violation falls back to the scalar path.
        """
        self._block_evictions: tuple[tuple[int, int], ...] = ()
        if self.mode != "invalidate" or self.num_threads > MAX_FAST_THREADS:
            return False
        # Tiny blocks (single steps, short tails) are faster through the
        # scalar path than through the array machinery's fixed setup
        # cost.
        if sum(m.size for m in thread_lines) < MIN_FAST_EVENTS:
            return False
        cap = self.stack_lines
        tight: list[int] = []
        for t, mat in enumerate(thread_lines):
            if not mat.size:
                continue
            held = len(self._stacks[t])
            if held + mat.size <= cap:  # cheap bound, skips the scans
                continue
            # distinct lines ≤ the value range they span
            span = int(mat.max()) - int(mat.min()) + 1
            if held + span <= cap:
                continue
            tight.append(t)
        if not tight:
            return True
        # Upper-bound per-thread eviction demand with |distinct touched|
        # (≥ |new lines|, the true insertion count): exactness of the
        # *count* is the core's job (section 4d); eligibility only needs
        # a prefix long enough to cover any possible victim, and the
        # few re-touched held lines the bound overcounts sit far above
        # the LRU front in streaming traces anyway.
        evict: list[tuple[int, int]] = []
        uniqs: list[np.ndarray] = []
        for t in tight:
            stack = self._stacks[t]
            u = np.unique(thread_lines[t])
            uniqs.append(u)
            k = len(stack) + int(u.size) - cap
            if k <= 0:
                continue
            if k > len(stack):
                return False  # would evict lines inserted this block
            evict.append((t, k))
        if not evict:
            return True
        # The planned victims must be untouched by *any* thread.
        tight_set = set(tight)
        extra = [
            np.unique(m)
            for t, m in enumerate(thread_lines)
            if m.size and t not in tight_set
        ]
        touched = np.unique(np.concatenate(uniqs + extra))
        for t, k in evict:
            victims = np.fromiter(
                islice(self._stacks[t], k), dtype=np.int64, count=k
            )
            pos = np.searchsorted(touched, victims)
            pos[pos == touched.size] = 0  # clamp; re-check below
            if bool(np.any(touched[pos] == victims)):
                return False  # LRU thrash: timing matters, bail out
        self._block_evictions = tuple(evict)
        return True

    # -- the vectorized core ------------------------------------------------------

    def _process_block_fast(
        self,
        thread_lines: Sequence[np.ndarray],
        write_mask: np.ndarray,
        order: tuple[int, ...],
        runs: tuple[int, np.ndarray] | None = None,
        first: int = 0,
    ) -> None:
        stats = self.stats
        T = self.num_threads
        writes = np.asarray(write_mask, dtype=bool)
        R = int(writes.size)
        n_steps = max((len(m) for m in thread_lines), default=0)
        stats.steps += n_steps
        if R == 0 or n_steps == 0:
            return

        # 1. Stack the block column-major: reference ``k`` of thread
        # ``t``'s step ``s`` is ``MT[k, row0[t] + s]``.  Timestamps encode
        # the reference interleaving — step-major, then position in the
        # thread order, then program order of references — in power-of-
        # two fields, ``ts = step << stride_bits | pos << r_bits | k``,
        # so unpacking is shifts and masks.
        live = [t for t in range(T) if len(thread_lines[t])]
        MT = np.concatenate(
            [np.asarray(thread_lines[t], dtype=np.int64).T for t in live],
            axis=1,
        )
        n_rows = int(MT.shape[1])
        stats.accesses += n_rows * R
        r_bits = (R - 1).bit_length()
        stride_bits = r_bits + (T - 1).bit_length()
        span_bits = stride_bits + (n_steps - 1).bit_length()
        posof = {t: i for i, t in enumerate(order)}
        row0 = np.zeros(T, dtype=np.int64)
        row_base = np.empty(n_rows, dtype=np.int64)
        r = 0
        for t in live:
            steps_t = len(thread_lines[t])
            row0[t] = r
            np.left_shift(
                np.arange(steps_t, dtype=np.int64), stride_bits,
                out=row_base[r:r + steps_t],
            )
            row_base[r:r + steps_t] += posof[t] << r_bits
            r += steps_t

        # 2. Collapse each thread's same-line references within a step.
        # They have consecutive timestamps, so no other thread's event
        # falls between them, and only two of them can change anything:
        # the first, and — when the first is a read — the first write
        # after it (which takes ownership and may invalidate).  A later
        # read finds the thread already a reader or the owner; a later
        # write finds it the owner and sole holder.  So a read column
        # keeps the rows where no earlier column repeats its line, and a
        # write column those where no earlier *write* column does (a
        # column that always repeats one needs no further comparison).
        # Only LRU order reads the dropped references; the write-back
        # recovers their last column from ``MT`` (see ``_write_back``).
        keep: list[np.ndarray | None] = [None] * R
        w_list = writes.tolist()
        for j in range(1, R):
            col = MT[j]
            dup = None
            for i in range(j):
                if w_list[j] and not w_list[i]:
                    continue
                eq = MT[i] == col
                if eq.any():
                    if eq.all():
                        dup = eq
                        break
                    dup = eq if dup is None else dup | eq
            if dup is not None:
                keep[j] = ~dup
        repeats = any(k is not None for k in keep)

        # 3. Sort the kept events by line, timestamps ascending within
        # each line: one index-free ``np.sort`` of packed ``line <<
        # span_bits | ts`` keys, from which the accessing thread and the
        # write flag follow by table lookup.  Line ids outside the packed
        # range (negative, or too large to shift) take a two-key lexsort
        # over explicit line and timestamp arrays (``key`` then holds the
        # timestamps alone).
        packed = int(MT.min()) >= 0 and int(MT.max()) < (1 << 62) >> span_bits
        sizes = [n_rows if k is None else int(np.count_nonzero(k)) for k in keep]
        N = sum(sizes)
        key = np.empty(N, dtype=np.int64)
        LA = key if packed else np.empty(N, dtype=np.int64)
        off = 0
        for j, (kj, n) in enumerate(zip(keep, sizes)):
            dst = key[off:off + n]
            if kj is None:
                col, base = MT[j], row_base
            else:
                col, base = MT[j][kj], row_base[kj]
            if packed:
                np.left_shift(col, span_bits, out=dst)
                dst += base
            else:
                LA[off:off + n] = col
                dst[:] = base
            dst += j
            off += n
        stride_mask = (1 << stride_bits) - 1
        ts_mask = (1 << span_bits) - 1 if packed else -1
        if packed:
            key.sort()
            LA = key >> span_bits
        else:
            perm = np.lexsort((key, LA))
            LA = LA[perm]
            key = key[perm]
        pos_ref = key & stride_mask
        # Per-position lookup tables (``pos_ref`` = ts mod stride encodes
        # the accessing thread and the reference): one small gather
        # replaces several full-length arithmetic passes.
        order_arr = np.asarray(order, dtype=np.int64)
        th_tab = np.zeros(1 << stride_bits, dtype=np.int64)
        w_tab = np.zeros(1 << stride_bits, dtype=bool)
        th_tab.reshape(-1, 1 << r_bits)[:T, :R] = order_arr[:, None]
        w_tab.reshape(-1, 1 << r_bits)[:T, :R] = writes
        rb_tab = np.where(
            w_tab, np.uint64(0), np.uint64(1) << th_tab.astype(np.uint64)
        )
        TH = th_tab[pos_ref]
        W = w_tab[pos_ref]

        gs = np.empty(N, dtype=bool)
        gs[0] = True
        np.not_equal(LA[1:], LA[:-1], out=gs[1:])
        uniq_lines = LA[gs]
        G = int(uniq_lines.size)

        # Carried per-line state from the dicts (invalidate-mode
        # invariant: at most one writer → a single "owner" thread).  A
        # detector that has applied no block yet carries nothing.
        carr_holders = np.zeros(G, dtype=np.uint64)
        carr_owner = np.full(G, -1, dtype=np.int64)
        if self._holders or self._writers:
            ul = uniq_lines.tolist()
            hget = self._holders.get
            wget = self._writers.get
            carr_holders = np.fromiter(
                (hget(ln, 0) for ln in ul), dtype=np.uint64, count=G
            )
            carr_writers = np.fromiter(
                (wget(ln, 0) for ln in ul), dtype=np.uint64, count=G
            )
            wnz = carr_writers != 0
            if wnz.any():
                # exact for single-bit values below 2**63
                carr_owner[wnz] = np.log2(
                    carr_writers[wnz].astype(np.float64)
                ).astype(np.int64)

        # 4. Segments: split each group at write events.
        seg_start = W | gs
        seg_starts = np.flatnonzero(seg_start)
        S = int(seg_starts.size)
        seg_first = gs[seg_starts]
        seg_grp = np.cumsum(seg_first) - 1
        seg_is_w = W[seg_starts]
        seg_thr = TH[seg_starts]

        # Owner while the segment's reads run.
        seg_owner0 = np.where(seg_is_w, seg_thr, carr_owner[seg_grp])

        # First foreign read per segment = the FS-read + downgrade event.
        # Every event after a segment's first is a read, so it is the
        # segment's first event whose thread differs from the one before
        # it, where the owner stands "before" the first event (a write
        # leads its segment as the owner).  A segment with no owner has
        # no foreign read.  The count of such changes before each
        # segment start indexes the first change at or after it (``N``
        # when there is none).
        chg = np.empty(N, dtype=bool)
        np.not_equal(TH[1:], TH[:-1], out=chg[1:])
        chg[seg_starts] = seg_thr != seg_owner0
        chg_at = np.append(np.flatnonzero(chg), N)
        ffr = chg_at[np.cumsum(chg)[seg_starts] - chg[seg_starts]]
        has_fr = (ffr < np.append(seg_starts[1:], N)) & (seg_owner0 >= 0)
        seg_end_owner = np.where(has_fr, -1, seg_owner0)

        # Holder mask at segment end = base holders ∪ readers (the
        # per-position table maps write events to zero bits).
        seg_read_mask = np.bitwise_or.reduceat(rb_tab[pos_ref], seg_starts)
        seg_wbit = np.uint64(1) << seg_thr.astype(np.uint64)
        seg_base = np.where(seg_is_w, seg_wbit, carr_holders[seg_grp])
        seg_h_end = seg_base | seg_read_mask

        # State seen by each segment's leading write: the previous
        # segment's end state, or the carried state for group-initial
        # segments.
        prev_owner = np.empty(S, dtype=np.int64)
        prev_h = np.empty(S, dtype=np.uint64)
        prev_owner[0] = -1
        prev_owner[1:] = seg_end_owner[:-1]
        prev_h[0] = 0
        prev_h[1:] = seg_h_end[:-1]
        seg_prev_owner = np.where(seg_first, carr_owner[seg_grp], prev_owner)
        seg_prev_h = np.where(seg_first, carr_holders[seg_grp], prev_h)

        # 4a. Write events: FS-write / miss / invalidations.
        wsel = seg_is_w
        w_thr = seg_thr[wsel]
        w_prev_owner = seg_prev_owner[wsel]
        w_prev_h = seg_prev_h[wsel]
        w_bit = seg_wbit[wsel]
        w_grp = seg_grp[wsel]
        fs_w_sel = (w_prev_owner >= 0) & (w_prev_owner != w_thr)
        w_miss = (w_prev_h & w_bit) == 0
        inv_bits = w_prev_h & ~w_bit
        stats.misses += int(w_miss.sum())
        stats.invalidations += int(_popcount(inv_bits).sum())
        stats.downgrades += int(has_fr.sum())

        # 4b. Read misses: each distinct (segment, thread) reader pair
        # misses exactly once — at its first read — iff the thread is
        # outside the segment's base holder mask.  ``seg_read_mask``
        # already holds the distinct-reader bits per segment, so this is
        # one popcount of the bits *outside* the base mask.
        stats.misses += int(_popcount(seg_read_mask & ~seg_base).sum())

        # 4c. FS cases (φ over the single foreign writer).
        fs_r_idx = ffr[has_fr]
        fs_r_acc = TH[fs_r_idx]
        fs_r_wrt = seg_owner0[has_fr]
        fs_w_acc = w_thr[fs_w_sel]
        fs_w_wrt = w_prev_owner[fs_w_sel]
        n_r = int(fs_r_acc.size)
        n_w = int(fs_w_acc.size)
        if n_r or n_w:
            stats.fs_cases += n_r + n_w
            stats.fs_read_cases += n_r
            stats.fs_write_cases += n_w
            acc = np.concatenate([fs_r_acc, fs_w_acc])
            wrt = np.concatenate([fs_r_wrt, fs_w_wrt])
            # Small dense domains → bincount beats sort-based unique.
            by_thread = stats.fs_by_thread
            cnt = np.bincount(acc, minlength=T)
            for v in np.flatnonzero(cnt).tolist():
                by_thread[v] += int(cnt[v])
            # One ``Counter.update`` with a dict: on an empty counter it
            # is a C-level ``dict.update``.
            cnt = np.bincount(
                np.concatenate([seg_grp[has_fr], w_grp[fs_w_sel]]),
                minlength=G,
            )
            nz = np.flatnonzero(cnt)
            stats.fs_by_line.update(
                dict(zip(uniq_lines[nz].tolist(), cnt[nz].tolist()))
            )
            by_pair = stats.fs_by_pair
            cnt = np.bincount(wrt * T + acc, minlength=T * T)
            for v in np.flatnonzero(cnt).tolist():
                by_pair[(v // T, v % T)] += int(cnt[v])
            if runs is not None:
                # Each case at its step: the step field of the first
                # foreign read's or the leading write's timestamp.
                run_steps, per_run = runs
                idx = np.concatenate([fs_r_idx, seg_starts[wsel][fs_w_sel]])
                step = ((key[idx] & ts_mask) >> stride_bits) + first
                per_run += np.bincount(
                    step // run_steps, minlength=per_run.size
                )

        # 4d. Exact eviction demand for capacity-tight threads.  A
        # stack's length rises by one at every miss (insert) and falls
        # by one at every invalidation (foreign-write pop), so with the
        # overflow shed at capacity the total eviction count obeys the
        # reflected-process identity ``K = max(0, peak(held + inserts −
        # pops) − capacity)`` — exact because the shed entries (the LRU
        # prefix, untouched per eligibility) are disjoint from the pop
        # targets (in-block touched lines).  Eligibility's ``K_max``
        # plan only bounds this from above.  Every insert and pop is a
        # kept event: a segment's first read per thread and every write
        # that misses or invalidates survive the collapse.
        exact_ev: list[tuple[int, int]] = []
        if self._block_evictions:
            cap = self.stack_lines
            seg_of = np.cumsum(seg_start) - 1
            w_ts = key[seg_starts[wsel]] & ts_mask
            # First read per (segment, thread): insert iff outside the
            # segment's base holder mask.
            ridx = np.flatnonzero(~W)
            key_r = seg_of[ridx] * T + TH[ridx]
            uk, first_idx = np.unique(key_r, return_index=True)
            r_pos = ridx[first_idx]
            r_seg = uk // T
            r_thr = uk % T
            r_ins = (
                (seg_base[r_seg] >> r_thr.astype(np.uint64))
                & np.uint64(1)
            ) == 0
            r_ts = key[r_pos] & ts_mask
            for t, _kmax in self._block_evictions:
                tbit = np.uint64(1 << t)
                pop_ts = w_ts[(inv_bits & tbit) != 0]
                ins_ts = np.concatenate(
                    [
                        w_ts[w_miss & (w_thr == t)],
                        r_ts[r_ins & (r_thr == t)],
                    ]
                )
                ts_all = np.concatenate([ins_ts, pop_ts])
                delta = np.concatenate(
                    [
                        np.ones(ins_ts.size, dtype=np.int64),
                        np.full(pop_ts.size, -1, dtype=np.int64),
                    ]
                )
                run = np.cumsum(delta[np.argsort(ts_all)])
                peak = int(run.max()) if run.size else 0
                k = len(self._stacks[t]) + max(peak, 0) - cap
                if k > 0:
                    exact_ev.append((t, k))

        # 5. The block's final per-line state and its planned LRU pops
        # wait until something reads the state (see ``_sync``).  The
        # eviction count is the block's own statistic, so it lands now.
        stats.evictions += sum(k for _, k in exact_ev)
        self._block_evictions = ()
        self._pending = (
            uniq_lines, seg_grp, seg_end_owner, seg_h_end, carr_holders,
            carr_owner, gs, TH, key, ts_mask, exact_ev,
            (MT, row0, stride_bits, r_bits) if repeats else None,
        )

    # -- deferred write-back ------------------------------------------------------

    def _sync(self) -> None:
        """Apply the last vectorized block's pending write-back, if any.

        The core leaves its final per-line arrays pending instead of
        writing them into the dicts and stacks: a model analysis reads
        only ``stats`` after its last block, so that write-back would be
        work nobody reads.  Every reader and every block calls this
        first, so what they see is exactly the applied state.
        """
        pending = self._pending
        if pending is not None:
            self._pending = None
            self._write_back(*pending)

    def _write_back(
        self,
        uniq_lines: np.ndarray,
        seg_grp: np.ndarray,
        seg_end_owner: np.ndarray,
        seg_h_end: np.ndarray,
        carr_holders: np.ndarray,
        carr_owner: np.ndarray,
        gs: np.ndarray,
        TH: np.ndarray,
        key: np.ndarray,
        ts_mask: int,
        exact_ev: list[tuple[int, int]],
        repeats: tuple | None,
    ) -> None:
        """Step 5 of the core for one block, evictions included (see
        module docs).

        The per-line and per-(line, thread) decisions are array passes;
        Python touches only the dicts and stacks that change.
        """
        T = self.num_threads
        ul = uniq_lines.tolist()
        G = len(ul)
        S = int(seg_grp.size)
        last_seg = np.empty(S, dtype=bool)
        last_seg[-1] = True
        np.not_equal(seg_grp[1:], seg_grp[:-1], out=last_seg[:-1])
        new_owner = seg_end_owner[last_seg]
        new_hold = seg_h_end[last_seg]

        holders_d = self._holders
        writers_d = self._writers
        stacks = self._stacks
        holders_d.update(zip(ul, new_hold.tolist()))
        writers_d.update(
            zip(ul, [(1 << o) if o >= 0 else 0 for o in new_owner.tolist()])
        )

        # Threads that lost their copy (foreign-write invalidation).
        lost = carr_holders & ~new_hold
        gone = np.flatnonzero(lost)
        for i, m in zip(gone.tolist(), lost[gone].tolist()):
            while m:
                low = m & -m
                stacks[low.bit_length() - 1].pop(ul[i], None)
                m ^= low

        # Last own-access event per (line, thread) via an ordered
        # scatter: events arrive ts-ascending per key, and duplicate
        # fancy-index assignments keep the last value written.
        grp = np.cumsum(gs) - 1
        last_pos = np.full(G * T, -1, dtype=np.int64)
        last_pos[grp * T + TH] = np.arange(grp.size, dtype=np.int64)

        # A carried owner that lost ownership but kept its copy was
        # downgraded *in place* (no LRU motion) by a foreign read.  (A
        # copy it lost is gone already, and one it touched re-enters
        # below with its final state.)
        down = np.flatnonzero((carr_owner >= 0) & (new_owner != carr_owner))
        for i, c in zip(down.tolist(), carr_owner[down].tolist()):
            st = stacks[c]
            if ul[i] in st:
                st[ul[i]] = SHARED

        # Touched-and-held lines re-enter each stack above the untouched
        # survivors, ordered by last own-access timestamp — exactly the
        # reference's pop/re-insert discipline (a thread's lines are
        # distinct, so popping them all and appending them in order is
        # the same as re-inserting them one by one).
        pairs = np.flatnonzero(last_pos >= 0)
        g = pairs // T
        thr = pairs - g * T
        held = ((new_hold[g] >> thr.astype(np.uint64)) & np.uint64(1)) == 1
        pairs, g, thr = pairs[held], g[held], thr[held]
        last_ts = key[last_pos[pairs]] & ts_mask
        if repeats is not None:
            # The collapse kept each (step, thread, line)'s first access,
            # but the reference leaves the line where its *last* access in
            # that step put it: move each timestamp to the last column of
            # its row that holds the same line.
            MT, row0, stride_bits, r_bits = repeats
            col = last_ts & ((1 << r_bits) - 1)
            row = row0[thr] + (last_ts >> stride_bits)
            same = MT[:, row] == uniq_lines[g]
            last_col = same.shape[0] - 1 - np.argmax(same[::-1], axis=0)
            last_ts += last_col - col
        order = np.lexsort((last_ts, thr))
        g, thr = g[order], thr[order]
        lines = uniq_lines[g].tolist()
        states = [
            MODIFIED if m else SHARED for m in (new_owner[g] == thr).tolist()
        ]
        bounds = np.searchsorted(thr, np.arange(T + 1)).tolist()
        for t in range(T):
            lo, hi = bounds[t], bounds[t + 1]
            if lo == hi:
                continue
            st = stacks[t]
            if st:
                pop = st.pop
                for line in lines[lo:hi]:
                    pop(line, None)
            st.update(zip(lines[lo:hi], states[lo:hi]))

        # Evictions (streaming regime): pop each thread's K LRU-front
        # entries — proven untouched by eligibility, so they are exactly
        # the entries the reference would have popped — and clear that
        # thread's holder/writer bits, mirroring the scalar epilogue of
        # ``_process_one``.
        for t, k in exact_ev:
            st = stacks[t]
            popfront = st.popitem
            hget2 = holders_d.get
            wget2 = writers_d.get
            mask = ~(1 << t)
            for _ in range(k):
                ev, _ = popfront(last=False)
                holders_d[ev] = hget2(ev, 0) & mask
                writers_d[ev] = wget2(ev, 0) & mask

        # The MRU memo only enables scalar-path skips; clearing it is
        # always safe.
        self._mru_line = [None] * T
        self._mru_mod = [False] * T
