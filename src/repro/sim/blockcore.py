"""Vectorized MESI block core of the multicore simulator.

:func:`simulate` computes, for a whole lockstep block at once, every
access's MESI outcome, every access's cost, every eviction and every
thread's cycle total — the same values
:class:`~repro.sim.executor.LoopSimulator`'s flattened loop produces
access by access.  It is the simulator's counterpart of
:class:`~repro.model.fastdetect.FastFSDetector`, and the loop is its
oracle as :class:`~repro.model.detector.FSDetector` is the detector's.

Qualification
-------------
A TLB replacement depends on every page of its TLB, so the core takes a
block only when none can happen in it, read from the state the loop
keeps:

- at most :data:`MAX_THREADS` threads (holder sets are int64 bitmasks);
- for every thread, the pages its TLB holds plus the distinct pages new
  to it are at most ``tlb_entries``.

For any other block :func:`simulate` returns how many leading steps
qualify, and the simulator splits the block along its steps
(:meth:`~repro.sim.executor.MulticoreSimulator._simulate_block`).

Outcomes
--------
The block's events are sorted by packed ``(line, timestamp)`` keys.  A
timestamp orders step first, then thread ``0..T-1``, then reference —
the loop's order.  Each line's events split into *segments* at writes
and evictions; a segment starts from the holders, the dirty owner and
the clean-exclusive (E) holder it inherits:

- a read hits when its thread is among the segment's starting holders
  or has read earlier in the segment;
- the first missing read of a segment whose owner is dirty is a
  remote-modified load costing ``load_rm[t][owner]``, with one
  downgrade; every other missing read is prefetched (the stride
  prefetcher's flag), else a shared fill (the line was seen before),
  else cold;
- a write's outcome comes from the state at the end of the previous
  segment: an owner in M or E hits, a holder in S upgrades, anyone else
  takes a clean or a remote-modified store miss; its invalidations are
  the popcount of the foreign holders;
- a missing reader enters E only when nobody else holds the line, and
  a write by a thread still alone in E is a hit;
- a TLB miss is a thread's first access to a page its TLB did not hold
  at block start.

An access repeating a line its thread touched earlier in the same step
hits and changes nothing, unless it is a write after a read or the
thread evicted the line in between, so it stays out of the sort: no
other thread runs between the two.

Evictions
---------
A thread's copy of a line comes with its own access and goes with a
foreign write or its own eviction; other threads' reads change its
state in place, never its place in the set.  Which lines a thread's L2
set holds — and so which line an insertion evicts — follows from that
thread's accesses and the other threads' writes alone.  Per thread and
set:

- a set whose held lines plus distinct new lines are at most ``ways``
  cannot overflow;
- for any other, the eviction-free outcomes' insertions and
  invalidations give its occupancy over time, and the first insertion
  that takes it past ``ways`` is its first eviction — up to there the
  eviction-free outcomes are exact;
- from there the set is replayed as the loop keeps it, an LRU ``dict``
  over the thread's accesses and the foreign writes, seeded with the
  lines it holds just before, in recency order.

An eviction changes the outcomes of its victim's line only, so the
victims' lines are resolved again with each eviction as an event that
starts a segment: the evicted thread leaves the holders, and the line
keeps no dirty owner or E holder (either would have been the evicted
copy, the line's only one).

Cycles
------
Per thread and step the loop starts at ``per_step_cycles`` and adds, per
reference, its TLB addend and then its access cost; the step totals then
add onto the thread's total.  The core adds the same columns in the same
order, one vector add per column, and folds the step totals with
``np.add.accumulate`` — a sequential left fold, so every float rounds as
the loop's does (``np.sum`` would sum pairwise).

Write-back
----------
The block's final per-line state waits in ``run.pending`` until the next
block is dispatched (:func:`sync`), so the last block of a run never
pays for it.  It restores each set's LRU order — untouched survivors in
place, touched lines still held re-inserted in order of their last own
access — the line states, the directory, ``l3_seen``, the evictions of
lines no thread touched, the TLBs' order and last pages, and clears the
MRU and step memos.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

#: Integer-coded MESI states (Invalid is absence), shared with the loop.
S, E, M = 0, 1, 2

#: Holder sets are int64 bitmasks; blocks of more threads run the loop.
MAX_THREADS = 63

#: The ``SimCounters`` fields :func:`_resolve` counts, in the order of
#: its count vector.
_COUNTED = (
    "load_remote_modified", "downgrades", "load_prefetched",
    "load_shared_fills", "load_cold", "store_upgrades", "store_miss_clean",
    "store_miss_remote_modified", "invalidations",
)


def _popcount_sum(masks: np.ndarray) -> int:
    """Total set bits over an int64 array of masks."""
    if hasattr(np, "bitwise_count"):
        return int(np.bitwise_count(masks).sum())
    return sum(bin(v).count("1") for v in masks.tolist())


def _bit_index(masks: np.ndarray) -> np.ndarray:
    """The index of each mask's single set bit; -1 for empty masks."""
    out = np.full(masks.shape, -1, dtype=np.int64)
    nz = masks != 0
    # exact for powers of two below 2**63
    out[nz] = np.log2(masks[nz].astype(np.float64)).astype(np.int64)
    return out


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values."""
    first = np.empty(sorted_values.size, dtype=bool)
    first[0] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=first[1:])
    return first


def _count_runs(starts: np.ndarray) -> np.ndarray:
    """0-based run id of each element, from a run-start mask."""
    ids = np.cumsum(starts.view(np.uint8), dtype=np.int32)
    ids -= 1
    return ids


def _order(major: np.ndarray, minor: np.ndarray, span: int) -> np.ndarray:
    """The permutation sorting by ``(major, minor)``, each ``minor`` in
    ``[0, span)``; a packed key when it fits in int64."""
    if not major.size or int(major.max()) < (2**62) // span:
        return np.argsort(major * span + minor)
    return np.lexsort((minor, major))


def simulate(run, lines: tuple[np.ndarray, ...], flags) -> int:
    """Simulate one block if it qualifies; return how many of its leading
    steps qualify.

    All of them means the block ran.  Fewer means it did not, and
    ``run`` is untouched: those steps are the ones before the first
    access that could overflow a TLB.  ``lines`` holds each thread's
    ``[steps, refs]`` line ids and ``flags`` the stride prefetcher's
    predictions of the same shape (or ``None`` without a prefetcher).
    ``run`` must be synced.
    """
    T = run.num_threads
    if T > MAX_THREADS or run.lines_per_page < 1:
        return 0
    live = [t for t in range(T) if len(lines[t])]
    if not live:
        return 0
    R = len(run.writes)
    n_steps = max(len(lines[t]) for t in live)
    stride = T * R
    ts_span = n_steps * stride
    lo = min(int(lines[t].min()) for t in live)
    hi = max(int(lines[t].max()) for t in live)
    if hi - lo + 1 > (2**62) // ts_span:
        return 0  # the packed sort keys would overflow
    writes = np.asarray(run.writes, dtype=bool)

    # -- each thread's accesses, sorted by (line, step, reference) ----------
    loc_span = n_steps * R
    own = []
    for t in live:
        mat = lines[t]
        key = (mat.ravel() - lo) * loc_span + np.arange(mat.size, dtype=np.int64)
        key.sort()
        rel = key // loc_span
        loc = key - rel * loc_span
        first = _run_starts(rel)
        own.append((t, rel, loc, first, rel[first] + lo))

    # Holders carried into the block, per line of the block.
    uniq = np.unique(np.concatenate([u for *_, u in own]))
    G = uniq.size
    ul = uniq.tolist()
    hget = run.holders.get
    H0 = np.fromiter((hget(ln, 0) for ln in ul), dtype=np.int64, count=G)

    # -- per thread: qualification, TLB misses, previous own access ---------
    # A timestamp ts = step * stride + thread * R + ref is also the
    # access's index in the block's [steps, threads, refs] grid.
    set_mask = run.num_sets - 1
    lpp = run.lines_per_page
    fit = n_steps
    parts = []
    prev_at = []
    prev_ts = []
    tlb_miss_ts = []
    touched = []  # (thread, its lines' indexes in uniq, ts of its last access)
    tlb_order = []  # (thread, pages by last access, last page)
    crowded = []  # threads with a set that could overflow (see _evictions)
    for t, rel, loc, first, u in own:
        step = loc // R
        ref = loc - step * R
        ts = step * stride + ref
        ts += t * R
        pages = u // lpp
        p_at = np.flatnonzero(_run_starts(pages))
        upages = pages[p_at]
        tlb = run.tlbs[t]
        p_new = np.fromiter(
            (p not in tlb for p in upages.tolist()), dtype=bool, count=upages.size
        )
        p_miss = np.minimum.reduceat(ts[first], p_at)[p_new]
        free = run.tlb_entries - len(tlb)
        if p_miss.size > free:
            fit = min(fit, int(np.sort(p_miss)[free]) // stride)
        if fit < n_steps:
            if not fit:
                return 0
            continue

        tlb_miss_ts.append(p_miss)
        last = np.empty(first.size, dtype=bool)
        last[-1] = True
        last[:-1] = first[1:]
        g = np.searchsorted(uniq, u)
        touched.append((t, g, ts[last]))
        p_last = np.maximum.reduceat(ts[last], p_at)
        tlb_order.append(
            (t, upages[np.argsort(p_last)].tolist(), int(lines[t][-1, -1]) // lpp)
        )

        # An access repeating a line its thread touched earlier in the
        # same step hits and changes nothing (no other thread runs in
        # between), unless it is a write after a read: leave it out.
        # (_victim_lines puts it back if the thread evicted the line.)
        w = writes[ref]
        rep = ~first
        rep[1:] &= (step[1:] == step[:-1]) & (w[:-1] | ~w[1:])
        # A set whose held lines plus distinct new lines fit its ways
        # cannot overflow; _evictions checks the others.  Holder bits
        # are exact, so they tell which lines are new to t.
        new = ((H0[g] >> t) & 1) == 0
        held = np.fromiter(map(len, run.caches[t]), dtype=np.int64, count=run.num_sets)
        over = held + np.bincount((u & set_mask)[new], minlength=run.num_sets) > run.ways
        if over.any():
            crowded.append((t, over, held, rel, loc, ts, rep))
        keep = np.flatnonzero(~rep)
        rel = rel[keep]
        ts = ts[keep]
        parts.append(rel * ts_span + ts)
        again = np.flatnonzero(~_run_starts(rel))
        prev_at.append(ts[again])
        prev_ts.append(ts[again - 1])
    if fit < n_steps:
        return fit

    # The rest of the carried state: dirty owner, clean-exclusive (E)
    # holder, and whether the line was ever cached.
    wget = run.writers.get
    O0 = _bit_index(np.fromiter((wget(ln, 0) for ln in ul), dtype=np.int64, count=G))
    l3 = run.l3_seen
    seen = np.fromiter((ln in l3 for ln in ul), dtype=bool, count=G)
    X0 = np.full(G, -1, dtype=np.int64)
    alone = np.flatnonzero((O0 < 0) & (H0 != 0) & ((H0 & (H0 - 1)) == 0))
    if alone.size:
        caches = run.caches
        for i, h in zip(alone.tolist(), _bit_index(H0[alone]).tolist()):
            ln = ul[i]
            if caches[h][ln & set_mask].get(ln) == E:
                X0[i] = h

    # -- kept events, sorted by (line, timestamp) ---------------------------
    key = parts[0] if len(parts) == 1 else np.concatenate(parts)
    key.sort()
    LA = key // ts_span
    TS = key - LA * ts_span
    prev = np.full(ts_span, -1, dtype=np.int64)
    prev[np.concatenate(prev_at)] = np.concatenate(prev_ts)
    prev_e = prev[TS]
    fg = None
    if flags is not None:
        fg = np.zeros((n_steps, T, R), dtype=bool)
        for t in live:
            fg[: len(lines[t]), t] = flags[t]
        fg = fg.reshape(-1)

    # -- outcomes and costs on the [steps, threads, refs] grid --------------
    acc = np.tile(np.asarray(run.hit_costs, dtype=np.float64), n_steps * T)
    out = _resolve(run, LA, TS, None, H0, O0, X0, seen, prev_e, fg, acc,
                   moves=bool(crowded))
    counts = out.counts
    h_fin, o_fin, x_fin = out.h_fin, out.o_fin, out.x_fin
    n_evictions = 0
    untouched = []  # (thread, line): evicted lines no thread touched
    evicted = _evictions(run, crowded, out, lo, ts_span) if crowded else None
    if evicted is not None:
        e_thr, e_line, e_ts = evicted
        n_evictions = e_thr.size
        gi = np.minimum(np.searchsorted(uniq, e_line), G - 1)
        inside = uniq[gi] == e_line
        untouched = list(zip(e_thr[~inside].tolist(), e_line[~inside].tolist()))
        if inside.any():
            vg = np.unique(gi[inside])
            again = _victim_lines(
                run, vg, LA, TS, prev_e, H0, O0, X0, seen, fg, acc, crowded,
                e_thr[inside], e_line[inside] - lo, e_ts[inside], loc_span,
            )
            counts = counts + again.counts
            h_fin[vg] = again.h_fin
            o_fin[vg] = again.o_fin
            x_fin[vg] = again.x_fin
    tlb = np.zeros(ts_span, dtype=np.float64)
    miss_ts = np.concatenate(tlb_miss_ts)
    tlb[miss_ts] = run.tlb_miss_cycles

    # -- cycles: the loop's addition order ----------------------------------
    acc = acc.reshape(n_steps, T, R)
    tlb = tlb.reshape(n_steps, T, R)
    step_cost = np.full((n_steps + 1, T), run.per_step_cycles)
    step_cost[0] = run.cycles
    rows = step_cost[1:]
    for k in range(R):
        rows += tlb[:, :, k]
        rows += acc[:, :, k]
    for t in range(T):
        rows[len(lines[t]):, t] = 0.0  # steps a thread does not run
    run.cycles[:] = np.add.accumulate(step_cost, axis=0)[-1].tolist()

    ctr = run.counters
    for name, n in zip(_COUNTED, counts.tolist()):
        setattr(ctr, name, getattr(ctr, name) + n)
    ctr.evictions += n_evictions
    ctr.tlb_misses += int(miss_ts.size)

    run.pending = (
        uniq, H0, O0, X0, h_fin, o_fin, x_fin, touched, tlb_order, untouched,
    )
    return n_steps


def _resolve(run, la, ts, ev, h0, o0, x0, seen, prev, fg, acc, moves=False):
    """Outcomes of the events of whole lines, sorted by (line, timestamp).

    ``la`` tells the lines apart and ``ts`` holds the timestamps; ``ev``
    marks eviction events (``None``: there are none), each at the
    timestamp of its evicting access.  ``h0``, ``o0``, ``x0`` and
    ``seen`` hold each line's carried holders, dirty owner, E holder and
    whether it was ever cached; ``prev`` each access's previous own
    access to its line in the block (-1: none); ``fg`` the flattened
    prefetch flags (``None``: no prefetcher).  Non-hit costs go into
    ``acc`` unless it is ``None``.  With ``moves``, the result also
    lists the insertions, invalidations and writes :func:`_evictions`
    reads.
    """
    T = run.num_threads
    R = len(run.writes)
    stride = T * R
    N = la.size
    pos = ts - (ts // stride) * stride
    TH = np.repeat(np.arange(T, dtype=np.int64), R)[pos]
    W = np.tile(np.asarray(run.writes, dtype=bool), T)[pos]
    gs = _run_starts(la)
    grp = _count_runs(gs)
    if ev is None:
        reads = ~W
        seg_start = W | gs
    else:
        W &= ~ev
        reads = ~(W | ev)
        seg_start = W | gs | ev

    # -- segments: each line's events split at writes and evictions ---------
    ss = np.flatnonzero(seg_start)
    seg_of = _count_runs(seg_start)
    sg = grp[ss]
    sw = W[ss]
    sthr = TH[ss]
    sfirst = gs[ss]
    sbit = np.left_shift(1, sthr)
    # Starting holders, dirty owner and E holder of each segment.
    base = np.where(sw, sbit, h0[sg])
    owner = np.where(sw, sthr, o0[sg])
    excl = np.where(sw, -1, x0[sg])
    r_or = np.bitwise_or.reduceat(np.where(reads, np.left_shift(1, TH), 0), ss)

    # End state: the readers join; a foreign reader downgrades the owner;
    # a reader stays alone in E only if it found the line unheld (or was
    # the carried E holder) and nobody joined.
    h_end = base | r_or
    o_end = np.where((r_or & ~base) != 0, -1, owner)
    x_end = np.full(ss.size, -1, dtype=np.int64)
    xc = np.flatnonzero(
        (owner < 0) & ((excl >= 0) | (base == 0)) & ((h_end & (h_end - 1)) == 0)
    )
    x_end[xc] = _bit_index(h_end[xc])
    if ev is not None:
        # An eviction segment starts from the previous segment's holders
        # without the evicted thread, and with no dirty owner or E
        # holder: an M or E copy is its line's only copy, so it was the
        # evicted one.  Evictions of one line chain, so they resolve in
        # order.
        for i in np.flatnonzero(ev[ss]).tolist():
            ph = int(h0[sg[i]]) if sfirst[i] else int(h_end[i - 1])
            b = ph & ~(1 << int(sthr[i]))
            h = b | int(r_or[i])
            base[i], owner[i], excl[i], h_end[i], o_end[i] = b, -1, -1, h, -1
            alone = not b and h and not h & (h - 1)
            x_end[i] = h.bit_length() - 1 if alone else -1

    # Reads: a miss is a read by a thread outside the starting holders
    # with no earlier access of its own in the segment.
    miss = reads & (((base[seg_of] >> TH) & 1) == 0)
    miss &= prev < ts[ss][seg_of]
    first_miss = np.minimum.reduceat(
        np.where(miss, np.arange(N, dtype=np.int32), N), ss
    )
    rm_seg = (first_miss < N) & (owner >= 0)
    rm_at = first_miss[rm_seg]
    miss[rm_at] = False
    other = np.flatnonzero(miss)

    # Writes: outcome from the previous segment's end state, or the
    # carried state for a group-initial write.
    ws = np.flatnonzero(sw)
    prev_seg = ws - 1
    w_first = sfirst[ws]
    w_grp = sg[ws]
    p_h = np.where(w_first, h0[w_grp], h_end[prev_seg])
    p_o = np.where(w_first, o0[w_grp], o_end[prev_seg])
    p_x = np.where(w_first, x0[w_grp], x_end[prev_seg])
    w_thr = sthr[ws]
    w_bit = sbit[ws]
    in_h = (p_h & w_bit) != 0
    w_hit = in_h & ((p_o == w_thr) | (p_x == w_thr))
    w_up = in_h & ~w_hit
    w_rm = ~in_h & (p_o >= 0)
    w_clean = ~in_h & (p_o < 0)
    lost = p_h & ~w_bit

    other_ts = ts[other]
    fetched = np.zeros(other.size, dtype=bool) if fg is None else fg[other_ts]
    shared = ~fetched & (seen[grp[other]] | ~gs[other])
    cold = ~fetched & ~shared
    w_ts = ts[ss[ws]]
    if acc is not None:
        c = run.costs
        acc[w_ts[w_up]] = c.store_upgrade
        acc[w_ts[w_clean]] = c.store_miss_clean
        store_rm = np.asarray(run.store_rm_costs, dtype=np.float64)
        acc[w_ts[w_rm]] = store_rm[w_thr[w_rm], p_o[w_rm]]
        load_rm = np.asarray(run.load_rm_costs, dtype=np.float64)
        acc[ts[rm_at]] = load_rm[TH[rm_at], owner[rm_seg]]
        acc[other_ts] = np.where(
            fetched, c.load_prefetched,
            np.where(shared, c.load_shared_fill, c.load_cold),
        )

    n_rm = rm_at.size
    counts = np.array([
        n_rm, n_rm, fetched.sum(), shared.sum(), cold.sum(), w_up.sum(),
        w_clean.sum(), w_rm.sum(), _popcount_sum(lost),
    ], dtype=np.int64)
    last_seg = np.empty(ss.size, dtype=bool)
    last_seg[-1] = True
    np.not_equal(sg[1:], sg[:-1], out=last_seg[:-1])
    out = SimpleNamespace(
        counts=counts,
        h_fin=h_end[last_seg], o_fin=o_end[last_seg], x_fin=x_end[last_seg],
    )
    if moves:
        w_la = la[ss[ws]]
        fill = np.concatenate([rm_at, other])
        store_miss = ~in_h
        out.insertions = (
            np.concatenate([TH[fill], w_thr[store_miss]]),
            np.concatenate([la[fill], w_la[store_miss]]),
            np.concatenate([ts[fill], w_ts[store_miss]]),
        )
        dropped = lost != 0
        out.invalidations = (lost[dropped], w_la[dropped], w_ts[dropped])
        out.writes = (w_la, w_ts, w_thr)
    return out


def _evictions(run, crowded, out, lo, ts_span):
    """Every eviction of the block, as ``(threads, victim lines,
    timestamps of the evicting accesses)`` arrays, or ``None``.

    ``crowded`` lists the threads with a set that could overflow —
    ``(thread, over, held, rel, loc, ts, rep)`` with the over-full sets,
    the held counts and the thread's accesses sorted by (line, step,
    reference) — and ``out`` the block's eviction-free outcomes (see the
    module docs).
    """
    T = run.num_threads
    S = run.num_sets
    set_mask = S - 1
    ways = run.ways
    over = np.zeros((T, S), dtype=bool)
    held = np.zeros((T, S), dtype=np.int64)
    for t, o, h, *_ in crowded:
        over[t] = o
        held[t] = h

    # Each such set's occupancy over time: +1 per insertion, -1 per copy
    # a foreign write invalidates.
    i_thr, i_la, i_ts = out.insertions
    i_set = (i_la + lo) & set_mask
    k = over[i_thr, i_set]
    gids = [(i_thr * S + i_set)[k]]
    times = [i_ts[k]]
    n_ins = gids[0].size
    v_mask, v_la, v_ts = out.invalidations
    v_set = (v_la + lo) & set_mask
    for t, *_ in crowded:
        sel = (((v_mask >> t) & 1) == 1) & over[t, v_set]
        gids.append(t * S + v_set[sel])
        times.append(v_ts[sel])
    gid = np.concatenate(gids)
    if not gid.size:
        return None
    tsx = np.concatenate(times)
    # The (set, timestamp) keys are unique — an insertion is the
    # thread's own access, an invalidation another thread's write — so
    # the +1/-1 rides in the key's low bit and the keys sort in place.
    if int(gid.max()) < (2**61) // ts_span:
        key = gid * ts_span
        key += tsx
        key <<= 1
        key[:n_ins] |= 1
        key.sort()
        occ = key & 1
        occ <<= 1
        occ -= 1
        key >>= 1
        gid, tsx = np.divmod(key, ts_span)
    else:
        order = _order(gid, tsx, ts_span)
        gid = gid[order]
        tsx = tsx[order]
        occ = np.where(order < n_ins, 1, -1)
    np.cumsum(occ, out=occ)
    starts = np.flatnonzero(_run_starts(gid))
    before = np.concatenate([[0], occ[starts[1:] - 1]])
    occ -= np.repeat(before, np.diff(np.append(starts, gid.size)))
    occ += held.reshape(-1)[gid]
    viol = occ > ways
    if not viol.any():
        return None
    vg, at = np.unique(gid[viol], return_index=True)
    tau = tsx[viol][at]  # each set's first eviction

    # Each such set's events: the thread's accesses and foreign writes.
    # Before the set's first eviction only each line's last access and
    # last foreign write matter.
    V = vg.size
    vid_of = np.full(T * S, -1, dtype=np.int64)
    vid_of[vg] = np.arange(V)
    tau_min = np.full(T, ts_span, dtype=np.int64)  # per thread
    np.minimum.at(tau_min, vg // S, tau)
    events = []

    def gather(t, la, ts, acquire):
        # la and ts come in (line, timestamp) order; first drop the
        # events a later one of their line supersedes before the
        # thread's earliest first eviction.
        more = np.zeros(la.size, dtype=bool)
        more[:-1] = (la[1:] == la[:-1]) & (ts[1:] < tau_min[t])
        sel = np.flatnonzero(~more)
        la, ts = la[sel], ts[sel]
        vid = vid_of[t * S + ((la + lo) & set_mask)]
        sel = np.flatnonzero(vid >= 0)
        vid, la, ts = vid[sel], la[sel], ts[sel]
        early = ts < tau[vid]
        keep = ~early
        keep[:-1] |= early[:-1] & ((la[1:] != la[:-1]) | ~early[1:])
        keep[-1:] |= early[-1:]
        events.append((vid[keep], la[keep], ts[keep], early[keep],
                       np.full(int(keep.sum()), acquire)))

    for t, _, _, rel, _, ts, _ in crowded:
        if tau_min[t] < ts_span:
            gather(t, rel, ts, True)
    # A write that another write to its line follows before every first
    # eviction decides nothing: the later one is foreign too, or the
    # thread's own access.
    w_la, w_ts, w_thr = out.writes
    more = np.zeros(w_la.size, dtype=bool)
    more[:-1] = (w_la[1:] == w_la[:-1]) & (w_ts[1:] < tau.min())
    sel = np.flatnonzero(~more)
    w_la, w_ts, w_thr = w_la[sel], w_ts[sel], w_thr[sel]
    for t in np.flatnonzero(tau_min < ts_span).tolist():
        foreign = np.flatnonzero(w_thr != t)
        gather(t, w_la[foreign], w_ts[foreign], False)
    vid, la, ts, early, acq = (np.concatenate(col) for col in zip(*events))
    # What each set holds just before its first eviction: the carried
    # lines with no earlier event, then the lines whose last earlier
    # event is an access, by time.
    e = np.flatnonzero(early)
    e = e[np.lexsort((ts[e], la[e], vid[e]))]
    last = np.ones(e.size, dtype=bool)
    last[:-1] = (vid[e[1:]] != vid[e[:-1]]) | (la[e[1:]] != la[e[:-1]])
    e = e[last]
    h = e[acq[e]]
    h = h[_order(vid[h], ts[h], ts_span)]
    # From the first eviction on, every event; an access right after an
    # access to the same line moves nothing.
    a = np.flatnonzero(~early)
    a = a[_order(vid[a], ts[a], ts_span)]
    again = acq[a]
    again[:1] = False
    again[1:] &= (
        acq[a[:-1]] & (la[a[1:]] == la[a[:-1]]) & (vid[a[1:]] == vid[a[:-1]])
    )
    a = a[~again]
    sets = np.arange(V + 1)
    e_at = np.searchsorted(vid[e], sets).tolist()
    h_at = np.searchsorted(vid[h], sets).tolist()
    a_at = np.searchsorted(vid[a], sets).tolist()
    e_lines = (la[e] + lo).tolist()
    h_lines = (la[h] + lo).tolist()
    a_lines = (la[a] + lo).tolist()
    a_ts = ts[a].tolist()
    a_acq = acq[a].tolist()

    caches = run.caches
    out_thr, out_line, out_ts = [], [], []
    for v, gv in enumerate(vg.tolist()):
        t, si = divmod(gv, S)
        moved = set(e_lines[e_at[v]:e_at[v + 1]])
        cset = dict.fromkeys([ln for ln in caches[t][si] if ln not in moved])
        cset.update(dict.fromkeys(h_lines[h_at[v]:h_at[v + 1]]))
        for i in range(a_at[v], a_at[v + 1]):
            ln = a_lines[i]
            cset.pop(ln, None)
            if a_acq[i]:
                cset[ln] = None
                if len(cset) > ways:
                    victim = next(iter(cset))
                    del cset[victim]
                    out_thr.append(t)
                    out_line.append(victim)
                    out_ts.append(a_ts[i])
    return (np.array(out_thr, dtype=np.int64), np.array(out_line, dtype=np.int64),
            np.array(out_ts, dtype=np.int64))


def _victim_lines(run, vg, LA, TS, prev_e, H0, O0, X0, seen, fg, acc, crowded,
                  e_thr, e_la, e_ts, loc_span):
    """Resolve the victims' lines (``vg``, indexes into the block's
    lines) again with their evictions; their non-hit costs go into
    ``acc``.  Returns the change to the count vector and the lines'
    final directory state."""
    T = run.num_threads
    R = len(run.writes)
    stride = T * R
    starts = np.flatnonzero(_run_starts(LA))
    ends = np.append(starts[1:], LA.size)
    lens = ends[vg] - starts[vg]
    idx = np.repeat(starts[vg] - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
    la, ts, prev = LA[idx], TS[idx], prev_e[idx]
    carried = (H0[vg], O0[vg], X0[vg], seen[vg])
    before = _resolve(run, la, ts, None, *carried, prev, fg, None)
    acc[ts] = np.asarray(run.hit_costs, dtype=np.float64)[ts % R]

    # A thread's first access to a line after evicting it misses, even
    # when it repeats the line within one step: put it back in.
    more_la, more_ts = [la], [ts]
    for t, _, _, rel, loc, t_ts, rep in crowded:
        mine = e_thr == t
        if not mine.any():
            continue
        step = e_ts[mine] // stride
        at = step * R + (e_ts[mine] - step * stride - t * R)
        own = rel * loc_span + loc
        j = np.searchsorted(own, e_la[mine] * loc_span + at, side="right")
        ok = j < own.size
        j = j[ok]
        j = j[(rel[j] == e_la[mine][ok]) & rep[j]]
        more_la.append(rel[j])
        more_ts.append(t_ts[j])
    more_la.append(e_la)
    more_ts.append(e_ts)
    la = np.concatenate(more_la)
    ts = np.concatenate(more_ts)
    ev = np.zeros(la.size, dtype=bool)
    ev[la.size - e_la.size:] = True
    # acc spans the block's timestamps: the (line, timestamp) sort key.
    order = np.argsort(la * acc.size + ts)
    la, ts, ev = la[order], ts[order], ev[order]

    # Previous own access, per access.
    th = (ts % stride) // R
    real = np.flatnonzero(~ev)
    real = real[np.lexsort((ts[real], th[real], la[real]))]
    prev = np.full(la.size, -1, dtype=np.int64)
    same = (la[real[1:]] == la[real[:-1]]) & (th[real[1:]] == th[real[:-1]])
    prev[real[1:][same]] = ts[real[:-1][same]]
    after = _resolve(run, la, ts, ev, *carried, prev, fg, acc)
    after.counts = after.counts - before.counts
    return after


def sync(run) -> None:
    """Apply the last core block's pending write-back, if any."""
    pending = run.pending
    if pending is not None:
        run.pending = None
        _write_back(run, *pending)


def _write_back(
    run, uniq, h0, o0, x0, h_fin, o_fin, x_fin, touched, tlb_order, untouched
) -> None:
    """Restore the loop's caches, directory, TLBs and memos after a
    core block (see the module docs)."""
    set_mask = run.num_sets - 1
    caches = run.caches
    ul = uniq.tolist()
    run.holders.update(zip(ul, h_fin.tolist()))
    run.writers.update(
        zip(ul, [(1 << o) if o >= 0 else 0 for o in o_fin.tolist()])
    )
    run.l3_seen.update(ul)

    # Copies lost to a foreign write or an eviction.
    lost = h0 & ~h_fin
    for i in np.flatnonzero(lost).tolist():
        ln = ul[i]
        si = ln & set_mask
        m = int(lost[i])
        while m:
            low = m & -m
            caches[low.bit_length() - 1][si].pop(ln, None)
            m ^= low
    # Evicted lines no thread touched in the block.
    for t, ln in untouched:
        caches[t][ln & set_mask].pop(ln, None)
        bit = 1 << t
        run.holders[ln] = run.holders.get(ln, 0) & ~bit
        run.writers[ln] = run.writers.get(ln, 0) & ~bit
    # A carried M or E copy that is still held but no longer exclusive
    # was downgraded in place by a foreign read (no LRU motion).
    c = np.where(o0 >= 0, o0, x0)
    down = np.flatnonzero(
        (c >= 0) & (o_fin != c) & (x_fin != c)
        & (((h_fin >> np.maximum(c, 0)) & 1) == 1)
    )
    for i, r in zip(down.tolist(), c[down].tolist()):
        ln = ul[i]
        caches[r][ln & set_mask][ln] = S

    # Touched lines still held re-enter each set above its untouched
    # survivors, in order of their last own access.
    for t, g, last_ts in touched:
        kept = np.flatnonzero((h_fin[g] >> t) & 1)
        g = g[kept[np.argsort(last_ts[kept])]]
        states = np.where(o_fin[g] == t, M, np.where(x_fin[g] == t, E, S))
        sets = caches[t]
        for ln, si, st in zip(
            uniq[g].tolist(), (uniq[g] & set_mask).tolist(), states.tolist()
        ):
            cset = sets[si]
            cset.pop(ln, None)
            cset[ln] = st

    for t, pages, last_page in tlb_order:
        tlb = run.tlbs[t]
        for p in pages:
            tlb.pop(p, None)
            tlb[p] = None
        run.tlb_last[t] = last_page

    # The memos only enable loop shortcuts; clearing them is always safe.
    T = run.num_threads
    run.mru_line[:] = [None] * T
    run.mru_mod[:] = [False] * T
    run.undisturbed[:] = [False] * T
