"""Proving an analysis free of false sharing without walking it.

An FS case needs a *foreign writer*: a thread touches a line whose
writer bit another thread holds, and only that thread's own write to the
line ever set the bit.  So when no line that one thread writes is ever
touched by another thread — the threads' written lines are *disjoint*
from everything the others touch — the walk counts zero FS cases, and
``fs_cases``, ``fs_read_cases`` and ``fs_write_cases`` are all 0.  The
argument holds in ``invalidate`` and ``literal`` mode alike (both count
only foreign writers), for any per-thread stack size (evictions only
clear bits) and any within-step thread order, and for any prefix of
chunk runs (a prefix touches a subset of the lines).

:func:`lines_disjoint` decides that question for a static round-robin
schedule (the only one modeled, see :mod:`repro.model.schedule`)
without enumerating iterations.  This is the cache-line version of the
element-level question Shim et al. pose as a satisfiability problem
(Data Race Satisfiability on Array Elements, arXiv 2503.13864).  Each
reference's byte address is one affine function of the loop variables
(``OwnershipListGenerator.addr_exprs``) and every loop is rectangular,
so over one *chunk instance* — one thread's chunk of parallel positions
in one outer iteration, with every inner loop over its full range — the
address takes its extremes at corners of that box.  Flooring both
extremes to lines bounds the lines the reference touches there by one
interval.  Addresses are used exactly as the walk computes them: no
subscript is assumed to stay inside its array.

References whose address depends on an outer (sequential) loop variable
get one interval per outer iteration; one interval over every row would
cover the lines between rows that no thread writes.  The rest get one
interval per chunk.  Intervals from different outer iterations are still
compared with each other, because lines stay cached across executions.
The intervals over-approximate the touched lines, so the proof is sound
but may fail on a disjoint analysis; the model then walks it, which is
always exact.
"""

from __future__ import annotations

import numpy as np

from repro.model.ownership import OwnershipListGenerator

__all__ = ["lines_disjoint"]


def lines_disjoint(
    gen: OwnershipListGenerator, max_steps: int | None = None
) -> bool:
    """Whether no line one thread writes is touched by another thread.

    Covers the lockstep steps ``gen.blocks(max_steps)`` walks: the whole
    loop, or a prefix for the predictor.  ``False`` means "not proven":
    the intervals of a written line and another thread's access overlap,
    the walk is empty (it is then free, and the predictor must see that
    it sampled nothing), or the intervals would outnumber the accesses
    the walk makes, so proving would cost more than walking.
    """
    enum = gen.enum
    limit = enum.max_steps if max_steps is None else min(max_steps, enum.max_steps)
    if limit <= 0:
        return False
    T = gen.num_threads
    if T == 1 or not gen.write_mask.any():
        return True
    nest = gen.nest
    space = enum.space
    loops = nest.loops()
    trips = nest.trip_counts()
    d = nest.parallel_depth()
    ploop = loops[d]
    outer = list(zip(loops[:d], trips[:d]))
    inner = list(zip(loops[d + 1 :], trips[d + 1 :]))
    c = space.chunk
    period = T * c

    # Walked chunk instances per thread, in walk order.  Thread t's k-th
    # chunk covers positions [k·T·c + t·c, +c) clipped to the trip (the
    # enumerator's static positions), and instance (o, k) starts at
    # position slot o·npos + k·c, so the walked instances are a prefix.
    # ``distinct`` counts the chunks walked in any outer iteration.
    threads = np.arange(T, dtype=np.int64)
    npos = np.array([enum.positions(t).size for t in range(T)], dtype=np.int64)
    chunks = -(-npos // c)
    steps = np.minimum(
        limit, np.array([enum.thread_steps(t) for t in range(T)], dtype=np.int64)
    )
    full, rest = np.divmod(-(-steps // space.inner_total), np.maximum(npos, 1))
    count = full * chunks + -(-rest // c)
    distinct = np.where(full > 0, chunks, count)
    exprs = gen.addr_exprs
    writes = gen.write_mask
    # A reference can meet a written line only if its line range over the
    # whole nest meets some written reference's; the others drop out
    # before any interval is built.  This only saves time: on the
    # benchmark's sweep and serve points it drops exactly the reads of
    # arrays no thread writes, over half the references, and halves the
    # sweep's proof time (docs/PERFORMANCE.md §6).
    reach = np.array(gen.address_extremes(), dtype=np.int64) // gen.line_size
    w_reach = reach[writes]
    keep = (
        (reach[:, None, 0] <= w_reach[None, :, 1])
        & (w_reach[None, :, 0] <= reach[:, None, 1])
    ).any(axis=1)
    exprs = [e for e, k in zip(exprs, keep) if k]
    writes = writes[keep]
    outer_vars = {lp.var for lp, _ in outer}
    deps = np.array(
        [any(v in outer_vars for v in e.variables()) for e in exprs],
        dtype=bool,
    )
    n_dep = int(deps.sum())
    intervals = n_dep * int(count.sum()) + (deps.size - n_dep) * int(distinct.sum())
    if intervals > int(steps.sum()) * len(gen.refs):
        return False

    def instances(per_thread):
        owner = np.repeat(threads, per_thread)
        local = np.arange(owner.size, dtype=np.int64) - np.repeat(
            np.cumsum(per_thread) - per_thread, per_thread
        )
        k = local % chunks[owner]
        first = k * period + owner * c
        last = np.minimum(first + c, space.parallel_trip) - 1
        return owner, local // chunks[owner], first, last

    def value(lp, idx):
        return lp.lower.as_int() + idx * lp.step

    coeffs = np.array(
        [[expr.coeff(lp.var) for lp, _ in outer] for expr in exprs],
        dtype=np.int64,
    ).reshape(deps.size, len(outer))
    outer_values = np.empty((len(outer), space.outer_total), dtype=np.int64)
    rest_o = np.arange(space.outer_total, dtype=np.int64)
    for i in reversed(range(len(outer))):
        lp, trip = outer[i]
        outer_values[i] = value(lp, rest_o % trip)
        rest_o = rest_o // trip
    # Per reference: constant part plus the inner loops' extremes.
    lo0 = np.array([e.const for e in exprs], dtype=np.int64)
    hi0 = lo0.copy()
    for lp, trip in inner:
        k = np.array([e.coeff(lp.var) for e in exprs], dtype=np.int64)
        ends = (k * value(lp, 0), k * value(lp, trip - 1))
        lo0 += np.minimum(*ends)
        hi0 += np.maximum(*ends)
    cp = np.array([e.coeff(ploop.var) for e in exprs], dtype=np.int64)

    parts = []
    for dep, per_thread in ((True, count), (False, distinct)):
        sel = deps == dep
        if not sel.any():
            continue
        owner, o, first, last = instances(per_thread)
        a = cp[sel, None] * value(ploop, first)[None, :]
        b = cp[sel, None] * value(ploop, last)[None, :]
        lo = lo0[sel, None] + np.minimum(a, b)
        hi = hi0[sel, None] + np.maximum(a, b)
        if dep:
            shift = coeffs[sel] @ outer_values[:, o]
            lo += shift
            hi += shift
        parts.append((
            lo.ravel() // gen.line_size,
            hi.ravel() // gen.line_size,
            np.broadcast_to(owner, lo.shape).ravel(),
            np.broadcast_to(writes[sel, None], lo.shape).ravel(),
        ))
    lo, hi, owner, written = (np.concatenate(p) for p in zip(*parts))
    return not _foreign_overlap(lo, hi, owner, written, T)


def _foreign_overlap(
    lo: np.ndarray,
    hi: np.ndarray,
    owner: np.ndarray,
    written: np.ndarray,
    num_threads: int,
) -> bool:
    """Whether some written interval meets an interval of another owner.

    For a written interval ``[a, b]``, the intervals meeting it number
    ``#{lo ≤ b} − #{hi < a}``: the second set lies inside the first.
    The same count over owner-prefixed keys gives the meetings with the
    interval's own thread, and any surplus is a foreign one.  Four sorts
    and a few ``searchsorted`` passes, whatever the owners' layout.
    """
    base = int(lo.min())
    span = int(hi.max()) - base + 1
    if span * num_threads >= 2**62:
        return True  # keys would overflow: not proven
    x = lo - base
    y = hi - base
    wx = x[written]
    wy = y[written]
    meet = np.searchsorted(np.sort(x), wy, "right") - np.searchsorted(
        np.sort(y), wx, "left"
    )
    off = owner[written] * span
    own_x = np.sort(owner * span + x)
    own_y = np.sort(owner * span + y)
    floor_x = np.searchsorted(own_x, off, "left")
    floor_y = np.searchsorted(own_y, off, "left")
    own_meet = (np.searchsorted(own_x, off + wy, "right") - floor_x) - (
        np.searchsorted(own_y, off + wx, "left") - floor_y
    )
    return bool(np.any(meet > own_meet))
