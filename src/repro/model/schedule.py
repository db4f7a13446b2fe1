"""Static round-robin scheduling and lockstep iteration enumeration.

The paper assumes "chunks of a loop are distributed to threads in a
round-robin fashion" (Section III).  This module turns a bound
:class:`~repro.ir.ParallelLoopNest` plus (threads, chunk) into the
per-thread streams of *innermost iteration points* the ownership-list
generator walks, in lockstep order: at global step *s*, every thread
executes its *s*-th innermost iteration.

Everything is produced as NumPy index arrays in blocks, so downstream
address generation is a dot product per reference rather than a Python
loop per iteration (vectorization rule from the HPC guides).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from repro.ir.loops import ParallelLoopNest
from repro.util import ceil_div


def static_chunk_positions(
    trip: int, num_threads: int, chunk: int, thread: int
) -> np.ndarray:
    """Parallel-loop iteration *positions* assigned to one thread.

    Round-robin static schedule: chunk run ``r`` hands positions
    ``[r·T·c + t·c, r·T·c + (t+1)·c)`` to thread ``t``, clipped to
    ``trip``.

    >>> static_chunk_positions(10, 2, 2, 0)
    array([0, 1, 4, 5, 8, 9])
    >>> static_chunk_positions(10, 2, 2, 1)
    array([2, 3, 6, 7])
    """
    if trip < 0 or num_threads <= 0 or chunk <= 0:
        raise ValueError("trip >= 0, num_threads > 0, chunk > 0 required")
    if not 0 <= thread < num_threads:
        raise ValueError(f"thread {thread} out of range [0, {num_threads})")
    period = num_threads * chunk
    runs = ceil_div(trip, period) if trip else 0
    starts = np.arange(runs, dtype=np.int64) * period + thread * chunk
    pos = (starts[:, None] + np.arange(chunk, dtype=np.int64)[None, :]).ravel()
    return pos[pos < trip]


def effective_chunk(nest: ParallelLoopNest, num_threads: int) -> int:
    """The concrete chunk size: the clause value, or the default static
    blocking ``ceil(trip / T)`` when no chunk was given."""
    chunk = nest.schedule.chunk
    if chunk is not None:
        return chunk
    trip = nest.trip_counts()[nest.parallel_depth()]
    return max(ceil_div(trip, num_threads), 1)


@dataclass(frozen=True)
class IterationSpace:
    """Decomposed shape of a nest execution under a static schedule.

    ``outer_total``/``inner_total`` are the products of trip counts
    above/below the parallel depth; ``parallel_trip`` is the worksharing
    loop's own count.
    """

    nest: ParallelLoopNest
    num_threads: int
    chunk: int
    outer_total: int
    parallel_trip: int
    inner_total: int

    @classmethod
    def of(cls, nest: ParallelLoopNest, num_threads: int) -> "IterationSpace":
        trips = nest.trip_counts()
        d = nest.parallel_depth()
        outer = 1
        for t in trips[:d]:
            outer *= t
        inner = 1
        for t in trips[d + 1 :]:
            inner *= t
        return cls(
            nest=nest,
            num_threads=num_threads,
            chunk=effective_chunk(nest, num_threads),
            outer_total=outer,
            parallel_trip=trips[d],
            inner_total=inner,
        )

    @property
    def steps_per_thread(self) -> int:
        """Lockstep steps = the paper's ``All_num_iters / num_threads``.

        Threads with fewer assigned chunks idle at the tail; the step
        count follows the busiest thread (thread 0).
        """
        assigned = len(
            static_chunk_positions(self.parallel_trip, self.num_threads, self.chunk, 0)
        )
        return self.outer_total * assigned * self.inner_total

    @property
    def total_chunk_runs(self) -> int:
        """Chunk runs over the whole nest (the paper's ``x_max``)."""
        per_execution = ceil_div(self.parallel_trip, self.num_threads * self.chunk)
        return self.outer_total * per_execution

    @property
    def steps_per_chunk_run(self) -> int:
        """Lockstep steps consumed by one chunk run."""
        return self.chunk * self.inner_total


class LockstepEnumerator:
    """Produces per-thread loop-variable index blocks in lockstep order.

    For thread ``t``, step ``s`` decomposes as
    ``s = ((o · L) + p) · I + q`` where ``o`` indexes the outer
    iterations, ``p`` the thread's assigned parallel positions, and ``q``
    the inner iterations; this class evaluates that decomposition for
    whole step ranges at once.
    """

    def __init__(
        self, nest: ParallelLoopNest, num_threads: int, block_steps: int = 8192
    ) -> None:
        if block_steps <= 0:
            # blocks() advances by block_steps; zero or less never ends.
            raise ValueError(f"block_steps must be positive, got {block_steps}")
        self.nest = nest
        self.space = IterationSpace.of(nest, num_threads)
        self.num_threads = num_threads
        self.block_steps = block_steps
        trips = nest.trip_counts()
        d = nest.parallel_depth()
        loops = nest.loops()
        self._outer_loops = loops[:d]
        self._parallel_loop = loops[d]
        self._inner_loops = loops[d + 1 :]
        self._outer_trips = trips[:d]
        self._inner_trips = trips[d + 1 :]
        # Per-thread assigned parallel positions.
        self._positions = [
            static_chunk_positions(
                self.space.parallel_trip, num_threads, self.space.chunk, t
            )
            for t in range(num_threads)
        ]

    @property
    def parallel_loop(self):
        """The worksharing loop (public accessor for model consumers)."""
        return self._parallel_loop

    def positions(self, thread: int) -> np.ndarray:
        """Parallel-loop positions assigned to one thread, ascending."""
        return self._positions[thread]

    def thread_steps(self, thread: int) -> int:
        """Total innermost iterations executed by one thread."""
        return (
            self.space.outer_total
            * len(self._positions[thread])
            * self.space.inner_total
        )

    @property
    def max_steps(self) -> int:
        return max(self.thread_steps(t) for t in range(self.num_threads))

    def env_block(
        self, thread: int, start: int, stop: int
    ) -> Mapping[str, np.ndarray]:
        """Loop-variable values for steps [start, stop) of one thread.

        Steps beyond the thread's work are clipped; the returned arrays
        may be shorter than ``stop - start`` (empty when fully idle).
        """
        own = self.thread_steps(thread)
        stop = min(stop, own)
        if stop <= start:
            return {}
        s = np.arange(start, stop, dtype=np.int64)
        inner_total = self.space.inner_total
        npos = len(self._positions[thread])
        q = s % inner_total
        rest = s // inner_total
        p = rest % npos
        o = rest // npos

        env: dict[str, np.ndarray] = {}
        # Outer loops: row-major decomposition of o.
        acc = o
        for lp, trip in zip(
            reversed(self._outer_loops), reversed(self._outer_trips)
        ):
            idx = acc % trip
            acc = acc // trip
            env[lp.var] = lp.lower.as_int() + idx * lp.step
        # Parallel loop.
        ppos = self._positions[thread][p]
        env[self._parallel_loop.var] = (
            self._parallel_loop.lower.as_int() + ppos * self._parallel_loop.step
        )
        # Inner loops: row-major decomposition of q.
        acc = q
        for lp, trip in zip(
            reversed(self._inner_loops), reversed(self._inner_trips)
        ):
            idx = acc % trip
            acc = acc // trip
            env[lp.var] = lp.lower.as_int() + idx * lp.step
        return env

    def blocks(
        self, max_steps: int | None = None
    ) -> Iterator[tuple[int, list[Mapping[str, np.ndarray]]]]:
        """Iterate lockstep blocks: (start_step, [env per thread]).

        ``max_steps`` truncates the walk (used by the prediction model to
        evaluate only a prefix of chunk runs).
        """
        limit = self.max_steps if max_steps is None else min(max_steps, self.max_steps)
        start = 0
        while start < limit:
            stop = min(start + self.block_steps, limit)
            yield start, [
                self.env_block(t, start, stop) for t in range(self.num_threads)
            ]
            start = stop
