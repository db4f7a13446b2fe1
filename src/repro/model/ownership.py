"""Step 2 of the model: cache line ownership lists (Section III-B).

For every lockstep step and every thread, the ownership list is the
ordered sequence of (cache line, read/write) pairs the thread touches in
that innermost iteration.  With arrays placed line-aligned by the
:class:`~repro.ir.AddressSpace`, each static reference reduces to one
affine address function, so a whole block of steps becomes one
``[steps × refs]`` integer matrix per thread — computed with NumPy dot
products, not per-iteration AST walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.ir.loops import ParallelLoopNest
from repro.ir.refs import AddressSpace, ArrayRef
from repro.model.schedule import IterationSpace, LockstepEnumerator
from repro.obs import get_registry, span


@dataclass(frozen=True)
class OwnershipBlock:
    """Ownership lists for a contiguous range of lockstep steps.

    Attributes
    ----------
    start_step:
        First lockstep step covered by the block.
    lines:
        Per thread, an ``[n_steps_t, n_refs]`` array of cache line ids
        (``n_steps_t`` may be smaller than other threads' at the tail).
    """

    start_step: int
    lines: tuple[np.ndarray, ...]


class OwnershipListGenerator:
    """Generates cache line ownership lists for all threads.

    Parameters
    ----------
    nest:
        Bound, validated parallel loop nest.
    num_threads:
        Executing thread count.
    space:
        Address space with (or accepting) the nest's arrays; one is
        created and populated if not supplied.
    line_size:
        Cache line size in bytes.
    block_steps:
        Lockstep steps per emitted block (memory/speed trade-off).
    """

    def __init__(
        self,
        nest: ParallelLoopNest,
        num_threads: int,
        line_size: int,
        space: AddressSpace | None = None,
        block_steps: int = 8192,
    ) -> None:
        self.nest = nest
        self.num_threads = num_threads
        self.line_size = line_size
        self.space = space or AddressSpace()
        self.refs: tuple[ArrayRef, ...] = nest.innermost_accesses()
        if not self.refs:
            raise ValueError(
                f"nest {nest.name!r} has no innermost array accesses to model"
            )
        for ref in self.refs:
            self.space.place(ref.array)
        self.enum = LockstepEnumerator(nest, num_threads, block_steps)
        #: static write mask, aligned with ``refs``
        self.write_mask: np.ndarray = np.array(
            [r.is_write for r in self.refs], dtype=bool
        )
        #: affine byte-address function of each reference, aligned with
        #: ``refs``
        self.addr_exprs = [self.space.address_expr(r) for r in self.refs]

    @property
    def iteration_space(self) -> IterationSpace:
        return self.enum.space

    def address_extremes(self) -> list[tuple[int, int]]:
        """Per reference, aligned with ``refs``: the lowest and highest
        byte address it computes anywhere in the nest.

        Every loop is rectangular, so each affine address takes its
        extremes at corners of the box of loop ranges.
        """
        ends = {
            lp.var: (lp.lower.as_int(), lp.lower.as_int() + (trip - 1) * lp.step)
            for lp, trip in zip(self.nest.loops(), self.nest.trip_counts())
        }
        out = []
        for expr in self.addr_exprs:
            lo = hi = expr.const
            for var, k in expr.coeffs:
                first, last = (k * x for x in ends[var])
                lo += min(first, last)
                hi += max(first, last)
            out.append((lo, hi))
        return out

    def addresses_for_env(self, env, length: int | None = None) -> np.ndarray:
        """``[n_steps, n_refs]`` byte addresses for one thread's env block.

        Raw addresses serve byte/word-granularity consumers such as the
        runtime-detector baseline; the model itself works on line ids.
        """
        if not env:
            return np.empty((0, len(self.refs)), dtype=np.int64)
        n = len(next(iter(env.values())))
        out = np.empty((n, len(self.refs)), dtype=np.int64)
        for k, expr in enumerate(self.addr_exprs):
            out[:, k] = expr.eval_vectorized(env, length=n)
        return out

    def lines_for_env(self, env, length: int | None = None) -> np.ndarray:
        """``[n_steps, n_refs]`` line ids for one thread's env block."""
        return self.addresses_for_env(env, length) // self.line_size

    def blocks(self, max_steps: int | None = None) -> Iterator[OwnershipBlock]:
        """Yield ownership blocks in lockstep order."""
        lines_counter = get_registry().counter(
            "ownership_line_ids", "line ids generated by the ownership stage"
        ).labels(kernel=self.nest.name)
        for start, envs in self.enum.blocks(max_steps):
            with span("ownership.block", start_step=start) as sp:
                lines = tuple(self.lines_for_env(e) for e in envs)
                n = sum(mat.size for mat in lines)
                sp.set(line_ids=n)
            lines_counter.inc(n)
            yield OwnershipBlock(start_step=start, lines=lines)

    # -- conveniences for tests/analysis --------------------------------------

    def full_matrix(self, thread: int, max_steps: int | None = None) -> np.ndarray:
        """All line ids for one thread (small problems / tests only)."""
        parts: list[np.ndarray] = []
        for block in self.blocks(max_steps):
            parts.append(block.lines[thread])
        if not parts:
            return np.empty((0, len(self.refs)), dtype=np.int64)
        return np.vstack(parts)

    def touched_lines(self, max_steps: int | None = None) -> set[int]:
        """All distinct cache lines touched by any thread."""
        out: set[int] = set()
        for block in self.blocks(max_steps):
            for mat in block.lines:
                out.update(np.unique(mat).tolist())
        return out
