"""Cache and TLB models — ``Cache_c`` and ``TLB_c`` of Eq. (1) (Open64 Fig. 4).

The Open64 cache model counts *footprints*: the bytes each reference
group pulls into the cache per loop iteration.  References that differ
only by a small constant (``a[i]`` and ``a[i+1]``) fall into one
reference group and contribute a single footprint, because spatial
locality makes the second access free.  When the accumulated footprint
of a loop level exceeds the cache capacity, every new footprint is a
miss; otherwise only cold misses remain.

The TLB is "modeled as another level of cache" (paper, Section II-B2):
the same footprint computation at page granularity against the TLB
reach.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.affine import AffineExpr
from repro.ir.loops import ParallelLoopNest
from repro.ir.refs import AddressSpace, ArrayRef
from repro.machine import CacheLevel, MachineConfig


@dataclass(frozen=True)
class ReferenceGroup:
    """A set of uniformly generated references sharing footprints.

    ``leader`` is the representative reference; ``members`` the full set.
    ``stride_bytes`` is the byte distance between consecutive innermost
    iterations of the leader's address function.
    """

    leader: ArrayRef
    members: tuple[ArrayRef, ...]
    stride_bytes: int


@dataclass(frozen=True)
class CacheEstimate:
    """Per-innermost-iteration miss traffic and its cycle cost."""

    misses_per_iter_l1: float
    misses_per_iter_l2: float
    misses_per_iter_l3: float
    tlb_misses_per_iter: float
    cache_cycles_per_iter: float
    tlb_cycles_per_iter: float
    groups: tuple[ReferenceGroup, ...]


class CacheModel:
    """Footprint-based cache/TLB cost model for a single thread.

    The model is sequential by construction — coherence interference is
    exactly what the paper adds separately via ``FalseSharing_c``.
    """

    def __init__(self, machine: MachineConfig, space: AddressSpace | None = None) -> None:
        self.machine = machine
        self.space = space or AddressSpace()

    # -- reference groups -----------------------------------------------------

    def reference_groups(self, nest: ParallelLoopNest) -> tuple[ReferenceGroup, ...]:
        """Partition innermost accesses into uniformly-generated groups.

        Two references group together when their flattened address
        functions have identical variable coefficients and their constant
        parts differ by less than one cache line.
        """
        line = self.machine.line_size
        groups: list[list[tuple[ArrayRef, AffineExpr]]] = []
        for ref in nest.innermost_accesses():
            addr = self.space.address_expr(ref)
            placed = False
            for bucket in groups:
                _, first = bucket[0]
                if first.coeffs == addr.coeffs and abs(first.const - addr.const) < line:
                    bucket.append((ref, addr))
                    placed = True
                    break
            if not placed:
                groups.append([(ref, addr)])

        innermost_var = nest.innermost().var
        step = nest.innermost().step
        out = []
        for bucket in groups:
            leader, addr = bucket[0]
            stride = abs(addr.coeff(innermost_var)) * step
            out.append(
                ReferenceGroup(
                    leader=leader,
                    members=tuple(r for r, _ in bucket),
                    stride_bytes=stride,
                )
            )
        return tuple(out)

    # -- footprints -------------------------------------------------------------

    def _bytes_per_iter(self, group: ReferenceGroup) -> float:
        """New bytes the group touches per innermost iteration."""
        line = self.machine.line_size
        if group.stride_bytes == 0:
            # Loop-invariant reference: one line for the whole loop; the
            # per-iteration charge is folded into cold misses elsewhere.
            return 0.0
        return float(min(group.stride_bytes, line))

    def _group_lines_per_iter(self, group: ReferenceGroup) -> float:
        """New cache lines per innermost iteration (miss opportunities)."""
        return self._bytes_per_iter(group) / self.machine.line_size

    def footprint_bytes(self, nest: ParallelLoopNest, per_thread_iters: int) -> float:
        """Total bytes touched over ``per_thread_iters`` innermost iterations."""
        return sum(
            self._bytes_per_iter(g) * per_thread_iters
            for g in self.reference_groups(nest)
        )

    # -- miss rates ---------------------------------------------------------------

    def _misses_per_iter(
        self,
        groups: tuple[ReferenceGroup, ...],
        level: CacheLevel,
        per_thread_iters: int,
    ) -> float:
        """Misses per innermost iteration at one cache level.

        Footprint larger than the level's capacity ⇒ streaming: every new
        line is a miss.  Otherwise only cold misses, amortized over the
        loop (each distinct line missed once).
        """
        lines_per_iter = sum(self._group_lines_per_iter(g) for g in groups)
        total_bytes = sum(self._bytes_per_iter(g) for g in groups) * per_thread_iters
        if total_bytes > level.size_bytes:
            return lines_per_iter
        # Cold misses only: distinct lines / iterations = lines_per_iter
        # already *is* distinct-lines-per-iteration for streaming strides;
        # a resident working set is touched once.
        if per_thread_iters <= 0:
            return 0.0
        distinct_lines = total_bytes / self.machine.line_size
        return distinct_lines / per_thread_iters

    def _tlb_misses_per_iter(
        self, groups: tuple[ReferenceGroup, ...], per_thread_iters: int
    ) -> float:
        page = self.machine.page_size
        reach = self.machine.tlb_entries * page
        pages_per_iter = sum(
            (self._bytes_per_iter(g) / page) for g in groups
        )
        total_bytes = sum(self._bytes_per_iter(g) for g in groups) * per_thread_iters
        if total_bytes > reach:
            return pages_per_iter
        if per_thread_iters <= 0:
            return 0.0
        distinct_pages = total_bytes / page
        return distinct_pages / per_thread_iters

    # -- public API ------------------------------------------------------------------

    def estimate(
        self, nest: ParallelLoopNest, per_thread_iters: int | None = None
    ) -> CacheEstimate:
        """Cache/TLB cycles per innermost iteration.

        Parameters
        ----------
        nest:
            The (bound) loop nest.
        per_thread_iters:
            Innermost iterations executed per thread; defaults to the
            whole iteration space (single-thread view).
        """
        iters = (
            nest.total_iterations() if per_thread_iters is None else per_thread_iters
        )
        m = self.machine
        # Every term below reads the same groups; building them rebuilds
        # each reference's affine address, so it happens once here.
        groups = self.reference_groups(nest)
        m1 = self._misses_per_iter(groups, m.l1, iters)
        m2 = self._misses_per_iter(groups, m.l2, iters)
        m3 = self._misses_per_iter(groups, m.l3, iters)
        tlb = self._tlb_misses_per_iter(groups, iters)
        # Constant-stride streams are prefetchable: the long-latency part
        # of their misses is hidden with machine.prefetch_coverage, the
        # same assumption the simulator's stride prefetcher implements.
        residual = 1.0 - m.prefetch_coverage
        cache_cycles = (
            m1 * (m.l2.latency_cycles - m.l1.latency_cycles)
            + residual
            * (
                m2 * (m.l3.latency_cycles - m.l2.latency_cycles)
                + m3 * m.mem_latency_cycles
            )
        )
        return CacheEstimate(
            misses_per_iter_l1=m1,
            misses_per_iter_l2=m2,
            misses_per_iter_l3=m3,
            tlb_misses_per_iter=tlb,
            cache_cycles_per_iter=cache_cycles,
            tlb_cycles_per_iter=tlb * m.tlb_miss_cycles,
            groups=groups,
        )
