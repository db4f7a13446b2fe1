"""The simulator's executors agree, field by field.

:class:`~repro.sim.executor.LoopSimulator` walks every access through
one flattened loop.  :class:`~repro.sim.executor.MulticoreSimulator`,
the production simulator, sends every block whose TLBs cannot overflow
to the NumPy block core of :mod:`repro.sim.blockcore`, cache evictions
included, and the rest to that loop.  :class:`~repro.sim.reference.ReferenceSimulator`
is the method-per-access executor the loop replaced.  These properties
draw machines, kernels and simulator settings on both sides of the
core's qualification and require the three
:class:`~repro.sim.executor.SimResult` objects to be equal in every
field but the host's ``elapsed_seconds`` — counters, per-thread cycle
floats and the wall total, bit for bit.

The example budget comes from the hypothesis profile; CI runs this file
with ``--hypothesis-profile=deep``.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ir import (
    DOUBLE,
    AffineExpr,
    ArrayDecl,
    ArrayRef,
    Assign,
    BinOp,
    Const,
    LoadExpr,
    Loop,
    ParallelLoopNest,
    Schedule,
)
from repro.ir.refs import AddressSpace
from repro.kernels import (
    build_dft_nest,
    build_heat_nest,
    build_linreg_nest,
    build_transpose_nest,
)
from repro.machine import CacheLevel, paper_machine, tiny_machine
from repro.sim import blockcore
from repro.sim.executor import LoopSimulator, MulticoreSimulator
from repro.sim.reference import ReferenceSimulator
from tests.conftest import make_copy_nest


def make_shift_nest(n: int = 96, d: int = 3) -> ParallelLoopNest:
    """``parallel for (i) { c[i] = b[i]; b[i] += a[i]; e[i] = b[i+d]; }``.

    Two patterns the paper kernels lack.  A thread loads a line, loads
    it again after touching others and then stores it, so the store
    meets the line in E.  And threads read ``b`` lines their successor
    keeps dirty without writing those lines themselves, so a writer can
    be downgraded without being invalidated and re-run the same lines
    with an upgrade.
    """
    a, b, c, e = (ArrayDecl.create(name, DOUBLE, (n,)) for name in "abce")
    i = AffineExpr.var("i")
    body = [
        Assign(ArrayRef(c, (i,), is_write=True), LoadExpr(ArrayRef(b, (i,)))),
        Assign(
            ArrayRef(b, (i,), is_write=True),
            BinOp("+", LoadExpr(ArrayRef(a, (i,))), LoadExpr(ArrayRef(b, (i,)))),
        ),
        Assign(ArrayRef(e, (i,), is_write=True), LoadExpr(ArrayRef(b, (i + d,)))),
    ]
    return ParallelLoopNest(
        name="shift.i", root=Loop.create("i", 0, n - d, body),
        parallel_var="i", schedule=Schedule("static", 1),
    )


#: Tiny instances of every kernel family the simulator runs, plus one
#: with the sharing patterns they lack.
KERNELS = {
    "heat": lambda: build_heat_nest(rows=4, cols=34),
    "dft": lambda: build_dft_nest(samples=3, freqs=48),
    "linreg": lambda: build_linreg_nest(tasks=12, ppt=5),
    "transpose": lambda: build_transpose_nest(rows=6, cols=24),
    "copy": lambda: make_copy_nest(n=96),
    "shift": make_shift_nest,
}

#: Explicit layouts: page-aligned (the default's), line-aligned and
#: packed, and one that is not even line-aligned, so distinct arrays
#: share lines and pages.
SPACES = {
    "default": None,
    "line-aligned": lambda: AddressSpace(alignment=64, guard_bytes=0),
    "unaligned": lambda: AddressSpace(alignment=8, guard_bytes=8),
}


def result_fields(result) -> dict:
    """Every ``SimResult`` field but the host-dependent elapsed time."""
    fields = dataclasses.asdict(result)
    del fields["elapsed_seconds"]
    fields["per_thread_cycles"] = result.per_thread_cycles.tolist()
    return fields


def assert_equivalent(machine, nest, threads, *, space=None, chunk=None,
                      max_steps=None, **options):
    """Run every executor on one configuration; return the production
    result and simulator (whose block counts show which path ran)."""
    sims = [
        cls(machine, **options)
        for cls in (ReferenceSimulator, LoopSimulator, MulticoreSimulator)
    ]
    results = [
        sim.run(
            nest, threads, chunk=chunk, max_steps=max_steps,
            space=None if space is None else space(),
        )
        for sim in sims
    ]
    expected, loop, actual = (result_fields(r) for r in results)
    assert loop == expected
    assert actual == loop
    return results[2], sims[2]


def carried_state(run) -> tuple:
    """What a run carries into its next block, but the loop's memos:
    each set's lines and states in LRU order, each TLB's pages in LRU
    order and its last page, the directory, ``l3_seen``, the cycle
    totals and the counters."""
    return (
        [[(si, list(s.items())) for si, s in enumerate(sets) if s]
         for sets in run.caches],
        [list(tlb) for tlb in run.tlbs],
        list(run.tlb_last),
        {line: mask for line, mask in run.holders.items() if mask},
        {line: mask for line, mask in run.writers.items() if mask},
        set(run.l3_seen),
        list(run.cycles),
        dataclasses.asdict(run.counters),
    )


class _RecordsBlockStates:
    """Appends the run's carried state to ``states`` after every trace
    block, with the block core's pending write-back applied."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.states = []
        self._depth = 0

    def _simulate_block(self, run, lines, flags) -> None:
        self._depth += 1
        try:
            super()._simulate_block(run, lines, flags)
        finally:
            self._depth -= 1
        if not self._depth:  # a whole trace block, not a piece of one
            blockcore.sync(run)
            self.states.append(carried_state(run))


class LoopStates(_RecordsBlockStates, LoopSimulator):
    pass


class CoreStates(_RecordsBlockStates, MulticoreSimulator):
    pass


@st.composite
def machines(draw):
    """Small machines that evict, thrash the TLB and cross sockets.

    A fifth of them get a TLB no test kernel can thrash, so their
    evicting blocks run in the block core rather than the loop.
    """
    cache_lines = draw(st.sampled_from([2, 4, 8, 16]))
    base = tiny_machine(num_cores=16, cache_lines=cache_lines)
    # tiny_machine's L2 is fully associative; also draw set-associative
    # geometries (2-way ... direct-mapped) over the same capacity.
    ways = draw(st.sampled_from([0, 1, 2, 4]))
    l2 = dataclasses.replace(base.l2, associativity=ways)
    coherence = dataclasses.replace(
        base.coherence,
        cross_socket_factor=draw(st.sampled_from([1.0, 1.5, 2.7])),
    )
    return dataclasses.replace(
        base,
        l2=l2,
        cores_per_socket=draw(st.integers(1, 4)),
        coherence=coherence,
        tlb_entries=draw(st.one_of(st.integers(1, 8), st.just(512))),
        page_size=draw(st.sampled_from([64, 128, 512, 4096])),
    )


#: 63 threads fill the core's holder bitmasks; 64 run the loop.  The
#: wide counts are a quarter of the draws: they cost the most per block.
THREADS = st.sampled_from([*range(1, 10), 40, 63, 64])


def configurations(machine_strategy, threads=THREADS):
    return st.fixed_dictionaries({
        "machine": machine_strategy,
        "kernel": st.sampled_from(sorted(KERNELS)),
        "threads": threads,
        "chunk": st.sampled_from([1, 2, 3, 5, 8, 16]),
        "block_steps": st.sampled_from([1, 3, 17, 4096]),
        "max_steps": st.one_of(st.none(), st.integers(0, 80)),
        "space": st.sampled_from(sorted(SPACES)),
        "fully_associative": st.booleans(),
        "prefetcher": st.booleans(),
        "thread_placement": st.sampled_from(["contiguous", "scatter"]),
    })


def run_configuration(cfg, check=assert_equivalent):
    check(
        cfg["machine"],
        KERNELS[cfg["kernel"]](),
        cfg["threads"],
        chunk=cfg["chunk"],
        max_steps=cfg["max_steps"],
        space=SPACES[cfg["space"]],
        block_steps=cfg["block_steps"],
        fully_associative=cfg["fully_associative"],
        prefetcher=cfg["prefetcher"],
        thread_placement=cfg["thread_placement"],
    )


def assert_same_carried_state(machine, nest, threads, *, space=None, chunk=None,
                              max_steps=None, **options):
    """The loop and the production simulator leave every trace block
    in the same carried state."""
    sims = [cls(machine, **options) for cls in (LoopStates, CoreStates)]
    for sim in sims:
        sim.run(
            nest, threads, chunk=chunk, max_steps=max_steps,
            space=None if space is None else space(),
        )
    loop, core = sims
    assert core.states == loop.states


def paper_machines():
    """The paper machine, whose L2 and TLB the test kernels cannot
    overflow, so every block qualifies for the block core."""
    return st.sampled_from([512, 1 << 12, 1 << 16]).map(
        lambda entries: dataclasses.replace(paper_machine(), tlb_entries=entries)
    )


class TestEquivalence:
    @given(cfg=configurations(machines()))
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_tiny_machines(self, cfg):
        """Evicting caches, thrashing TLBs, NUMA penalties: evictions
        resolved in the core, and blocks that fall back to the loop next
        to pieces that qualify."""
        run_configuration(cfg)

    @given(cfg=configurations(paper_machines()))
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_paper_machine(self, cfg):
        """The 16-way, 512-set L2 the experiments simulate, where
        blocks qualify for the block core."""
        run_configuration(cfg)


class TestCarriedState:
    """After every block the production simulator's caches (LRU order
    included), TLBs, directory and totals equal the loop's, so the block
    core's write-back hands the next block, core or loop, the loop's
    state.  Up to 9 threads keep the per-block snapshots cheap."""

    @given(cfg=configurations(machines(), threads=st.integers(1, 9)))
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_tiny_machines(self, cfg):
        run_configuration(cfg, check=assert_same_carried_state)

    @given(cfg=configurations(paper_machines(), threads=st.integers(1, 9)))
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_paper_machine(self, cfg):
        run_configuration(cfg, check=assert_same_carried_state)


def _tiny(**changes):
    machine = tiny_machine(num_cores=16, cache_lines=4)
    return dataclasses.replace(machine, **changes)


def make_update_nest(n: int = 64) -> ParallelLoopNest:
    """``parallel for (i) a[i] = a[i] * 2``: every store meets a line
    its thread loaded alone, so at chunk 8 (one line per chunk) each
    line's first store is an E-state hit."""
    a = ArrayDecl.create("a", DOUBLE, (n,))
    i = AffineExpr.var("i")
    body = Assign(
        ArrayRef(a, (i,), is_write=True),
        BinOp("*", LoadExpr(ArrayRef(a, (i,))), Const(2.0, DOUBLE)),
    )
    return ParallelLoopNest(
        name="update.i", root=Loop.create("i", 0, n, [body]),
        parallel_var="i", schedule=Schedule("static", 8),
    )


class TestRegimesReached:
    """Fixed configurations proving the drawn space reaches each regime
    the loop and the block core special-case, with every executor
    agreeing."""

    def test_evictions_and_tlb_thrash(self):
        r, _ = assert_equivalent(
            _tiny(tlb_entries=1, page_size=128), KERNELS["heat"](), 4,
            chunk=1, block_steps=3,
        )
        assert r.counters.evictions > 0
        assert r.counters.tlb_misses > r.steps

    def test_set_associative_evictions(self):
        machine = _tiny(l2=CacheLevel(16 * 64, associativity=2, latency_cycles=4))
        r, _ = assert_equivalent(machine, KERNELS["dft"](), 3, chunk=2)
        assert r.counters.evictions > 0

    def test_cross_socket_penalty_changes_cycles(self):
        coherence = dataclasses.replace(
            tiny_machine().coherence, cross_socket_factor=2.7
        )
        numa = _tiny(cores_per_socket=2, coherence=coherence)
        flat, _ = assert_equivalent(_tiny(), KERNELS["copy"](), 6, chunk=1)
        far, _ = assert_equivalent(
            numa, KERNELS["copy"](), 6, chunk=1, thread_placement="scatter"
        )
        assert far.counters.coherence_events > 0
        assert far.counters == flat.counters
        assert far.cycles > flat.cycles

    def test_prefetches_downgrades_and_upgrades(self):
        heat, _ = assert_equivalent(paper_machine(), KERNELS["heat"](), 4, chunk=1)
        assert heat.counters.load_prefetched > 0
        # DFT's read-modify-write of shared output lines.
        dft, _ = assert_equivalent(paper_machine(), KERNELS["dft"](), 4, chunk=1)
        assert dft.counters.downgrades > 0
        assert dft.counters.store_upgrades > 0

    def test_downgraded_writer_repeating_its_step(self):
        # Thread 3 re-runs the same lines step after step while thread 2
        # reads (never writes) its dirty b line in between.
        r, _ = assert_equivalent(paper_machine(), KERNELS["shift"](), 4, chunk=4)
        assert r.counters.downgrades > 0
        assert r.counters.store_upgrades > 0

    def test_ragged_threads_and_truncation(self):
        # 5 threads over heat's 32 columns at chunk 3: thread 0 runs 16
        # steps, thread 4 only 6, and 3-step blocks leave a ragged last
        # block.
        machine, heat = paper_machine(), KERNELS["heat"]()
        full, _ = assert_equivalent(machine, heat, 5, chunk=3, block_steps=3)
        assert full.steps == 16
        cut, _ = assert_equivalent(
            machine, heat, 5, chunk=3, block_steps=3, max_steps=10
        )
        assert cut.steps == 10

    def test_core_and_loop_in_one_run(self):
        # A 16-line cache and a 4-entry TLB: 3-step blocks whose pages
        # fit the TLB run in the core, the others in the loop, with the
        # core's deferred write-back between them.
        r, sim = assert_equivalent(
            _tiny(tlb_entries=4, page_size=256), KERNELS["heat"](), 2,
            chunk=1, block_steps=3,
        )
        assert sim.fast_blocks > 0 and sim.fallback_blocks > 0
        assert r.counters.evictions > 0

    @pytest.mark.parametrize("ways,kernel,threads,chunk,block_steps", [
        # fully associative, evicting from the first 3-step block on
        (0, "heat", 2, 1, 3),
        # direct-mapped: a line evicted and re-read within one step
        (1, "dft", 3, 2, 4096),
        (2, "shift", 4, 1, 17),
    ])
    def test_evictions_in_the_core(self, ways, kernel, threads, chunk,
                                   block_steps):
        machine = _tiny(
            l2=CacheLevel(16 * 64, associativity=ways, latency_cycles=4)
        )
        nest = KERNELS[kernel]()
        r, sim = assert_equivalent(
            machine, nest, threads, chunk=chunk, block_steps=block_steps
        )
        assert sim.fast_blocks > 0 and sim.fallback_blocks == 0
        assert r.counters.evictions > 0

    def test_threads_past_the_mask_width_run_the_loop(self):
        # At chunk 1 over 96 elements thread 63 has work: its holder bit
        # would not fit the core's int64 masks.
        nest = make_copy_nest(n=96)
        _, wide = assert_equivalent(paper_machine(), nest, 64, chunk=1)
        assert wide.fast_blocks == 0 and wide.fallback_blocks > 0
        _, full = assert_equivalent(paper_machine(), nest, 63, chunk=1)
        assert full.fast_blocks > 0 and full.fallback_blocks == 0

    @pytest.mark.parametrize("kernel,threads,chunk,event", [
        # the first store to each line meets it alone in E: a hit
        ("update", 2, 8, "exclusive_store_hit"),
        # DFT's output lines, read by several threads, then written
        ("dft", 4, 1, "store_upgrades"),
        # heat's output lines, dirty in a neighbour's cache
        ("heat", 4, 1, "store_miss_remote_modified"),
    ])
    def test_store_outcomes_in_the_core(self, kernel, threads, chunk, event):
        nest = make_update_nest() if kernel == "update" else KERNELS[kernel]()
        r, sim = assert_equivalent(paper_machine(), nest, threads, chunk=chunk)
        assert sim.fast_blocks > 0 and sim.fallback_blocks == 0
        ctr = r.counters
        if event == "exclusive_store_hit":
            # every line entered by a load of a thread alone with it
            assert ctr.store_hits == ctr.stores > 0
            assert ctr.load_shared_fills == 0
        else:
            assert getattr(ctr, event) > 0


def test_program_never_imports_the_oracle():
    """The oracle is for tests only: no module of the program imports
    it, so nothing can select it."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    importers = []
    for path in src.rglob("*.py"):
        if path.name == "reference.py" and path.parent.name == "sim":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [
                    f"{node.module}.{a.name}" for a in node.names
                ]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            if any(n.startswith("repro.sim.reference") for n in names):
                importers.append(str(path.relative_to(src)))
    assert importers == []


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_every_kernel_at_defaults(kernel):
    """Default simulator settings on the paper machine, one per kernel."""
    assert_equivalent(paper_machine(), KERNELS[kernel](), 4, chunk=1)
