"""The flattened simulator equals its scalar oracle, field by field.

:class:`~repro.sim.executor.MulticoreSimulator` runs every MESI
transition in one inlined loop; :class:`~repro.sim.reference.ReferenceSimulator`
is the method-per-access executor it replaced.  These properties draw
machines, kernels and simulator settings and require the two
:class:`~repro.sim.executor.SimResult` objects to be equal in every field
but the host's ``elapsed_seconds`` — counters, per-thread cycle floats and
the wall total, bit for bit.

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
from repro.sim import MulticoreSimulator
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
    """Run both simulators on one configuration; return the fast result."""
    results = [
        cls(machine, **options).run(
            nest, threads, chunk=chunk, max_steps=max_steps,
            space=None if space is None else space(),
        )
        for cls in (ReferenceSimulator, MulticoreSimulator)
    ]
    expected, actual = (result_fields(r) for r in results)
    assert actual == expected
    return results[1]


@st.composite
def machines(draw):
    """Small machines that evict, thrash the TLB and cross sockets."""
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
        tlb_entries=draw(st.integers(1, 8)),
        page_size=draw(st.sampled_from([64, 128, 512, 4096])),
    )


def configurations(machine_strategy):
    return st.fixed_dictionaries({
        "machine": machine_strategy,
        "kernel": st.sampled_from(sorted(KERNELS)),
        "threads": st.integers(1, 9),
        "chunk": st.sampled_from([1, 2, 3, 5, 8, 16]),
        "block_steps": st.sampled_from([1, 3, 17, 4096]),
        "max_steps": st.one_of(st.none(), st.integers(0, 80)),
        "space": st.sampled_from(sorted(SPACES)),
        "fully_associative": st.booleans(),
        "prefetcher": st.booleans(),
        "thread_placement": st.sampled_from(["contiguous", "scatter"]),
    })


def run_configuration(cfg):
    return assert_equivalent(
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


class TestEquivalence:
    @given(cfg=configurations(machines()))
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_tiny_machines(self, cfg):
        """Evicting caches, thrashing TLBs, NUMA penalties."""
        run_configuration(cfg)

    @given(cfg=configurations(st.just(paper_machine())))
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_paper_machine(self, cfg):
        """The 8-way, 1024-set geometry the experiments simulate."""
        run_configuration(cfg)


def _tiny(**changes):
    machine = tiny_machine(num_cores=16, cache_lines=4)
    return dataclasses.replace(machine, **changes)


class TestRegimesReached:
    """Fixed configurations proving the drawn space reaches each regime
    the flattened loop special-cases, with both simulators agreeing."""

    def test_evictions_and_tlb_thrash(self):
        r = assert_equivalent(
            _tiny(tlb_entries=1, page_size=128), KERNELS["heat"](), 4,
            chunk=1, block_steps=3,
        )
        assert r.counters.evictions > 0
        assert r.counters.tlb_misses > r.steps

    def test_set_associative_evictions(self):
        machine = _tiny(l2=CacheLevel(16 * 64, associativity=2, latency_cycles=4))
        r = assert_equivalent(machine, KERNELS["dft"](), 3, chunk=2)
        assert r.counters.evictions > 0

    def test_cross_socket_penalty_changes_cycles(self):
        coherence = dataclasses.replace(
            tiny_machine().coherence, cross_socket_factor=2.7
        )
        numa = _tiny(cores_per_socket=2, coherence=coherence)
        flat = assert_equivalent(_tiny(), KERNELS["copy"](), 6, chunk=1)
        far = assert_equivalent(
            numa, KERNELS["copy"](), 6, chunk=1, thread_placement="scatter"
        )
        assert far.counters.coherence_events > 0
        assert far.counters == flat.counters
        assert far.cycles > flat.cycles

    def test_prefetches_downgrades_and_upgrades(self):
        heat = assert_equivalent(paper_machine(), KERNELS["heat"](), 4, chunk=1)
        assert heat.counters.load_prefetched > 0
        # DFT's read-modify-write of shared output lines.
        dft = assert_equivalent(paper_machine(), KERNELS["dft"](), 4, chunk=1)
        assert dft.counters.downgrades > 0
        assert dft.counters.store_upgrades > 0

    def test_downgraded_writer_repeating_its_step(self):
        # Thread 3 re-runs the same lines step after step while thread 2
        # reads (never writes) its dirty b line in between.
        r = assert_equivalent(paper_machine(), KERNELS["shift"](), 4, chunk=4)
        assert r.counters.downgrades > 0
        assert r.counters.store_upgrades > 0

    def test_ragged_threads_and_truncation(self):
        # 5 threads over heat's 32 columns at chunk 3: thread 0 runs 16
        # steps, thread 4 only 6, and 3-step blocks leave a ragged last
        # block.
        machine, heat = paper_machine(), KERNELS["heat"]()
        full = assert_equivalent(machine, heat, 5, chunk=3, block_steps=3)
        assert full.steps == 16
        cut = assert_equivalent(
            machine, heat, 5, chunk=3, block_steps=3, max_steps=10
        )
        assert cut.steps == 10


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
