"""Unit tests for the multicore MESI simulator."""

import pytest

from repro.machine import paper_machine
from repro.obs import get_registry, get_tracer
from repro.sim import AccessCosts, MulticoreSimulator
from tests.conftest import make_copy_nest, make_nested_nest


@pytest.fixture(scope="module")
def machine():
    return paper_machine()


@pytest.fixture(scope="module")
def sim(machine):
    return MulticoreSimulator(machine)


class TestAccessCosts:
    def test_derivation(self, machine):
        c = AccessCosts.from_machine(machine)
        assert c.load_hit == machine.l1.latency_cycles
        assert c.load_remote_modified == machine.coherence.remote_fetch_cycles
        assert c.load_cold == machine.mem_latency_cycles
        # Marginal coherence cost of a dirty store miss = invalidate cost.
        assert (
            c.store_miss_remote_modified - c.store_miss_clean
            == machine.coherence.invalidate_cycles
        )


class TestBasicExecution:
    def test_all_accesses_counted(self, sim):
        nest = make_copy_nest(n=64)
        r = sim.run(nest, 2, chunk=1)
        # 64 iterations x (1 load + 1 store)
        assert r.counters.loads == 64
        assert r.counters.stores == 64
        assert r.steps == 32

    def test_fs_config_slower_than_aligned(self, sim):
        nest = make_copy_nest(n=512)
        t_fs = sim.run(nest, 4, chunk=1).cycles
        t_nfs = sim.run(nest, 4, chunk=8).cycles
        assert t_fs > t_nfs

    def test_coherence_events_only_with_sharing(self, sim):
        nest = make_copy_nest(n=512)
        r_fs = sim.run(nest, 4, chunk=1)
        r_nfs = sim.run(nest, 4, chunk=8)
        assert r_fs.counters.coherence_events > 0
        assert r_nfs.counters.coherence_events == 0

    def test_single_thread_no_coherence(self, sim):
        r = sim.run(make_copy_nest(n=256), 1, chunk=1)
        assert r.counters.coherence_events == 0
        assert r.counters.invalidations == 0

    def test_seconds_conversion(self, sim, machine):
        r = sim.run(make_copy_nest(n=64), 2, chunk=1)
        assert r.seconds == pytest.approx(
            r.cycles / (machine.freq_ghz * 1e9)
        )

    def test_rejects_bad_threads(self, sim):
        with pytest.raises(ValueError):
            sim.run(make_copy_nest(), 0)

    def test_per_thread_cycles_balanced(self, sim):
        r = sim.run(make_copy_nest(n=512), 4, chunk=1)
        per = r.per_thread_cycles
        assert per.max() < per.min() * 1.5  # balanced workload


class TestMESIBehaviour:
    def test_cold_misses_once_per_line(self, sim):
        nest = make_copy_nest(n=64)  # 8 lines per array
        r = sim.run(nest, 1, chunk=1)
        # Sequential: a and b each 8 lines; loads cold-miss at most 8 + prefetch
        assert r.counters.load_cold <= 8
        assert r.counters.load_cold >= 2  # at least stream heads

    def test_writes_invalidate_readers(self, sim):
        nest = make_nested_nest(rows=4, cols=32, chunk=1)
        r = sim.run(nest, 4)
        assert r.counters.invalidations > 0

    def test_prefetcher_reduces_time(self, machine):
        nest = make_copy_nest(n=4096, chunk=8)
        with_pf = MulticoreSimulator(machine, prefetcher=True).run(nest, 2)
        without = MulticoreSimulator(machine, prefetcher=False).run(nest, 2)
        assert with_pf.cycles < without.cycles
        assert with_pf.counters.load_prefetched > 0
        assert without.counters.load_prefetched == 0

    def test_fully_associative_mode(self, machine):
        nest = make_copy_nest(n=256)
        fa = MulticoreSimulator(machine, fully_associative=True).run(nest, 2)
        sa = MulticoreSimulator(machine, fully_associative=False).run(nest, 2)
        # Tiny working set: identical behaviour either way.
        assert fa.counters.coherence_events == sa.counters.coherence_events


class TestTimingComposition:
    def test_wall_clock_includes_startup(self, sim, machine):
        r = sim.run(make_copy_nest(n=64), 2, chunk=1)
        assert r.cycles > machine.overheads.parallel_startup_cycles

    def test_more_threads_less_wall_time_for_clean_loop(self, sim):
        nest = make_copy_nest(n=8192, chunk=8)
        t2 = sim.run(nest, 2).cycles
        t8 = sim.run(nest, 8).cycles
        assert t8 < t2


class TestTLBSimulation:
    def test_tiny_tlb_thrashes(self):
        """A TLB smaller than the page working set must keep missing."""
        from repro.machine import tiny_machine
        from tests.conftest import make_copy_nest

        machine = tiny_machine(num_cores=2, cache_lines=64)  # 8 TLB entries
        sim = MulticoreSimulator(machine)
        # 64 KB arrays: 16 pages each, 32 pages total >> 8 entries,
        # but sequential access touches each page once per pass.
        nest = make_copy_nest(n=8192, chunk=8)
        r = sim.run(nest, 2)
        assert r.counters.tlb_misses >= 16

    def test_large_tlb_quiet(self, sim):
        from tests.conftest import make_copy_nest

        r = sim.run(make_copy_nest(n=512, chunk=8), 2)
        # 2 arrays x 4 KiB: two pages per thread's view.
        assert r.counters.tlb_misses <= 8


class TestObservabilityContract:
    """One ``run`` emits the ``sim.run`` span, one ``sim.block`` span per
    trace block, and the four ``sim_*`` metric families."""

    @pytest.fixture
    def observed(self):
        tracer, registry = get_tracer(), get_registry()
        tracer.reset()
        tracer.enable()
        registry.reset()
        yield tracer, registry
        tracer.disable()
        tracer.reset()
        registry.reset()

    def test_spans_and_metrics(self, observed, machine):
        tracer, registry = observed
        # 64 iterations over 2 threads: 32 steps, blocks of 10.
        r = MulticoreSimulator(machine, block_steps=10).run(
            make_copy_nest(n=64), 2, chunk=1
        )
        events = tracer.events()
        (run,) = [e for e in events if e.name == "sim.run"]
        assert run.args["kernel"] == "copy.i"
        assert run.args["threads"] == 2
        assert run.args["chunk"] == 1
        assert run.args["accesses"] == r.counters.accesses == 128
        assert run.args["coherence_events"] == r.counters.coherence_events > 0

        blocks = [e for e in events if e.name == "sim.block"]
        assert [b.args["start_step"] for b in blocks] == [0, 10, 20, 30]
        assert [b.args["steps"] for b in blocks] == [10, 10, 10, 2]
        for b in blocks:
            assert run.start_us <= b.start_us
            assert b.start_us + b.dur_us <= run.start_us + run.dur_us

        snap = registry.snapshot()
        labels = '{kernel="copy.i",threads="2"}'
        assert snap["gauges"]["sim_progress_chunk_runs" + labels] == 32
        assert snap["gauges"]["sim_accesses_per_sec" + labels] > 0
        assert (
            snap["counters"]["sim_coherence_events" + labels]
            == r.counters.coherence_events
        )
        seconds = snap["histograms"]['sim_run_seconds{kernel="copy.i"}']
        assert seconds["count"] == 1
        assert seconds["sum"] == pytest.approx(r.elapsed_seconds)
