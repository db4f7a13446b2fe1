"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.machine import paper_machine
from repro.model import FalseSharingModel, FSDetector
from repro.sim import MulticoreSimulator
from tests.conftest import make_copy_nest

# A random access trace: (thread, line, is_write) triples.
traces = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 15),
        st.booleans(),
    ),
    min_size=0,
    max_size=200,
)


class TestDetectorInvariants:
    @given(traces)
    @settings(max_examples=60)
    def test_counter_consistency(self, trace):
        d = FSDetector(4, 8)
        for t, line, w in trace:
            d.access(t, line, w)
        s = d.stats
        assert s.fs_cases == s.fs_read_cases + s.fs_write_cases
        assert sum(s.fs_by_thread.values()) == s.fs_cases
        assert sum(s.fs_by_line.values()) == s.fs_cases
        assert s.accesses == len(trace)

    @given(traces)
    @settings(max_examples=60)
    def test_invalidate_mode_exclusive_writer(self, trace):
        """Write-invalidate: at most one Modified copy per line, and
        writers are always holders."""
        d = FSDetector(4, 8)
        for t, line, w in trace:
            d.access(t, line, w)
            assert d.writers_of(line).bit_count() <= 1
            assert d.writers_of(line) & ~d.holders_of(line) == 0

    @given(traces)
    @settings(max_examples=40)
    def test_directory_matches_cache_states(self, trace):
        """Holder bitmasks agree with the per-thread stacks."""
        d = FSDetector(4, 8)
        for t, line, w in trace:
            d.access(t, line, w)
        for line in range(16):
            mask = d.holders_of(line)
            for t in range(4):
                in_stack = any(l == line for l, _ in d.cache_state(t))
                assert bool(mask & (1 << t)) == in_stack

    @given(traces, st.integers(1, 8))
    @settings(max_examples=60)
    def test_capacity_never_exceeded(self, trace, capacity):
        """No thread's cache state ever holds more lines than its LRU
        stack capacity."""
        d = FSDetector(4, capacity)
        for t, line, w in trace:
            d.access(t, line, w)
            assert max(d.stack_sizes()) <= capacity

    @given(traces)
    @settings(max_examples=40)
    def test_mru_is_last_accessed(self, trace):
        """The accessing thread's MRU line is the line it just touched."""
        d = FSDetector(4, 8)
        for t, line, w in trace:
            d.access(t, line, w)
            assert d.cache_state(t)[0][0] == line

    @given(traces)
    @settings(max_examples=40)
    def test_disjoint_lines_no_fs(self, trace):
        """Threads confined to private line ranges never false-share."""
        d = FSDetector(4, 8)
        for t, line, w in trace:
            d.access(t, 1000 * t + line, w)  # disjoint ranges per thread
        assert d.stats.fs_cases == 0

    @given(traces)
    @settings(max_examples=40)
    def test_literal_counts_at_least_zero_monotone(self, trace):
        """fs_cases grows monotonically as a trace extends."""
        d = FSDetector(4, 8, mode="literal")
        last = 0
        for t, line, w in trace:
            d.access(t, line, w)
            assert d.stats.fs_cases >= last
            last = d.stats.fs_cases


class TestModelProperties:
    @given(
        threads=st.sampled_from([1, 2, 4]),
        chunk=st.sampled_from([1, 2, 4, 8]),
        n=st.sampled_from([32, 64, 128]),
    )
    @settings(max_examples=15, deadline=None)
    def test_model_deterministic(self, threads, chunk, n):
        machine = paper_machine()
        nest = make_copy_nest(n=n)
        a = FalseSharingModel(machine).analyze(nest, threads, chunk=chunk)
        b = FalseSharingModel(machine).analyze(nest, threads, chunk=chunk)
        assert a.fs_cases == b.fs_cases
        assert a.stats.fs_by_line == b.stats.fs_by_line

    @given(
        threads=st.sampled_from([2, 4]),
        chunk=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=12, deadline=None)
    def test_model_equals_simulator_on_random_configs(self, threads, chunk):
        """The headline invariant, under hypothesis-chosen schedules."""
        machine = paper_machine()
        nest = make_copy_nest(n=128)
        m = FalseSharingModel(machine).analyze(nest, threads, chunk=chunk)
        s = MulticoreSimulator(machine).run(nest, threads, chunk=chunk)
        assert m.fs_cases == s.counters.coherence_events

    @given(chunk=st.sampled_from([1, 2, 4]))
    @settings(max_examples=8, deadline=None)
    def test_more_threads_never_reduce_fs_below_single(self, chunk):
        """One thread is always FS-free; more threads only add FS."""
        machine = paper_machine()
        nest = make_copy_nest(n=128)
        model = FalseSharingModel(machine)
        assert model.analyze(nest, 1, chunk=chunk).fs_cases == 0
        assert model.analyze(nest, 4, chunk=chunk).fs_cases >= 0
