"""Unit + property tests for the stack-distance analyzer."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.model import FSDetector, make_detector
from repro.model.stackdist import DistanceHistogram, StackDistanceAnalyzer


def brute_force_distance(trace: list[int]) -> list:
    """Reference implementation: distinct lines since previous access."""
    out = []
    for idx, line in enumerate(trace):
        prev = None
        for k in range(idx - 1, -1, -1):
            if trace[k] == line:
                prev = k
                break
        if prev is None:
            out.append(None)
        else:
            out.append(len(set(trace[prev + 1 : idx])))
    return out


class TestStackDistanceAnalyzer:
    def test_known_sequence(self):
        d = StackDistanceAnalyzer().distances([1, 2, 1, 2, 3, 1])
        assert d == [None, None, 1, 1, None, 2]

    def test_repeat_distance_zero(self):
        d = StackDistanceAnalyzer().distances([7, 7, 7])
        assert d == [None, 0, 0]

    def test_tree_growth(self):
        # Exceed the initial hint to exercise _grow().
        trace = list(range(50)) + list(range(50))
        analyzer = StackDistanceAnalyzer(trace_length_hint=16)
        d = analyzer.distances(trace)
        assert d[:50] == [None] * 50
        assert d[50:] == [49] * 50

    @given(st.lists(st.integers(0, 12), min_size=0, max_size=120))
    @settings(max_examples=80)
    def test_matches_brute_force(self, trace):
        assert StackDistanceAnalyzer().distances(trace) == brute_force_distance(trace)

    @given(
        st.integers(1, 3).flatmap(lambda refs: st.tuples(
            st.lists(
                st.lists(st.integers(0, 8), min_size=refs, max_size=refs),
                min_size=1, max_size=40,
            ),
            st.lists(st.booleans(), min_size=refs, max_size=refs),
        )),
        st.integers(1, 10),
    )
    @settings(max_examples=60)
    def test_lru_hit_iff_distance_below_capacity(self, block, capacity):
        """The classic identity, on the model's own cache state: a
        thread's LRU state of C lines misses exactly when the access's
        stack distance is cold or >= C.  Checked per access on the
        reference detector and per block on the fast one, with mixed
        reads and writes."""
        rows, writes = block
        trace = [(line, w) for row in rows for line, w in zip(row, writes)]
        distances = StackDistanceAnalyzer().distances(
            [line for line, _ in trace]
        )
        expected = [d is None or d >= capacity for d in distances]
        reference = FSDetector(1, capacity)
        for (line, is_write), miss in zip(trace, expected):
            before = reference.stats.misses
            reference.access(0, line, is_write)
            assert (reference.stats.misses > before) == miss
        fast = make_detector("fast", 1, capacity)
        fast.process_block([np.array(rows, dtype=np.int64)], np.array(writes))
        assert fast.stats.misses == sum(expected)


class TestDistanceHistogram:
    def test_histogram_counts(self):
        hist = StackDistanceAnalyzer().histogram([1, 2, 1, 2, 3, 1])
        assert hist.cold == 3
        assert hist.counts == {1: 2, 2: 1}
        assert hist.accesses == 6

    def test_misses_by_capacity(self):
        hist = DistanceHistogram(counts={0: 5, 3: 2}, cold=4)
        assert hist.misses(1) == 4 + 2
        assert hist.misses(4) == 4
        assert hist.hits(4) == 7
