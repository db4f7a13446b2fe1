"""Step 3 of the model: per-thread cache states via stack distance analysis.

The paper (Section III-C) keeps one cache state per thread and updates it
with an LRU stack: "the stack distance analysis simulates the least
recently used (LRU) cache and outputs the state of the cache at each
distinct point of time".  The stack depth is the line count of a fully
associative cache — the paper argues (citing Sandberg et al.) that the
fully-associative approximation is accurate for highly associative
private caches.

The model's cache states live in the detectors, next to the φ/mask
directory they must stay consistent with: :class:`~repro.model.detector.FSDetector`
keeps one ordered map per thread (line id → Modified/Shared state,
insertion order = LRU order), and :class:`~repro.model.fastdetect.FastFSDetector`
applies the same transitions to arrays.  This module holds the line
states they share and :class:`StackDistanceAnalyzer` — the classic
Bennett–Kruskal reuse (stack) distance algorithm over a Fenwick tree,
O(log n) per access.  It computes exact LRU stack distances for any
trace and is used for locality diagnostics and as an independent oracle
in the test suite (an access hits in an LRU cache of capacity C iff its
stack distance is < C — a property the tests check against both
detectors' miss counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.obs import traced

#: Line states inside a thread's cache state.
MODIFIED = "M"
SHARED = "S"


class _FenwickTree:
    """A Fenwick/BIT over time slots for Bennett–Kruskal counting."""

    __slots__ = ("_tree", "n")

    def __init__(self, n: int) -> None:
        self.n = n
        self._tree = [0] * (n + 1)

    def add(self, i: int, delta: int) -> None:
        i += 1
        while i <= self.n:
            self._tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, i: int) -> int:
        """Sum of slots [0, i]."""
        i += 1
        s = 0
        while i > 0:
            s += self._tree[i]
            i -= i & (-i)
        return s

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum of slots [lo, hi]."""
        if hi < lo:
            return 0
        return self.prefix_sum(hi) - (self.prefix_sum(lo - 1) if lo else 0)


@dataclass
class DistanceHistogram:
    """Histogram of stack distances plus the cold-miss count."""

    counts: dict[int, int] = field(default_factory=dict)
    cold: int = 0

    def record(self, distance: int | None) -> None:
        if distance is None:
            self.cold += 1
        else:
            self.counts[distance] = self.counts.get(distance, 0) + 1

    def misses(self, capacity: int) -> int:
        """Misses an LRU cache of ``capacity`` lines would take."""
        return self.cold + sum(
            n for d, n in self.counts.items() if d >= capacity
        )

    def hits(self, capacity: int) -> int:
        return sum(n for d, n in self.counts.items() if d < capacity)

    @property
    def accesses(self) -> int:
        return self.cold + sum(self.counts.values())


class StackDistanceAnalyzer:
    """Exact LRU stack distances via Bennett–Kruskal (O(log n)/access).

    The stack distance of an access is the number of *distinct* lines
    touched since the previous access to the same line (``None`` for a
    first access).  Feed accesses with :meth:`access`; distances for a
    whole trace come from :meth:`distances`.
    """

    def __init__(self, trace_length_hint: int = 1024) -> None:
        self._last_time: dict[int, int] = {}
        self._tree = _FenwickTree(max(trace_length_hint, 16))
        self._time = 0

    def _grow(self) -> None:
        old = self._tree
        bigger = _FenwickTree(old.n * 2)
        # Rebuild from live marks: one mark per line at its last time.
        for line, t in self._last_time.items():
            bigger.add(t, 1)
        self._tree = bigger

    def access(self, line: int) -> int | None:
        """Record an access; return its stack distance (None = cold)."""
        if self._time >= self._tree.n:
            self._grow()
        prev = self._last_time.get(line)
        if prev is None:
            distance = None
        else:
            # Distinct lines touched strictly after prev: the live marks
            # in (prev, now) — each line keeps exactly one mark, at its
            # most recent access time.
            distance = self._tree.range_sum(prev + 1, self._time - 1)
            self._tree.add(prev, -1)
        self._tree.add(self._time, 1)
        self._last_time[line] = self._time
        self._time += 1
        return distance

    @traced(name="stackdist.distances")
    def distances(self, trace: Iterable[int]) -> list[int | None]:
        """Stack distance of every access in ``trace``.

        >>> StackDistanceAnalyzer().distances([1, 2, 1, 2, 3, 1])
        [None, None, 1, 1, None, 2]
        """
        return [self.access(line) for line in trace]

    @traced(name="stackdist.histogram")
    def histogram(self, trace: Iterable[int]) -> DistanceHistogram:
        """Full distance histogram of a trace."""
        hist = DistanceHistogram()
        for line in trace:
            hist.record(self.access(line))
        return hist
