"""Set-associative private caches with MESI line states.

Each simulated core owns one :class:`PrivateCache` (sized like the
private L2 of the paper's machine).  Unlike the model's
fully-associative LRU approximation, the simulator honours real set
indexing and per-set LRU replacement, which is what makes the
model-vs-simulator comparison a genuine validation of the paper's
fully-associative assumption (see the associativity ablation bench).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.util import is_power_of_two

#: MESI states (Invalid is represented by absence).
M = "M"
E = "E"
S = "S"


def set_geometry(num_lines: int, ways: int) -> tuple[int, int]:
    """``(num_sets, ways)`` of a cache of ``num_lines`` lines.

    ``ways = 0`` selects a fully-associative cache: one set holding
    every line.  Raises :class:`ValueError` for a geometry the set
    indexing (``line & (num_sets - 1)``) cannot serve.
    """
    if num_lines <= 0:
        raise ValueError("num_lines must be positive")
    if ways < 0:
        raise ValueError("ways must be >= 0 (0 = fully associative)")
    if ways == 0:
        return 1, num_lines
    if num_lines % ways:
        raise ValueError(f"num_lines ({num_lines}) must divide by ways ({ways})")
    num_sets = num_lines // ways
    if not is_power_of_two(num_sets):
        raise ValueError(f"set count must be a power of two, got {num_sets}")
    return num_sets, ways


class PrivateCache:
    """One core's private cache: ``num_sets`` LRU sets of ``ways`` lines.

    ``ways = 0`` selects a fully-associative cache (a single set).
    Lines are tracked by *line id* (byte address // line size); the
    caller is responsible for coherence actions on returned evictions.
    """

    __slots__ = ("num_sets", "ways", "_sets")

    def __init__(self, num_lines: int, ways: int) -> None:
        self.num_sets, self.ways = set_geometry(num_lines, ways)
        self._sets: list[OrderedDict[int, str]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]

    def _set_of(self, line: int) -> OrderedDict[int, str]:
        return self._sets[line & (self.num_sets - 1)]

    def state(self, line: int) -> str | None:
        """The line's MESI state, or ``None`` (Invalid)."""
        return self._set_of(line).get(line)

    def touch(self, line: int, state: str) -> int | None:
        """(Re-)insert ``line`` at MRU with ``state``; return any eviction."""
        s = self._set_of(line)
        s.pop(line, None)
        s[line] = state
        if len(s) > self.ways:
            evicted, _ = s.popitem(last=False)
            return evicted
        return None

    def set_state(self, line: int, state: str) -> None:
        """Change state without affecting LRU order; line must be present."""
        s = self._set_of(line)
        if line not in s:
            raise KeyError(f"line {line} not cached")
        s[line] = state

    def invalidate(self, line: int) -> bool:
        """Drop a line (remote write); True when it was present."""
        return self._set_of(line).pop(line, None) is not None

    def downgrade(self, line: int) -> bool:
        """M/E → S on a remote read; True when the state changed."""
        s = self._set_of(line)
        st = s.get(line)
        if st in (M, E):
            s[line] = S
            return True
        return False

    def occupancy(self) -> int:
        """Total lines currently cached."""
        return sum(len(s) for s in self._sets)

    def lines(self) -> list[tuple[int, str]]:
        """All (line, state) pairs (diagnostics/tests)."""
        out: list[tuple[int, str]] = []
        for s in self._sets:
            out.extend(s.items())
        return out
