"""Step 4 of the model: 1-to-All false sharing detection (Section III-D).

When a thread touches a cache line, the detector evaluates the paper's
φ function against every *other* thread's cache state: each state that
holds the line Modified contributes one FS case (Eq. 3), and the mask
function (Eq. 4) excludes the accessing thread's own state.

Thread-holder sets are kept as integer bitmasks, so the 1-to-All
comparison is a single AND + popcount instead of a loop over threads.

Two coherence semantics are provided (see DESIGN.md):

``invalidate`` (default)
    Write-invalidate, matching the protocol the paper describes in its
    background section: a write invalidates all remote copies; a read
    downgrades remote Modified copies to Shared.  φ is evaluated on
    every access.
``literal``
    The purely literal reading of Section III-D: φ is evaluated only
    when the line is *inserted* into the accessing thread's cache state
    (i.e. on own-state misses), and remote states are never changed by
    other threads' accesses.

The per-case cost differs by direction: a *read* of a remotely-modified
line stalls on a cache-to-cache transfer, while a *write* mostly hides
behind the store buffer and pays the invalidation bus cost.  The
detector therefore reports read-FS and write-FS cases separately.
"""

from __future__ import annotations

import hashlib
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.model.stackdist import MODIFIED, SHARED
from repro.obs import get_registry, span
from repro.resilience.errors import ModelError

#: Interned static write tuples, keyed by the raw bytes of the mask.
#: The same nest's write mask arrives once per block, so rebuilding the
#: tuple (and re-boxing every bool) per block is pure overhead; a block
#: now costs one dict lookup instead.
_WRITES_CACHE: dict[bytes, tuple[bool, ...]] = {}


def interned_writes(write_mask: np.ndarray) -> tuple[bool, ...]:
    """The write mask as an interned ``tuple[bool, ...]``.

    Identical masks (by content) return the *same* tuple object, so the
    per-block hot loop binds plain Python bools without any per-block
    conversion cost.
    """
    key = np.asarray(write_mask, dtype=bool).tobytes()
    tup = _WRITES_CACHE.get(key)
    if tup is None:
        tup = tuple(b != 0 for b in key)
        _WRITES_CACHE[key] = tup
    return tup


@dataclass
class FSStats:
    """Counters accumulated by the detector."""

    fs_cases: int = 0
    fs_read_cases: int = 0
    fs_write_cases: int = 0
    accesses: int = 0
    misses: int = 0
    invalidations: int = 0
    downgrades: int = 0
    evictions: int = 0
    steps: int = 0
    fs_by_thread: Counter = field(default_factory=Counter)
    fs_by_line: Counter = field(default_factory=Counter)
    #: (writer thread, accessor thread) -> cases; the inter-thread
    #: conflict matrix used by the diagnostics report.
    fs_by_pair: Counter = field(default_factory=Counter)

    def merge(self, other: "FSStats") -> None:
        self.fs_cases += other.fs_cases
        self.fs_read_cases += other.fs_read_cases
        self.fs_write_cases += other.fs_write_cases
        self.accesses += other.accesses
        self.misses += other.misses
        self.invalidations += other.invalidations
        self.downgrades += other.downgrades
        self.evictions += other.evictions
        self.steps += other.steps
        self.fs_by_thread.update(other.fs_by_thread)
        self.fs_by_line.update(other.fs_by_line)
        self.fs_by_pair.update(other.fs_by_pair)

    #: scalar counters published to the metrics registry, in order
    _SCALARS = (
        "fs_cases", "fs_read_cases", "fs_write_cases", "accesses",
        "misses", "invalidations", "downgrades", "evictions", "steps",
    )

    def publish(self, **labels) -> None:
        """Push the scalar counters into the process metrics registry.

        Each counter lands under its own metric name with the given
        labels, e.g. ``fs_cases{kernel="heat",threads="4"}`` — the
        bridge between the detector's per-run accumulation and the obs
        layer's cross-run registry (see docs/OBSERVABILITY.md).
        """
        registry = get_registry()
        for name in self._SCALARS:
            registry.counter(
                name, f"FS detector counter {name!r}"
            ).labels(**labels).inc(getattr(self, name))


class FSDetector:
    """Per-thread cache states + φ/mask false-sharing counting.

    Parameters
    ----------
    num_threads:
        Number of cache states (one per thread).
    stack_lines:
        Capacity of each fully-associative LRU cache state.
    mode:
        ``"invalidate"`` or ``"literal"`` (see module docstring).
    """

    def __init__(
        self, num_threads: int, stack_lines: int, mode: str = "invalidate"
    ) -> None:
        if num_threads <= 0:
            raise ModelError("num_threads must be positive")
        if stack_lines <= 0:
            raise ModelError("stack_lines must be positive")
        if mode not in ("invalidate", "literal"):
            raise ModelError(f"unknown detector mode {mode!r}")
        self.num_threads = num_threads
        self.stack_lines = stack_lines
        self.mode = mode
        # line -> state, insertion order == LRU order (first = LRU).
        self._stacks: list[OrderedDict[int, str]] = [
            OrderedDict() for _ in range(num_threads)
        ]
        self._holders: dict[int, int] = {}
        self._writers: dict[int, int] = {}
        # Fast-path memo: each thread's most-recently-used line and
        # whether it is held Modified.  Re-touching the MRU line cannot
        # change LRU order, states or FS counts (a write additionally
        # requires the line to already be Modified), so such accesses
        # bypass the full transition — the dominant pattern for
        # accumulator kernels (repeated ``s[j] += ...``).
        self._mru_line: list[int | None] = [None] * num_threads
        self._mru_mod: list[bool] = [False] * num_threads
        self.stats = FSStats()

    # -- single-access API (tests, tiny traces) --------------------------------

    def access(self, thread: int, line: int, is_write: bool) -> int:
        """Process one access; returns the FS cases it generated."""
        self._sync()
        before = self.stats.fs_cases
        self._process_one(thread, int(line), bool(is_write))
        self.stats.accesses += 1
        return self.stats.fs_cases - before

    # -- block API (the model's hot path) ---------------------------------------

    def process_block(
        self,
        thread_lines: Sequence[np.ndarray],
        write_mask: np.ndarray,
        thread_order: Sequence[int] | None = None,
    ) -> None:
        """Process a lockstep block of ownership lists.

        ``thread_lines[t]`` is an ``[n_steps_t, n_refs]`` line-id matrix;
        within each step, threads are processed in id order — the
        deterministic interleaving the lockstep model defines — unless
        ``thread_order`` overrides it (used by the interleaving-order
        ablation); each thread performs its references in program order.
        """
        with span("detector.process_block") as sp:
            before = self.stats.fs_cases
            self._process_block(thread_lines, write_mask, thread_order)
            sp.set(
                steps=self.stats.steps,
                fs_cases_delta=self.stats.fs_cases - before,
            )

    def _process_block(
        self,
        thread_lines: Sequence[np.ndarray],
        write_mask: np.ndarray,
        thread_order: Sequence[int] | None = None,
    ) -> None:
        writes = interned_writes(write_mask)
        order = tuple(thread_order) if thread_order is not None else tuple(
            range(self.num_threads)
        )
        if sorted(order) != list(range(self.num_threads)):
            raise ModelError("thread_order must be a permutation of thread ids")
        private = self._block_private_sets(thread_lines)
        # Hoist every per-access conversion out of the hot loop: one
        # tolist() per thread matrix, and one (id, rows, length, private)
        # tuple per thread so the step loop binds locals instead of
        # re-indexing parallel lists.
        per_thread: list[tuple[int, list, int, set[int]]] = []
        n_steps = 0
        for t in order:
            rows = thread_lines[t].tolist()
            length = len(rows)
            if length > n_steps:
                n_steps = length
            per_thread.append((t, rows, length, private[t]))
        process = self._process_one
        process_private = self._process_private
        mru_line = self._mru_line
        mru_mod = self._mru_mod
        n_refs = len(writes)
        ref_range = range(n_refs)
        accesses = 0
        for s in range(n_steps):
            for t, rows, length, priv in per_thread:
                if s >= length:
                    continue
                row = rows[s]
                for k in ref_range:
                    line = row[k]
                    w = writes[k]
                    # MRU fast path (see __init__): a re-touch of the MRU
                    # line with sufficient ownership is a guaranteed no-op.
                    if line == mru_line[t] and (mru_mod[t] or not w):
                        continue
                    if line in priv:
                        process_private(t, line, w)
                    else:
                        process(t, line, w)
                accesses += n_refs
        self.stats.accesses += accesses
        self.stats.steps += n_steps

    def _block_private_sets(
        self, thread_lines: Sequence[np.ndarray]
    ) -> list[set[int]]:
        """Per-thread sets of lines provably free of φ interactions.

        A line is *block-private* to thread ``t`` when no other thread
        touches it anywhere in this block **and** no other thread's cache
        state currently holds it (Shared or Modified).  Accesses to such
        lines can never produce FS cases, downgrades or invalidations —
        only LRU motion, misses and evictions — so they go through
        :meth:`_process_private`, skipping the φ/mask machinery entirely.
        This extends the MRU memo to whole working sets: under
        large-chunk schedules most threads' line ranges never intersect.
        """
        uniqs = [
            np.unique(mat) if mat.size else np.empty(0, dtype=np.int64)
            for mat in thread_lines
        ]
        if len(uniqs) > 1:
            vals, counts = np.unique(
                np.concatenate(uniqs), return_counts=True
            )
            shared = set(vals[counts > 1].tolist())
        else:
            shared = set()
        holders = self._holders
        writers = self._writers
        out: list[set[int]] = []
        for t, uniq in enumerate(uniqs):
            foreign = ~(1 << t)
            out.append({
                ln
                for ln in uniq.tolist()
                if ln not in shared
                and holders.get(ln, 0) & foreign == 0
                and writers.get(ln, 0) & foreign == 0
            })
        return out

    # -- core transition -----------------------------------------------------------

    def _process_one(self, t: int, line: int, is_write: bool) -> None:
        stats = self.stats
        bit = 1 << t
        stack = self._stacks[t]
        prev = stack.pop(line, None)
        hit = prev is not None

        writers_mask = self._writers.get(line, 0)
        foreign_writers = writers_mask & ~bit

        if self.mode == "invalidate":
            count_fs = foreign_writers != 0
        else:  # literal: φ evaluated only on insertion into own state
            count_fs = (not hit) and foreign_writers != 0

        if count_fs:
            n = foreign_writers.bit_count()
            stats.fs_cases += n
            if is_write:
                stats.fs_write_cases += n
            else:
                stats.fs_read_cases += n
            stats.fs_by_thread[t] += n
            stats.fs_by_line[line] += n
            rem = foreign_writers
            while rem:
                low = rem & -rem
                stats.fs_by_pair[(low.bit_length() - 1, t)] += 1
                rem ^= low

        if not hit:
            stats.misses += 1

        if self.mode == "invalidate":
            if is_write:
                # Invalidate every remote copy.
                holders_mask = self._holders.get(line, 0)
                remote = holders_mask & ~bit
                while remote:
                    low = remote & -remote
                    k = low.bit_length() - 1
                    self._stacks[k].pop(line, None)
                    if self._mru_line[k] == line:
                        self._mru_line[k] = None
                    stats.invalidations += 1
                    remote ^= low
                self._holders[line] = bit
                self._writers[line] = bit
                stack[line] = MODIFIED
            else:
                # Downgrade remote Modified copies to Shared.
                if foreign_writers:
                    rem = foreign_writers
                    while rem:
                        low = rem & -rem
                        k = low.bit_length() - 1
                        st = self._stacks[k]
                        if line in st:
                            st[line] = SHARED
                        if self._mru_line[k] == line:
                            self._mru_mod[k] = False
                        stats.downgrades += 1
                        rem ^= low
                    self._writers[line] = writers_mask & ~foreign_writers
                self._holders[line] = self._holders.get(line, 0) | bit
                stack[line] = prev if prev == MODIFIED else SHARED
        else:  # literal
            self._holders[line] = self._holders.get(line, 0) | bit
            if is_write:
                self._writers[line] = writers_mask | bit
                stack[line] = MODIFIED
            else:
                stack[line] = prev if prev == MODIFIED else SHARED

        self._mru_line[t] = line
        self._mru_mod[t] = stack[line] == MODIFIED

        if len(stack) > self.stack_lines:
            evicted, _ = stack.popitem(last=False)
            self._holders[evicted] = self._holders.get(evicted, 0) & ~bit
            self._writers[evicted] = self._writers.get(evicted, 0) & ~bit
            if self._mru_line[t] == evicted:  # capacity-1 corner case
                self._mru_line[t] = None
            stats.evictions += 1

    def _process_private(self, t: int, line: int, is_write: bool) -> None:
        """Transition for a line with no possible φ interaction.

        Precondition (established per block by
        :meth:`_block_private_sets`): no *other* thread currently holds
        or writes ``line``, and none touches it before the private sets
        are recomputed.  Under that precondition FS cases, downgrades
        and invalidations are provably zero, so only the accessing
        thread's LRU stack, the line's own holder/writer bits and the
        miss/eviction counters change.  Valid in both coherence modes
        (they differ only in remote-state handling, and there is no
        remote state to handle).
        """
        stats = self.stats
        stack = self._stacks[t]
        prev = stack.pop(line, None)
        if prev is None:
            stats.misses += 1
        bit = 1 << t
        if is_write:
            stack[line] = MODIFIED
            self._holders[line] = bit
            self._writers[line] = bit
            self._mru_mod[t] = True
        else:
            st = prev if prev == MODIFIED else SHARED
            stack[line] = st
            self._holders[line] = bit
            self._mru_mod[t] = st == MODIFIED
        self._mru_line[t] = line
        if len(stack) > self.stack_lines:
            evicted, _ = stack.popitem(last=False)
            self._holders[evicted] = self._holders.get(evicted, 0) & ~bit
            self._writers[evicted] = self._writers.get(evicted, 0) & ~bit
            if self._mru_line[t] == evicted:  # capacity-1 corner case
                self._mru_line[t] = None
            stats.evictions += 1

    # -- steady-state support ---------------------------------------------------------

    def state_fingerprint(
        self,
        canon: Callable[[int], object] | None = None,
        canon_arrays: Callable[[np.ndarray], tuple] | None = None,
    ) -> bytes:
        """Order-sensitive digest of the complete cache state.

        Covers every thread's LRU stack content, order and M/S states —
        which fully determines future behaviour (the holder/writer
        bitmasks are derivable: thread ``t`` holds a line iff it is in
        ``t``'s stack, and writes it iff that entry is Modified).

        ``canon`` optionally maps raw line ids to canonical,
        shift-invariant keys (see :mod:`repro.model.steadystate`);
        identity when omitted.  ``canon_arrays`` is the vectorized
        variant — a callable mapping an ``int64`` line-id array to a
        tuple of equal-length arrays forming the canonical key — and is
        much faster on large states (digests from the two variants are
        not interchangeable; compare like with like).  Two detectors
        with equal fingerprints evolve identically on canonically-equal
        future access streams.
        """
        self._sync()
        h = hashlib.blake2b(digest_size=16)
        update = h.update
        if canon_arrays is not None:
            for stack in self._stacks:
                n = len(stack)
                if n:
                    keys = np.fromiter(stack.keys(), np.int64, count=n)
                    for part in canon_arrays(keys):
                        update(np.ascontiguousarray(part).tobytes())
                    update("".join(stack.values()).encode())
                update(b"|")
            return h.digest()
        for stack in self._stacks:
            for line, st in stack.items():
                key = line if canon is None else canon(line)
                update(repr(key).encode())
                update(b"M" if st == MODIFIED else b"S")
            update(b"|")
        return h.digest()

    def shift_lines(
        self,
        rename: Callable[[int], int] | None = None,
        rename_arrays: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        """Apply an injective line renaming to the whole detector state.

        Detector transitions commute with injective renamings of line
        ids, so the steady-state runner can advance the cache state by a
        whole extrapolated period: shift the state, then resume
        simulating — equivalent to simulating the skipped runs.  Resets
        the MRU memo (a pure optimization; resetting is always safe).

        ``rename`` maps one line id at a time; ``rename_arrays`` is the
        vectorized equivalent over an ``int64`` array (preferred for
        large states).  Exactly one must be provided.
        """
        if (rename is None) == (rename_arrays is None):
            raise ModelError("provide exactly one of rename/rename_arrays")
        self._sync()
        new_stacks: list[OrderedDict[int, str]] = []
        holders: dict[int, int] = {}
        writers: dict[int, int] = {}
        for t, stack in enumerate(self._stacks):
            bit = 1 << t
            renamed: OrderedDict[int, str] = OrderedDict()
            if rename_arrays is not None and stack:
                keys = np.fromiter(stack.keys(), np.int64, count=len(stack))
                new_keys = rename_arrays(keys).tolist()
                renamed = OrderedDict(zip(new_keys, stack.values()))
                hg = holders.get
                for new in new_keys:
                    holders[new] = hg(new, 0) | bit
                wg = writers.get
                for new, st in renamed.items():
                    if st == MODIFIED:
                        writers[new] = wg(new, 0) | bit
            elif rename is not None:
                for line, st in stack.items():
                    new = rename(line)
                    renamed[new] = st
                    holders[new] = holders.get(new, 0) | bit
                    if st == MODIFIED:
                        writers[new] = writers.get(new, 0) | bit
            if len(renamed) != len(stack):
                raise ModelError("line renaming must be injective")
            new_stacks.append(renamed)
        self._stacks = new_stacks
        self._holders = holders
        self._writers = writers
        self._mru_line = [None] * self.num_threads
        self._mru_mod = [False] * self.num_threads

    # -- inspection -------------------------------------------------------------------

    def _sync(self) -> None:
        """Bring the cache state up to date before it is read.

        A no-op here: this detector applies every access as it goes.
        :class:`~repro.model.fastdetect.FastFSDetector` defers its
        block write-back and applies it in this hook, which every
        reader and every state-advancing call runs first.
        """

    def cache_state(self, thread: int) -> list[tuple[int, str]]:
        """Thread's cache state, MRU first (for tests/diagnostics)."""
        self._sync()
        return list(reversed(self._stacks[thread].items()))

    def stack_sizes(self) -> tuple[int, ...]:
        """Lines held by each thread's cache state, by thread id."""
        self._sync()
        return tuple(len(st) for st in self._stacks)

    def holders_of(self, line: int) -> int:
        """Bitmask of threads whose state holds ``line``."""
        self._sync()
        return self._holders.get(line, 0)

    def writers_of(self, line: int) -> int:
        """Bitmask of threads whose state holds ``line`` Modified."""
        self._sync()
        return self._writers.get(line, 0)
