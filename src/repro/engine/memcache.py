"""In-memory LRU result cache: the fast tier in front of the store.

The on-disk :class:`~repro.engine.store.ResultStore` makes warm re-runs
*cheap* — but every hit still costs an ``open`` + ``read`` + JSON parse.
For interactive landscapes (10⁵–10⁶ cells re-queried while a user drags
a slider) and for the analysis service's cross-tenant warm cache, that
per-hit deserialize dominates.  :class:`MemCache` removes it: a
thread-safe, strictly bounded LRU that hands back the already-parsed
result dict in O(1).

Tiering contract (enforced by :class:`~repro.engine.scheduler.Engine`):

* **lookup** — memory first, then disk; a disk hit is *promoted* into
  the memory tier so the next hit is free;
* **write-through** — a computed result lands in both tiers, so a
  re-run inside the same process never touches the disk at all;
* **bounds** — both an entry count and a byte budget (estimated from
  the result's canonical JSON size); eviction is LRU.  An oversized
  single result is simply not cached in memory (the disk tier still
  holds it).

Results handed out by :meth:`MemCache.get` are the *same object* every
time — callers must treat cached result dicts as immutable (every
engine consumer already does: results are converted to frozen domain
objects via ``from_dict``).

Observability: ``engine_memcache_{hits,misses,promotions,evictions}_total``
counters plus ``engine_memcache_entries`` / ``engine_memcache_bytes``
gauges, all in the process registry (and therefore on the service's
``/metrics`` endpoint).

:func:`shared_memcache` returns the process-wide instance used by the
service and by ``repro-fs cache stats|clear --tier mem`` — one memory
tier per process, shared across every engine that opts in.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.obs import get_registry

__all__ = [
    "DEFAULT_MEM_CACHE_MB",
    "MemCache",
    "MemCacheStats",
    "shared_memcache",
]

#: Default memory-tier budget for CLI/service wiring (``--mem-cache-mb``).
DEFAULT_MEM_CACHE_MB = 64


@dataclass
class MemCacheStats:
    """Point-in-time view of one memory tier (``repro-fs cache stats``)."""

    entries: int = 0
    total_bytes: int = 0
    max_entries: int = 0
    max_bytes: int = 0
    hits: int = 0
    misses: int = 0
    promotions: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_text(self) -> str:
        lines = [
            f"entries         : {self.entries:,} (cap {self.max_entries:,})",
            f"total size      : {self.total_bytes / 1024:,.1f} KiB "
            f"(cap {self.max_bytes / 2**20:,.0f} MiB)",
            f"hits / misses   : {self.hits:,} / {self.misses:,} "
            f"({100.0 * self.hit_rate:.1f}% hit rate)",
            f"promotions      : {self.promotions:,} (disk hits copied up)",
            f"evictions       : {self.evictions:,}",
        ]
        return "\n".join(lines)


def _result_bytes(result: dict) -> int:
    """Byte-budget estimate: the canonical JSON size of the result.

    Matches what the disk tier would store, so ``max_bytes`` means the
    same thing in both tiers.  Falls back to a rough constant for the
    (never-expected) unserializable result rather than raising.
    """
    try:
        return len(json.dumps(result, separators=(",", ":"), allow_nan=True))
    except (TypeError, ValueError):  # pragma: no cover - defensive
        return 4096


class MemCache:
    """Thread-safe LRU over result dicts, bounded by entries *and* bytes.

    Parameters
    ----------
    max_entries:
        Entry-count bound (LRU eviction past it).
    max_bytes:
        Byte budget over the entries' estimated JSON sizes.  A single
        result larger than the whole budget is never admitted.
    """

    def __init__(
        self,
        max_entries: int = 65536,
        max_bytes: int = DEFAULT_MEM_CACHE_MB * 2**20,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, tuple[dict, int]] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._promotions = 0
        self._evictions = 0
        reg = get_registry()
        self._m_hits = reg.counter(
            "engine_memcache_hits_total",
            "engine jobs served from the in-memory result tier",
        )
        self._m_misses = reg.counter(
            "engine_memcache_misses_total",
            "memory-tier lookups that fell through to disk/compute",
        )
        self._m_promotions = reg.counter(
            "engine_memcache_promotions_total",
            "disk-tier hits promoted into the memory tier",
        )
        self._m_evictions = reg.counter(
            "engine_memcache_evictions_total",
            "memory-tier entries evicted by the entry/byte bounds",
        )
        self._g_entries = reg.gauge(
            "engine_memcache_entries", "entries resident in the memory tier"
        )
        self._g_bytes = reg.gauge(
            "engine_memcache_bytes",
            "estimated bytes resident in the memory tier",
        )

    # -- read/write ---------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """The cached result for ``key`` (marking it most-recent), or None.

        The returned dict is shared — treat it as immutable.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                self._m_misses.inc()
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            self._m_hits.inc()
            return entry[0]

    def put(self, key: str, result: dict, promoted: bool = False) -> bool:
        """Insert/refresh ``key``; returns whether it is now resident.

        ``promoted=True`` marks a disk-tier hit being copied up (counted
        separately from write-through inserts).  Oversized results are
        rejected without evicting anything useful.
        """
        size = _result_bytes(result)
        with self._lock:
            if size > self.max_bytes:
                return False
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (result, size)
            self._bytes += size
            if promoted:
                self._promotions += 1
                self._m_promotions.inc()
            evicted = 0
            while self._entries and (
                len(self._entries) > self.max_entries
                or self._bytes > self.max_bytes
            ):
                victim_key, (_, victim_size) = self._entries.popitem(last=False)
                self._bytes -= victim_size
                evicted += 1
                if victim_key == key:
                    # The new entry itself was the LRU victim (byte
                    # budget smaller than this batch's results).
                    break
            if evicted:
                self._evictions += evicted
                self._m_evictions.inc(evicted)
            self._sync_gauges()
            return key in self._entries

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- maintenance --------------------------------------------------------

    def clear(self) -> int:
        """Drop every entry; returns how many were resident."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            self._sync_gauges()
            return dropped

    def stats(self) -> MemCacheStats:
        with self._lock:
            return MemCacheStats(
                entries=len(self._entries),
                total_bytes=self._bytes,
                max_entries=self.max_entries,
                max_bytes=self.max_bytes,
                hits=self._hits,
                misses=self._misses,
                promotions=self._promotions,
                evictions=self._evictions,
            )

    def _sync_gauges(self) -> None:
        self._g_entries.set(len(self._entries))
        self._g_bytes.set(self._bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemCache(entries={len(self)}, max_entries={self.max_entries}, "
            f"max_bytes={self.max_bytes})"
        )


_shared_lock = threading.Lock()
_shared: MemCache | None = None


def shared_memcache(
    max_entries: int = 65536,
    max_bytes: int = DEFAULT_MEM_CACHE_MB * 2**20,
) -> MemCache:
    """The process-wide memory tier (created on first call).

    Later calls return the same instance regardless of arguments — the
    first caller (the service daemon, usually) fixes the bounds.  This
    is the shared read path: every engine pointing here serves any
    tenant's warm cell without a disk deserialize.
    """
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = MemCache(max_entries=max_entries, max_bytes=max_bytes)
        return _shared


def _reset_shared_memcache() -> None:
    """Test hook: drop the process-wide instance."""
    global _shared
    with _shared_lock:
        _shared = None
