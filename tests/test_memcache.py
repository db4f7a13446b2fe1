"""Tests for :mod:`repro.engine.memcache` — the in-memory result tier.

Covers the LRU contract (entry + byte bounds, recency refresh, the
oversized-result rejection), the hit/miss/promotion/eviction counters
behind ``repro-fs cache stats``, the process-wide shared instance, and
the two-tier lookup path through :class:`~repro.engine.scheduler.Engine`
(mem hit → disk hit + promotion → compute write-through).
"""

from __future__ import annotations

import threading

import pytest

from repro.cli import main
from repro.engine import (
    Engine,
    Job,
    MemCache,
    ResultStore,
    shared_memcache,
)
from repro.engine.memcache import _reset_shared_memcache, _result_bytes
from repro.obs import get_registry


def echo_job(value, label="echo") -> Job:
    return Job("engine.test.echo", {"value": value}, label=label)


def _counter(name: str) -> float:
    return get_registry().snapshot()["counters"].get(name, 0.0)


@pytest.fixture(autouse=True)
def _fresh_shared_memcache():
    _reset_shared_memcache()
    yield
    _reset_shared_memcache()


class TestMemCacheLRU:
    def test_put_get_roundtrip(self):
        cache = MemCache()
        assert cache.get("k") is None
        assert cache.put("k", {"value": 1})
        assert cache.get("k") == {"value": 1}
        assert "k" in cache and len(cache) == 1

    def test_entry_bound_evicts_least_recent(self):
        cache = MemCache(max_entries=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # refresh: b is now LRU
        cache.put("c", {"v": 3})
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats().evictions == 1

    def test_byte_bound_evicts(self):
        doc = {"pad": "x" * 100}
        size = _result_bytes(doc)
        cache = MemCache(max_bytes=2 * size)
        cache.put("a", doc)
        cache.put("b", doc)
        cache.put("c", doc)
        assert "a" not in cache
        assert len(cache) == 2
        assert cache.stats().total_bytes <= cache.max_bytes

    def test_oversized_result_rejected_without_eviction(self):
        cache = MemCache(max_bytes=256)
        cache.put("small", {"v": 1})
        assert not cache.put("huge", {"pad": "x" * 1024})
        assert "huge" not in cache
        assert "small" in cache  # nothing useful was evicted
        assert cache.stats().evictions == 0

    def test_refresh_replaces_byte_accounting(self):
        cache = MemCache()
        cache.put("k", {"pad": "x" * 512})
        before = cache.stats().total_bytes
        cache.put("k", {"v": 1})
        assert len(cache) == 1
        assert cache.stats().total_bytes < before

    def test_clear_returns_count(self):
        cache = MemCache()
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.clear() == 2
        assert len(cache) == 0 and cache.stats().total_bytes == 0

    def test_rejects_nonpositive_bounds(self):
        with pytest.raises(ValueError):
            MemCache(max_entries=0)
        with pytest.raises(ValueError):
            MemCache(max_bytes=0)

    def test_concurrent_access_stays_consistent(self):
        cache = MemCache(max_entries=64)

        def worker(base: int) -> None:
            for i in range(200):
                cache.put(f"k{(base + i) % 96}", {"v": i})
                cache.get(f"k{i % 96}")

        threads = [
            threading.Thread(target=worker, args=(i * 31,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 64
        stats = cache.stats()
        assert stats.total_bytes >= 0
        assert stats.hits + stats.misses == 800


class TestStatsAndMetrics:
    def test_stats_track_hits_misses_promotions(self):
        cache = MemCache()
        cache.get("absent")
        cache.put("k", {"v": 1}, promoted=True)
        cache.get("k")
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.promotions) == (1, 1, 1)
        assert stats.hit_rate == 0.5
        text = stats.to_text()
        assert "hit rate" in text and "promotions" in text

    def test_registry_counters_and_gauges(self):
        hits0 = _counter("engine_memcache_hits_total")
        misses0 = _counter("engine_memcache_misses_total")
        promos0 = _counter("engine_memcache_promotions_total")
        cache = MemCache()
        cache.get("absent")
        cache.put("k", {"v": 1}, promoted=True)
        cache.get("k")
        snap = get_registry().snapshot()
        assert _counter("engine_memcache_hits_total") == hits0 + 1
        assert _counter("engine_memcache_misses_total") == misses0 + 1
        assert _counter("engine_memcache_promotions_total") == promos0 + 1
        assert snap["gauges"].get("engine_memcache_entries") == 1.0


class TestSharedMemCache:
    def test_singleton_first_caller_fixes_bounds(self):
        first = shared_memcache(max_entries=7, max_bytes=1024)
        again = shared_memcache(max_entries=99, max_bytes=2**30)
        assert again is first
        assert again.max_entries == 7 and again.max_bytes == 1024

    def test_reset_hook_drops_instance(self):
        first = shared_memcache()
        _reset_shared_memcache()
        assert shared_memcache() is not first


class TestTwoTierEngine:
    """The Engine lookup contract: mem → disk(+promote) → compute."""

    def test_warm_rerun_is_memory_tier(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = Engine(jobs=1, store=store, mem_cache=MemCache())
        cold = engine.run([echo_job(i) for i in range(4)])
        assert all(not o.from_cache for o in cold)
        warm = engine.run([echo_job(i) for i in range(4)])
        assert all(o.from_cache and o.cache_tier == "mem" for o in warm)
        assert [o.result for o in warm] == [o.result for o in cold]

    def test_disk_hit_promotes_into_memory(self, tmp_path):
        store = ResultStore(tmp_path)
        Engine(jobs=1, store=store).run([echo_job("x")])
        mem = MemCache()
        engine = Engine(jobs=1, store=store, mem_cache=mem)
        first = engine.run([echo_job("x")])[0]
        assert first.from_cache and first.cache_tier == "disk"
        assert mem.stats().promotions == 1
        second = engine.run([echo_job("x")])[0]
        assert second.cache_tier == "mem"

    def test_write_through_lands_in_both_tiers(self, tmp_path):
        store = ResultStore(tmp_path)
        mem = MemCache()
        engine = Engine(jobs=1, store=store, mem_cache=mem)
        key = echo_job("wt").key()
        engine.run([echo_job("wt")])
        assert key in mem
        assert store.get(key) is not None


class TestCacheCLI:
    def test_stats_all_shows_both_tiers(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "[disk tier]" in out
        assert "[memory tier]" in out

    def test_stats_mem_only(self, capsys):
        assert main(["cache", "stats", "--tier", "mem"]) == 0
        out = capsys.readouterr().out
        assert "[memory tier]" in out
        assert "[disk tier]" not in out

    def test_clear_mem_tier(self, capsys):
        shared_memcache().put("k", {"v": 1})
        assert main(["cache", "clear", "--tier", "mem"]) == 0
        out = capsys.readouterr().out
        assert "removed 1 memory-tier entries" in out
        assert "disk cache" not in out
        assert len(shared_memcache()) == 0

    def test_clear_disk_tier(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        store.put(echo_job("d").key(), {"v": 1})
        assert main(["cache", "clear", "--tier", "disk",
                     "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "removed 1 disk cache entries" in out
        assert "memory-tier" not in out
