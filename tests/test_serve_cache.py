"""Unit tests for the serving layer's LRU result cache."""

import threading

import pytest

from repro.serve import LRUCache


def test_put_get_round_trip():
    cache = LRUCache(4)
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.get("missing") is None
    assert cache.get("missing", "fallback") == "fallback"
    assert len(cache) == 1


def test_eviction_order_is_least_recently_used():
    cache = LRUCache(3)
    for key in "abc":
        cache.put(key, key.upper())
    cache.put("d", "D")  # evicts "a", the oldest
    assert cache.get("a") is None
    assert cache.keys() == ["b", "c", "d"]
    assert cache.stats().evictions == 1


def test_get_refreshes_recency():
    cache = LRUCache(3)
    for key in "abc":
        cache.put(key, key)
    cache.get("a")  # "a" is now most recent; "b" becomes the LRU entry
    cache.put("d", "d")
    assert cache.get("b") is None
    assert cache.get("a") == "a"
    assert cache.keys() == ["c", "d", "a"]


def test_put_existing_key_updates_and_refreshes():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)  # refresh, not insert: nothing evicted
    assert cache.stats().evictions == 0
    cache.put("c", 3)  # now "b" is the LRU entry
    assert cache.get("b") is None
    assert cache.get("a") == 10


def test_invalidate_all_drops_everything_and_counts():
    cache = LRUCache(8)
    for i in range(5):
        cache.put(i, i)
    assert cache.invalidate_all() == 5
    assert len(cache) == 0
    assert cache.get(3) is None
    stats = cache.stats()
    assert stats.invalidations == 1 and stats.size == 0
    assert cache.invalidate_all() == 0  # idempotent


def test_hit_miss_counters_and_hit_rate():
    cache = LRUCache(4)
    cache.put("x", 1)
    cache.get("x")
    cache.get("x")
    cache.get("y")
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.lookups) == (2, 1, 3)
    assert stats.hit_rate == pytest.approx(2 / 3)
    assert LRUCache(4).stats().hit_rate == 0.0  # no traffic yet


def test_capacity_zero_disables_caching():
    cache = LRUCache(0)
    cache.put("a", 1)
    assert cache.get("a") is None
    assert len(cache) == 0
    assert cache.stats().misses == 1


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        LRUCache(-1)


def test_capacity_invariant_under_concurrent_churn():
    """Racing readers/writers never push the cache past its capacity."""
    cache = LRUCache(16)
    n_threads, n_ops = 8, 400
    barrier = threading.Barrier(n_threads)

    def churn(seed: int) -> None:
        barrier.wait()
        for i in range(n_ops):
            key = (seed * 31 + i) % 64
            if i % 3 == 0:
                cache.put(key, key)
            else:
                cache.get(key)

    threads = [threading.Thread(target=churn, args=(t,)) for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(cache) <= 16
    stats = cache.stats()
    assert stats.size == len(cache.keys()) <= 16


def test_invalidate_all_rekey_carries_entries_over_in_recency_order():
    cache = LRUCache(8)
    for i in range(5):
        cache.put((1, i), f"v{i}")
    cache.get((1, 0))  # now the most recent

    def rekey(key, value):
        version, i = key
        return None if i % 2 else ((2, i), value + "'")

    assert cache.invalidate_all(rekey) == 2
    assert cache.keys() == [(2, 2), (2, 4), (2, 0)]
    assert cache.get((2, 4)) == "v4'" and cache.get((1, 4)) is None
    assert cache.stats().invalidations == 1


def test_invalidate_all_rekey_survives_a_concurrent_hit():
    """A lock-free hit that reorders the entries mid re-key is harmless."""
    cache = LRUCache(8)
    for i in range(4):
        cache.put((1, i), i)

    def hit() -> None:
        assert cache.get((1, 0)) == 0  # moves (1, 0) to the end

    def rekey(key, value):
        if key == (1, 0):  # a reader hits while the walk is under way
            reader = threading.Thread(target=hit)
            reader.start()
            reader.join()
        return (2, key[1]), value

    assert cache.invalidate_all(rekey) == 0
    assert cache.keys() == [(2, i) for i in range(4)]
