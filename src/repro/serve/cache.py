"""A thread-safe, size-bounded LRU cache for query results.

The serving layer answers a Zipf-skewed stream of OLAP queries, so a
small cache of finalized results absorbs most of the read traffic (the
hot head of the distribution) while the tail still reaches the index.
The cache is deliberately dumb: keys are opaque hashables (the engine
builds them from the cube *version* plus the canonical query), values
are never mutated after insertion, and the whole structure is guarded by
one lock — every operation is a dict hit, so the lock is held for
nanoseconds and N reader threads serialize harmlessly.

Hits, misses and evictions are counted so the workload driver can report
an observed hit rate.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable


@dataclass(frozen=True)
class CacheStats:
    """An immutable snapshot of the cache counters."""

    capacity: int
    size: int
    hits: int
    misses: int
    evictions: int
    invalidations: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, 0.0 before any traffic."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


_MISSING = object()


class LRUCache:
    """Least-recently-used mapping bounded to ``capacity`` entries.

    ``capacity=0`` disables caching entirely (every ``get`` is a miss and
    ``put`` is a no-op) — the benchmarks use that to measure the uncached
    path through identical code.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity cannot be negative")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value for ``key`` (marking it most recent), else ``default``.

        The hit path is deliberately lock-free: each step (dict read,
        ``move_to_end``, counter bump) is a single atomic C call, and the
        only cross-thread race — the key being evicted between the read
        and the recency bump — is caught and ignored.  Counter updates
        can be lost under heavy contention; they feed reports, not
        decisions.  Mutating operations (:meth:`put`,
        :meth:`invalidate_all`) still serialize on the lock to keep the
        capacity invariant exact.
        """
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self._misses += 1
            return default
        try:
            self._entries.move_to_end(key)
        except KeyError:  # evicted/invalidated concurrently; the value stands
            pass
        self._hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key`` as most recent, evicting the LRU entry when full."""
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            self._entries[key] = value
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def invalidate_all(
        self, rekey: Callable[[Hashable, Any], tuple | None] | None = None
    ) -> int:
        """Drop every entry (after a cube refresh); returns how many were dropped.

        ``rekey(key, value)``, when given, may carry an entry over
        instead: it returns the ``(key, value)`` to keep it under, or
        ``None`` to drop it.  Carried entries keep their recency order.
        """
        with self._lock:
            entries = self._entries
            self._invalidations += 1
            if rekey is None:
                dropped = len(entries)
                entries.clear()
                return dropped
            # The lock-free ``get`` reorders ``entries`` on a hit, so walk
            # a snapshot: ``list(...)`` is one C call, atomic under the GIL.
            items = list(entries.items())
            kept: OrderedDict[Hashable, Any] = OrderedDict()
            for key, value in items:
                carried = rekey(key, value)
                if carried is not None:
                    kept[carried[0]] = carried[1]
            # One attribute swap: the lock-free ``get`` reads either dict.
            self._entries = kept
            return len(items) - len(kept)

    def keys(self) -> list[Hashable]:
        """Current keys, least-recently-used first (a snapshot, for tests)."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                capacity=self.capacity,
                size=len(self._entries),
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
            )

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"LRUCache({s.size}/{s.capacity}, {s.hits} hits, "
            f"{s.misses} misses, {s.evictions} evictions)"
        )
