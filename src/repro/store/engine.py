"""Two-tier serving over a snapshot: hot resident structures, cold mmap.

:class:`SnapshotEngine` serves the full point/rollup/drilldown/slice/dice
surface through the one request pipeline of
:class:`~repro.serve.engine.Engine`, so responses, caching, metrics and
the error taxonomy are the resident engine's — but its cube generation
is a memory-mapped :class:`~repro.store.snapshot.SnapshotStore` instead
of a resident trie emission.  The write path is intentionally absent: a
snapshot is one immutable generation; ingesting means rebuilding and
re-snapshotting (see :class:`~repro.serve.store.CubeStore`'s snapshot
backend for the read-write composition).

The hot/cold split is :class:`TierPolicy`, installed as the store's
memoization policy (:meth:`ColumnarRangeStore.set_memo_policy`):

* *cold* masks answer straight off the mapped columns — per-cell
  postings intersection, no per-mask state materialized, so a query
  touches only the pages it reads;
* a mask accessed ``promote_after`` times is *promoted*: its cuboid map
  (the per-mask point index) is built and kept resident, subject to a
  ``budget_bytes`` cap with least-recently-used eviction.

Promotions, evictions and the resident footprint are exported as
``repro_snapshot_*`` metrics; loads and promotions are traced as
``snapshot.load`` / ``snapshot.promote`` spans.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Sequence

from repro.core.columnar import explain_collector
from repro.obs import OBS_STATE, get_registry, get_tracer
from repro.serve.engine import CubeVersion, Engine
from repro.serve.protocol import ErrorCode, ServeError
from repro.store.snapshot import SnapshotStore, load_snapshot, manifest_schema
from repro.table.aggregates import Aggregator

_TRACER = get_tracer()
_REGISTRY = get_registry()
_LOAD_SECONDS = _REGISTRY.histogram(
    "repro_snapshot_load_seconds", "Seconds to mmap-open a snapshot directory."
)
_HOT_MASKS = _REGISTRY.gauge(
    "repro_snapshot_hot_masks",
    "Cuboid masks currently promoted to the resident tier.",
    ("engine",),
)
_RESIDENT_BYTES = _REGISTRY.gauge(
    "repro_snapshot_resident_bytes",
    "Approximate bytes of promoted per-mask structures held resident.",
    ("engine",),
)
_PROMOTIONS = _REGISTRY.counter(
    "repro_snapshot_promotions_total",
    "Cold-tier structures promoted into the resident tier.",
)
_EVICTIONS = _REGISTRY.counter(
    "repro_snapshot_evictions_total",
    "Resident-tier structures evicted to honour the byte budget.",
)
_COLD_QUERIES = _REGISTRY.counter(
    "repro_snapshot_cold_queries_total",
    "Lookups answered directly off the mapped columns (cold tier).",
)
_HOT_QUERIES = _REGISTRY.counter(
    "repro_snapshot_hot_queries_total",
    "Lookups answered from a promoted resident structure (hot tier).",
)

#: Default resident budget: enough for the busiest cuboid maps of a
#: mid-size cube while staying far below the mapped column footprint.
DEFAULT_BUDGET_BYTES = 64 << 20


class TierPolicy:
    """Access-counting promotion with an LRU-evicted resident budget.

    One policy guards one store.  ``should_map``/``admit`` are the
    :meth:`~repro.core.columnar.ColumnarRangeStore.set_memo_policy`
    contract; everything else is accounting.  Thread-safe: the serving
    layer calls in from concurrent request threads.
    """

    def __init__(
        self,
        *,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
        promote_after: int = 2,
        name: str = "snapshot",
    ) -> None:
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be non-negative")
        if promote_after < 1:
            raise ValueError("promote_after must be at least 1")
        self.budget_bytes = budget_bytes
        self.promote_after = promote_after
        self.name = name
        self._store = None
        self._lock = threading.Lock()
        self._counts: dict[int, int] = {}  # mask -> accumulated accesses
        self._resident: dict[tuple[str, int], int] = {}  # (kind, mask) -> bytes
        self._last_used: dict[tuple[str, int], int] = {}
        self._clock = 0
        self._resident_bytes = 0
        self.promotions = 0
        self.evictions = 0
        self.hot_hits = 0
        self.cold_hits = 0

    def attach(self, store) -> None:
        """Bind this policy to ``store`` and install it as its memo policy."""
        self._store = store
        store.set_memo_policy(self)

    # -- the store-facing contract --------------------------------------

    def should_map(self, mask: int, group_size: int) -> bool:
        """Whether a ``find_batch`` group may use/build the mask's map."""
        with self._lock:
            self._clock += 1
            count = self._counts.get(mask, 0) + group_size
            self._counts[mask] = count
            key = ("map", mask)
            if key in self._resident:
                self._last_used[key] = self._clock
                hot = True
            else:
                hot = count >= self.promote_after
            # "Hot" is a statement about the path taken (map use/build),
            # not about residency — admit() may still refuse the memo.
            if hot:
                self.hot_hits += group_size
            else:
                self.cold_hits += group_size
        acc = explain_collector()
        if acc is not None:
            acc.add("tier_hot_hits" if hot else "tier_cold_hits", group_size)
        if OBS_STATE.enabled:
            (_HOT_QUERIES if hot else _COLD_QUERIES).inc(group_size)
        return hot

    def admit(self, kind: str, mask: int, nbytes: int) -> bool:
        """Whether a freshly built structure may be memoized (may evict)."""
        evicted: list[tuple[str, int]] = []
        with self._lock:
            key = (kind, mask)
            self._clock += 1
            if key in self._resident:
                self._last_used[key] = self._clock
                return True
            if nbytes > self.budget_bytes:
                return False
            while self._resident_bytes + nbytes > self.budget_bytes and self._resident:
                victim = min(self._resident, key=lambda k: self._last_used.get(k, 0))
                self._resident_bytes -= self._resident.pop(victim)
                self._last_used.pop(victim, None)
                evicted.append(victim)
            self._resident[key] = nbytes
            self._last_used[key] = self._clock
            self._resident_bytes += nbytes
            self.promotions += 1
            self.evictions += len(evicted)
            resident_bytes = self._resident_bytes
            hot_masks = len(self._resident)
        store = self._store
        for victim in evicted:
            if store is not None:
                store.evict_memo(*victim)
        if OBS_STATE.enabled:
            with _TRACER.span(
                "snapshot.promote", kind=kind, mask=mask, nbytes=nbytes
            ) as span:
                span.set_attribute("evicted", len(evicted))
            _PROMOTIONS.inc()
            if evicted:
                _EVICTIONS.inc(len(evicted))
            _HOT_MASKS.set(hot_masks, engine=self.name)
            _RESIDENT_BYTES.set(resident_bytes, engine=self.name)
        return True

    # -- introspection ---------------------------------------------------

    def stats(self) -> dict:
        """A JSON-able view of the tier state (for ``/stats`` and tests)."""
        with self._lock:
            return {
                "budget_bytes": self.budget_bytes,
                "promote_after": self.promote_after,
                "resident_bytes": self._resident_bytes,
                "hot_masks": len(self._resident),
                "promotions": self.promotions,
                "evictions": self.evictions,
                "hot_hits": self.hot_hits,
                "cold_hits": self.cold_hits,
            }


class SnapshotCube:
    """A snapshot store behind the :class:`RangeCube` read surface.

    Everything :class:`~repro.cube.query.CubeQuery` and the local
    resolver (:meth:`~repro.serve.engine.CubeVersion.resolve`) touch on a
    cube — ``lookup``/``lookup_batch``, the aggregator, cuboid access,
    ``to_columnar`` (the selection kernel) — is forwarded to the store,
    so the whole serving read stack runs over a snapshot without a
    resident cube.
    """

    __slots__ = ("store", "aggregator", "n_dims")

    def __init__(self, store: SnapshotStore) -> None:
        self.store = store
        self.aggregator = store.aggregator
        self.n_dims = store.n_dims

    @property
    def ranges(self):
        return self.store.ranges

    @property
    def n_ranges(self) -> int:
        return len(self.store)

    @property
    def n_cells(self) -> int:
        return sum(1 << int(m).bit_count() for m in self.store.marked_mask.tolist())

    def lookup(self, cell):
        rid = self.store.find_id(tuple(cell))
        return None if rid < 0 else self.store.states[rid]

    def lookup_batch(self, cells):
        states = self.store.states
        ids = self.store.find_batch_ids([tuple(c) for c in cells])
        return [None if rid < 0 else states[rid] for rid in ids]

    def range_of(self, cell):
        return self.store.find(tuple(cell))

    def cuboid(self, mask: int):
        return self.store.cuboid(mask)

    def cuboid_sizes(self):
        return self.store.cuboid_sizes()

    def to_columnar(self) -> SnapshotStore:
        return self.store

    def __len__(self) -> int:
        return len(self.store)

    def __repr__(self) -> str:
        return f"SnapshotCube({self.store!r})"


class SnapshotEngine(Engine):
    """Read-only serving over one memory-mapped snapshot generation.

    The request pipeline (``execute``/``execute_batch``/``point``, the
    result cache, slow-query log, metrics, spans and EXPLAIN) is
    :class:`~repro.serve.engine.Engine`'s, resolving over a
    :class:`SnapshotCube` with the same local resolver as the resident
    engine, so responses are identical.  What this class adds: the
    ``snapshot.load`` open, the hot/cold :class:`TierPolicy` with its
    EXPLAIN tier classification and ``/stats`` block, a ``/readyz`` that
    reports loading, and an ``append`` that refuses with ``bad_request``.
    Works everywhere an engine does: :class:`~repro.serve.http.CubeServer`,
    the in-process client, the workload driver.
    """

    # e2e_bench/tracing.py wraps ``execute`` in this class's own __dict__
    # (one ``serve.engine.*`` span per read); an alias keeps it there
    # without a second, nested call.
    execute = Engine.execute

    read_only = True

    def __init__(
        self,
        source: "SnapshotStore | str | Path",
        *,
        aggregator: Aggregator | None = None,
        verify: bool = False,
        cache_capacity: int = 1024,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
        promote_after: int = 2,
        name: str | None = None,
        slow_query_threshold: float = 0.050,
        slow_log_capacity: int = 128,
        slow_log_sample: int = 1,
    ) -> None:
        start = time.perf_counter()
        # Readiness: /readyz reports "loading" until the columns are
        # mapped and the serving structures exist (see readiness()).
        self._ready = False
        if isinstance(source, SnapshotStore):
            store = source
        else:
            with _TRACER.span("snapshot.load", path=str(source)):
                store = load_snapshot(source, aggregator=aggregator, verify=verify)
        manifest = store.manifest
        super().__init__(
            store.aggregator,
            name=name or "snapshot",
            min_support=int(manifest.get("min_support", 1)),
            cache_capacity=cache_capacity,
            slow_query_threshold=slow_query_threshold,
            slow_log_capacity=slow_log_capacity,
            slow_log_sample=slow_log_sample,
        )
        self._store = store
        self._rows_absorbed = int(manifest.get("rows_absorbed", 0))
        self._policy = TierPolicy(
            budget_bytes=budget_bytes, promote_after=promote_after, name=self._name
        )
        self._policy.attach(store)
        self._version = CubeVersion(
            int(manifest.get("engine_version", 0)),
            SnapshotCube(store),
            manifest_schema(manifest),
        )
        self._ready = True
        if OBS_STATE.enabled:
            _LOAD_SECONDS.observe(time.perf_counter() - start)

    def readiness(self) -> dict:
        """The ``/readyz`` account: loading vs. serving (liveness aside)."""
        ready = bool(getattr(self, "_ready", False))
        out: dict = {
            "ready": ready,
            "state": "serving" if ready else "loading",
            "read_only": True,
        }
        if ready:
            out["snapshot"] = str(self._store.path)
        return out

    def _explain_extras(self, data: dict) -> dict:
        """The snapshot tier's contribution to an EXPLAIN account.

        ``tier_hot/cold_hits`` come from :meth:`TierPolicy.should_map`
        (batched point groups); paths that never consult the policy —
        single points over postings, drill-downs, slices and dice through
        the selection kernel — are classified by whether they had to
        build or read postings (fault mapped columns) or could serve from
        an already-promoted memo.
        """
        hot = int(data.get("tier_hot_hits", 0))
        cold = int(data.get("tier_cold_hits", 0))
        if not hot and not cold:
            built = data.get("cuboid_ids_built", 0) or data.get(
                "postings_intersected", 0
            )
            cold, hot = (1, 0) if built else (0, 1)
        source = "mixed" if hot and cold else ("hot" if hot else "cold")
        return {
            "tier": {"source": source, "hot_hits": hot, "cold_hits": cold},
            "snapshot": str(self._store.path),
        }

    @property
    def store(self) -> SnapshotStore:
        return self._store

    @property
    def policy(self) -> TierPolicy:
        return self._policy

    def tier_stats(self) -> dict:
        """The hot/cold tier state (promotions, evictions, resident bytes)."""
        return self._policy.stats()

    def _stats_extras(self, snap: CubeVersion) -> dict:
        return {
            "n_ranges": snap.cube.n_ranges,
            "rows_absorbed": self._rows_absorbed,
            "trie_nodes": 0,  # no resident trie: the cube lives on disk
            "read_only": True,
            "snapshot": {
                "path": str(self._store.path),
                "mapped_bytes": self._store.nbytes(),
                "tier": self._policy.stats(),
            },
        }

    def append(self, rows: Sequence[Sequence[int]], measures=None) -> int:
        raise ServeError(
            "snapshot engine is read-only: rebuild the cube and write a new "
            "snapshot to ingest data",
            code=ErrorCode.BAD_REQUEST,
        )

    def __repr__(self) -> str:
        snap = self._version
        return (
            f"SnapshotEngine(v{snap.version}, {snap.cube.n_ranges} ranges, "
            f"{str(self._store.path)!r})"
        )
