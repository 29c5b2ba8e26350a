"""``repro.serve`` — the concurrent cube-serving subsystem.

Everything before this package computes a cube once and exits; this
package keeps one resident and answers a stream of requests, which is
the end state the related serving-oriented work (HaCube's
materialize-then-maintain model, Gray et al.'s interactive OLAP framing)
treats as the point of cube computation in the first place.  It leans
directly on the paper's format-preserving property (Section 4): a range
cube answers the same cell lookups as a plain cube, so the query, index
and persistence layers built earlier slot underneath a server unchanged.

The pieces, bottom up:

* :class:`~repro.serve.cache.LRUCache` — thread-safe, size-bounded
  result cache with hit/miss/eviction counters;
* :class:`~repro.serve.store.CubeStore` — named cube persistence
  (resident trie + schema) with atomic file replacement;
* :class:`~repro.serve.engine.QueryEngine` — point/roll-up/drill-down/
  slice/dice queries over a versioned cube snapshot, with a serialized
  write path that appends fact batches and swaps in a fresh cube
  atomically.  Its request pipeline, :class:`~repro.serve.engine.Engine`
  (cache, plan into state items, resolve, merge), is shared verbatim by
  the snapshot engine and the shard router;
* :class:`~repro.serve.http.CubeServer` — a stdlib threaded JSON/HTTP
  front end over one engine, with telemetry endpoints (``GET /metrics``
  Prometheus text, ``GET /trace`` spans, ``GET /slowlog`` — see
  :mod:`repro.obs` and ``docs/observability.md``);
* :class:`~repro.serve.client.InProcessClient` /
  :class:`~repro.serve.client.HTTPCubeClient` — the two transports
  behind one client interface;
* :class:`~repro.serve.workload.WorkloadDriver` — Zipf-skewed read-heavy
  workloads over N concurrent clients, reported with throughput,
  p50/p95/p99 latency and the observed cache hit rate;
* :mod:`~repro.serve.protocol` — the versioned wire protocol every tier
  speaks: typed :class:`~repro.serve.protocol.QueryRequest` /
  :class:`~repro.serve.protocol.QueryResponse` /
  :class:`~repro.serve.protocol.BatchResponse` shapes and the one
  :class:`~repro.serve.protocol.ErrorInfo` error taxonomy;
* :class:`~repro.serve.sharded.ShardRouter` — the sharded tier: one
  engine per partition in its own worker process, scatter-gather with
  aggregate-state merging and a versioned two-phase refresh (``repro
  serve --shards N``; see ``docs/sharding.md``).

The out-of-core tier lives next door in :mod:`repro.store`: mmap-able
cube snapshots (``repro snapshot save/load/inspect``), the read-only
:class:`~repro.store.SnapshotEngine` two-tier serving path, per-shard
snapshot cold start (:meth:`ShardRouter.from_snapshot_dir`) and the
``CubeStore(format="snapshot")`` backend — see ``docs/persistence.md``.

Quick start::

    from repro.data.synthetic import zipf_table
    from repro.serve import QueryEngine, CubeServer, InProcessClient

    engine = QueryEngine.from_table(zipf_table(5000, 5, 50))
    engine.point([0, None, None, None, None])   # finalized aggregates
    with CubeServer(engine, port=0) as server:  # JSON over HTTP
        ...                                     # POST {url}/query

The CLI front ends: ``repro serve`` and ``repro workload``.
"""

from repro.serve.cache import CacheStats, LRUCache
from repro.serve.client import HTTPCubeClient, InProcessClient, ServingClient
from repro.serve.engine import CubeVersion, QueryEngine, ServeError
from repro.serve.http import CubeServer
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    BatchResponse,
    ErrorCode,
    ErrorInfo,
    QueryRequest,
    QueryResponse,
)
from repro.serve.sharded import ShardEngine, ShardRouter
from repro.serve.store import CubeStore, StoredCube
from repro.serve.workload import WorkloadDriver, WorkloadMix, WorkloadReport

__all__ = [
    "BatchResponse",
    "CacheStats",
    "CubeServer",
    "CubeStore",
    "CubeVersion",
    "ErrorCode",
    "ErrorInfo",
    "HTTPCubeClient",
    "InProcessClient",
    "LRUCache",
    "PROTOCOL_VERSION",
    "QueryEngine",
    "QueryRequest",
    "QueryResponse",
    "ServeError",
    "ServingClient",
    "ShardEngine",
    "ShardRouter",
    "StoredCube",
    "WorkloadDriver",
    "WorkloadMix",
    "WorkloadReport",
]
