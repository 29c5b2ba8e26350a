"""CI smoke gate for the telemetry subsystem: scrape a live ``/metrics``.

Starts a real server over a small synthetic cube, drives one request of
every supported op (plus an append) through the HTTP client, then
fetches ``/metrics`` raw and re-parses it with the strict Prometheus
text parser.  The gate fails when

* the exposition text does not parse (format regression),
* any family registered in the process-wide registry is missing from
  the scrape (the renderer must emit HELP/TYPE even for empty metrics,
  so "registered but absent" always means a rendering bug), or
* any of the serving-path families the dashboards depend on is absent.

``GET /trace`` is fetched alongside and sanity-checked for the request
spans the drive must have produced::

    PYTHONPATH=src python benchmarks/smoke_metrics.py
"""

from urllib.request import urlopen

from repro.data.synthetic import zipf_table
from repro.obs import get_registry, parse_prometheus_text
from repro.serve import CubeServer, HTTPCubeClient, QueryEngine, ShardRouter

#: Families the serving dashboards assume; a rename must update both.
REQUIRED_FAMILIES = (
    "repro_requests_total",
    "repro_request_seconds",
    "repro_cache_hits_total",
    "repro_cache_misses_total",
    "repro_cache_entries",
    "repro_appends_total",
    "repro_append_rows_total",
    "repro_append_seconds",
    "repro_cube_refreshes_total",
    "repro_compactions_total",
    "repro_delta_rows",
    "repro_cube_version",
    "repro_http_requests_total",
    "repro_query_batches_total",
    "repro_query_batch_items_total",
    # the sharded tier (drive_sharded must have populated these)
    "repro_shard_requests_total",
    "repro_shard_scatter_seconds",
    "repro_shard_fanout",
    "repro_shard_lag_seconds",
    "repro_shard_live",
    "repro_shard_version",
    # the snapshot tier (drive_snapshot must have populated these)
    "repro_snapshot_load_seconds",
    "repro_snapshot_hot_masks",
    "repro_snapshot_resident_bytes",
    "repro_snapshot_promotions_total",
    "repro_snapshot_evictions_total",
    "repro_snapshot_cold_queries_total",
    "repro_snapshot_hot_queries_total",
    # the self-tuning planner (drive_tune must have populated these)
    "repro_tune_plans_total",
    "repro_tune_plan_seconds",
    "repro_tune_sample_rows_total",
    "repro_tune_replans_total",
    # the approximate tier (drive_approx must have populated these)
    "repro_approx_requests_total",
    "repro_approx_bound_width",
    "repro_approx_fallbacks_total",
    "repro_approx_sketch_builds_total",
)


def drive(client: HTTPCubeClient, n_dims: int) -> None:
    """One request per op (each twice: a miss, then a cache hit) + append."""
    cell = [0] + [None] * (n_dims - 1)
    for _ in range(2):
        client.query({"op": "point", "cell": cell})
        client.query({"op": "rollup", "cell": cell, "dim": 0})
        client.query({"op": "drilldown", "cell": cell, "dim": 1})
        client.query({"op": "slice", "bindings": {"0": 0}})
        client.query_batch([{"op": "point", "cell": cell}, {"op": "bogus"}])
    client.append([[0] * n_dims], None)


def drive_sharded(table) -> None:
    """One scatter and one append through a 2-shard router.

    Populates every ``repro_shard_*`` family in the process-wide
    registry so the scrape below can assert them alongside the
    single-engine families.
    """
    from repro.serve import QueryRequest

    with ShardRouter.from_table(table, n_shards=2) as router:
        router.execute(QueryRequest(op="point", cell=[None] * table.n_dims))
        router.append([[0] * table.n_dims], None)


def drive_snapshot(table) -> None:
    """Freeze the table's cube, mmap it back, run one batched read.

    Populates every ``repro_snapshot_*`` family (the load histogram, the
    tier gauges and the promotion/eviction/hot/cold counters) so the
    scrape below can assert them alongside the serving families.
    """
    import shutil
    import tempfile

    from repro.core.range_cubing import range_cubing
    from repro.serve.protocol import QueryRequest
    from repro.store import SnapshotEngine, write_snapshot

    root = tempfile.mkdtemp(prefix="repro-smoke-snapshot-")
    try:
        path = f"{root}/cube.snapshot"
        write_snapshot(range_cubing(table), path, table.schema)
        requests = [
            QueryRequest(op="point", cell=[v, None, None, None]) for v in range(8)
        ]
        with SnapshotEngine(path, cache_capacity=0, promote_after=1) as engine:
            engine.execute_batch(requests)  # promotes the mask: hot counters
        with SnapshotEngine(
            path, cache_capacity=0, budget_bytes=1, promote_after=1 << 30
        ) as engine:
            engine.execute_batch(requests)  # pinned cold: cold counters
    finally:
        shutil.rmtree(root, ignore_errors=True)


def drive_approx(table) -> None:
    """One approximate dice, plus one that falls back to the exact path.

    Populates every ``repro_approx_*`` family: the request counter and
    bound-width histogram (the sketch-served dice), the sketch-build
    counter (lazy build on first approx request) and the fallback
    counter (a MIN aggregator has no sampling estimator).
    """
    from repro.serve.protocol import QueryRequest
    from repro.table.aggregates import MinAggregator

    request = QueryRequest(
        op="dice", predicates={"1": [0, 1, 2]}, approx=True
    )
    QueryEngine.from_table(table).execute(request)
    QueryEngine.from_table(table, aggregator=MinAggregator(0)).execute(request)


def drive_tune(table) -> None:
    """One plan and one drift-triggered replan through the planner.

    Populates every ``repro_tune_*`` family (plan counter + histogram,
    sampled-row counter, replan counter) so the scrape below can assert
    them alongside the serving families.
    """
    from repro.tune import plan_table, record_replan

    plan_table(table)
    record_replan(trigger="smoke")


def check_federated_fleet() -> list[str]:
    """Scrape a live 2-shard fleet's router ``/metrics``; return failures.

    The router endpoint must expose the *federated* view — every worker's
    series folded in under a ``shard`` label — and still parse under the
    strict parser.  The shards are columnar-sized so the worker-side
    query kernels (``repro_query_*``) actually populate.
    """
    from repro.data.synthetic import uniform_table

    failures: list[str] = []
    table = uniform_table(6000, 4, 10, seed=3)
    router = ShardRouter.from_table(table, n_shards=2, shard_dim=0)
    try:
        with CubeServer(router, port=0) as server:
            with HTTPCubeClient(server.url) as client:
                client.query({"op": "dice", "predicates": {"1": [0, 1, 2]}})
                client.query_batch(
                    [{"op": "point", "cell": [0, 1, None, None]},
                     {"op": "point", "cell": [1, 2, None, None]}]
                )
            with urlopen(server.url + "/metrics", timeout=10) as response:
                federated = parse_prometheus_text(response.read().decode())
            with urlopen(server.url + "/metrics?scope=local", timeout=10) as response:
                local = parse_prometheus_text(response.read().decode())
    finally:
        router.close()

    def shards(families, name):
        return {
            labels.get("shard")
            for _, labels, _ in families.get(name, {"samples": []})["samples"]
        }

    if not shards(federated, "repro_shard_requests_total") & {"0", "1"}:
        failures.append("federated repro_shard_requests_total has no worker shards")
    worker_query = [
        name
        for name in ("repro_query_batch_size", "repro_query_postings_hits_total",
                     "repro_query_cuboid_map_hits_total")
        if shards(federated, name) & {"0", "1"}
    ]
    if not worker_query:
        failures.append("no worker repro_query_* series carry shard labels")
    if "router" not in shards(federated, "repro_http_requests_total"):
        failures.append('router-local series missing shard="router" in federation')
    if shards(local, "repro_http_requests_total") != {None}:
        failures.append("?scope=local leaked federation shard labels")
    return failures


def main() -> int:
    table = zipf_table(500, 4, 10, 1.2, seed=3)
    drive_sharded(table)
    drive_snapshot(table)
    drive_tune(table)
    drive_approx(table)
    engine = QueryEngine.from_table(table)
    with CubeServer(engine, port=0) as server:
        client = HTTPCubeClient(server.url)
        try:
            drive(client, table.n_dims)
        finally:
            client.close()
        with urlopen(server.url + "/metrics", timeout=10) as response:
            content_type = response.headers.get("Content-Type", "")
            text = response.read().decode("utf-8")
        with urlopen(server.url + "/trace", timeout=10) as response:
            import json

            spans = json.loads(response.read())["spans"]

    families = parse_prometheus_text(text)  # raises on malformed exposition
    print(f"scraped {len(families)} families ({len(text.splitlines())} lines, "
          f"Content-Type: {content_type})")

    registered = set(get_registry().names())
    missing = sorted(registered - set(families))
    if missing:
        print(f"FAIL: registered metrics absent from /metrics: {missing}")
        return 1
    required_missing = [f for f in REQUIRED_FAMILIES if f not in families]
    if required_missing:
        print(f"FAIL: required serving families missing: {required_missing}")
        return 1

    request_samples = families["repro_requests_total"]["samples"]
    ops = {labels.get("op") for _, labels, _ in request_samples}
    expected_ops = {"point", "rollup", "drilldown", "slice"}
    if not expected_ops <= ops:
        print(f"FAIL: ops missing from repro_requests_total: {expected_ops - ops}")
        return 1

    request_spans = [s for s in spans if s["name"] == "serve.request"]
    if not request_spans:
        print("FAIL: /trace has no serve.request spans after the drive")
        return 1
    if not any(s["attributes"].get("cache_hit") for s in request_spans):
        print("FAIL: no serve.request span recorded a cache hit")
        return 1

    fleet_failures = check_federated_fleet()
    if fleet_failures:
        for failure in fleet_failures:
            print(f"FAIL: {failure}")
        return 1

    print(f"all {len(registered)} registered families exposed; "
          f"{len(request_spans)} request spans traced; "
          f"federated fleet scrape OK")
    print("OK")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
