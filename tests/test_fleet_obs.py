"""Fleet-wide observability: trace propagation, federation, EXPLAIN, readiness.

The acceptance bar from the sharded tier's point of view: one request
against a 2-shard HTTP fleet produces *one* trace tree (router and both
shard workers share a trace id), an EXPLAIN account naming the shards
touched and each shard's tier source, and a router ``/metrics`` scrape
whose worker series carry ``shard`` labels under the strict parser.
"""

import json
import threading
import urllib.request

import pytest

import repro.obs as obs
from repro.data.synthetic import uniform_table
from repro.obs import (
    MetricRegistry,
    SlowQueryLog,
    TraceContext,
    Tracer,
    get_tracer,
    parse_prometheus_text,
    set_enabled,
)
from repro.serve import (
    CubeServer,
    HTTPCubeClient,
    QueryEngine,
    QueryRequest,
    ShardRouter,
)

N_DIMS = 4
CARD = 10


@pytest.fixture(autouse=True)
def clean_obs():
    """Tests share the process-wide registry/tracer; isolate their values."""
    obs.reset()
    set_enabled(True)
    yield
    obs.reset()
    set_enabled(True)


def _columnar_table(seed=7, n_rows=6000):
    # Big enough that every shard's cube crosses COLUMNAR_THRESHOLD, so
    # the postings/cuboid-map counters and EXPLAIN accounts populate.
    return uniform_table(n_rows, N_DIMS, CARD, seed=seed)


@pytest.fixture(scope="module")
def fleet():
    """A 2-shard router behind the HTTP front end, columnar-sized shards."""
    router = ShardRouter.from_table(_columnar_table(), n_shards=2, shard_dim=0)
    with CubeServer(router, port=0) as server:
        with HTTPCubeClient(server.url) as client:
            yield router, server.url, client
    router.close()


# ---------------------------------------------------------------------------
# TraceContext: the propagated identity
# ---------------------------------------------------------------------------


def test_trace_context_traceparent_roundtrip():
    ctx = TraceContext("0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331")
    header = ctx.to_traceparent()
    assert header == "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
    assert TraceContext.from_traceparent(header) == ctx
    assert TraceContext.from_traceparent("  " + header.upper() + "  ") == ctx
    assert TraceContext.from_json(ctx.to_json()) == ctx


def test_trace_context_drops_malformed_headers():
    good = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
    for bad in (
        None,
        "",
        "garbage",
        good[:-3],  # truncated
        "ff" + good[2:],  # forbidden version
        "00-" + "0" * 32 + "-b7ad6b7169203331-01",  # all-zero trace id
        "00-0af7651916cd43dd8448eb211c80319c-" + "0" * 16 + "-01",
    ):
        assert TraceContext.from_traceparent(bad) is None


def test_trace_context_constructor_validates():
    for trace_id, span_id in (
        ("nope", "b7ad6b7169203331"),
        ("0af7651916cd43dd8448eb211c80319c", "nope"),
        ("0" * 32, "b7ad6b7169203331"),
        ("0af7651916cd43dd8448eb211c80319c", "0" * 16),
    ):
        with pytest.raises(ValueError):
            TraceContext(trace_id, span_id)


# ---------------------------------------------------------------------------
# remote grafting and cross-worker folding
# ---------------------------------------------------------------------------


def test_remote_context_seeds_root_but_local_parent_wins():
    tracer = Tracer()
    remote = TraceContext("ab" * 16, "cd" * 8)
    with tracer.span("grafted", remote_context=remote) as root:
        assert root.trace_id == remote.trace_id
        assert root.parent_id == remote.span_id
        with tracer.span("inner", remote_context=TraceContext("ef" * 16, "12" * 8)) as inner:
            pass
    # An open local parent always wins over a remote context.
    assert inner.trace_id == root.trace_id
    assert inner.parent_id == root.span_id


def test_fold_preserves_ids_through_chrome_export():
    tracer = Tracer()
    worker_span = {
        "name": "shard.scatter",
        "trace_id": "ab" * 16,
        "span_id": "cd" * 8,
        "parent_id": "ef" * 8,
        "start": 1000.0,
        "duration": 0.5,
        "thread": 42,
        "attributes": {"shard": 1},
    }
    assert tracer.fold([worker_span]) == 1
    (folded,) = tracer.buffer.spans()
    assert folded.trace_id == worker_span["trace_id"]
    assert folded.span_id == worker_span["span_id"]
    assert folded.parent_id == worker_span["parent_id"]  # not re-parented
    assert folded.thread_id == 42
    (event,) = tracer.buffer.export_chrome()["traceEvents"]
    assert event["args"]["trace_id"] == worker_span["trace_id"]
    assert event["args"]["span_id"] == worker_span["span_id"]
    assert event["args"]["parent_id"] == worker_span["parent_id"]
    assert event["args"]["shard"] == 1
    assert event["tid"] == 42


def test_fold_without_ids_parents_under_the_open_span():
    tracer = Tracer()
    with tracer.span("stage") as stage:
        tracer.fold([{"name": "anon", "start": 0.0, "duration": 0.1}])
    anon = next(s for s in tracer.buffer.spans() if s.name == "anon")
    assert anon.trace_id == stage.trace_id
    assert anon.parent_id == stage.span_id


def test_trace_buffer_concurrent_writers_stay_bounded_and_untorn():
    tracer = Tracer(capacity=64)
    n_threads, n_spans = 8, 300
    barrier = threading.Barrier(n_threads + 1)
    stop = threading.Event()
    torn: list = []

    def writer(i: int) -> None:
        barrier.wait()
        for j in range(n_spans):
            with tracer.span(f"w{i}.{j}", i=i):
                pass

    def reader() -> None:
        barrier.wait()
        while not stop.is_set():
            snapshot = tracer.buffer.spans()
            if len(snapshot) > 64:
                torn.append(len(snapshot))
            for span in snapshot:
                if len(span.trace_id) != 32 or len(span.span_id) != 16:
                    torn.append(span)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(n_threads)]
    observer = threading.Thread(target=reader)
    observer.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stop.set()
    observer.join()
    assert torn == []
    spans = tracer.buffer.spans()
    assert len(spans) == 64  # bounded, newest retained
    assert len({s.span_id for s in spans}) == 64  # no duplicated slots


# ---------------------------------------------------------------------------
# metrics federation: merge_labeled -> render -> strict parse round trip
# ---------------------------------------------------------------------------


def test_federation_roundtrip_with_escaped_label_values():
    worker = MetricRegistry()
    jobs = worker.counter("jobs_total", "Jobs.", ("kind",))
    tricky = 'quo"te\nnew\\line'
    jobs.inc(3, kind=tricky)
    worker.gauge("depth", "Depth.").set(5)
    lat = worker.histogram("lat_seconds", "Lat.")
    lat.observe(0.01)
    lat.observe(0.2)

    fleet = MetricRegistry()
    fleet.merge_labeled(worker.to_dict(), "shard", "0")
    fleet.merge_labeled(worker.to_dict(), "shard", "1")

    families = parse_prometheus_text(fleet.render_prometheus())
    jobs_samples = {
        tuple(sorted(labels.items())): value
        for _, labels, value in families["jobs_total"]["samples"]
    }
    # The tricky label value survives escaping + strict parsing verbatim,
    # per shard.
    for shard in ("0", "1"):
        assert jobs_samples[(("kind", tricky), ("shard", shard))] == 3
    depth = {
        labels["shard"]: value for _, labels, value in families["depth"]["samples"]
    }
    assert depth == {"0": 5, "1": 5}  # gauges stay distinguishable per shard
    hist = families["lat_seconds"]["samples"]
    counts = {
        labels["shard"]: value
        for name, labels, value in hist
        if name == "lat_seconds_count"
    }
    assert counts == {"0": 2, "1": 2}  # histograms bucket-merge per shard


def test_federation_does_not_double_label_already_federated_series():
    worker = MetricRegistry()
    worker.counter("requests_total", "R.", ("shard",)).inc(2, shard="7")
    fleet = MetricRegistry()
    fleet.merge_labeled(worker.to_dict(), "shard", "router")
    fleet.merge_labeled(worker.to_dict(), "shard", "router")
    # The existing shard label is authoritative; no second label grows.
    metric = fleet.get("requests_total")
    assert metric.labelnames == ("shard",)
    assert metric.value(shard="7") == 4


def test_counters_sum_per_shard_when_merged_twice():
    worker = MetricRegistry()
    worker.counter("hits_total", "H.").inc(5)
    fleet = MetricRegistry()
    fleet.merge_labeled(worker.to_dict(), "shard", "0")
    fleet.merge_labeled(worker.to_dict(), "shard", "0")
    assert fleet.get("hits_total").value(shard="0") == 10


# ---------------------------------------------------------------------------
# wire-shape discipline: explain / trace_context absent when unset
# ---------------------------------------------------------------------------


def test_wire_shapes_unchanged_when_obs_fields_unset():
    plain = QueryRequest(op="point", cell=[0, None])
    wire = plain.to_json()
    assert "explain" not in wire and "trace_context" not in wire

    ctx = TraceContext("ab" * 16, "cd" * 8)
    decorated = QueryRequest(op="point", cell=[0, None], explain=True, trace_context=ctx)
    wire = decorated.to_json()
    assert wire["explain"] is True
    assert wire["trace_context"] == ctx.to_json()
    parsed = QueryRequest.from_json(wire)
    assert parsed.explain is True
    assert parsed.trace_context == ctx


# ---------------------------------------------------------------------------
# the 2-shard HTTP fleet: the acceptance scenario
# ---------------------------------------------------------------------------


def test_fleet_dice_explain_returns_stitched_trace_and_shard_accounts(fleet):
    router, url, client = fleet
    get_tracer().buffer.clear()
    response = client.query(
        {"op": "dice", "predicates": {"1": [0, 1, 2]}, "explain": True}
    )
    assert response["value"] is not None
    account = response["explain"]
    assert account["op"] == "dice" and account["sharded"] is True
    assert account["routing"]["shards_touched"] == [0, 1]
    shards = {entry["shard"]: entry for entry in account["shards"]}
    assert set(shards) == {0, 1}
    for entry in shards.values():
        assert entry["tier"]["source"] in ("resident", "hot", "cold", "mixed")
        assert entry["elapsed_us"] > 0
    assert set(account["phases_us"]) == {"cache", "plan", "scatter", "merge"}

    # One stitched trace: the router's request span and both workers'
    # scatter spans share a single trace id.
    spans = get_tracer().buffer.spans()
    request_span = next(s for s in spans if s.name == "serve.request")
    shard_spans = [s for s in spans if s.name == "shard.scatter"]
    assert len(shard_spans) == 2
    assert {s.trace_id for s in shard_spans} == {request_span.trace_id}
    assert {s.attributes["shard"] for s in shard_spans} == {0, 1}


def test_traceparent_header_grafts_the_client_span(fleet):
    router, url, client = fleet
    get_tracer().buffer.clear()
    with get_tracer().span("client.op") as client_span:
        client.query({"op": "point", "cell": [0, 1, None, None]})
    request_span = next(
        s for s in get_tracer().buffer.spans() if s.name == "serve.request"
    )
    assert request_span.trace_id == client_span.trace_id
    assert request_span.parent_id == client_span.span_id


def test_body_trace_context_wins_over_header(fleet):
    router, url, client = fleet
    get_tracer().buffer.clear()
    body_ctx = TraceContext("ab" * 16, "cd" * 8)
    with get_tracer().span("client.op"):
        client.query(
            {
                "op": "point",
                "cell": [0, 1, None, None],
                "trace_context": body_ctx.to_json(),
            }
        )
    request_span = next(
        s for s in get_tracer().buffer.spans() if s.name == "serve.request"
    )
    assert request_span.trace_id == body_ctx.trace_id
    assert request_span.parent_id == body_ctx.span_id


def test_batch_explain_items_resolve_individually(fleet):
    router, url, client = fleet
    results = client.query_batch(
        [
            {"op": "point", "cell": [3, 0, None, None], "explain": True},
            {"op": "point", "cell": [1, 2, None, None]},
        ]
    )
    assert "explain" in results[0] and "explain" not in results[1]
    account = results[0]["explain"]
    if not account["cache_hit"]:  # an earlier test may have warmed the cell
        assert account["routing"]["shards_touched"] == [1]  # 3 % 2 shards


def test_router_metrics_federate_worker_series_with_shard_labels(fleet):
    router, url, client = fleet
    # Fresh cells: the router cache is module-scoped, and only a cache
    # miss scatters (and therefore touches the shard counters).
    client.query({"op": "dice", "predicates": {"2": [3, 4, 5]}})
    client.query_batch([{"op": "point", "cell": [None, None, 7, 7]}])
    raw = urllib.request.urlopen(url + "/metrics").read().decode()
    families = parse_prometheus_text(raw)  # strict: malformed output raises

    def shard_values(family):
        return {
            labels.get("shard")
            for _, labels, _ in families.get(family, {"samples": []})["samples"]
        }

    # Worker-side query kernels land with worker shard labels...
    worker_families = [
        f
        for f in ("repro_query_batch_size", "repro_query_postings_hits_total",
                  "repro_query_cuboid_map_hits_total")
        if shard_values(f) & {"0", "1"}
    ]
    assert worker_families, "no worker repro_query_* series federated"
    # ...the router's own per-shard series keep their original label...
    assert shard_values("repro_shard_requests_total") & {"0", "1"}
    # ...and router-local families are tagged shard="router".
    assert "router" in shard_values("repro_http_requests_total")


def test_metrics_scope_local_skips_federation(fleet):
    router, url, client = fleet
    client.query({"op": "point", "cell": [2, None, None, None]})
    raw = urllib.request.urlopen(url + "/metrics?scope=local").read().decode()
    families = parse_prometheus_text(raw)
    for _, labels, _ in families["repro_http_requests_total"]["samples"]:
        assert "shard" not in labels


def test_router_slowlog_entries_carry_trace_ids(fleet):
    router, url, client = fleet
    original = router.slow_log
    router.slow_log = SlowQueryLog(threshold=0.0)
    try:
        client.query({"op": "point", "cell": [0, None, None, None]})
        entries = json.loads(
            urllib.request.urlopen(url + "/slowlog").read()
        )["slow_queries"]
        assert entries
        entry = entries[-1]
        assert len(entry["trace_id"]) == 32 and len(entry["span_id"]) == 16
        # The ids match the request's span in the trace buffer.
        spans = {s.span_id: s for s in get_tracer().buffer.spans()}
        assert spans[entry["span_id"]].name == "serve.request"
    finally:
        router.slow_log = original


def test_scatter_envelope_backcompat_plain_list(fleet):
    router, _, _ = fleet
    # The historical positional call (no trace, no explain) still answers
    # with a bare result list, not the envelope.
    reply = router._workers[0].call(
        "scatter", router.version, [("point", (0, 1, None, None))], timeout=30
    )
    assert isinstance(reply, list) and len(reply) == 1


def test_readyz_serving_and_refresh_phases(fleet):
    router, url, client = fleet
    body = client.readyz()
    assert body["ready"] is True and body["state"] == "serving"
    assert body["shards_live"] == 2
    router._refresh_phase = "prepare"
    try:
        body = client.readyz()  # a 503 comes back as the body, not an error
        assert body["ready"] is False and body["state"] == "refresh-prepare"
    finally:
        router._refresh_phase = None


def test_readyz_degrades_when_a_shard_dies():
    router = ShardRouter.from_table(
        uniform_table(400, N_DIMS, CARD, seed=3), n_shards=2
    )
    try:
        with CubeServer(router, port=0) as server:
            with HTTPCubeClient(server.url) as client:
                assert client.readyz()["ready"] is True
                router._workers[1].process.terminate()
                router._workers[1].process.join(timeout=10)
                body = client.readyz()
                assert body["ready"] is False
                assert body["state"] == "degraded"
                assert body["dead_shards"] == [1]
    finally:
        router.close()


def test_single_engine_readiness_and_explain():
    engine = QueryEngine.from_table(_columnar_table(seed=5, n_rows=3000))
    assert engine.readiness() == {"ready": True, "state": "serving", "version": 0}
    response = engine.execute(
        QueryRequest(op="point", cell=[0, 1, None, None], explain=True)
    )
    account = response["explain"]
    assert account["op"] == "point" and account["cache_hit"] is False
    assert account["tier"] == {"source": "resident"}
    assert account.get("postings_intersected", 0) >= 1
    assert "phases_us" in account
    # EXPLAIN responses are never served from (or poison) the cache ...
    again = engine.execute(
        QueryRequest(op="point", cell=[0, 1, None, None], explain=True)
    )
    # ... but the plain result the first call cached is visible to it.
    assert again["explain"]["cache_hit"] is True
    plain = engine.execute(QueryRequest(op="point", cell=[0, 1, None, None]))
    assert "explain" not in plain


def test_snapshot_engine_explain(tmp_path):
    # SnapshotEngine answers through the shared Engine pipeline with its
    # own EXPLAIN extras (tier, snapshot path); this once crashed on a
    # missing _execute_explain, when the read path was borrowed method
    # by method.
    from repro.store import SnapshotEngine, write_snapshot

    table = _columnar_table(seed=11, n_rows=3000)
    resident = QueryEngine.from_table(table, cache_capacity=0)
    snap = resident.snapshot()
    path = tmp_path / "cube.snapshot"
    write_snapshot(snap.cube, path, snap.schema, rows_absorbed=table.n_rows)
    with SnapshotEngine(path) as engine:
        request = QueryRequest(op="point", cell=[0, 1, None, None], explain=True)
        response = engine.execute(request)
        account = response["explain"]
        assert account["engine"] == "snapshot"
        assert account["tier"]["source"] in {"hot", "cold"}
        assert account["snapshot_bytes_faulted"] >= 0
        assert response["value"] == resident.execute(
            QueryRequest(op="point", cell=[0, 1, None, None])
        )["value"]
        batch = engine.execute_batch(
            [QueryRequest(op="point", cell=[2, None, None, None], explain=True)]
        )
        assert batch[0]["explain"]["engine"] == "snapshot"
