"""End-to-end tests for the JSON/HTTP serving front end."""

import json
import threading

import pytest

from repro.serve import CubeServer, HTTPCubeClient, QueryEngine
from repro.serve.engine import ServeError

from tests.conftest import make_paper_table


@pytest.fixture
def served():
    engine = QueryEngine.from_table(make_paper_table())
    with CubeServer(engine, port=0) as server:
        client = HTTPCubeClient(server.url)
        yield engine, server, client
        client.close()


def test_healthz_and_stats(served):
    engine, _, client = served
    assert client.healthz() == {"status": "ok", "version": 0}
    stats = client.stats()
    assert stats["version"] == 0 and stats["n_ranges"] == engine.stats()["n_ranges"]


def test_query_matches_in_process_response(served):
    engine, _, client = served
    for request in (
        {"op": "point", "cell": [0, None, None, None]},
        {"op": "rollup", "cell": [0, 0, None, None], "dim": "city"},
        {"op": "drilldown", "cell": [0, None, None, None], "dim": 2},
        {"op": "slice", "cell": [None, 0, 0, None]},
        {"op": "point", "bindings": {"store": 0, "date": 1}},
    ):
        over_http = client.query(request)
        direct = engine.execute(request)
        # JSON round-trips tuples to lists; normalize the oracle the same way.
        expected = json.loads(json.dumps(direct))
        over_http.pop("cached")
        expected.pop("cached")
        assert over_http == expected


def test_append_over_http_refreshes_the_cube(served):
    engine, _, client = served
    before = client.point((0, 0, 0, 0))
    result = client.append([[0, 0, 0, 0]], [[900.0]])
    assert result == {"version": 1, "rows": 1}
    assert engine.version == 1
    after = client.point((0, 0, 0, 0))
    assert after != before


def test_bad_requests_return_400_as_serve_error(served):
    _, _, client = served
    for request in (
        {"op": "cube"},
        {"op": "point", "cell": [0]},
        {"op": "point", "cell": [0, None, None, -1]},
    ):
        with pytest.raises(ServeError):
            client.query(request)
    with pytest.raises(ServeError):
        client.append([[0, 0]], None)  # wrong arity
    with pytest.raises(ServeError):
        client.append("nope", None)  # rows must be a list


def test_unknown_endpoints_and_malformed_bodies(served):
    _, server, client = served
    with pytest.raises(ServeError, match="no such endpoint"):
        client._request("GET", "/nope")
    with pytest.raises(ServeError, match="no such endpoint"):
        client._request("POST", "/nope", {})
    # A raw non-JSON body comes back 400, not a server crash.
    import http.client

    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request(
            "POST", "/query", body=b"not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400 and "invalid JSON" in payload["error"]["message"]
        assert payload["error"]["code"] == "bad_request"
    finally:
        conn.close()


def _raw_get(server, path):
    import http.client

    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.headers.get("Content-Type", ""), response.read()
    finally:
        conn.close()


def test_unknown_get_returns_structured_404_json(served):
    _, server, _ = served
    status, content_type, body = _raw_get(server, "/definitely-not-an-endpoint")
    assert status == 404
    assert content_type.startswith("application/json")
    payload = json.loads(body)
    assert payload == {
        "error": {
            "code": "not_found",
            "message": "no such endpoint: GET /definitely-not-an-endpoint",
            "retryable": False,
        }
    }


def test_metrics_endpoint_serves_prometheus_text(served):
    from repro.obs import parse_prometheus_text

    _, server, client = served
    client.query({"op": "point", "cell": [0, None, None, None]})
    status, content_type, body = _raw_get(server, "/metrics")
    assert status == 200
    assert content_type.startswith("text/plain")
    assert "version=0.0.4" in content_type
    families = parse_prometheus_text(body.decode("utf-8"))  # raises if malformed
    for family in ("repro_requests_total", "repro_request_seconds",
                   "repro_cache_entries", "repro_http_requests_total"):
        assert family in families


def test_trace_endpoint_spans_and_chrome_format(served):
    _, server, client = served
    client.query({"op": "point", "cell": [0, None, None, None]})
    status, content_type, body = _raw_get(server, "/trace")
    assert status == 200 and content_type.startswith("application/json")
    spans = json.loads(body)["spans"]
    assert any(s["name"] == "serve.request" for s in spans)

    status, _, body = _raw_get(server, "/trace?format=chrome&limit=10")
    assert status == 200
    trace = json.loads(body)
    assert len(trace["traceEvents"]) <= 10
    assert all(e["ph"] == "X" for e in trace["traceEvents"])

    status, _, body = _raw_get(server, "/trace?limit=nope")
    assert status == 400 and "limit" in json.loads(body)["error"]["message"]


def test_slowlog_endpoint(served):
    engine, server, client = served
    engine.slow_log.threshold = 0.0  # everything is "slow"
    try:
        client.query({"op": "point", "cell": [0, None, None, None]})
    finally:
        engine.slow_log.threshold = 10.0
    status, _, body = _raw_get(server, "/slowlog")
    assert status == 200
    entries = json.loads(body)["slow_queries"]
    assert entries and entries[-1]["op"] == "point"
    assert entries[-1]["duration_s"] >= 0


def test_concurrent_http_clients(served):
    engine, server, _ = served
    n_clients, n_requests = 4, 25
    errors: list[Exception] = []
    cached_counts: list[int] = []
    barrier = threading.Barrier(n_clients)
    expected = json.loads(json.dumps(engine.point((0, None, None, None))))
    request = {"op": "point", "cell": [0, None, None, None]}

    def worker():
        try:
            cached = 0
            with HTTPCubeClient(server.url) as client:
                barrier.wait()
                for _ in range(n_requests):
                    response = client.query(request)
                    assert response["value"] == expected
                    cached += bool(response["cached"])
            cached_counts.append(cached)
        except Exception as exc:  # pragma: no cover - only on failure
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    # Only the very first request per client can race the initial miss.
    assert sum(cached_counts) >= n_clients * (n_requests - 1)


def test_stop_without_start_does_not_hang():
    engine = QueryEngine.from_table(make_paper_table())
    server = CubeServer(engine, port=0)
    server.stop()  # never started: must not deadlock


def test_double_start_rejected():
    engine = QueryEngine.from_table(make_paper_table())
    server = CubeServer(engine, port=0)
    try:
        server.start()
        with pytest.raises(RuntimeError):
            server.start()
    finally:
        server.stop()


def test_client_rejects_non_http_urls():
    with pytest.raises(ValueError):
        HTTPCubeClient("ftp://example.com")


#: Append bodies that must come back ``bad_request`` without absorbing a
#: row: a string measure, a null measure, a flat measure list, flat rows.
MALFORMED_APPENDS = [
    {"rows": [[0, 0, 0, 0]], "measures": [["x"]]},
    {"rows": [[0, 0, 0, 0]], "measures": [[None]]},
    {"rows": [[0, 0, 0, 0]], "measures": [1.0]},
    {"rows": [0, 0, 0, 0], "measures": [[1.0]]},
]


@pytest.mark.parametrize("tier", ["resident", "router"])
def test_malformed_append_bodies_are_typed_rejections(tier):
    import http.client

    from repro.serve import ShardRouter

    table = make_paper_table()
    engine = (
        QueryEngine.from_table(table) if tier == "resident"
        else ShardRouter.from_table(table, n_shards=2)
    )
    try:
        with CubeServer(engine, port=0) as server:
            for body in MALFORMED_APPENDS:
                conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
                try:
                    conn.request(
                        "POST", "/append", body=json.dumps(body).encode(),
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    payload = json.loads(response.read())
                finally:
                    conn.close()
                assert response.status == 400, (body, payload)
                assert payload["error"]["code"] == "bad_request", (body, payload)
                assert engine.version == 0
            assert engine.point([None] * 4)["count"] == table.n_rows
    finally:
        engine.close()
