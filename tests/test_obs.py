"""The telemetry subsystem: registry, tracing, slow log, end-to-end wiring."""

import json
import threading

import pytest

import repro.obs as obs
from repro.metrics.histogram import LatencyHistogram
from repro.obs import (
    MetricRegistry,
    SlowQueryLog,
    Tracer,
    get_registry,
    get_tracer,
    parse_prometheus_text,
    set_enabled,
)

from tests.conftest import make_paper_table


@pytest.fixture(autouse=True)
def clean_obs():
    """Tests share the process-wide registry/tracer; isolate their values."""
    obs.reset()
    set_enabled(True)
    yield
    obs.reset()
    set_enabled(True)


# ----------------------------------------------------------------------
# metric registry
# ----------------------------------------------------------------------


def test_counter_gauge_histogram_basics():
    registry = MetricRegistry()
    requests = registry.counter("requests_total", "Requests.", ("op",))
    requests.inc(op="point")
    requests.inc(2, op="slice")
    assert requests.value(op="point") == 1
    assert requests.value(op="slice") == 2
    with pytest.raises(ValueError):
        requests.inc(-1, op="point")
    with pytest.raises(ValueError):
        requests.inc(op="point", extra="nope")  # wrong label set

    depth = registry.gauge("depth", "Depth.")
    depth.set(5)
    depth.dec()
    assert depth.value() == 4

    seconds = registry.histogram("seconds", "Latency.", ("op",))
    for value in (0.001, 0.002, 0.004):
        seconds.observe(value, op="point")
    assert seconds.value(op="point") == 3  # histogram value() is the count
    assert 0.0005 < seconds.percentile(50, op="point") < 0.01


def test_registration_is_idempotent_and_mismatch_raises():
    registry = MetricRegistry()
    a = registry.counter("hits_total", "Hits.", ("op",))
    assert registry.counter("hits_total", "Hits.", ("op",)) is a
    with pytest.raises(ValueError):
        registry.gauge("hits_total", "Hits.", ("op",))  # kind mismatch
    with pytest.raises(ValueError):
        registry.counter("hits_total", "Hits.", ("other",))  # label mismatch
    with pytest.raises(ValueError):
        registry.counter("bad name", "Nope.")


def test_concurrent_increments_are_exact():
    registry = MetricRegistry()
    counter = registry.counter("n_total", "N.", ("who",))
    seconds = registry.histogram("s", "S.")
    n_threads, n_incs = 8, 2000
    barrier = threading.Barrier(n_threads)

    def worker(who: str) -> None:
        bound = counter.labels(who=who)
        barrier.wait()
        for _ in range(n_incs):
            bound.inc()
            counter.inc(who="shared")
            seconds.observe(0.001)

    threads = [threading.Thread(target=worker, args=(f"t{i}",)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter.value(who="shared") == n_threads * n_incs
    for i in range(n_threads):
        assert counter.value(who=f"t{i}") == n_incs
    assert seconds.value() == n_threads * n_incs


def test_registry_to_dict_merge_roundtrip():
    worker = MetricRegistry()
    worker.counter("jobs_total", "Jobs.", ("kind",)).inc(3, kind="build")
    worker.gauge("level", "Level.").set(2)
    hist = worker.histogram("lat", "Lat.")
    hist.observe(0.01)
    hist.observe(0.02)

    parent = MetricRegistry()
    parent.counter("jobs_total", "Jobs.", ("kind",)).inc(kind="build")
    parent.merge(worker.to_dict())
    parent.merge(worker.to_dict())
    assert parent.get("jobs_total").value(kind="build") == 7
    assert parent.get("level").value() == 4  # gauges add on merge
    assert parent.get("lat").value() == 4


def test_latency_histogram_dict_roundtrip():
    hist = LatencyHistogram()
    for value in (0.0001, 0.001, 0.01, 0.1, 1.0):
        hist.record(value)
    clone = LatencyHistogram.from_dict(hist.to_dict())
    assert clone.count == hist.count
    assert clone.total == pytest.approx(hist.total)
    assert clone._buckets == hist._buckets
    for p in (50, 95, 99):
        assert clone.percentile(p) == hist.percentile(p)
    empty = LatencyHistogram.from_dict(LatencyHistogram().to_dict())
    assert empty.count == 0 and empty.to_dict()["min"] is None


def test_collector_runs_at_scrape_and_dead_ones_drop():
    registry = MetricRegistry()
    gauge = registry.gauge("entries", "Entries.")
    state = {"entries": 7, "dead": False}

    def collect():
        if state["dead"]:
            raise LookupError
        gauge.set(state["entries"])

    registry.register_collector(collect)
    assert 'entries 7' in registry.render_prometheus()
    state["entries"] = 9
    assert 'entries 9' in registry.render_prometheus()
    state["dead"] = True
    registry.render_prometheus()  # drops the collector, does not raise
    state["dead"] = False
    state["entries"] = 11
    assert 'entries 9' in registry.render_prometheus()  # no longer collected


def test_prometheus_rendering_golden():
    registry = MetricRegistry()
    hits = registry.counter("cube_hits_total", "Cache hits.", ("op",))
    hits.inc(3, op="point")
    hits.inc(op='sl"ice\n')  # escaping
    registry.gauge("cube_version", "Version.").set(2)
    registry.histogram("lat_seconds", "Latency.", min_value=0.001, growth=10.0)
    assert registry.render_prometheus() == (
        '# HELP cube_hits_total Cache hits.\n'
        '# TYPE cube_hits_total counter\n'
        'cube_hits_total{op="point"} 3\n'
        'cube_hits_total{op="sl\\"ice\\n"} 1\n'
        '# HELP cube_version Version.\n'
        '# TYPE cube_version gauge\n'
        'cube_version 2\n'
        '# HELP lat_seconds Latency.\n'
        '# TYPE lat_seconds histogram\n'
    )


def test_prometheus_histogram_samples_are_cumulative_and_parse():
    registry = MetricRegistry()
    lat = registry.histogram("lat_seconds", "Latency.", ("op",))
    for value in (0.001, 0.001, 0.5):
        lat.observe(value, op="point")
    text = registry.render_prometheus()
    families = parse_prometheus_text(text)
    samples = families["lat_seconds"]["samples"]
    buckets = [(l["le"], v) for n, l, v in samples if n == "lat_seconds_bucket"]
    counts = [v for _, v in buckets]
    assert counts == sorted(counts)  # cumulative
    assert buckets[-1][0] == "+Inf" and buckets[-1][1] == 3
    assert next(v for n, _, v in samples if n == "lat_seconds_count") == 3
    assert next(v for n, _, v in samples if n == "lat_seconds_sum") == pytest.approx(
        0.502
    )


def test_parse_prometheus_text_rejects_malformed():
    for bad in (
        "# NOPE x y\n",
        "metric{op=point} 1\n",  # unquoted label value
        "metric 1 2 3\n",
        "metric nan-ish\n",
    ):
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------


def test_span_nesting_links_parent_and_trace_ids():
    tracer = Tracer()
    with tracer.span("root", kind="test") as root:
        with tracer.span("child") as child:
            with tracer.span("grandchild") as grandchild:
                pass
        with tracer.span("sibling") as sibling:
            pass
    assert child.parent_id == root.span_id
    assert grandchild.parent_id == child.span_id
    assert sibling.parent_id == root.span_id
    assert {s.trace_id for s in (root, child, grandchild, sibling)} == {root.trace_id}
    assert root.parent_id is None
    # Finished spans land innermost-first; durations nest.
    names = [s.name for s in tracer.buffer.spans()]
    assert names == ["grandchild", "child", "sibling", "root"]
    assert root.duration >= child.duration >= grandchild.duration

    with tracer.span("next-root") as other:
        pass
    assert other.trace_id != root.trace_id


def test_span_records_error_attribute():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("no")
    (span,) = tracer.buffer.spans()
    assert span.attributes["error"] == "RuntimeError"


def test_record_span_synthesizes_children():
    tracer = Tracer()
    with tracer.span("stage") as stage:
        tracer.record_span(
            "worker", start_wall=stage.start_wall, duration=0.25,
            attributes={"partition": 1}, parent=stage,
        )
    worker, recorded_stage = tracer.buffer.spans()
    assert worker.parent_id == recorded_stage.span_id
    assert worker.trace_id == recorded_stage.trace_id
    assert worker.duration == 0.25
    assert worker.attributes == {"partition": 1}


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    set_enabled(False)
    with tracer.span("invisible") as span:
        span.set_attribute("x", 1)  # noop span absorbs the protocol
    tracer.record_span("also-invisible", start_wall=0.0, duration=1.0)
    assert tracer.buffer.spans() == []


def test_trace_buffer_is_bounded_and_limit_keeps_newest():
    tracer = Tracer(capacity=4)
    for i in range(10):
        with tracer.span(f"s{i}"):
            pass
    names = [s.name for s in tracer.buffer.spans()]
    assert names == ["s6", "s7", "s8", "s9"]
    assert [s.name for s in tracer.buffer.spans(limit=2)] == ["s8", "s9"]


def test_chrome_export_schema():
    tracer = Tracer()
    with tracer.span("root", rows=6):
        with tracer.span("child"):
            pass
    trace = tracer.buffer.export_chrome()
    assert set(trace) == {"traceEvents", "displayTimeUnit"}
    assert len(trace["traceEvents"]) == 2
    for event in trace["traceEvents"]:
        assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
        assert event["ph"] == "X"
        assert event["ts"] > 1e15  # wall-clock microseconds
    root_event = next(e for e in trace["traceEvents"] if e["name"] == "root")
    assert root_event["args"]["rows"] == 6
    json.dumps(trace)  # must be directly serializable


# ----------------------------------------------------------------------
# slow-query log
# ----------------------------------------------------------------------


def test_slow_log_threshold_and_sampling():
    log = SlowQueryLog(threshold=0.01, capacity=8, sample=2)
    assert log.record(0.005, {"op": "point"}) is False  # under threshold
    for i in range(6):
        assert log.record(0.05, {"op": "point", "i": i}, op="point") is True
    assert log.seen == 6
    kept = log.entries()
    assert [e["request"]["i"] for e in kept] == [0, 2, 4]  # every 2nd retained
    assert kept[0]["op"] == "point" and kept[0]["duration_s"] == 0.05
    log.clear()
    assert log.seen == 0 and log.entries() == []


def test_slow_log_ring_is_bounded():
    log = SlowQueryLog(threshold=0.0, capacity=3)
    for i in range(10):
        log.record(1.0, {"i": i})
    assert [e["request"]["i"] for e in log.entries()] == [7, 8, 9]


def test_slow_log_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SlowQueryLog(threshold=-1)
    with pytest.raises(ValueError):
        SlowQueryLog(capacity=0)
    with pytest.raises(ValueError):
        SlowQueryLog(sample=0)


# ----------------------------------------------------------------------
# end-to-end wiring
# ----------------------------------------------------------------------


def test_served_query_produces_span_with_cache_hit_attribute():
    from repro.serve import QueryEngine, QueryRequest

    engine = QueryEngine.from_table(make_paper_table())
    tracer = get_tracer()
    tracer.buffer.clear()
    request = QueryRequest(op="point", cell=[0, None, None, None])
    engine.execute(request)
    engine.execute(request)
    spans = [s for s in tracer.buffer.spans() if s.name == "serve.request"]
    assert len(spans) == 2
    assert spans[0].attributes == {"op": "point", "cache_hit": False, "version": 0}
    assert spans[1].attributes["cache_hit"] is True
    requests = get_registry().get("repro_requests_total")
    assert requests.value(op="point") == 2
    assert get_registry().get("repro_cache_hits_total").value() == 1
    assert get_registry().get("repro_cache_misses_total").value() == 1
    assert get_registry().get("repro_request_seconds").value(op="point") == 2


def test_engine_collector_exposes_cache_and_version_gauges():
    from repro.serve import QueryEngine, QueryRequest

    engine = QueryEngine.from_table(make_paper_table())
    engine.execute(QueryRequest(op="point", cell=[0, None, None, None]))
    engine.append([[0, 0, 0, 0]], [[1.0]])
    text = get_registry().render_prometheus()
    families = parse_prometheus_text(text)
    by_family = {
        name: {tuple(sorted(l.items())): v for _, l, v in fam["samples"]}
        for name, fam in families.items()
    }
    key = (("engine", "default"),)
    assert by_family["repro_cube_version"][key] == 1
    assert by_family["repro_cache_entries"][key] >= 0
    assert by_family["repro_rows_resident"][key] == engine.stats()["rows_absorbed"]
    assert get_registry().get("repro_appends_total").value() == 1
    assert get_registry().get("repro_cube_refreshes_total").value() == 1


def test_disabled_obs_skips_serving_telemetry():
    from repro.serve import QueryEngine, QueryRequest

    engine = QueryEngine.from_table(make_paper_table())
    get_tracer().buffer.clear()
    set_enabled(False)
    engine.execute(QueryRequest(op="point", cell=[0, None, None, None]))
    assert get_registry().get("repro_requests_total").value(op="point") == 0
    assert [s for s in get_tracer().buffer.spans() if s.name == "serve.request"] == []


def test_range_cubing_emits_phase_spans_and_metrics():
    from repro.core.range_cubing import range_cubing_detailed

    tracer = get_tracer()
    tracer.buffer.clear()
    cube, stats = range_cubing_detailed(make_paper_table())
    spans = {s.name: s for s in tracer.buffer.spans()}
    root = spans["range_cubing"]
    for name in ("build", "sort", "group", "aggregate", "traverse", "stats"):
        assert spans[name].trace_id == root.trace_id
    assert spans["build"].parent_id == root.span_id
    assert spans["sort"].parent_id == spans["build"].span_id
    assert root.attributes["trie_nodes"] == stats["trie_nodes"]
    phase = get_registry().get("repro_build_phase_seconds")
    assert phase.value(phase="build") == 1
    assert phase.value(phase="traverse") == 1
    assert get_registry().get("repro_builds_total").value(strategy="bulk") == 1
    assert get_registry().get("repro_build_rows_total").value() == 6


def test_parallel_engine_folds_worker_timings():
    from repro.core.partitioned import parallel_range_cubing_detailed
    from repro.core.range_cubing import range_cubing

    table = make_paper_table()
    tracer = get_tracer()
    tracer.buffer.clear()
    cube, stats = parallel_range_cubing_detailed(
        table, executor="thread", workers=2, n_partitions=2
    )
    assert sorted((r.specific for r in cube.ranges), key=repr) == sorted(
        (r.specific for r in range_cubing(table).ranges), key=repr
    )
    spans = {s.name for s in tracer.buffer.spans()}
    assert {"parallel_range_cubing", "partition", "build", "merge", "cube"} <= spans
    workers = [s for s in tracer.buffer.spans() if s.name == "partition_build"]
    assert len(workers) == 2
    build_span = next(s for s in tracer.buffer.spans() if s.name == "build")
    assert all(w.parent_id == build_span.span_id for w in workers)
    assert sum(w.attributes["rows"] for w in workers) == table.n_rows
    folded = get_registry().get("repro_partition_build_seconds")
    assert folded.value(executor="thread") == 2
    assert get_registry().get("repro_partitions_built_total").value() == 2


def test_incremental_absorb_counts_by_path():
    from repro.core.incremental import IncrementalRangeCuber

    cuber = IncrementalRangeCuber(4, None)
    cuber.insert_batch([[0, 0, 0, 0]] * 4, [[1.0]] * 4, build_strategy="tuple")
    cuber.insert_batch([[0, 1, 2, 3]] * 100, [[1.0]] * 100, build_strategy="bulk")
    batches = get_registry().get("repro_absorb_batches_total")
    rows = get_registry().get("repro_absorb_rows_total")
    assert batches.value(path="tuple") == 1 and rows.value(path="tuple") == 4
    assert batches.value(path="bulk") == 1 and rows.value(path="bulk") == 100


def test_cli_trace_out_covers_the_build(tmp_path):
    from repro.cli import main as cli_main
    from repro.data.synthetic import zipf_table
    from repro.data.io import write_table_csv

    get_tracer().buffer.clear()
    csv = tmp_path / "t.csv"
    trace_path = tmp_path / "spans.json"
    write_table_csv(zipf_table(3000, 4, 30, 1.3, seed=5), str(csv))
    assert cli_main(["cube", str(csv), "--trace-out", str(trace_path)]) == 0

    trace = json.loads(trace_path.read_text())
    events = trace["traceEvents"]
    root = next(e for e in events if e["name"] == "cli.cube")
    cubing = next(e for e in events if e["name"] == "range_cubing")
    # The acceptance bar: the exported trace accounts for >= 95% of the
    # build's wall time, at both levels of the hierarchy.
    assert cubing["dur"] >= 0.95 * root["dur"]
    children = [
        e for e in events if e["args"].get("parent_id") == cubing["args"]["span_id"]
    ]
    assert sum(e["dur"] for e in children) >= 0.95 * cubing["dur"]


def test_workload_driver_reports_per_op_latency():
    from repro.serve import InProcessClient, QueryEngine, WorkloadDriver
    from repro.serve.workload import WorkloadMix

    engine = QueryEngine.from_table(make_paper_table())
    driver = WorkloadDriver(
        lambda: InProcessClient(engine),
        mix=WorkloadMix(point=0.5, rollup=0.5, drilldown=0.0, slice=0.0),
        pool_size=8,
        seed=1,
    )
    report = driver.run(clients=2, requests_per_client=20)
    assert set(report.op_latency) <= {"point", "rollup", "append"}
    assert sum(h.count for h in report.op_latency.values()) == report.total_requests
    assert "point" in report.format()
    workload = get_registry().get("repro_workload_latency_seconds")
    assert workload.value(op="point") == report.op_latency["point"].count
