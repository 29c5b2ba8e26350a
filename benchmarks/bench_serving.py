"""Serving-path benchmarks: cached vs uncached queries, HTTP round trips.

The serving layer's pitch is that a small LRU cache in front of the
range-cube index absorbs the hot head of a Zipf-skewed query stream.
This module measures that directly: the same skewed batch of point
queries drained through

* an engine with the cache disabled (every query reaches the index),
* an engine with a warm cache (the head is a dict hit),
* the JSON/HTTP front end (adds transport cost on top).

Run under pytest-benchmark like the other bench modules, or standalone
as a CI smoke check that also verifies the cached path is at least
``MIN_SPEEDUP``x the uncached one, and that a refresh — a 256-row
append followed by the apex read — is at least ``MIN_REFRESH_SPEEDUP``x
faster than re-emitting the cube from the trie, as every append did
before the engine served a row delta::

    PYTHONPATH=src python benchmarks/bench_serving.py --quick

The full standalone run also times what the row delta adds to a read
miss at sizes up to the compaction cap (reported, not gated), and writes
``BENCH_serving.json``.
"""

import json
import statistics
import time

import numpy as np

from repro.core.incremental import IncrementalRangeCuber
from repro.data.correlated import FunctionalDependency, correlated_table
from repro.data.synthetic import zipf_probabilities
from repro.serve import CubeServer, HTTPCubeClient, QueryEngine, QueryRequest
from repro.serve.engine import COMPACT_MAX_ROWS, CubeVersion, RowDelta
from repro.table.aggregates import default_aggregator
from repro.table.base_table import BaseTable
from repro.tune import TuningPlan, resolve_plan

try:
    from benchmarks.conftest import PRESET, cached_zipf, run_once
    from benchmarks.provenance import provenance
except ModuleNotFoundError:  # executed as a script: put the repo root on the path
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    from benchmarks.conftest import PRESET, cached_zipf, run_once
    from benchmarks.provenance import provenance

#: The acceptance floor for the cached:uncached throughput ratio.
MIN_SPEEDUP = 5.0

#: The acceptance floor for the re-emit:delta refresh time ratio.
MIN_REFRESH_SPEEDUP = 10.0

#: The refresh workload: the end-to-end benchmark's ingest table shape
#: (8 dims, cardinality 100, Zipf 1.5, d0 -> {d1, d2}, d4 -> {d5, d6, d7}),
#: 20k base rows (6k with ``--quick``), 256-row appends.
REFRESH_DIMS = 8
REFRESH_CARD = 100
REFRESH_THETA = 1.5
REFRESH_FDS = (
    FunctionalDependency((0,), (1, 2)),
    FunctionalDependency((4,), (5, 6, 7)),
)
REFRESH_ROWS = {"quick": 6_000, "full": 20_000}
APPEND_ROWS = 256
#: Timed appends per side: under the compaction threshold at both sizes,
#: so every one is a delta refresh.
APPENDS = 5
#: Row-delta sizes at which the full run times a read miss's delta
#: cost, up to the compaction cap, and the reads it times.
DELTA_SIZES = (256, 1024, 2048, 4096, COMPACT_MAX_ROWS)
DELTA_READS = 500

SCALES = {
    "quick": {"n_rows": 1000, "n_dims": 5, "cardinality": 20, "n_queries": 2000},
    "tiny": {"n_rows": 1500, "n_dims": 5, "cardinality": 25, "n_queries": 5000},
    "small": {"n_rows": 5000, "n_dims": 5, "cardinality": 50, "n_queries": 20000},
}
PARAMS = SCALES["small" if PRESET == "small" else "tiny"]

_CACHE: dict = {}


def make_queries(table, n_queries: int, pool_size: int = 128, theta: float = 1.1):
    """A Zipf-skewed batch of point-query requests over real base rows.

    Cells come from actual tuples (projected to 1..3 bound dims) so the
    uncached path does real index work instead of missing everywhere.
    """
    import numpy as np

    rng = np.random.default_rng(11)
    rows = table.dim_codes
    pool = []
    for i in range(pool_size):
        row = rows[int(rng.integers(0, rows.shape[0]))]
        n_bound = int(rng.integers(1, table.n_dims + 1))
        bound = rng.choice(table.n_dims, size=n_bound, replace=False)
        cell = [None] * table.n_dims
        for d in bound:
            cell[int(d)] = int(row[int(d)])
        pool.append({"op": "point", "cell": cell})
    popularity = zipf_probabilities(pool_size, theta)
    picks = rng.choice(pool_size, size=n_queries, p=popularity)
    return [pool[int(i)] for i in picks]


def fixture():
    if not _CACHE:
        table = cached_zipf(
            PARAMS["n_rows"], PARAMS["n_dims"], PARAMS["cardinality"], 1.2
        )
        _CACHE.update(
            table=table, queries=make_queries(table, PARAMS["n_queries"])
        )
    return _CACHE


def drain(engine: QueryEngine, queries) -> int:
    hits = 0
    for request in queries:
        if engine.execute(request)["value"] is not None:
            hits += 1
    return hits


def drain_http(client: HTTPCubeClient, queries) -> int:
    hits = 0
    for request in queries:
        if client.query(request)["value"] is not None:
            hits += 1
    return hits


def test_point_queries_uncached(benchmark):
    f = fixture()
    engine = QueryEngine.from_table(f["table"], cache_capacity=0)
    engine.point([None] * f["table"].n_dims)  # build the index outside timing
    hits = run_once(benchmark, drain, engine, f["queries"])
    benchmark.extra_info.update(path="uncached", queries=len(f["queries"]), hits=hits)


def test_point_queries_cached(benchmark):
    f = fixture()
    engine = QueryEngine.from_table(f["table"], cache_capacity=4096)
    drain(engine, f["queries"])  # warm the cache
    hits = run_once(benchmark, drain, engine, f["queries"])
    stats = engine.cache.stats()
    benchmark.extra_info.update(
        path="cached", queries=len(f["queries"]), hits=hits,
        hit_rate=round(stats.hit_rate, 4),
    )


def test_point_queries_http(benchmark):
    f = fixture()
    engine = QueryEngine.from_table(f["table"], cache_capacity=4096)
    queries = f["queries"][: max(len(f["queries"]) // 10, 100)]
    with CubeServer(engine, port=0) as server:
        client = HTTPCubeClient(server.url)
        drain_http(client, queries)  # warm cache + connection
        hits = run_once(benchmark, drain_http, client, queries)
        client.close()
    benchmark.extra_info.update(path="http-cached", queries=len(queries), hits=hits)


# ----------------------------------------------------------------------
# standalone smoke mode (CI): print throughputs, enforce the speedup floor
# ----------------------------------------------------------------------


def _timed(fn, *args) -> tuple[int, float]:
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def measure_refresh(n_rows: int) -> dict:
    """Median refresh ms: the engine's delta path against a re-emit per append.

    Both sides absorb the same base and the same 256-row batches; each
    refresh ends with the apex read.  The reference is a refresh as the
    engine did it before serving a row delta: absorb, Algorithm 2 over
    the whole trie (``IncrementalRangeCuber.cube``), ``to_columnar`` and
    the apex lookup.  Integer measures make the two apex answers equal.
    """
    table = correlated_table(
        n_rows + APPENDS * APPEND_ROWS, REFRESH_DIMS, REFRESH_CARD, REFRESH_FDS,
        theta=REFRESH_THETA, seed=17,
    )
    measures = np.floor(table.measures * 100)
    base = BaseTable(table.schema, table.dim_codes[:n_rows], measures[:n_rows])
    batches = [
        (table.dim_codes[lo:lo + APPEND_ROWS].tolist(),
         measures[lo:lo + APPEND_ROWS].tolist())
        for lo in range(n_rows, n_rows + APPENDS * APPEND_ROWS, APPEND_ROWS)
    ]
    apex = [None] * REFRESH_DIMS

    engine = QueryEngine.from_table(base)
    request = QueryRequest(op="point", cell=apex)
    engine.execute(request)
    delta_s, delta_apex = [], []
    for rows, meas in batches:
        start = time.perf_counter()
        engine.append(rows, meas)
        answer = engine.execute(request)["value"]
        delta_s.append(time.perf_counter() - start)
        delta_apex.append(answer)

    # The engine's own construction: the auto-planned trie order.
    aggregator = default_aggregator(base.n_measures)
    plan, order = resolve_plan(base, "auto")
    if plan is None and order is not None:
        plan = TuningPlan(order, source="fixed")
    cuber = IncrementalRangeCuber(REFRESH_DIMS, aggregator, plan=plan)
    cuber.insert_table(base)
    emit_s, emit_apex = [], []
    for rows, meas in batches:
        start = time.perf_counter()
        cuber.insert_batch(rows, meas)
        cube = cuber.cube()
        cube.to_columnar()
        answer = aggregator.finalize(cube.lookup(apex))
        emit_s.append(time.perf_counter() - start)
        emit_apex.append(answer)
    if delta_apex != emit_apex:
        raise AssertionError(f"apex answers differ: {delta_apex} vs {emit_apex}")
    refresh_ms = statistics.median(delta_s) * 1e3
    reference_ms = statistics.median(emit_s) * 1e3
    return {
        "n_rows": n_rows,
        "n_dims": REFRESH_DIMS,
        "cardinality": REFRESH_CARD,
        "append_rows": APPEND_ROWS,
        "appends": APPENDS,
        "compactions": engine.stats()["compactions"],
        "refresh_ms": round(refresh_ms, 3),
        "reference_ms": round(reference_ms, 3),
        "speedup": round(reference_ms / refresh_ms, 2),
    }


def measure_delta_reads(n_rows: int) -> dict:
    """What the row delta adds to a read miss, by delta size.

    Reads off real rows: points binding one to four dimensions, every
    fifth a drill-down and every fifth a three-code dice on the next
    free dimension.  Each read resolves against the base alone and then
    against the same base plus the delta, five times over; the best of
    each side counts, so host noise lands on neither.
    """
    table = correlated_table(
        n_rows + COMPACT_MAX_ROWS, REFRESH_DIMS, REFRESH_CARD, REFRESH_FDS,
        theta=REFRESH_THETA, seed=29,
    )
    measures = np.floor(table.measures * 100)
    codes = table.dim_codes
    engine = QueryEngine.from_table(
        BaseTable(table.schema, codes[:n_rows], measures[:n_rows]), cache_capacity=0
    )
    rng = np.random.default_rng(7)
    items = []
    for i, k in enumerate(rng.integers(1, 5, DELTA_READS).tolist()):
        row = codes[rng.integers(n_rows)]
        dims = rng.permutation(REFRESH_DIMS).tolist()
        cell = tuple(int(row[d]) if d in dims[:k] else None for d in range(REFRESH_DIMS))
        if i % 5 == 3:
            items.append(("children", cell, dims[k]))
        elif i % 5 == 4:
            picks = codes[rng.integers(n_rows, size=3), dims[k]]
            items.append(("dice", cell, {dims[k]: sorted(set(picks.tolist()))}))
        else:
            items.append(("point", cell))
    base = engine.snapshot()
    for item in items:  # warm the base's cuboid memos
        base.resolve([item])
    delta = RowDelta.empty(base.cube.aggregator, REFRESH_DIMS, 1)
    sizes = []
    for size in DELTA_SIZES:
        lo = len(delta)
        delta = delta.extend(codes[n_rows + lo:n_rows + size].tolist(),
                             measures[n_rows + lo:n_rows + size].tolist())
        version = CubeVersion(1, base.cube, base.schema, delta)
        alone, added = [], []
        for item in items:
            best = [float("inf")] * 2
            for _ in range(5):
                start = time.perf_counter()
                base.resolve([item])
                mid = time.perf_counter()
                version.resolve([item])
                end = time.perf_counter()
                best = [min(best[0], mid - start), min(best[1], end - mid)]
            alone.append(best[0])
            added.append(best[1] - best[0])
        sizes.append({
            "delta_rows": size,
            "base_mean_us": round(statistics.mean(alone) * 1e6, 1),
            "added_mean_us": round(statistics.mean(added) * 1e6, 1),
            "added_p90_us": round(float(np.percentile(added, 90)) * 1e6, 1),
        })
    return {"n_rows": n_rows, "reads": DELTA_READS, "sizes": sizes}


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smallest scale (the CI smoke job)"
    )
    args = parser.parse_args(argv)
    params = SCALES["quick"] if args.quick else PARAMS

    table = cached_zipf(params["n_rows"], params["n_dims"], params["cardinality"], 1.2)
    queries = make_queries(table, params["n_queries"])
    print(
        f"serving bench: {table.n_rows} rows x {table.n_dims} dims, "
        f"{len(queries)} point queries (zipf-skewed over 128 distinct)"
    )

    from repro.obs import is_enabled, set_enabled

    # The floor compares raw engine paths, so telemetry is switched off
    # around the timed drains (it is measured separately below — the
    # per-query cost of metrics + spans is its own number, not a tax
    # silently folded into the cache speedup).
    was_enabled = is_enabled()
    set_enabled(False)
    try:
        uncached = QueryEngine.from_table(table, cache_capacity=0)
        uncached.point([None] * table.n_dims)
        _, cold_once = _timed(drain, uncached, queries)  # warm interpreter caches
        hits, cold = _timed(drain, uncached, queries)

        cached = QueryEngine.from_table(table, cache_capacity=4096)
        drain(cached, queries)
        _, warm = _timed(drain, cached, queries)
        hit_rate = cached.cache.stats().hit_rate

        set_enabled(True)
        drain(cached, queries)  # warm the instrumented path once
        _, warm_obs = _timed(drain, cached, queries)
        set_enabled(False)
        refresh = measure_refresh(REFRESH_ROWS["quick" if args.quick else "full"])
    finally:
        set_enabled(was_enabled)

    n = len(queries)
    speedup = cold / warm if warm else float("inf")
    print(f"uncached: {n / cold:>12,.0f} queries/s  ({cold * 1e6 / n:.1f}us/query)")
    print(
        f"cached:   {n / warm:>12,.0f} queries/s  ({warm * 1e6 / n:.1f}us/query, "
        f"{100 * hit_rate:.1f}% hit rate)"
    )
    print(
        f"cached+obs: {n / warm_obs:>10,.0f} queries/s  "
        f"({warm_obs * 1e6 / n:.1f}us/query, telemetry enabled; "
        f"+{max(warm_obs - warm, 0) * 1e6 / n:.1f}us/query)"
    )
    print(f"speedup: {speedup:.1f}x (floor {MIN_SPEEDUP:g}x); {hits} non-empty")
    print(
        f"refresh: {refresh['n_rows']:,} rows + {APPEND_ROWS}-row appends, "
        f"delta {refresh['refresh_ms']:.2f}ms vs re-emit {refresh['reference_ms']:.1f}ms "
        f"= {refresh['speedup']:.1f}x (floor {MIN_REFRESH_SPEEDUP:g}x)"
    )
    if not args.quick:
        delta_reads = measure_delta_reads(REFRESH_ROWS["full"])
        for size in delta_reads["sizes"]:
            print(
                f"delta {size['delta_rows']:>5,} rows: +{size['added_mean_us']:.1f}us "
                f"mean (p90 +{size['added_p90_us']:.1f}us) per read miss over "
                f"{size['base_mean_us']:.1f}us on the base alone"
            )
        with open("BENCH_serving.json", "w") as fh:
            json.dump(
                {
                    "benchmark": "serving",
                    "provenance": provenance(),
                    "theta": REFRESH_THETA,
                    "dependencies": [
                        [list(f.source_dims), list(f.target_dims)] for f in REFRESH_FDS
                    ],
                    **refresh,
                    "min_speedup_floor": MIN_REFRESH_SPEEDUP,
                    "cached": {
                        "n_rows": table.n_rows,
                        "queries": n,
                        "uncached_us": round(cold * 1e6 / n, 2),
                        "cached_us": round(warm * 1e6 / n, 2),
                        "speedup": round(speedup, 2),
                        "min_speedup_floor": MIN_SPEEDUP,
                    },
                    "delta_reads": delta_reads,
                },
                fh,
                indent=2,
            )
            fh.write("\n")
        print("wrote BENCH_serving.json")
    if speedup < MIN_SPEEDUP:
        print("FAIL: cached path below the speedup floor")
        return 1
    if refresh["speedup"] < MIN_REFRESH_SPEEDUP:
        print("FAIL: delta refresh below the refresh speedup floor")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
