"""Snapshot benchmark: restart latency and out-of-core query cost.

The snapshot subsystem's claim (see ``docs/persistence.md``) is that a
serving restart should not pay the cube again: loading a memory-mapped
column snapshot is I/O-metadata work, while the classic ``CubeStore``
path re-parses the trie JSON and re-emits every range.  This measures

* **cold start** — engine construction plus the first answered (apex)
  query, for the JSON trie store vs the mmap snapshot of the same cube;
* **cold-mask queries** — batched point lookups through a
  :class:`~repro.store.SnapshotEngine` whose tier policy is pinned cold
  (a resident budget far below the mapped columns, so every group runs
  off the mapped postings), against the same engine fully promoted.

Answers are verified identical between the two engines before anything
is timed.

Run under pytest-benchmark like the other bench modules, or standalone
as a CI smoke check that enforces a ``MIN_SPEEDUP``x cold-start floor
for the snapshot path at the largest correlated point::

    PYTHONPATH=src python benchmarks/bench_snapshot.py --quick

The standalone mode writes its series to ``BENCH_snapshot.json``
(committed at the repo root; see ``docs/persistence.md``).
"""

import atexit
import json
import shutil
import tempfile
import time
from pathlib import Path

from repro.serve.protocol import QueryRequest
from repro.serve.store import CubeStore
from repro.store import SnapshotEngine, write_snapshot
from repro.table.schema import Dimension, Schema

try:
    from benchmarks.conftest import PRESET, cached_zipf, run_once
    from benchmarks.provenance import provenance
except ModuleNotFoundError:  # executed as a script: put the repo root on the path
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    from benchmarks.conftest import PRESET, cached_zipf, run_once
    from benchmarks.provenance import provenance

# The correlated workload and query mix of the point-query bench, so the
# two benches describe the same cube from the build and restart sides.
from benchmarks.bench_point_queries import (  # noqa: E402
    FDS,
    N_DIMS,
    THETA,
    corr_table,
    make_queries,
)

#: Acceptance floor: the snapshot cold start must beat the JSON trie
#: load by this factor at the largest correlated point.
MIN_SPEEDUP = 10.0

#: (n_rows, cardinality) series per preset; the CI smoke job runs
#: "quick" and enforces the floor at its 100k-row point.
POINTS = {
    "quick": [(10_000, 50), (100_000, 100)],
    "tiny": [(10_000, 50), (100_000, 100)],
    "small": [(30_000, 100), (100_000, 100), (300_000, 200)],
}
SERIES = POINTS["small" if PRESET == "small" else "tiny"]

#: Resident-bytes budget for the pinned-cold engine: far below the
#: mapped column bytes at every measured point, so the tier policy can
#: never promote a cuboid map and every batch runs out of core.
COLD_BUDGET = 64 * 1024

#: Point queries per measured batch in the cold-mask measurement.
MASK_QUERIES = 1024

SCALES = {
    "tiny": {"n_rows": 400, "n_dims": 4, "cardinality": 20},
    "small": {"n_rows": 2000, "n_dims": 5, "cardinality": 50},
}
PARAMS = SCALES["small" if PRESET == "small" else "tiny"]

_CACHE: dict = {}


def _pinned_schema(table) -> Schema:
    return Schema(
        tuple(
            Dimension(d.name, int(c) if c else table.distinct_count(i))
            for i, (d, c) in enumerate(
                zip(table.schema.dimensions, table.schema.cardinalities)
            )
        ),
        table.schema.measures,
    )


def _workdir() -> Path:
    root = Path(tempfile.mkdtemp(prefix="repro-bench-snapshot-"))
    atexit.register(shutil.rmtree, root, ignore_errors=True)
    return root


def _stores_for(table, root: Path) -> tuple[CubeStore, Path]:
    """The same cube twice: a JSON trie store entry and a snapshot dir."""
    store = CubeStore(root)
    stored = store.create("bench", table, overwrite=True)
    snap = root / "bench.mmap"
    write_snapshot(
        stored.cuber.cube(stored.min_support),
        snap,
        _pinned_schema(table),
        min_support=stored.min_support,
        rows_absorbed=table.n_rows,
    )
    return store, snap


def _close(engine) -> None:
    if hasattr(engine, "close"):
        engine.close()


def _json_cold(store: CubeStore, n_dims: int):
    engine = store.open_engine("bench", cache_capacity=0)
    engine.point([None] * n_dims)
    return engine


def _snapshot_cold(snap: Path, n_dims: int):
    engine = SnapshotEngine(snap, cache_capacity=0)
    engine.point([None] * n_dims)
    return engine


def _best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def fixture():
    if not _CACHE:
        table = cached_zipf(
            PARAMS["n_rows"], PARAMS["n_dims"], PARAMS["cardinality"], 1.2
        )
        store, snap = _stores_for(table, _workdir())
        _CACHE.update(table=table, store=store, snap=snap)
    return _CACHE


def test_cold_start_json(benchmark):
    """Restart through the trie JSON: parse, re-emit, answer the apex."""
    f = fixture()
    n_dims = f["table"].n_dims
    engine = run_once(benchmark, lambda: _json_cold(f["store"], n_dims))
    benchmark.extra_info.update(path="json-trie", n_ranges=engine.stats()["n_ranges"])
    _close(engine)


def test_cold_start_snapshot(benchmark):
    """Restart through the snapshot: mmap the columns, answer the apex."""
    f = fixture()
    n_dims = f["table"].n_dims
    engine = run_once(benchmark, lambda: _snapshot_cold(f["snap"], n_dims))
    benchmark.extra_info.update(
        path="mmap-snapshot",
        n_ranges=engine.stats()["n_ranges"],
        mapped_kib=round(engine.store.nbytes() / 1024, 1),
    )
    _close(engine)


# ----------------------------------------------------------------------
# standalone smoke mode (CI): verify identity, enforce the cold-start floor
# ----------------------------------------------------------------------


def verify_identity(store: CubeStore, snap: Path, queries) -> int:
    """Both engines answer every probe cell identically (run before timing)."""
    json_engine = store.open_engine("bench", cache_capacity=0)
    snap_engine = SnapshotEngine(snap, cache_capacity=0)
    hits = 0
    try:
        for cell in queries:
            expect = json_engine.point(list(cell))
            got = snap_engine.point(list(cell))
            if expect != got:
                raise AssertionError(
                    f"json and snapshot engines disagree on {cell}: "
                    f"{expect!r} != {got!r}"
                )
            if got is not None:
                hits += 1
    finally:
        _close(json_engine)
        _close(snap_engine)
    return hits


def measure_cold_start(store: CubeStore, snap: Path, n_dims: int) -> dict:
    json_s = _best_of(lambda: _close(_json_cold(store, n_dims)), rounds=2)
    snap_s = _best_of(lambda: _close(_snapshot_cold(snap, n_dims)))
    return {
        "json_cold_seconds": round(json_s, 4),
        "snapshot_cold_seconds": round(snap_s, 4),
        "speedup": round(json_s / snap_s if snap_s else float("inf"), 2),
    }


def measure_mask_latency(snap: Path, queries) -> dict:
    """Batched point queries: tier pinned cold vs fully promoted."""
    requests = [QueryRequest(op="point", cell=list(c)) for c in queries]
    cold = SnapshotEngine(
        snap, cache_capacity=0, budget_bytes=COLD_BUDGET, promote_after=1 << 30
    )
    cold.execute_batch(requests)  # page the columns in once
    cold_s = _best_of(lambda: cold.execute_batch(requests))
    cold_tier = cold.tier_stats()
    _close(cold)
    hot = SnapshotEngine(snap, cache_capacity=0, promote_after=1)
    hot.execute_batch(requests)  # promote every mask the batch touches
    hot_s = _best_of(lambda: hot.execute_batch(requests))
    hot_tier = hot.tier_stats()
    mapped = hot.store.nbytes()
    _close(hot)
    assert cold_tier["resident_bytes"] <= COLD_BUDGET, cold_tier
    return {
        "column_bytes": mapped,
        "cold_budget_bytes": COLD_BUDGET,
        "cold_us_per_query": round(cold_s / len(queries) * 1e6, 3),
        "hot_us_per_query": round(hot_s / len(queries) * 1e6, 3),
        "cold_tier": cold_tier,
        "hot_tier": hot_tier,
    }


def measure_point(n_rows: int, cardinality: int, root: Path) -> dict:
    table = corr_table(n_rows, cardinality)
    store, snap = _stores_for(table, root)
    queries = make_queries(table, MASK_QUERIES, seed=11)
    hits = verify_identity(store, snap, queries[:192])
    point = {
        "n_rows": n_rows,
        "cardinality": cardinality,
        "queries": len(queries),
        "verified_hits": hits,
        **measure_cold_start(store, snap, table.n_dims),
        **measure_mask_latency(snap, queries),
    }
    return point


def print_point(p: dict) -> None:
    print(
        f"{p['n_rows']:>9,} rows: json cold {p['json_cold_seconds'] * 1e3:9.1f}ms   "
        f"mmap cold {p['snapshot_cold_seconds'] * 1e3:7.1f}ms   "
        f"speedup {p['speedup']:6.1f}x   "
        f"cold {p['cold_us_per_query']:7.2f}us/q  hot {p['hot_us_per_query']:6.2f}us/q "
        f"({p['hot_tier']['hot_masks']} hot masks, "
        f"{p['hot_tier']['resident_bytes'] / 1024:.0f} KiB resident)"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smallest scale (the CI smoke job)"
    )
    parser.add_argument(
        "--min-speedup", type=float, default=MIN_SPEEDUP,
        help="fail unless the snapshot cold start beats the JSON trie load "
        "by this factor at the largest point",
    )
    parser.add_argument(
        "--out", default=None,
        help="write the series as JSON (default: no file in --quick mode, "
        "BENCH_snapshot.json otherwise)",
    )
    args = parser.parse_args(argv)
    points = POINTS["quick"] if args.quick else SERIES
    out_path = args.out if args.out else (None if args.quick else "BENCH_snapshot.json")

    print(
        f"snapshot bench: zipf theta {THETA}, {N_DIMS} dims, "
        f"{len(FDS)} functional dependencies, {MASK_QUERIES:,} queries per batch, "
        f"cold budget {COLD_BUDGET // 1024} KiB"
    )
    root = _workdir()
    series = []
    for n_rows, card in points:
        point = measure_point(n_rows, card, root / f"r{n_rows}")
        series.append(point)
        print_point(point)

    if out_path:
        with open(out_path, "w") as fh:
            json.dump(
                {
                    "benchmark": "snapshot",
                    "provenance": provenance(),
                    "n_dims": N_DIMS,
                    "theta": THETA,
                    "dependencies": [
                        [list(f.source_dims), list(f.target_dims)] for f in FDS
                    ],
                    "queries_per_batch": MASK_QUERIES,
                    "cold_budget_bytes": COLD_BUDGET,
                    "min_speedup_floor": args.min_speedup,
                    "points": series,
                },
                fh,
                indent=2,
            )
            fh.write("\n")
        print(f"wrote {out_path}")

    final = series[-1]
    print(
        f"floor: {final['speedup']:.1f}x at {final['n_rows']:,} rows "
        f"(need >= {args.min_speedup:g}x)"
    )
    if final["speedup"] < args.min_speedup:
        print("FAIL: snapshot cold start below the speedup floor")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
