"""Point-query benchmark: every cube representation as a query structure.

The paper's format-preserving claim is that a range cube slots in where a
plain cube would: this measures answering a fixed batch of point queries
(every 7th cell of the full cube plus some empty cells) against

* the expanded cube (a plain dict — the baseline),
* the range cube through its general-endpoint hash index,
* the range cube through the columnar store's batched lookup,
* the Dwarf DAG (O(n_dims) hops per query),
* the QC-tree over quotient classes.

Construction costs are benchmarked separately so the storage/latency
trade-off is visible.

Run under pytest-benchmark like the other bench modules, or standalone
as a CI smoke check that re-verifies all three lookup strategies (hash
probe, columnar ``find_batch``, linear scan) answer identically and then
enforces a ``MIN_SPEEDUP``x floor for batched columnar lookups over the
per-cell hash path at the largest correlated point.  At that point it
also times child lists — the slices and drill-downs a dashboard sends —
through the selection kernel (``ColumnarRangeStore.children``) against
the candidate probe it replaced (one ``lookup_batch`` over every code of
the drilled dimension, kept here as the reference and checked equal),
with a ``MIN_SLICE_SPEEDUP``x floor for slices on a warmed store and a
``MIN_DRILLDOWN_SPEEDUP``x floor for drill-downs on a freshly frozen
store (the state every append leaves)::

    PYTHONPATH=src python benchmarks/bench_point_queries.py --quick

The standalone mode writes its series to ``BENCH_point_queries.json``
(committed at the repo root; see ``docs/performance.md``).
"""

import json
import random
import time

from repro.baselines.dwarf import Dwarf
from repro.baselines.qc_tree import QCTree
from repro.core.columnar import ColumnarRangeStore
from repro.core.range_cubing import range_cubing
from repro.core.range_index import RangeCubeIndex
from repro.cube.full_cube import compute_full_cube
from repro.data.correlated import FunctionalDependency, correlated_table

try:
    from benchmarks.conftest import PRESET, cached_zipf, run_once
    from benchmarks.provenance import provenance
except ModuleNotFoundError:  # executed as a script: put the repo root on the path
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    from benchmarks.conftest import PRESET, cached_zipf, run_once
    from benchmarks.provenance import provenance

SCALES = {
    "tiny": {"n_rows": 400, "n_dims": 4, "cardinality": 20},
    "small": {"n_rows": 2000, "n_dims": 5, "cardinality": 50},
}
PARAMS = SCALES["small" if PRESET == "small" else "tiny"]

#: Acceptance floor: batched columnar lookups must beat the per-cell
#: hash index by this factor at the largest correlated point.
MIN_SPEEDUP = 5.0

#: Acceptance floors for child lists at the largest point: the selection
#: kernel against the per-code candidate probe, for slices on a warmed
#: store and for drill-downs on a freshly frozen one.
MIN_SLICE_SPEEDUP = 10.0
MIN_DRILLDOWN_SPEEDUP = 5.0

#: Child lists per measured set: slices bind all dims but one (as
#: ``repro workload`` builds them), drill-downs bind 0-2 dims.
CHILD_SLICES = 100
CHILD_DRILLDOWNS = 200

#: The correlated workload of bench_bulk_build: zipf theta 1.5, 8 dims,
#: a store determining city-like attributes and a station its coordinates.
N_DIMS = 8
THETA = 1.5
FDS = (
    FunctionalDependency((0,), (1, 2)),
    FunctionalDependency((4,), (5, 6, 7)),
)

#: (n_rows, cardinality) series per preset; the CI smoke job runs "quick"
#: and enforces the floor at its 100k-row point.
POINTS = {
    "quick": [(10_000, 50), (100_000, 100)],
    "tiny": [(10_000, 50), (30_000, 100), (100_000, 100)],
    "small": [(30_000, 100), (100_000, 100), (300_000, 200)],
}
QUERY_PARAMS = POINTS["small" if PRESET == "small" else "tiny"]

#: Queries per measured batch and how many of them are misses.
BATCH_QUERIES = 4096
GHOST_SHARE = 0.05

_CACHE: dict = {}
_TABLES: dict = {}


def fixture():
    if not _CACHE:
        table = cached_zipf(
            PARAMS["n_rows"], PARAMS["n_dims"], PARAMS["cardinality"], 1.2
        )
        oracle = compute_full_cube(table)
        queries = list(oracle.iter_cells())[::7]
        ghost = tuple(
            int(table.dim_codes[:, d].max()) + 1 for d in range(table.n_dims)
        )
        queries.append(ghost)
        _CACHE.update(table=table, oracle=oracle, queries=queries)
    return _CACHE


def _drain(structure, queries):
    hits = 0
    for cell in queries:
        if structure.lookup(cell) is not None:
            hits += 1
    return hits


def _drain_batch(index, queries):
    return sum(1 for r in index.find_batch(queries) if r is not None)


def test_queries_expanded_dict(benchmark):
    f = fixture()
    hits = run_once(benchmark, _drain, f["oracle"], f["queries"])
    benchmark.extra_info.update(structure="expanded-dict", queries=len(f["queries"]), hits=hits)


def test_queries_range_cube_index(benchmark):
    f = fixture()
    cube = range_cubing(f["table"])
    cube.lookup(f["queries"][0])  # force index construction outside timing
    hits = run_once(benchmark, _drain, cube, f["queries"])
    benchmark.extra_info.update(
        structure="range-index", queries=len(f["queries"]), hits=hits,
        index_entries=len(RangeCubeIndex(cube)),
    )


def test_queries_range_cube_batched(benchmark):
    """The columnar store's grouped find_batch over the same query set."""
    f = fixture()
    cube = range_cubing(f["table"])
    index = RangeCubeIndex(cube, strategy="columnar")
    index.find_batch(f["queries"][:64])  # warm the store and cuboid maps
    hits = run_once(benchmark, _drain_batch, index, f["queries"])
    benchmark.extra_info.update(
        structure="columnar-batched", queries=len(f["queries"]), hits=hits,
        store_kib=round(index._store.nbytes() / 1024, 1),
    )


def test_queries_dwarf(benchmark):
    f = fixture()
    dwarf = Dwarf.build(f["table"])
    hits = run_once(benchmark, _drain, dwarf, f["queries"])
    benchmark.extra_info.update(
        structure="dwarf", queries=len(f["queries"]), hits=hits,
        stored_cells=dwarf.n_stored_cells(),
    )


def test_queries_qc_tree(benchmark):
    f = fixture()
    tree = QCTree.build(f["table"])
    hits = run_once(benchmark, _drain, tree, f["queries"])
    benchmark.extra_info.update(
        structure="qc-tree", queries=len(f["queries"]), hits=hits,
        classes=tree.n_classes,
    )


def test_build_dwarf(benchmark):
    f = fixture()
    dwarf = run_once(benchmark, Dwarf.build, f["table"])
    benchmark.extra_info.update(structure="dwarf", nodes=dwarf.n_nodes())


def test_build_qc_tree(benchmark):
    f = fixture()
    tree = run_once(benchmark, QCTree.build, f["table"])
    benchmark.extra_info.update(structure="qc-tree", nodes=tree.n_nodes())


# ----------------------------------------------------------------------
# standalone smoke mode (CI): verify strategy identity, enforce the floor
# ----------------------------------------------------------------------


def corr_table(n_rows: int, cardinality: int):
    key = (n_rows, cardinality)
    if key not in _TABLES:
        _TABLES[key] = correlated_table(
            n_rows, N_DIMS, cardinality, FDS, theta=THETA, seed=7
        )
    return _TABLES[key]


def make_queries(table, n_queries: int = BATCH_QUERIES, seed: int = 0):
    """An analytical query mix over ``table``'s domain.

    A pool of bound-dimension masks (1–4 of the 8 dims, the widths the
    hash index is designed for) applied to real rows, plus a ghost share
    probing values outside every dimension's domain, plus the apex.
    """
    rng = random.Random(seed)
    n_dims = table.n_dims
    rows = [tuple(int(v) for v in row) for row in table.dim_rows()[:2000]]
    out_of_domain = tuple(int(table.dim_codes[:, d].max()) + 1 for d in range(n_dims))
    masks = []
    while len(masks) < 16:
        dims = rng.sample(range(n_dims), rng.randint(1, 4))
        mask = sum(1 << d for d in dims)
        if mask not in masks:
            masks.append(mask)
    queries = [tuple([None] * n_dims)]
    while len(queries) < n_queries:
        mask = masks[len(queries) % len(masks)]
        row = rows[rng.randrange(len(rows))]
        cell = [row[d] if mask >> d & 1 else None for d in range(n_dims)]
        if rng.random() < GHOST_SHARE:
            bound = [d for d in range(n_dims) if mask >> d & 1]
            cell[rng.choice(bound)] = out_of_domain[rng.choice(bound)]
        queries.append(tuple(cell))
    return queries


def verify_strategies(cube, queries, scan_sample: int = 150) -> int:
    """All three lookup strategies answer identically, cell for cell.

    The hash probe and the batched columnar path are compared on every
    query; the linear scan — the ground-truth definition, but O(ranges)
    per cell — on a sample.  Timing a wrong answer fast would be
    meaningless, so this runs before any measurement.
    """
    hash_index = RangeCubeIndex(cube, strategy="hash")
    columnar = RangeCubeIndex(cube, strategy="columnar")
    batched = columnar.find_batch(queries)
    for cell, via_batch in zip(queries, batched):
        if hash_index.find(cell) is not via_batch:
            raise AssertionError(f"hash and columnar disagree on {cell}")
    step = max(1, len(queries) // scan_sample)
    for cell, via_batch in list(zip(queries, batched))[::step]:
        found = next((r for r in cube.ranges if r.contains(cell)), None)
        if found is not via_batch:
            raise AssertionError(f"linear scan and columnar disagree on {cell}")
    return sum(1 for r in batched if r is not None)


def _best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_point(table, queries, child_lists: bool = False) -> dict:
    """Per-cell hash vs batched columnar over the same warm query batch.

    ``child_lists`` adds the kernel-vs-probe child-list timings
    (:func:`measure_child_lists`) over the same cube.
    """
    build_start = time.perf_counter()
    cube = range_cubing(table)
    build_s = time.perf_counter() - build_start
    hits = verify_strategies(cube, queries)
    hash_index = RangeCubeIndex(cube, strategy="hash")
    columnar = RangeCubeIndex(cube, strategy="columnar")
    columnar.find_batch(queries)  # warm: postings built, cuboid maps memoized
    hash_s = _best_of(lambda: [hash_index.find(c) for c in queries])
    batch_s = _best_of(lambda: columnar.find_batch(queries))
    per_query_us = batch_s / len(queries) * 1e6
    point = {
        "n_rows": table.n_rows,
        "n_ranges": cube.n_ranges,
        "queries": len(queries),
        "hits": hits,
        "cube_build_seconds": round(build_s, 4),
        "hash_seconds": round(hash_s, 4),
        "batched_seconds": round(batch_s, 4),
        "batched_us_per_query": round(per_query_us, 3),
        "speedup": round(hash_s / batch_s if batch_s else float("inf"), 2),
        "store_kib": round(columnar._store.nbytes() / 1024, 1),
    }
    if child_lists:
        point["child_lists"] = measure_child_lists(cube, table)
    return point


def make_child_lists(table, seed: int = 1) -> dict:
    """``(cell, dim)`` child lists from real rows: slices and drill-downs."""
    rng = random.Random(seed)
    n_dims = table.n_dims
    rows = [tuple(int(v) for v in row) for row in table.dim_rows()[:2000]]
    slices = []
    for _ in range(CHILD_SLICES):
        row, free = rng.choice(rows), rng.randrange(n_dims)
        slices.append((tuple(None if d == free else v for d, v in enumerate(row)), free))
    drilldowns = []
    for _ in range(CHILD_DRILLDOWNS):
        row = rng.choice(rows)
        bound = rng.sample(range(n_dims), rng.randint(0, 2))
        dim = rng.choice([d for d in range(n_dims) if d not in bound])
        cell = tuple(v if d in bound else None for d, v in enumerate(row))
        drilldowns.append((cell, dim))
    return {"slices": slices, "drilldowns": drilldowns}


def probe_children(store, cell, dim: int, card: int) -> list:
    """The reference: one candidate cell per code of ``dim``, probed in one batch.

    This is how child lists were answered before the selection kernel
    (``lookup_batch`` over ``range(card)``); it stays here to check the
    kernel's answers and to time it against.
    """
    head, tail = cell[:dim], cell[dim + 1:]
    ids = store.find_batch_ids([head + (code,) + tail for code in range(card)])
    states = store.states
    return [(code, states[rid]) for code, rid in enumerate(ids) if rid >= 0]


def measure_child_lists(cube, table) -> dict:
    """Kernel vs candidate probe: slices warmed, drill-downs on fresh stores."""
    cards = [int(table.dim_codes[:, d].max()) + 1 for d in range(table.n_dims)]
    lists = make_child_lists(table)

    def probe(store, requests):
        return [probe_children(store, cell, dim, cards[dim]) for cell, dim in requests]

    def kernel(store, requests):
        return [store.children(cell, dim) for cell, dim in requests]

    store = cube.to_columnar()
    children = 0
    for requests in lists.values():  # verify (and warm) before timing
        expected = probe(store, requests)
        if kernel(store, requests) != expected:
            raise AssertionError("children and the candidate probe disagree")
        children += sum(map(len, expected))
    slices = lists["slices"]
    slice_probe_s = _best_of(lambda: probe(store, slices))
    slice_kernel_s = _best_of(lambda: kernel(store, slices))

    def fresh(answer) -> float:
        best = float("inf")
        for _ in range(3):
            frozen = ColumnarRangeStore(cube)
            start = time.perf_counter()
            answer(frozen, lists["drilldowns"])
            best = min(best, time.perf_counter() - start)
        return best

    drill_probe_s = fresh(probe)
    drill_kernel_s = fresh(kernel)
    return {
        "slices": len(slices),
        "drilldowns": len(lists["drilldowns"]),
        "children": children,
        "slice_probe_seconds": round(slice_probe_s, 4),
        "slice_kernel_seconds": round(slice_kernel_s, 4),
        "slice_speedup": round(slice_probe_s / slice_kernel_s, 2),
        "drilldown_fresh_probe_seconds": round(drill_probe_s, 4),
        "drilldown_fresh_kernel_seconds": round(drill_kernel_s, 4),
        "drilldown_speedup": round(drill_probe_s / drill_kernel_s, 2),
    }


def print_point(p: dict) -> None:
    print(
        f"{p['n_rows']:>9,} rows ({p['n_ranges']:,} ranges): "
        f"hash {p['hash_seconds'] * 1e3:8.2f}ms   "
        f"batched {p['batched_seconds'] * 1e3:7.2f}ms "
        f"({p['batched_us_per_query']:.2f}us/q)   speedup {p['speedup']:5.1f}x"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smallest scale (the CI smoke job)"
    )
    parser.add_argument(
        "--min-speedup", type=float, default=MIN_SPEEDUP,
        help="fail unless batched columnar beats per-cell hash by this "
        "factor at the largest point",
    )
    parser.add_argument(
        "--out", default=None,
        help="write the series as JSON (default: no file in --quick mode, "
        "BENCH_point_queries.json otherwise)",
    )
    args = parser.parse_args(argv)
    points = POINTS["quick"] if args.quick else QUERY_PARAMS
    out_path = args.out if args.out else (
        None if args.quick else "BENCH_point_queries.json"
    )

    print(
        f"point-query bench: zipf theta {THETA}, {N_DIMS} dims, "
        f"{len(FDS)} functional dependencies, "
        f"{BATCH_QUERIES:,} queries per batch ({GHOST_SHARE:.0%} ghosts)"
    )
    series = []
    for n_rows, card in points:
        table = corr_table(n_rows, card)
        last = (n_rows, card) == points[-1]
        point = {
            "cardinality": card,
            **measure_point(table, make_queries(table), child_lists=last),
        }
        series.append(point)
        print_point(point)
    final = series[-1]
    lists = final["child_lists"]
    print(
        f"child lists at {final['n_rows']:,} rows: "
        f"{lists['slices']} slices {lists['slice_probe_seconds'] * 1e3:.1f}ms probe vs "
        f"{lists['slice_kernel_seconds'] * 1e3:.1f}ms kernel ({lists['slice_speedup']:.1f}x, "
        f"warmed); {lists['drilldowns']} drill-downs "
        f"{lists['drilldown_fresh_probe_seconds'] * 1e3:.1f}ms probe vs "
        f"{lists['drilldown_fresh_kernel_seconds'] * 1e3:.1f}ms kernel "
        f"({lists['drilldown_speedup']:.1f}x, fresh)"
    )

    if out_path:
        with open(out_path, "w") as fh:
            json.dump(
                {
                    "benchmark": "point_queries",
                    "provenance": provenance(),
                    "n_dims": N_DIMS,
                    "theta": THETA,
                    "dependencies": [
                        [list(f.source_dims), list(f.target_dims)] for f in FDS
                    ],
                    "queries_per_batch": BATCH_QUERIES,
                    "ghost_share": GHOST_SHARE,
                    "min_speedup_floor": args.min_speedup,
                    "min_slice_speedup_floor": MIN_SLICE_SPEEDUP,
                    "min_drilldown_speedup_floor": MIN_DRILLDOWN_SPEEDUP,
                    "points": series,
                },
                fh,
                indent=2,
            )
            fh.write("\n")
        print(f"wrote {out_path}")

    failed = False
    for label, value, floor in (
        ("batched points", final["speedup"], args.min_speedup),
        ("slices", lists["slice_speedup"], MIN_SLICE_SPEEDUP),
        ("drill-downs", lists["drilldown_speedup"], MIN_DRILLDOWN_SPEEDUP),
    ):
        print(
            f"floor: {label} {value:.1f}x at {final['n_rows']:,} rows "
            f"(need >= {floor:g}x)"
        )
        if value < floor:
            print(f"FAIL: {label} below the speedup floor")
            failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
