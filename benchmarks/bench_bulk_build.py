"""Trie construction benchmark: tuple-at-a-time Algorithm 1 vs bulk sort.

``RangeTrie.bulk_build`` replaces N single-tuple insertions with one
``np.lexsort`` over the encoded dimension matrix, a recursive partition
of contiguous row ranges driven by precomputed change counts, and ONE
``ufunc.reduceat`` batch-aggregation pass over the duplicate-row groups.
This module measures the payoff at Figure 11-style scalability sizes on
the paper's motivating workload (Section 1: "real world datasets tend to
be correlated"): Zipf-skewed dimensions with injected functional
dependencies.  Correlation is where the sort-based path shines — shared
and implied values collapse into few distinct rows, whose aggregation
happens inside numpy instead of one Python merge per tuple.  An i.i.d.
zipf point (every row distinct — the builder's worst case) is reported
alongside for transparency; the acceptance floor applies to the
correlated series.

The standalone mode also times Algorithm 2's traversal of the
auto-planned trie at the 100k correlated point, with the group-merge
reduction kernel against the pairwise fold it replaced (kept below as
the reference, swapped in only while it is timed), after checking that
both emit equal columns.

Run under pytest-benchmark like the other bench modules, or standalone
as a CI smoke check that re-verifies bulk == incremental tries and then
enforces a ``MIN_SPEEDUP``x floor at the largest point and a
``MIN_TRAVERSAL_SPEEDUP``x floor on the traversal::

    PYTHONPATH=src python benchmarks/bench_bulk_build.py --quick

The standalone mode writes its full series to ``BENCH_bulk_build.json``
(committed at the repo root; see ``docs/performance.md``).
"""

import gc
import importlib
import json
import time

import numpy as np

from repro.core.incremental import IncrementalRangeCuber
from repro.core.range_trie import RangeTrie, RangeTrieNode
from repro.core.reduction import _surface_candidates
from repro.data.correlated import FunctionalDependency, correlated_table
from repro.table.aggregates import SumCountAggregator
from repro.tune import plan_table

try:
    from benchmarks.conftest import PRESET, cached_zipf, run_once
    from benchmarks.provenance import provenance
except ModuleNotFoundError:  # executed as a script: put the repo root on the path
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    from benchmarks.conftest import PRESET, cached_zipf, run_once
    from benchmarks.provenance import provenance

#: Acceptance floor for the tuple:bulk build-time ratio at the largest point.
MIN_SPEEDUP = 3.0

#: Cap on the share telemetry may add to an instrumented cubing run at
#: the largest point.
MAX_OBS_OVERHEAD = 0.05

#: Acceptance floor for the traversal with the group-merge reduction over
#: the traversal with the pairwise fold, at ``TRAVERSAL_POINT``.
MIN_TRAVERSAL_SPEEDUP = 1.2

#: (n_rows, cardinality) of the traversal comparison, in every mode.
TRAVERSAL_POINT = (100_000, 100)

#: Figure 11's shape at reduced scale: zipf theta 1.5, 8 dims, plus the
#: paper's Section 1 correlation: two functional dependencies (a store
#: determines its city-like attributes, a station its coordinates).
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
PARAMS = POINTS["small" if PRESET == "small" else "tiny"]

_TABLES: dict = {}


def corr_table(n_rows: int, cardinality: int):
    key = (n_rows, cardinality)
    if key not in _TABLES:
        _TABLES[key] = correlated_table(
            n_rows, N_DIMS, cardinality, FDS, theta=THETA, seed=7
        )
    return _TABLES[key]


def build_tuple(table):
    return RangeTrie.build(table, SumCountAggregator(0))


def build_bulk(table):
    return RangeTrie.bulk_build(table, SumCountAggregator(0))


def tries_equal(a: RangeTrie, b: RangeTrie, tol: float = 1e-6) -> bool:
    """Structural equality with float tolerance on the summed states."""

    def states(x, y):
        return len(x) == len(y) and all(
            abs(p - q) <= tol * max(1.0, abs(p), abs(q)) for p, q in zip(x, y)
        )

    def nodes(x, y):
        return (
            x.key == y.key
            and states(x.agg, y.agg)
            and x.children.keys() == y.children.keys()
            and all(nodes(c, y.children[v]) for v, c in x.children.items())
        )

    return a.n_dims == b.n_dims and nodes(a.root, b.root)


def test_build_tuple(benchmark):
    n_rows, card = PARAMS[0]
    table = corr_table(n_rows, card)
    trie = run_once(benchmark, build_tuple, table)
    benchmark.extra_info.update(
        strategy="tuple", n_rows=n_rows, trie_nodes=trie.n_nodes()
    )


def test_build_bulk(benchmark):
    n_rows, card = PARAMS[0]
    table = corr_table(n_rows, card)
    trie = run_once(benchmark, build_bulk, table)
    benchmark.extra_info.update(
        strategy="bulk", n_rows=n_rows, trie_nodes=trie.n_nodes()
    )


def test_build_bulk_largest(benchmark):
    n_rows, card = PARAMS[-1]
    table = corr_table(n_rows, card)
    trie = run_once(benchmark, build_bulk, table)
    benchmark.extra_info.update(
        strategy="bulk", n_rows=n_rows, trie_nodes=trie.n_nodes()
    )


def test_build_bulk_iid_zipf(benchmark):
    # Worst case: independent dimensions, nearly every row distinct.
    n_rows, card = PARAMS[0]
    table = cached_zipf(n_rows, N_DIMS, card, THETA)
    trie = run_once(benchmark, build_bulk, table)
    benchmark.extra_info.update(
        strategy="bulk-iid", n_rows=n_rows, trie_nodes=trie.n_nodes()
    )


# ----------------------------------------------------------------------
# standalone smoke mode (CI): verify equality, print series, enforce floor
# ----------------------------------------------------------------------


def _timed(fn, *args) -> tuple:
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def verify_equivalence(points) -> None:
    """Bulk == incremental (streaming Algorithm 1) on the smallest point.

    The trie is canonical, so node-by-node equality against per-row
    insertion is the correctness oracle; timing a wrong answer fast would
    be meaningless, hence the check runs before any measurement.
    """
    n_rows, card = points[0]
    table = corr_table(n_rows, card)
    cuber = IncrementalRangeCuber(table.n_dims, SumCountAggregator(0))
    cuber.insert_table(table, build_strategy="tuple")
    if not tries_equal(build_bulk(table), cuber.trie):
        raise AssertionError(
            "bulk-built trie differs from incrementally built trie "
            f"({n_rows} rows x {N_DIMS} dims) — refusing to time a wrong result"
        )
    print(f"equivalence: bulk == incremental trie at {n_rows:,} rows OK")


def measure_point(table) -> dict:
    """Best-of-3 bulk (milliseconds-long) vs once-timed tuple (seconds)."""
    trie, tuple_s = _timed(build_tuple, table)
    timings: dict = {}
    bulk_s = float("inf")
    for _ in range(3):
        t: dict = {}
        start = time.perf_counter()
        RangeTrie.bulk_build(table, SumCountAggregator(0), timings=t)
        elapsed = time.perf_counter() - start
        if elapsed < bulk_s:
            bulk_s, timings = elapsed, t
    return {
        "n_rows": table.n_rows,
        "trie_nodes": trie.n_nodes(),
        "tuple_seconds": round(tuple_s, 4),
        "bulk_seconds": round(bulk_s, 4),
        "speedup": round(tuple_s / bulk_s if bulk_s else float("inf"), 2),
        **{k: round(v, 4) for k, v in timings.items()},
    }


def measure_obs_overhead(table, rounds: int = 3) -> dict:
    """Instrumented cubing run, telemetry on vs off, interleaved best-of-N.

    ``range_cubing_detailed`` is the instrumented path this benchmark's
    bulk builder feeds (build/traverse spans, phase histograms).  The
    rounds interleave enabled/disabled so drift hits both sides equally;
    minima discard scheduler noise, and the collector is paused during
    the timed runs — traversal allocates millions of short-lived ranges,
    so GC pauses land on random rounds and would otherwise dwarf the
    microseconds of telemetry being measured.
    """
    import gc

    from repro.core.range_cubing import range_cubing_detailed
    from repro.obs import is_enabled, set_enabled

    was_enabled = is_enabled()
    gc_was_enabled = gc.isenabled()
    ratios = []
    enabled_s = disabled_s = float("inf")

    def run(enabled: bool) -> float:
        set_enabled(enabled)
        gc.collect()
        _, elapsed = _timed(range_cubing_detailed, table)
        return elapsed

    try:
        range_cubing_detailed(table)  # warm caches outside the comparison
        gc.disable()
        for _ in range(rounds):
            # ABBA within each round: linear machine drift contributes
            # equally to both sides and cancels in the ratio.
            off_a, on_a, on_b, off_b = run(False), run(True), run(True), run(False)
            ratios.append((on_a + on_b) / (off_a + off_b))
            enabled_s = min(enabled_s, on_a, on_b)
            disabled_s = min(disabled_s, off_a, off_b)
    finally:
        set_enabled(was_enabled)
        if gc_was_enabled:
            gc.enable()
    # Scheduler noise is one-sided (contention only ever adds time) while
    # real instrumentation cost shows up in every round, so the smallest
    # per-round ratio is the robust estimate of the systematic overhead.
    return {
        "enabled_seconds": round(enabled_s, 4),
        "disabled_seconds": round(disabled_s, 4),
        "overhead": round(min(ratios) - 1, 4),
    }


def _pairwise_merge_nodes(a, b, merge_agg):
    """Reference: merge two nodes sharing a start pair, one pair at a time."""
    b_key_set = set(b.key)
    common = tuple(p for p in a.key if p in b_key_set)
    common_set = set(common)
    a_res = [p for p in a.key if p not in common_set]
    b_res = [p for p in b.key if p not in common_set]
    candidates = _surface_candidates(a_res, a.children, a.agg)
    candidates += _surface_candidates(b_res, b.children, b.agg)
    children: dict = {}
    for cand in candidates:
        value = cand.key[0][1]
        present = children.get(value)
        children[value] = (
            cand if present is None else _pairwise_merge_nodes(present, cand, merge_agg)
        )
    return RangeTrieNode(common, children, merge_agg(a.agg, b.agg))


def pairwise_reduce_trie(root, merge_agg):
    """Reference: the reduction that folds k same-valued siblings pairwise.

    Every step of the fold allocates an intermediate node and rebuilds its
    children; :func:`repro.core.reduction.reduce_trie` builds each group's
    node once.  Kept here only to time the kernel against.
    """
    candidates = []
    for child in root.children.values():
        candidates.extend(_surface_candidates(list(child.key[1:]), child.children, child.agg))
    children: dict = {}
    for cand in candidates:
        value = cand.key[0][1]
        present = children.get(value)
        children[value] = (
            cand if present is None else _pairwise_merge_nodes(present, cand, merge_agg)
        )
    return RangeTrieNode((), children, root.agg)


def measure_traversal(table, rounds: int = 3) -> dict:
    """Algorithm 2 on the auto-planned trie: group merge vs pairwise fold.

    The reference reduction is swapped into the traversal only while it
    runs.  Both must emit equal columns (codes, masks and states, in
    order) before anything is timed; the rounds alternate the two, and
    the minimum of each is kept.
    """
    cubing = importlib.import_module("repro.core.range_cubing")
    agg = SumCountAggregator(0)
    plan = plan_table(table)
    trie = RangeTrie.bulk_build(plan.transform_table(table), agg)
    group_reduce = cubing.reduce_trie

    def traverse(reduce):
        cubing.reduce_trie = reduce
        try:
            gc.collect()
            start = time.perf_counter()
            columns = cubing._traverse(trie, agg, 1)
            return columns, time.perf_counter() - start
        finally:
            cubing.reduce_trie = group_reduce

    group_cols, _ = traverse(group_reduce)
    pair_cols, _ = traverse(pairwise_reduce_trie)
    if not (
        np.array_equal(group_cols.specific, pair_cols.specific)
        and np.array_equal(group_cols.marked_mask, pair_cols.marked_mask)
        and group_cols.states == pair_cols.states
    ):
        raise AssertionError(
            "group-merge traversal emits different columns than the pairwise "
            "fold — refusing to time a wrong result"
        )
    group_s = pair_s = float("inf")
    for _ in range(rounds):
        pair_s = min(pair_s, traverse(pairwise_reduce_trie)[1])
        group_s = min(group_s, traverse(group_reduce)[1])
    return {
        "n_rows": table.n_rows,
        "dim_order": list(plan.dim_order),
        "ranges": len(group_cols),
        "pairwise_seconds": round(pair_s, 4),
        "group_merge_seconds": round(group_s, 4),
        "speedup": round(pair_s / group_s, 2),
    }


def print_point(label: str, p: dict) -> None:
    print(
        f"{label:>12} {p['n_rows']:>9,} rows: tuple {p['tuple_seconds']:7.3f}s   "
        f"bulk {p['bulk_seconds']:7.3f}s (sort {p['sort_seconds']:.3f} "
        f"group {p['group_seconds']:.3f} agg {p['aggregate_seconds']:.3f})   "
        f"speedup {p['speedup']:5.1f}x"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smallest scale (the CI smoke job)"
    )
    parser.add_argument(
        "--out", default=None,
        help="write the series as JSON (default: no file in --quick mode, "
        "BENCH_bulk_build.json otherwise)",
    )
    args = parser.parse_args(argv)
    points = POINTS["quick"] if args.quick else PARAMS
    out_path = args.out if args.out else (None if args.quick else "BENCH_bulk_build.json")

    print(
        f"bulk-build bench: zipf theta {THETA}, {N_DIMS} dims, "
        f"{len(FDS)} functional dependencies"
    )
    verify_equivalence(points)

    series = []
    for n_rows, card in points:
        point = {"cardinality": card, **measure_point(corr_table(n_rows, card))}
        series.append(point)
        print_point("correlated", point)

    # Worst-case reference (not floored): independent dims, ~all rows distinct.
    n_rows, card = points[0]
    iid = {"cardinality": card, **measure_point(cached_zipf(n_rows, N_DIMS, card, THETA))}
    print_point("iid-zipf", iid)

    traversal = {
        "cardinality": TRAVERSAL_POINT[1],
        **measure_traversal(corr_table(*TRAVERSAL_POINT)),
    }
    print(
        f"traversal at {traversal['n_rows']:,} rows, order {traversal['dim_order']}, "
        f"{traversal['ranges']:,} ranges: "
        f"pairwise fold {traversal['pairwise_seconds']:.3f}s   "
        f"group merge {traversal['group_merge_seconds']:.3f}s   "
        f"speedup {traversal['speedup']:.2f}x (need >= {MIN_TRAVERSAL_SPEEDUP:g}x)"
    )

    obs = measure_obs_overhead(corr_table(*points[-1]))
    print(
        f"telemetry overhead at {points[-1][0]:,} rows: "
        f"{max(obs['overhead'], 0) * 100:.1f}% "
        f"(on {obs['enabled_seconds']:.3f}s / off {obs['disabled_seconds']:.3f}s, "
        f"cap {MAX_OBS_OVERHEAD * 100:g}%)"
    )

    if out_path:
        with open(out_path, "w") as fh:
            json.dump(
                {
                    "benchmark": "bulk_build",
                    "provenance": provenance(),
                    "n_dims": N_DIMS,
                    "theta": THETA,
                    "dependencies": [[list(f.source_dims), list(f.target_dims)] for f in FDS],
                    "min_speedup_floor": MIN_SPEEDUP,
                    "min_traversal_speedup_floor": MIN_TRAVERSAL_SPEEDUP,
                    "points": series,
                    "iid_reference": iid,
                    "traversal": traversal,
                    "obs_overhead": obs,
                },
                fh,
                indent=2,
            )
            fh.write("\n")
        print(f"wrote {out_path}")

    final = series[-1]
    print(
        f"floor: {final['speedup']:.1f}x at {final['n_rows']:,} rows "
        f"(need >= {MIN_SPEEDUP:g}x)"
    )
    if final["speedup"] < MIN_SPEEDUP:
        print("FAIL: bulk build below the speedup floor")
        return 1
    if traversal["speedup"] < MIN_TRAVERSAL_SPEEDUP:
        print("FAIL: group-merge traversal below its speedup floor")
        return 1
    if obs["overhead"] > MAX_OBS_OVERHEAD:
        print("FAIL: telemetry overhead above the cap")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
