"""Approximate-tier benchmark: sketch-served dice vs the exact path.

The workload is the traffic the approximate tier exists for: *heavy*
dice queries — wide multi-dimension predicates over the apex, each
admitting dozens of codes per dimension — against the 100k-row
correlated table of ``bench_point_queries``.  Exactly answering one of
these merges thousands of ranges; the sketch answers from a fixed
2048-cell stratified sample plus per-dimension histograms, so its cost
is independent of how many ranges the predicate touches.

Both tiers run on the same :class:`QueryEngine` with the result cache
disabled (every request is unique anyway) and fully warmed structures —
one untimed pass first, best-of-N timed passes after — so the
comparison is the steady-state answer path, not caching or the one-time
sketch build.

Correctness is gated alongside speed: for every query the exact answer
must fall inside the approx response's ``[lower, upper]`` interval at
least ``MIN_COVERAGE`` of the time (the bounds are 95% intervals; the
floor leaves slack for the finite query count), and the estimate's
relative error is reported.

Standalone mode enforces a ``MIN_SPEEDUP``x floor and (outside
``--quick``) writes ``BENCH_approx.json``::

    PYTHONPATH=src python benchmarks/bench_approx.py --quick
"""

import json
import random
import time

import numpy as np

from repro.data.correlated import FunctionalDependency, correlated_table
from repro.serve import QueryEngine, QueryRequest

try:
    from benchmarks.provenance import provenance
except ModuleNotFoundError:  # executed as a script: the helper is a sibling
    from provenance import provenance

#: Acceptance floors: the sketch must beat the exact path by this factor
#: on the heavy-dice workload, and the exact answer must land inside the
#: reported 95% interval on at least this fraction of queries.
MIN_SPEEDUP = 10.0
MIN_SPEEDUP_QUICK = 2.0
MIN_COVERAGE = 0.85

#: The correlated generator of bench_point_queries / bench_sharded, at
#: the cardinality/skew point where the finest cuboid stays large
#: (~6M ranges at 100k rows): the regime the approximate tier exists
#: for, where every exact dice degenerates to a near-full-store scan.
N_ROWS = 100_000
N_ROWS_QUICK = 20_000
N_DIMS = 10
CARD = 200
THETA = 1.1
FDS = (
    FunctionalDependency((0,), (1, 2)),
    FunctionalDependency((4,), (5, 6, 7)),
)

#: Heavy dice: predicates over this many dimensions, each admitting
#: this many codes — wide enough that the exact path's per-value work
#: and its range scan both bite, while the sketch's cost stays fixed.
PRED_DIMS = 6
PRED_VALUES = 100
N_QUERIES = 256
N_QUERIES_QUICK = 64
ROUNDS = 3


def build_table(n_rows: int):
    table = correlated_table(n_rows, N_DIMS, CARD, FDS, theta=THETA, seed=7)
    table.measures[:] = np.round(table.measures)
    return table


def make_requests(n_queries: int, seed: int = 0):
    """Unique heavy dice over the apex (all dimensions free)."""
    rng = random.Random(seed)
    requests, seen = [], set()
    while len(requests) < n_queries:
        pred_dims = rng.sample(range(N_DIMS), PRED_DIMS)
        predicates = {
            str(d): sorted(rng.sample(range(CARD), PRED_VALUES))
            for d in pred_dims
        }
        key = tuple(sorted((d, tuple(v)) for d, v in predicates.items()))
        if key in seen:
            continue
        seen.add(key)
        requests.append(QueryRequest(op="dice", predicates=predicates))
    return requests


def approx_variant(request: QueryRequest) -> QueryRequest:
    return QueryRequest(
        op="dice", predicates=request.predicates, approx=True
    )


def measure(engine, batches, rounds: int) -> float:
    """Best-of-``rounds`` seconds to answer every batch, fully warmed."""
    for batch in batches:
        engine.execute_batch(batch)
    best = float("inf")
    for _ in range(rounds):
        total = 0.0
        for batch in batches:
            start = time.perf_counter()
            engine.execute_batch(batch)
            total += time.perf_counter() - start
        best = min(best, total)
    return best


def check_bounds(engine, requests) -> dict:
    """Coverage and error of the approx answers against the exact ones."""
    exact = engine.execute_batch(requests)
    approx = engine.execute_batch([approx_variant(r) for r in requests])
    covered = 0
    rel_errors = []
    widths = []
    for ex, ap in zip(exact, approx):
        block = ap["approx"]
        assert "estimate" in block, f"unexpected fallback: {block}"
        truth = ex["value"] or {k: 0.0 for k in block["estimate"]}
        inside = all(
            block["lower"][k] - 1e-9 <= float(truth[k]) <= block["upper"][k] + 1e-9
            for k in block["estimate"]
        )
        covered += inside
        true_count = float(truth["count"])
        est_count = float(block["estimate"]["count"])
        rel_errors.append(
            abs(est_count - true_count) / max(true_count, 1.0)
        )
        widths.append(
            (block["upper"]["count"] - block["lower"]["count"])
            / max(true_count, 1.0)
        )
    return {
        "queries": len(requests),
        "coverage": round(covered / len(requests), 4),
        "mean_rel_error_count": round(float(np.mean(rel_errors)), 5),
        "p95_rel_error_count": round(float(np.quantile(rel_errors, 0.95)), 5),
        "mean_bound_width_count": round(float(np.mean(widths)), 5),
    }


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller table and fewer queries (the CI smoke job)",
    )
    parser.add_argument(
        "--out", default=None,
        help="write results as JSON (default: no file in --quick mode, "
        "BENCH_approx.json otherwise)",
    )
    args = parser.parse_args(argv)
    n_rows = N_ROWS_QUICK if args.quick else N_ROWS
    n_queries = N_QUERIES_QUICK if args.quick else N_QUERIES
    min_speedup = MIN_SPEEDUP_QUICK if args.quick else MIN_SPEEDUP
    out_path = args.out if args.out else (
        None if args.quick else "BENCH_approx.json"
    )

    print(
        f"approx bench: {n_rows:,} rows, zipf theta {THETA}, {N_DIMS} dims, "
        f"cardinality {CARD}; {n_queries} heavy dice "
        f"({PRED_DIMS} pred dims x {PRED_VALUES} codes), best of {ROUNDS}"
    )
    table = build_table(n_rows)
    build_start = time.perf_counter()
    engine = QueryEngine.from_table(table, cache_capacity=0)
    build_s = time.perf_counter() - build_start
    print(f"engine: {engine.stats()['n_ranges']:,} ranges "
          f"(built in {build_s:.1f}s)")

    requests = make_requests(n_queries, seed=1)
    exact_batches = [requests]
    approx_batches = [[approx_variant(r) for r in requests]]

    quality = check_bounds(engine, requests)
    print(
        f"bounds: coverage {quality['coverage']:.1%} over "
        f"{quality['queries']} queries (need >= {MIN_COVERAGE:.0%}); "
        f"count rel error mean {quality['mean_rel_error_count']:.3%} "
        f"p95 {quality['p95_rel_error_count']:.3%}; "
        f"mean 95% bound width {quality['mean_bound_width_count']:.3%}"
    )

    exact_s = measure(engine, exact_batches, ROUNDS)
    approx_s = measure(engine, approx_batches, ROUNDS)
    speedup = exact_s / approx_s
    print(
        f"exact:  {exact_s * 1e3:8.1f}ms "
        f"({exact_s / n_queries * 1e6:8.1f}us/q)\n"
        f"approx: {approx_s * 1e3:8.1f}ms "
        f"({approx_s / n_queries * 1e6:8.1f}us/q)\n"
        f"speedup {speedup:.2f}x (need >= {min_speedup:g}x)"
    )

    if out_path:
        with open(out_path, "w") as fh:
            json.dump(
                {
                    "benchmark": "approx_dice",
                    "provenance": provenance(),
                    "n_rows": n_rows,
                    "n_dims": N_DIMS,
                    "cardinality": CARD,
                    "theta": THETA,
                    "dependencies": [
                        [list(f.source_dims), list(f.target_dims)] for f in FDS
                    ],
                    "pred_dims": PRED_DIMS,
                    "pred_values": PRED_VALUES,
                    "queries": n_queries,
                    "rounds": ROUNDS,
                    "min_speedup_floor": min_speedup,
                    "min_coverage_floor": MIN_COVERAGE,
                    "exact_seconds": round(exact_s, 4),
                    "approx_seconds": round(approx_s, 4),
                    "exact_us_per_query": round(exact_s / n_queries * 1e6, 2),
                    "approx_us_per_query": round(approx_s / n_queries * 1e6, 2),
                    "speedup": round(speedup, 2),
                    **quality,
                },
                fh,
                indent=2,
            )
            fh.write("\n")
        print(f"wrote {out_path}")

    failed = False
    if quality["coverage"] < MIN_COVERAGE:
        print("FAIL: exact answers fall outside the reported bounds too often")
        failed = True
    if speedup < min_speedup:
        print("FAIL: approx tier below the speedup floor")
        failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
