"""Sharded-service benchmark: scatter-gather routing vs one engine.

Value-routed sharding partitions the table on a shard dimension
(``row[shard_dim] % n_shards``), so every query that binds the shard
dimension touches exactly one worker — and that worker's range cube,
postings and cuboid maps are a fraction of the monolithic cube's.  On a
single CPU the win therefore comes from *work reduction*, not
parallelism: the routed batch probes a quarter-size index (plus one
pipe round trip, ~1ms per batch).

The shard key is an *entity-style* dimension: uniform, and a member of
no functional dependency (dim 3 of the correlated schema, re-drawn
uniformly — like a user or device id).  That is the key a sharded
deployment would route on, and it is what makes the residue classes
balanced.  Routing on a zipf-skewed dimension instead caps the win at
the head value's mass (the heaviest value alone holds ~38% of the rows
at theta 1.5), which is a property of the key choice, not the router.

The workload is the routed profile the tier is designed for: batches of
fresh queries that all bind the shard dimension — point lookups of 1-4
bound dims over real rows, plus a dice share with small predicate
lists.  Both tiers run with the result cache disabled and fully warmed
index structures (best-of-3 over pre-warmed batches), so the comparison
measures the lookup path, not caching or one-time cuboid-map builds.
Identity against the single engine is verified on a sample before
anything is timed.

Standalone mode measures the same batches against a plain
:class:`QueryEngine` and routers at each shard count, enforces a
``MIN_SPEEDUP``x floor at 4 shards, and (outside ``--quick``) writes the
curve to ``BENCH_sharded.json``::

    PYTHONPATH=src python benchmarks/bench_sharded.py --quick
"""

import json
import random
import time

import numpy as np

from repro.data.correlated import FunctionalDependency, correlated_table
from repro.serve import QueryEngine, QueryRequest, ShardRouter

try:
    from benchmarks.provenance import provenance
except ModuleNotFoundError:  # executed as a script: the helper is a sibling
    from provenance import provenance

#: Acceptance floor: the 4-shard router must beat the single engine by
#: this factor on the routed batch workload at the 100k-row point.
MIN_SPEEDUP = 2.0

#: The correlated workload of bench_point_queries: zipf theta 1.5,
#: 8 dims, a store determining city-like attributes and a station its
#: coordinates.  100k rows / cardinality 100 is the measured point.
N_ROWS = 100_000
N_DIMS = 8
CARD = 100
THETA = 1.5
FDS = (
    FunctionalDependency((0,), (1, 2)),
    FunctionalDependency((4,), (5, 6, 7)),
)

#: The shard key: dim 3 belongs to no functional dependency, so
#: re-drawing it uniformly (an entity id) leaves the correlation
#: structure of the other seven dimensions intact.
SHARD_DIM = 3

#: Queries per measured batch, timing rounds (fresh queries each), and
#: the dice share of the mix.
BATCH_QUERIES = 4096
ROUNDS = 3
DICE_SHARE = 0.10

SHARD_COUNTS = {"quick": (1, 4), "full": (1, 2, 4)}


def build_table():
    table = correlated_table(N_ROWS, N_DIMS, CARD, FDS, theta=THETA, seed=7)
    # Integer measures: distributive merges finalize bit-identically,
    # so sharded == single is checkable with plain equality.
    table.measures[:] = np.round(table.measures)
    # The shard key: uniform entity codes instead of the zipf draw.
    rng = np.random.default_rng(99)
    table.dim_codes[:, SHARD_DIM] = rng.integers(0, CARD, size=table.n_rows)
    return table


def make_requests(table, n_queries: int, seed: int = 0):
    """Routed analytical batches: every query binds the shard dimension.

    Unique queries by construction — both tiers keep their result caches
    cold, so the comparison measures the lookup path, not the cache.
    """
    rng = random.Random(seed)
    rows = [tuple(int(v) for v in row) for row in table.dim_rows()[:4000]]
    others = [d for d in range(N_DIMS) if d != SHARD_DIM]
    requests, seen = [], set()
    while len(requests) < n_queries:
        row = rows[rng.randrange(len(rows))]
        if rng.random() < DICE_SHARE:
            pred_dims = rng.sample(others, 2)
            predicates = {
                str(d): sorted(rng.sample(range(CARD), 3)) for d in pred_dims
            }
            cell = [None] * N_DIMS
            cell[SHARD_DIM] = row[SHARD_DIM]
            key = ("dice", row[SHARD_DIM],
                   tuple(sorted((d, tuple(v)) for d, v in predicates.items())))
            if key in seen:
                continue
            request = QueryRequest(op="dice", cell=cell, predicates=predicates)
        else:
            extra = rng.sample(others, rng.randint(0, 3))
            cell = [row[d] if d == SHARD_DIM or d in extra else None
                    for d in range(N_DIMS)]
            key = ("point", tuple(cell))
            if key in seen:
                continue
            request = QueryRequest(op="point", cell=cell)
        seen.add(key)
        requests.append(request)
    return requests


def verify_identity(single, router, requests) -> None:
    """Sharded answers must be bit-identical to the single engine's."""
    mine = router.execute_batch(requests)
    theirs = single.execute_batch(requests)
    for request, a, b in zip(requests, mine, theirs):
        a, b = dict(a), dict(b)
        a.pop("cached", None), b.pop("cached", None)
        if a != b:
            raise AssertionError(f"sharded != single on {request.to_json()}")


def measure_tier(tier, batches, rounds: int = 3) -> float:
    """Best-of-``rounds`` seconds to answer every batch, fully warmed.

    One untimed pass first builds every cuboid map the batches touch (a
    one-time cost on either tier); the timed passes then measure the
    steady-state lookup path.  The result caches are disabled at
    construction, so repeats cannot shortcut anything.
    """
    for batch in batches:
        tier.execute_batch(batch)
    best = float("inf")
    for _ in range(rounds):
        total = 0.0
        for batch in batches:
            start = time.perf_counter()
            tier.execute_batch(batch)
            total += time.perf_counter() - start
        best = min(best, total)
    return best


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="single vs 4 shards only (the CI smoke job)",
    )
    parser.add_argument(
        "--out", default=None,
        help="write the curve as JSON (default: no file in --quick mode, "
        "BENCH_sharded.json otherwise)",
    )
    args = parser.parse_args(argv)
    shard_counts = SHARD_COUNTS["quick" if args.quick else "full"]
    out_path = args.out if args.out else (
        None if args.quick else "BENCH_sharded.json"
    )

    print(
        f"sharded bench: {N_ROWS:,} rows, zipf theta {THETA}, {N_DIMS} dims, "
        f"cardinality {CARD}, shard dim {SHARD_DIM}, "
        f"{ROUNDS}x{BATCH_QUERIES:,} routed queries ({DICE_SHARE:.0%} dice)"
    )
    table = build_table()
    batches = [
        make_requests(table, BATCH_QUERIES, seed=round_i)
        for round_i in range(ROUNDS)
    ]
    n_queries = sum(len(b) for b in batches)

    build_start = time.perf_counter()
    single = QueryEngine.from_table(table, cache_capacity=0)
    single_build_s = time.perf_counter() - build_start
    print(f"single engine: {single.stats()['n_ranges']:,} ranges "
          f"(built in {single_build_s:.1f}s)")

    points = []
    baseline_s = None
    for n_shards in shard_counts:
        if n_shards == 1:
            tier, router = single, None
            build_s = single_build_s
            shard_ranges = [single.stats()["n_ranges"]]
        else:
            build_start = time.perf_counter()
            router = ShardRouter.from_table(
                table, n_shards=n_shards, shard_dim=SHARD_DIM, cache_capacity=0
            )
            build_s = time.perf_counter() - build_start
            tier = router
            shard_ranges = [s["n_ranges"] for s in router.stats()["shards"]]
            verify_identity(single, router, batches[0][:512])
        try:
            seconds = measure_tier(tier, batches)
        finally:
            if router is not None:
                router.close()
        if n_shards == 1:
            baseline_s = seconds
        point = {
            "shards": n_shards,
            "build_seconds": round(build_s, 2),
            "n_ranges_per_shard": shard_ranges,
            "queries": n_queries,
            "seconds": round(seconds, 4),
            "us_per_query": round(seconds / n_queries * 1e6, 3),
            "throughput_qps": round(n_queries / seconds, 1),
            "speedup": round(baseline_s / seconds, 2),
        }
        points.append(point)
        print(
            f"{n_shards:>2} shard(s): {seconds * 1e3:8.1f}ms for "
            f"{n_queries:,} queries ({point['us_per_query']:.2f}us/q, "
            f"{point['throughput_qps']:,.0f} q/s)   "
            f"speedup {point['speedup']:5.2f}x"
        )

    if out_path:
        with open(out_path, "w") as fh:
            json.dump(
                {
                    "benchmark": "sharded_scatter_gather",
                    "provenance": provenance(),
                    "n_rows": N_ROWS,
                    "n_dims": N_DIMS,
                    "cardinality": CARD,
                    "theta": THETA,
                    "dependencies": [
                        [list(f.source_dims), list(f.target_dims)] for f in FDS
                    ],
                    "shard_dim": SHARD_DIM,
                    "queries_per_batch": BATCH_QUERIES,
                    "rounds": ROUNDS,
                    "dice_share": DICE_SHARE,
                    "min_speedup_floor": MIN_SPEEDUP,
                    "points": points,
                },
                fh,
                indent=2,
            )
            fh.write("\n")
        print(f"wrote {out_path}")

    final = points[-1]
    print(
        f"floor: {final['speedup']:.2f}x at {final['shards']} shards "
        f"(need >= {MIN_SPEEDUP:g}x)"
    )
    if final["speedup"] < MIN_SPEEDUP:
        print("FAIL: sharded routing below the speedup floor")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
