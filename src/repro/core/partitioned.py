"""Partitioned range cubing: build per partition in parallel, merge once.

The range trie is canonical — the same tuple multiset always yields the
same trie — and :func:`repro.core.reduction.merge_siblings` knows how to
fuse tries over the same dimensions while re-extracting shared values.
Together these give a divide-and-conquer loading path: split the fact
table into partitions, build a trie per partition (independently, on
separate cores), and merge.  The merged trie is *identical* to a
monolithic load, so everything downstream (range cubing, incremental
maintenance, persistence) is unaffected; the property tests assert the
structural equality outright.

:func:`parallel_range_cubing` is the full pipeline, parameterized by a
pluggable executor (:mod:`repro.exec`):

1. **partition** — slice the table's encoded numpy code/measure arrays
   row-wise (no Python-tuple conversion: partitions ship to workers as
   arrays and decode there);
2. **build** — construct one range trie per partition in the executor's
   workers via the vectorized sort-based bulk builder
   (:meth:`~repro.core.range_trie.RangeTrie.bulk_build_arrays`;
   :func:`build_trie_partition` is a module-level function so it
   pickles by reference for :class:`~repro.exec.ProcessExecutor`);
3. **merge** — fuse the per-partition tries in one pass that groups
   every trie's root children by value and builds each shared node once;
4. **cube** — run the range-cubing traversal (Algorithm 2) once on the
   merged trie.

Per-stage wall-clock and counters flow through
:class:`repro.metrics.StageTimings` so the harness and
``benchmarks/bench_partitioned.py`` can report the breakdown.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from repro.core.range_cube import RangeCube
from repro.core.range_trie import RangeTrie, RangeTrieNode
from repro.core.reduction import merge_siblings
from repro.exec.executors import Executor, resolve_executor
from repro.metrics.histogram import LatencyHistogram
from repro.metrics.timing import StageTimings
from repro.obs import get_registry, get_tracer
from repro.table.aggregates import Aggregator, default_aggregator
from repro.table.base_table import BaseTable

_TRACER = get_tracer()
_REGISTRY = get_registry()
_PARTITIONS = _REGISTRY.counter(
    "repro_partitions_built_total",
    "Per-partition trie builds completed by the parallel engine.",
)
_PARTITION_SECONDS = _REGISTRY.histogram(
    "repro_partition_build_seconds",
    "Per-partition trie build wall-clock seconds (folded from workers).",
    ("executor",),
)


def merge_tries(tries: Sequence[RangeTrie]) -> RangeTrie:
    """Fuse tries over the same dimensions into one canonical trie.

    One pass: every trie's root children are grouped by start value and
    each group is merged once (:func:`~repro.core.reduction.merge_siblings`),
    however many tries share it.  Aggregates are merged with the first
    trie's aggregator, left to right in ``tries`` order.  The merge
    itself never modifies the inputs (it allocates fresh nodes where keys
    change), but the result *shares* untouched sub-tries with them — so
    treat the inputs as consumed if the merged trie will absorb further
    insertions (Algorithm 1 mutates nodes in place).
    """
    if not tries:
        raise ValueError("need at least one trie to merge")
    dims = {t.n_dims for t in tries}
    if len(dims) > 1:
        raise ValueError(f"tries disagree on dimensionality: {sorted(dims)}")
    base = tries[0]
    merged = RangeTrie(base.n_dims, base.aggregator)
    merge_agg = base.aggregator.merge
    roots = [t.root for t in tries if t.root.agg is not None]
    total = None
    for root in roots:
        total = root.agg if total is None else merge_agg(total, root.agg)
    children = merge_siblings(
        chain.from_iterable(root.children.values() for root in roots), merge_agg
    )
    merged.root = RangeTrieNode((), children, total)
    return merged


def tree_merge_tries(tries: Sequence[RangeTrie]) -> RangeTrie:
    """Merge the per-partition tries: the one-pass :func:`merge_tries`.

    Kept as a public name.  The group merge builds each shared node once
    whatever the number of tries, so the tries need no pairing.
    """
    return merge_tries(tries)


def chunked(table: BaseTable, n_chunks: int) -> Iterable[BaseTable]:
    """Split a table row-wise into up to ``n_chunks`` non-empty chunks."""
    if n_chunks < 1:
        raise ValueError("n_chunks must be at least 1")
    size = max(1, -(-table.n_rows // n_chunks))  # ceil division
    for start in range(0, table.n_rows, size):
        yield BaseTable(
            table.schema,
            table.dim_codes[start : start + size],
            table.measures[start : start + size],
        )


def partition_payloads(
    table: BaseTable, n_partitions: int, aggregator: Aggregator
) -> list[tuple[np.ndarray, np.ndarray, Aggregator]]:
    """Slice the table into pickle-cheap worker payloads.

    Each payload is ``(dim_codes, measures, aggregator)`` — contiguous
    numpy slices, *not* decoded Python rows, so shipping a partition to a
    :class:`~repro.exec.ProcessExecutor` worker costs one array pickle.
    """
    if n_partitions < 1:
        raise ValueError("n_partitions must be at least 1")
    size = max(1, -(-table.n_rows // n_partitions))  # ceil division
    return [
        (
            table.dim_codes[start : start + size],
            table.measures[start : start + size],
            aggregator,
        )
        for start in range(0, table.n_rows, size)
    ]


def shard_partition_payloads(
    table: BaseTable, n_shards: int, shard_dim: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Value-routed shard slices: row ``r`` goes to ``r[shard_dim] % n_shards``.

    Unlike :func:`partition_payloads` (contiguous row ranges, good for a
    build that merges everything back together), this split is *routable*:
    a query that binds ``shard_dim`` to code ``v`` can only be answered by
    shard ``v % n_shards``, so the shard router sends it to exactly one
    worker instead of fanning out.  Every shard gets a payload (possibly
    empty) so shard ids and residue classes stay aligned.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    if not 0 <= shard_dim < table.n_dims:
        raise ValueError(f"shard_dim {shard_dim} out of range for {table.n_dims} dims")
    routes = table.dim_codes[:, shard_dim] % n_shards
    return [
        (
            np.ascontiguousarray(table.dim_codes[routes == shard]),
            np.ascontiguousarray(table.measures[routes == shard]),
        )
        for shard in range(n_shards)
    ]


def build_trie_partition(
    payload: tuple[np.ndarray, np.ndarray, Aggregator],
) -> RangeTrie:
    """Worker task: build the range trie of one partition.

    Module-level so it pickles by reference; the partition's raw numpy
    slices feed the vectorized bulk builder directly *inside* the worker,
    keeping the cross-process traffic to the bare arrays.
    """
    dim_codes, measures, aggregator = payload
    return RangeTrie.bulk_build_arrays(
        dim_codes.shape[1], dim_codes, measures, aggregator
    )


def build_trie_partition_timed(
    payload: tuple[np.ndarray, np.ndarray, Aggregator],
) -> tuple[RangeTrie, dict]:
    """Worker task: build one partition's trie *and* report its timing.

    Span objects never cross the pickle boundary — the worker measures
    wall-clock start and duration (plus a one-sample latency histogram in
    :meth:`LatencyHistogram.to_dict` form) and ships a plain dict; the
    parent synthesizes a child span per partition and folds the
    histograms into the ``repro_partition_build_seconds`` metric via
    histogram ``merge``.  Timing the build inside the worker keeps
    executor queueing/pickling overhead out of the reported number.
    """
    import time

    start_wall = time.time()
    start = time.perf_counter()
    trie = build_trie_partition(payload)
    duration = time.perf_counter() - start
    histogram = LatencyHistogram()
    histogram.record(duration)
    return trie, {
        "start_wall": start_wall,
        "duration": duration,
        "rows": int(payload[0].shape[0]),
        "trie_nodes": trie.n_nodes(),
        "histogram": histogram.to_dict(),
    }


def build_partitioned(
    table: BaseTable,
    n_chunks: int = 4,
    aggregator: Aggregator | None = None,
    executor: str | Executor | None = None,
) -> RangeTrie:
    """Build the range trie of ``table`` chunk-by-chunk and merge.

    Produces a trie structurally identical to ``RangeTrie.build(table)``.
    With an ``executor`` (name or instance, see :mod:`repro.exec`) the
    chunk builds run in parallel workers.
    """
    agg = aggregator or default_aggregator(table.n_measures)
    if table.n_rows == 0:
        return RangeTrie(table.n_dims, agg)
    exec_obj, owned = resolve_executor(executor)
    try:
        tries = exec_obj.map(
            build_trie_partition, partition_payloads(table, n_chunks, agg)
        )
    finally:
        if owned:
            exec_obj.close()
    return merge_tries(tries)


def parallel_range_cubing(
    table: BaseTable,
    *,
    executor: str | Executor | None = None,
    n_partitions: int | None = None,
    workers: int | None = None,
    aggregator: Aggregator | None = None,
    dim_order: Sequence[int] | str | None = "auto",
    min_support: int = 1,
) -> RangeCube:
    """Compute the range cube via the parallel partitioned pipeline.

    Equivalent to :func:`repro.core.range_cubing.range_cubing` — the
    merged trie is canonical, so the resulting cube is identical — but the
    per-partition trie builds run on ``executor`` (an executor name from
    :func:`repro.exec.available_executors`, an :class:`~repro.exec.Executor`
    instance, or None for serial).  ``n_partitions`` defaults to the
    executor's worker count.  ``dim_order`` accepts the same spellings as
    the serial path (``"auto"``, ``None``, a sequence or a
    :class:`~repro.tune.TuningPlan`); with ``"auto"`` the plan is computed
    once on the coordinator and the already-transformed partitions are
    shipped to the workers.
    """
    cube, _ = parallel_range_cubing_detailed(
        table,
        executor=executor,
        n_partitions=n_partitions,
        workers=workers,
        aggregator=aggregator,
        dim_order=dim_order,
        min_support=min_support,
    )
    return cube


def parallel_range_cubing_detailed(
    table: BaseTable,
    *,
    executor: str | Executor | None = None,
    n_partitions: int | None = None,
    workers: int | None = None,
    aggregator: Aggregator | None = None,
    dim_order: Sequence[int] | str | None = "auto",
    min_support: int = 1,
) -> tuple[RangeCube, dict[str, float]]:
    """Like :func:`parallel_range_cubing`, plus per-stage statistics.

    The stats dict reports the stage breakdown (``partition_s``,
    ``build_s``, ``merge_s``, ``cube_s``, ``total_seconds``) along with
    ``n_partitions``, ``tries_merged``, ``trie_nodes`` and the executor
    configuration — the numbers ``bench_partitioned.py`` and the harness
    print.
    """
    # Imported here (not at module top) to avoid a cycle: range_cubing is
    # the serial facade and sits above the trie machinery this module and
    # it both use.
    from repro.core.range_cubing import _restore, _traverse
    from repro.tune import resolve_plan

    agg = aggregator or default_aggregator(table.n_measures)
    exec_obj, owned = resolve_executor(executor, workers)
    parts = n_partitions if n_partitions is not None else max(1, exec_obj.workers)
    if parts < 1:
        raise ValueError("n_partitions must be at least 1")
    # Plan once on the coordinator; workers receive partitions of the
    # already-transformed table, so they need no tuning logic at all.
    plan, order = resolve_plan(table, dim_order)
    if plan is not None:
        working = plan.transform_table(table)
    else:
        working = table if order is None else table.reordered(order)

    timings = StageTimings()
    try:
        with _TRACER.span(
            "parallel_range_cubing",
            rows=table.n_rows,
            dims=table.n_dims,
            executor=exec_obj.name,
            workers=exec_obj.workers,
            n_partitions=parts,
        ):
            with timings.stage("partition"), _TRACER.span("partition"):
                payloads = partition_payloads(working, parts, agg)
            with timings.stage("build"), _TRACER.span("build") as build_span:
                results = exec_obj.map(build_trie_partition_timed, payloads)
                tries = [trie for trie, _ in results]
            for index, (_, info) in enumerate(results):
                _TRACER.record_span(
                    "partition_build",
                    start_wall=info["start_wall"],
                    duration=info["duration"],
                    parent=build_span,
                    attributes={
                        "partition": index,
                        "rows": info["rows"],
                        "trie_nodes": info["trie_nodes"],
                    },
                )
                _PARTITION_SECONDS.merge(
                    LatencyHistogram.from_dict(info["histogram"]),
                    executor=exec_obj.name,
                )
            _PARTITIONS.inc(len(results))
            with timings.stage("merge"), _TRACER.span("merge"):
                trie = merge_tries(tries) if tries else RangeTrie(working.n_dims, agg)
            with timings.stage("cube"), _TRACER.span("cube"):
                columns = _traverse(trie, agg, min_support)
    finally:
        if owned:
            exec_obj.close()

    columns = _restore(columns, plan, order)
    timings.count("n_partitions", len(payloads))
    timings.count("tries_merged", len(tries))
    timings.count("trie_nodes", trie.n_nodes())
    stats = timings.as_stats()
    stats["executor"] = exec_obj.name
    stats["workers"] = exec_obj.workers
    stats["total_seconds"] = timings.total_seconds
    if plan is not None:
        stats["tuning"] = plan.to_json()
    return RangeCube(table.n_dims, agg, columns=columns), stats
