"""Command-line interface: cube CSV tables without writing any Python.

    python -m repro generate zipf --rows 5000 --dims 5 --card 100 --out t.csv
    python -m repro cube t.csv --measures 1 --out cube.csv --min-support 4
    python -m repro cube t.csv --algorithm parallel_range_cubing \\
        --executor process --workers 4
    python -m repro algorithms
    python -m repro stats t.csv --measures 1
    python -m repro tune explain t.csv --measures 1
    python -m repro query cube.csv --bind 0=3 --bind 2=7
    python -m repro serve t.csv --measures 1 --port 8642
    python -m repro workload http://127.0.0.1:8642 --clients 4
    python -m repro workload t.csv --measures 1 --serve --clients 4
    python -m repro snapshot save t.csv --measures 1 --out t.snapshot
    python -m repro snapshot save t.csv --measures 1 --out fleet.snapshot --shards 4
    python -m repro snapshot inspect t.snapshot
    python -m repro snapshot load t.snapshot --budget-mb 64
    python -m repro serve --snapshot-dir t.snapshot --port 8642
    python -m repro workload t.snapshot --cold-start 5
    python -m repro cube t.csv --measures 1 --trace-out spans.json
    python -m repro obs http://127.0.0.1:8642
    python -m repro obs http://127.0.0.1:8642 --trace --out spans.json
    python -m repro experiment fig9 --preset tiny
    python -m repro report --preset tiny --out report.md
    python -m repro claims --preset tiny

``cube`` dispatches by name through the algorithm registry
(:mod:`repro.baselines.registry`) and writes range cubes in the paper's
tuple notation (see :mod:`repro.data.io`); ``algorithms`` lists every
registered name; ``stats`` prints the table's shape plus the trie /
H-tree node comparison; ``query`` answers point queries against a saved
cube by dimension *codes*; ``experiment`` dispatches to the per-figure
harness drivers.

``serve`` holds a cube resident behind the JSON/HTTP front end of
:mod:`repro.serve`; ``workload`` drives a running server (or a table it
serves itself with ``--serve``, or queries in-process) with a
Zipf-skewed query mix and prints throughput, cache hit rate and
p50/p95/p99 latency.

``cube --trace-out`` saves the build's tracing spans as Chrome
trace-event JSON (open in Perfetto / ``chrome://tracing``); ``obs``
fetches a running server's ``/metrics`` (or ``--trace`` / ``--slowlog``)
— see ``docs/observability.md``.

``snapshot`` freezes a cubed table into an mmap-able column snapshot
(``--shards N`` writes one snapshot per value-routed partition plus a
fleet manifest); ``serve --snapshot-dir`` and a directory ``workload``
target cold-start from it — near-instant restarts, out-of-core reads —
and ``workload --cold-start N`` measures that restart latency.  See
``docs/persistence.md``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from pathlib import Path
from typing import Sequence

from repro.baselines.htree import HTree
from repro.baselines.registry import available_algorithms, get_algorithm
from repro.core.range_cube import RangeCube
from repro.core.range_trie import RangeTrie
from repro.data.io import read_range_cube_csv, read_table_csv, write_table_csv
from repro.data.weather import weather_table
from repro.data.synthetic import uniform_table, zipf_table
from repro.exec.executors import available_executors
from repro.harness.runner import preferred_order


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "zipf":
        table = zipf_table(args.rows, args.dims, args.card, args.theta, seed=args.seed)
    elif args.kind == "uniform":
        table = uniform_table(args.rows, args.dims, args.card, seed=args.seed)
    else:
        table = weather_table(args.rows, seed=args.seed)
    write_table_csv(table, args.out)
    print(f"wrote {table.n_rows} rows x {table.n_dims} dims to {args.out}")
    return 0


def _cmd_cube(args: argparse.Namespace) -> int:
    table = read_table_csv(args.table, n_measures=args.measures)
    record = get_algorithm(args.algorithm)
    extra: dict = {}
    if record.name == "parallel_range_cubing":
        extra = {
            "executor": args.executor,
            "workers": args.workers,
            "n_partitions": args.partitions,
        }
    elif record.name == "range_cubing":
        extra = {"build_strategy": args.build}
    # The registry forwards an explicit dim_order=None as "pin the as-is
    # order" (the range-cubing family self-tunes when it is omitted).
    if not record.supports_dim_order or args.order == "as-is":
        order = None
    elif args.order == "auto" and record.name in (
        "range_cubing",
        "parallel_range_cubing",
    ):
        order = "auto"  # native self-tuning path (plan lands in stats)
    else:
        order = preferred_order(table, args.order)
    from repro.obs import get_tracer

    tracer = get_tracer()
    try:
        # The CLI-level span wraps the whole run so every algorithm —
        # instrumented internally or not — shows up in --trace-out.
        with tracer.span(
            "cli.cube", algorithm=record.name, rows=table.n_rows, dims=table.n_dims
        ):
            result, stats = record.run_detailed(
                table, dim_order=order, min_support=args.min_support, **extra
            )
    except ValueError as exc:  # e.g. "dwarf does not support iceberg thresholds"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace_out:
        n_spans = tracer.export_chrome_file(args.trace_out)
        print(f"wrote {n_spans} spans to {args.trace_out} (open in Perfetto)")
    seconds = stats["total_seconds"]
    if isinstance(result, RangeCube):
        cube = result
        print(
            f"{record.name}: {cube.n_ranges:,} ranges"
            + (f" for {cube.n_cells:,} cells" if args.min_support <= 1 else "")
            + f" in {seconds:.2f}s"
            + (f" ({stats['trie_nodes']:,} trie nodes)" if "trie_nodes" in stats else "")
        )
        if "build_s" in stats:
            print(
                "stages: "
                + ", ".join(
                    f"{name} {stats[f'{name}_s']:.2f}s"
                    for name in ("partition", "build", "merge", "cube")
                )
                + f" ({stats['executor']} x{stats['workers']}, "
                f"{int(stats['n_partitions'])} partitions)"
            )
        if "sort_seconds" in stats:
            print(
                f"build ({stats['build_strategy']}): "
                f"sort {stats['sort_seconds']:.2f}s, "
                f"group {stats['group_seconds']:.2f}s, "
                f"aggregate {stats['aggregate_seconds']:.2f}s; "
                f"traverse {stats['traverse_seconds']:.2f}s"
            )
        if args.out:
            from repro.data.io import write_range_cube_csv

            write_range_cube_csv(cube, args.out, table.schema.dimension_names)
            print(f"wrote {args.out}")
    else:
        try:
            size = f"{len(result):,} cells"
        except TypeError:
            size = "done"
        print(f"{record.name}: {size} in {seconds:.2f}s")
        if args.out:
            print(
                "note: --out only writes range cubes; rerun with "
                "--algorithm range_cubing"
            )
    return 0


def _cmd_algorithms(args: argparse.Namespace) -> int:
    for name in available_algorithms():
        record = get_algorithm(name)
        flags = []
        if not record.supports_min_support:
            flags.append("no iceberg")
        if not record.supports_dim_order:
            flags.append("no dim order")
        if not record.lossless:
            flags.append("condensed subset")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        print(f"{name:24} {record.description}{suffix}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    table = read_table_csv(args.table, n_measures=args.measures)
    print(f"{table.n_rows:,} rows, {table.n_dims} dimensions, "
          f"{table.n_measures} measure(s)")
    for i, name in enumerate(table.schema.dimension_names):
        print(f"   {name}: cardinality {table.distinct_count(i)}")
    print(f"distinct tuples: {table.distinct_tuple_count():,} "
          f"(density {table.density():.3g})")
    working = table.reordered(preferred_order(table, "desc"))
    trie = RangeTrie.bulk_build(working)
    census = trie.stats()
    htree = HTree.build(working)
    print(f"range trie: {census.nodes:,} nodes "
          f"({census.interior:,} interior, depth {census.max_depth})")
    print(f"H-tree:     {htree.n_nodes():,} nodes "
          f"(node ratio {100 * census.nodes / htree.n_nodes():.1f}%)")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    cube = read_range_cube_csv(args.cube)
    bindings: dict[int, int] = {}
    for item in args.bind or []:
        dim_text, _, value_text = item.partition("=")
        bindings[int(dim_text)] = int(value_text)
    cell = tuple(bindings.get(i) for i in range(cube.n_dims))
    state = cube.lookup(cell)
    if state is None:
        print("empty cell (no matching tuples)")
        return 1
    result = cube.aggregator.finalize(state)
    containing = cube.range_of(cell)
    print(f"cell {cell}: {result}")
    print(f"containing range: {containing.to_string()}")
    return 0


def _build_engine(args: argparse.Namespace):
    """The serving engine for ``args``: resident, sharded, or snapshot-backed."""
    from repro.serve import QueryEngine, ShardRouter

    snapshot_dir = getattr(args, "snapshot_dir", None)
    if snapshot_dir:
        from repro.store import SnapshotEngine, is_sharded_snapshot

        budget = int(getattr(args, "budget_mb", 64.0) * (1 << 20))
        if is_sharded_snapshot(snapshot_dir):
            return ShardRouter.from_snapshot_dir(
                snapshot_dir,
                cache_capacity=args.cache,
                timeout=getattr(args, "shard_timeout", 30.0),
                budget_bytes=budget,
            )
        return SnapshotEngine(snapshot_dir, cache_capacity=args.cache, budget_bytes=budget)
    table = read_table_csv(args.table, n_measures=args.measures)
    shards = getattr(args, "shards", 0)
    if shards and shards > 1:
        return ShardRouter.from_table(
            table,
            n_shards=shards,
            shard_dim=getattr(args, "shard_dim", 0),
            min_support=args.min_support,
            cache_capacity=args.cache,
            timeout=getattr(args, "shard_timeout", 30.0),
        )
    return QueryEngine.from_table(
        table, min_support=args.min_support, cache_capacity=args.cache
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import CubeServer

    if bool(args.table) == bool(args.snapshot_dir):
        print(
            "error: give a CSV table or --snapshot-dir DIR (exactly one)",
            file=sys.stderr,
        )
        return 2
    engine = _build_engine(args)
    server = CubeServer(engine, host=args.host, port=args.port, verbose=args.verbose)
    stats = engine.stats()
    if stats.get("sharded"):
        tier = f"{stats['n_shards']} shards (dim {stats['shard_dim']})"
        if args.snapshot_dir:
            tier += ", snapshot-backed"
    elif stats.get("snapshot"):
        tier = (
            f"snapshot tier, {stats['snapshot']['mapped_bytes'] / (1 << 20):.1f} MiB mapped"
        )
    else:
        tier = "single engine"
    print(
        f"serving {stats['rows_absorbed']:,} rows as {stats['n_ranges']:,} ranges "
        f"({stats['n_dims']} dims, {tier}) on {server.url}"
    )
    print(
        "endpoints: GET /healthz /readyz /stats /metrics /trace /slowlog, "
        "POST /query /append  (ctrl-c to stop)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.stop()
        if hasattr(engine, "close"):
            engine.close()
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.serve import CubeServer, HTTPCubeClient, InProcessClient, WorkloadDriver
    from repro.serve.workload import WorkloadMix

    try:
        mix = WorkloadMix.parse(args.mix) if args.mix else None
        if mix is not None:
            mix.normalized()  # surface zero/negative weights before any setup
    except ValueError as exc:  # e.g. "unknown op 'nope' in mix"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = None
    engine = None
    if args.target.startswith(("http://", "https://")):
        if args.cold_start:
            print(
                "error: --cold-start needs a local target (CSV table or "
                "snapshot directory), not a running server",
                file=sys.stderr,
            )
            return 2
        url = args.target
        factory = lambda: HTTPCubeClient(url)  # noqa: E731
        transport = f"HTTP -> {url}"
    else:
        # A directory target is a snapshot (single or sharded fleet);
        # anything else is a CSV table to cube in-process.
        if Path(args.target).is_dir():
            args.snapshot_dir = args.target
        else:
            args.table = args.target
        engine = _build_engine(args)
        if args.serve:
            server = CubeServer(engine, port=0)
            url = server.start()
            factory = lambda: HTTPCubeClient(url)  # noqa: E731
            transport = f"HTTP -> {url} (self-served)"
        else:
            factory = lambda: InProcessClient(engine)  # noqa: E731
            transport = "in-process"
    try:
        driver = WorkloadDriver(
            factory,
            mix=mix,
            theta=args.theta,
            pool_size=args.pool,
            seed=args.seed,
            append_batches=args.appends,
            append_rows=args.append_rows,
            batch_size=args.batch,
            bind_dim=getattr(args, "bind_dim", None),
            cold_start=args.cold_start,
            cold_start_factory=(
                (lambda: _build_engine(args)) if args.cold_start else None
            ),
            slo_p99_ms=getattr(args, "slo_p99_ms", None),
            slo_budget=getattr(args, "slo_budget", 0.01),
            approx_fraction=getattr(args, "approx_fraction", 0.0),
            approx_confidence=getattr(args, "approx_confidence", 0.95),
        )
        report = driver.run(clients=args.clients, requests_per_client=args.requests)
    except ValueError as exc:  # e.g. "clients and requests_per_client must be positive"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if server is not None:
            server.stop()
        if engine is not None and hasattr(engine, "close"):
            engine.close()
    print(f"transport: {transport}")
    print(report.format())
    return 1 if report.errors else 0


_EXPLAIN_COUNTERS = (
    "postings_intersected",
    "postings_resolved",
    "batch_masks",
    "cells_scanned",
    "cuboid_map_hits",
    "cuboid_ids_built",
    "cuboid_maps_built",
    "ranges_merged",
    "snapshot_bytes_faulted",
)


def _format_explain(account: dict) -> str:
    """The EXPLAIN account as the readable block ``repro explain`` prints."""
    head = f"explain: {account.get('op')} @ v{account.get('version')}"
    if account.get("engine"):
        head += f"  engine {account['engine']}"
    if account.get("cache_hit"):
        head += "  (result cache hit)"
    lines = [head]
    routing = account.get("routing")
    if routing:
        lines.append(
            f"routing: shard dim {routing['shard_dim']}, fanout "
            f"{routing['fanout']} -> shards {routing['shards_touched']}, "
            f"items {routing['items']}"
        )
    for shard in account.get("shards", ()):
        tier = shard.get("tier") or {}
        parts = [f"shard {shard.get('shard')}: tier {tier.get('source', '?')}"]
        parts += [
            f"{name} {shard[name]:,}" for name in _EXPLAIN_COUNTERS if name in shard
        ]
        if "elapsed_us" in shard:
            parts.append(f"{shard['elapsed_us']:,.0f}us")
        lines.append("  " + "  ".join(parts))
    if "shards" not in account:
        counters = [
            f"{name} {account[name]:,}"
            for name in _EXPLAIN_COUNTERS
            if name in account
        ]
        if counters:
            lines.append("index: " + "  ".join(counters))
        tier = account.get("tier")
        if tier:
            detail = "".join(
                f"  {k} {tier[k]}" for k in ("hot_hits", "cold_hits") if k in tier
            )
            lines.append(f"tier: {tier.get('source')}{detail}")
        if account.get("snapshot"):
            lines.append(f"snapshot: {account['snapshot']}")
    approx = account.get("approx")
    if approx:
        lines.append(
            f"approx: estimator {approx.get('estimator')}  "
            f"sample {approx.get('sample_size'):,} rows "
            f"({approx.get('matched'):,} matched)  "
            f"bound width {approx.get('bound_width')}"
        )
    phases = account.get("phases_us")
    if phases:
        lines.append(
            "phases: " + "  ".join(f"{k} {v:,.0f}us" for k, v in phases.items())
        )
    return "\n".join(lines)


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    from repro.serve import HTTPCubeClient, InProcessClient
    from repro.serve.protocol import QueryRequest, ServeError

    predicates: dict[str, list[int]] = {}
    for item in args.pred or []:
        dim_text, _, values = item.partition("=")
        predicates[dim_text.strip()] = [
            int(v) for v in values.split(",") if v.strip()
        ]
    bindings: dict[int, int] = {}
    for item in args.bind or []:
        dim_text, _, value_text = item.partition("=")
        bindings[int(dim_text)] = int(value_text)
    engine = None
    if args.target.startswith(("http://", "https://")):
        client = HTTPCubeClient(args.target)
    else:
        if Path(args.target).is_dir():
            args.snapshot_dir = args.target
        else:
            args.table = args.target
        engine = _build_engine(args)
        client = InProcessClient(engine)
    try:
        n_dims = client.stats()["n_dims"]
        cell: list[int | None] = [None] * n_dims
        for d, v in bindings.items():
            if not 0 <= d < n_dims:
                print(f"error: dimension {d} out of range (cube has {n_dims})",
                      file=sys.stderr)
                return 2
            cell[d] = v
        if (args.confidence is not None or args.having is not None) and not args.approx:
            print("error: --confidence/--having need --approx", file=sys.stderr)
            return 2
        if args.approx and args.op != "dice":
            print("error: --approx only applies to --op dice", file=sys.stderr)
            return 2
        request = QueryRequest(
            op=args.op,
            cell=cell,
            dim=args.dim,
            predicates=predicates or None,
            explain=True,
            approx=True if args.approx else None,
            confidence=args.confidence,
            having=args.having,
        )
        try:
            response = client.query(request)
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        client.close()
        if engine is not None and hasattr(engine, "close"):
            engine.close()
    if args.json:
        print(json.dumps(response, indent=1, default=str))
        return 0
    if "value" in response:
        print(f"value: {response['value']}")
    elif "children" in response:
        print(f"children: {len(response['children'])}")
    block = response.get("approx")
    if block:
        if "estimate" in block:
            print(
                f"bounds ({block.get('confidence'):g}): "
                f"{block.get('lower')} .. {block.get('upper')}"
            )
        if block.get("fallback"):
            reason = block.get("reason")
            print(
                "approx: exact fallback"
                + (f" ({reason})" if reason else " (some shards answered exactly)")
            )
    account = response.get("explain")
    if account:
        print(_format_explain(account))
    else:
        print("(server returned no explain block)")
    return 0


def _cmd_snapshot_save(args: argparse.Namespace) -> int:
    from repro.table.schema import Dimension, Schema

    table = read_table_csv(args.table, n_measures=args.measures)
    # Pin observed cardinalities so a loaded engine can build workload
    # pools / drill-down candidates without the base table at hand.
    schema = Schema(
        tuple(
            Dimension(d.name, int(c) if c else table.distinct_count(i))
            for i, (d, c) in enumerate(
                zip(table.schema.dimensions, table.schema.cardinalities)
            )
        ),
        table.schema.measures,
    )
    if args.shards and args.shards > 1:
        from repro.store import save_sharded_snapshot

        save_sharded_snapshot(
            table,
            args.out,
            n_shards=args.shards,
            shard_dim=args.shard_dim,
            min_support=args.min_support,
        )
        print(
            f"wrote sharded snapshot of {table.n_rows:,} rows "
            f"({args.shards} shards on dim {args.shard_dim}) to {args.out}"
        )
        del table
        _release_build_memory()
        return 0
    from repro.core.range_cubing import range_cubing_detailed
    from repro.store import write_snapshot

    cube, stats = range_cubing_detailed(table, min_support=args.min_support)
    write_snapshot(
        cube,
        args.out,
        schema,
        min_support=args.min_support,
        rows_absorbed=table.n_rows,
        tuning=stats.get("tuning"),
        # Bake the approx-tier sketch in at freeze time so a cold-started
        # engine answers approx dice without a warm-up build.
        sketch=True,
    )
    print(f"wrote {cube.n_ranges:,} ranges ({table.n_rows:,} rows) to {args.out}")
    del cube, table
    _release_build_memory()
    return 0


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    if not sys.platform.startswith("linux"):
        return None
    import ctypes

    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
    return trim


def _release_build_memory() -> None:
    """Hand what a finished build freed back to the operating system.

    A cube and its columnar store reference each other, so the collector,
    not the last ``del``, frees them.  Freed numpy buffers stay in the C
    heap, where glibc keeps up to 64 MB for reuse that Python's object
    allocator (the next build's CSV rows and trie) cannot use.  So in a
    process that builds again, as one calling :func:`main` in a loop
    does, the next build's peak RSS would sit on top of the last one's
    leftovers, higher or lower as the allocations in between happen to
    pin that heap.  Collecting and trimming here makes every build start
    from the heap the process needs.
    """
    gc.collect()
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def _cmd_snapshot_inspect(args: argparse.Namespace) -> int:
    import json

    from repro.store import (
        SnapshotError,
        inspect_snapshot,
        is_sharded_snapshot,
        read_router_manifest,
    )

    try:
        if is_sharded_snapshot(args.snapshot):
            manifest = read_router_manifest(args.snapshot)
            shards = [
                inspect_snapshot(Path(args.snapshot) / name)
                for name in manifest["shards"]
            ]
            if args.json:
                print(json.dumps({"router": manifest, "shards": shards}, indent=1))
                return 0
            print(
                f"sharded snapshot: {manifest['n_shards']} shards "
                f"(dim {manifest['shard_dim']}), {manifest['rows_absorbed']:,} rows, "
                f"engine version {manifest['engine_version']}"
            )
            for name, info in zip(manifest["shards"], shards):
                print(
                    f"  {name}: {info['n_ranges']:,} ranges, "
                    f"{info['column_bytes']:,} column bytes"
                )
            return 0
        info = inspect_snapshot(args.snapshot)
    except (SnapshotError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(info, indent=1))
        return 0
    print(f"{info['path']}: {info['format']} v{info['format_version']}")
    print(
        f"{info['n_ranges']:,} ranges, {info['n_dims']} dims, "
        f"states {info['states_format']}, min_support {info['min_support']}, "
        f"engine version {info['engine_version']}, "
        f"{info['rows_absorbed']:,} rows absorbed"
    )
    for entry in info["files"]:
        print(
            f"  {entry['file']:<24} {entry['dtype']:>8}  "
            f"{'x'.join(str(n) for n in entry['shape']):>12}  {entry['bytes']:,} bytes"
        )
    print(f"column bytes: {info['column_bytes']:,}")
    return 0


def _cmd_snapshot_load(args: argparse.Namespace) -> int:
    import time

    from repro.serve import InProcessClient
    from repro.serve.protocol import QueryRequest
    from repro.store import SnapshotError, SnapshotIntegrityError

    args.snapshot_dir = args.snapshot
    args.cache = 0
    start = time.perf_counter()
    try:
        engine = _build_engine(args)
    except (SnapshotError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.verify and hasattr(engine, "store"):
            from repro.store.snapshot import _verify_checksums

            try:
                _verify_checksums(Path(args.snapshot_dir), engine.store.manifest)
            except SnapshotIntegrityError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print("checksums: ok")
        mapped = time.perf_counter() - start
        with InProcessClient(engine) as client:
            stats = client.stats()
            begin = time.perf_counter()
            response = client.query(
                QueryRequest(op="point", cell=[None] * stats["n_dims"])
            )
            first_query = time.perf_counter() - begin
        print(
            f"mapped {stats['n_ranges']:,} ranges "
            f"({stats['rows_absorbed']:,} rows) in {mapped:.4f}s; "
            f"first query {first_query * 1000:.3f}ms"
        )
        print(f"apex: {response['value']}")
        if hasattr(engine, "tier_stats"):
            tier = engine.tier_stats()
            print(
                f"tier: budget {tier['budget_bytes']:,} bytes, "
                f"{tier['hot_masks']} hot masks, {tier['resident_bytes']:,} resident"
            )
    finally:
        if hasattr(engine, "close"):
            engine.close()
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from urllib.error import URLError
    from urllib.request import urlopen

    if args.trace and args.slowlog:
        print("error: choose one of --trace / --slowlog", file=sys.stderr)
        return 2
    if args.trace:
        path = "/trace?format=chrome" if args.chrome else "/trace"
        if args.limit is not None:
            path += ("&" if "?" in path else "?") + f"limit={args.limit}"
    elif args.slowlog:
        path = "/slowlog"
    else:
        path = "/metrics?scope=local" if args.local else "/metrics"
    url = args.server.rstrip("/") + path
    try:
        with urlopen(url, timeout=args.timeout) as response:
            body = response.read().decode("utf-8")
    except (URLError, OSError, TimeoutError) as exc:
        print(f"error: could not fetch {url}: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body)
            if not body.endswith("\n"):
                fh.write("\n")
        print(f"wrote {args.out}")
    elif args.slowlog and not args.raw:
        import json

        entries = json.loads(body).get("slow_queries", [])
        if not entries:
            print("no slow queries retained")
            return 0
        for entry in entries:
            ms = float(entry.get("duration_s", entry.get("duration", 0.0))) * 1000
            trace_id = entry.get("trace_id") or "-"
            span_id = entry.get("span_id") or "-"
            print(
                f"{ms:9.3f}ms  {entry.get('op', '?'):<9}  "
                f"trace {trace_id}  span {span_id}  "
                f"{json.dumps(entry.get('request'), default=str)}"
            )
    else:
        print(body, end="" if body.endswith("\n") else "\n")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.harness import (
        ablations,
        fig8_dimensionality,
        fig9_skew,
        fig10_sparsity,
        fig11_scalability,
        real_weather,
    )

    drivers = {
        "fig8": fig8_dimensionality,
        "fig9": fig9_skew,
        "fig10": fig10_sparsity,
        "fig11": fig11_scalability,
        "weather": real_weather,
        "ablations": ablations,
    }
    driver = drivers[args.which]
    driver.main(["--preset", args.preset])
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.harness.report_all import main as report_main

    argv = ["--preset", args.preset]
    if args.out:
        argv += ["--out", args.out]
    return report_main(argv)


def _cmd_claims(args: argparse.Namespace) -> int:
    from repro.harness.claims import main as claims_main

    return claims_main(["--preset", args.preset])


def _cmd_tune(args: argparse.Namespace) -> int:
    import json

    from repro.tune import plan_table

    table = read_table_csv(args.table, n_measures=args.measures)
    plan = plan_table(table, sample_rows=args.sample, value_reorder=args.values)
    if args.json:
        print(json.dumps(plan.to_json(), indent=1))
        return 0
    print(plan.explain(table.schema.dimension_names))
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    import json

    from repro.cube.estimate import (
        estimate_cuboid_size,
        estimate_full_cube_size,
        recommend_strategy,
    )

    table = read_table_csv(args.table, n_measures=args.measures)
    if args.dims:
        try:
            dims = [int(d) for d in args.dims.split(",") if d.strip()]
        except ValueError:
            print(f"error: --dims wants comma-separated indices, got {args.dims!r}",
                  file=sys.stderr)
            return 2
        bad = [d for d in dims if not 0 <= d < table.n_dims]
        if bad:
            print(f"error: dimension(s) {bad} out of range "
                  f"(table has {table.n_dims})", file=sys.stderr)
            return 2
        cells = estimate_cuboid_size(table, dims, sample_size=args.sample)
        if args.json:
            print(json.dumps({
                "rows": table.n_rows,
                "dims": dims,
                "estimated_cells": cells,
                "sample_size": args.sample,
            }))
            return 0
        names = ", ".join(table.schema.dimension_names[d] for d in dims)
        print(f"{table.n_rows:,} rows; cuboid ({names}): ~{cells:,.0f} cells "
              f"(GEE over a {args.sample}-row sample)")
        return 0
    advice = recommend_strategy(table, sample_size=args.sample)
    total = (
        advice.estimated_cells
        if advice.estimated_cells == advice.estimated_cells  # not NaN
        else estimate_full_cube_size(table, args.sample)
        if table.n_dims <= 16
        else float("nan")
    )
    if args.json:
        print(json.dumps({
            "rows": table.n_rows,
            "n_dims": table.n_dims,
            "estimated_cells": None if total != total else total,
            "density": advice.density,
            "strategy": advice.strategy,
            "reason": advice.reason,
            "sample_size": args.sample,
        }))
        return 0
    print(f"{table.n_rows:,} rows x {table.n_dims} dims "
          f"(density {advice.density:.3g})")
    if total == total:
        print(f"estimated full-cube size: ~{total:,.0f} cells")
    else:
        print("estimated full-cube size: n/a (too many dims for the full sweep)")
    print(f"recommended strategy: {advice.strategy}")
    print(f"reason: {advice.reason}")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.cube.estimate import estimate_full_cube_size, recommend_strategy

    table = read_table_csv(args.table, n_measures=args.measures)
    advice = recommend_strategy(table, sample_size=args.sample)
    estimated = (
        advice.estimated_cells
        if advice.estimated_cells == advice.estimated_cells  # not NaN
        else estimate_full_cube_size(table, args.sample)
        if table.n_dims <= 16
        else float("nan")
    )
    print(f"{table.n_rows:,} rows x {table.n_dims} dims")
    if estimated == estimated:
        print(f"estimated full-cube size: ~{estimated:,.0f} cells")
    print(f"recommended strategy: {advice.strategy}")
    print(f"reason: {advice.reason}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Range CUBE (ICDE 2004) command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic table as CSV")
    p.add_argument("kind", choices=("zipf", "uniform", "weather"))
    p.add_argument("--rows", type=int, default=5000)
    p.add_argument("--dims", type=int, default=5)
    p.add_argument("--card", type=int, default=100)
    p.add_argument("--theta", type=float, default=1.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("cube", help="compute a cube from a CSV table")
    p.add_argument("table")
    p.add_argument("--measures", type=int, default=0, help="trailing measure columns")
    p.add_argument(
        "--algorithm",
        default="range_cubing",
        choices=(*available_algorithms(), "range", "star", "parallel"),
        help="a registry name (see `repro algorithms`) or legacy alias",
    )
    p.add_argument(
        "--order",
        "--dim-order",
        default="auto",
        choices=("auto", "desc", "asc", "as-is"),
        help="trie dimension order: the 'auto' sentinel samples the table and "
        "plans it (repro.tune, the library default); 'desc'/'asc' sort by "
        "cardinality; 'as-is' keeps column order",
    )
    p.add_argument("--min-support", type=int, default=1)
    p.add_argument(
        "--executor",
        default="process",
        choices=available_executors(),
        help="parallel_range_cubing backend",
    )
    p.add_argument(
        "--workers", type=int, default=None, help="worker count (default: CPUs)"
    )
    p.add_argument(
        "--partitions",
        type=int,
        default=None,
        help="table partitions for parallel_range_cubing (default: workers)",
    )
    p.add_argument(
        "--build",
        default="bulk",
        choices=("bulk", "tuple"),
        help="range_cubing trie construction: vectorized bulk sort or tuple-at-a-time",
    )
    p.add_argument("--out", help="write the (range) cube as CSV")
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write the build's tracing spans as Chrome trace-event JSON",
    )
    p.set_defaults(func=_cmd_cube)

    p = sub.add_parser("algorithms", help="list the registered cube algorithms")
    p.set_defaults(func=_cmd_algorithms)

    p = sub.add_parser("stats", help="table shape + trie/H-tree comparison")
    p.add_argument("table")
    p.add_argument("--measures", type=int, default=0)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("query", help="point query against a saved range cube")
    p.add_argument("cube")
    p.add_argument(
        "--bind",
        action="append",
        metavar="DIM=CODE",
        help="bind a dimension index to a value code (repeatable)",
    )
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("serve", help="serve a cube over JSON/HTTP")
    p.add_argument(
        "table",
        nargs="?",
        default=None,
        help="CSV base table to cube and hold resident (or use --snapshot-dir)",
    )
    p.add_argument(
        "--snapshot-dir",
        default=None,
        dest="snapshot_dir",
        metavar="DIR",
        help="cold-start from an mmap snapshot (single or sharded) instead of a table",
    )
    p.add_argument(
        "--budget-mb",
        type=float,
        default=64.0,
        dest="budget_mb",
        help="snapshot tier resident-bytes budget in MiB (with --snapshot-dir)",
    )
    p.add_argument("--measures", type=int, default=0, help="trailing measure columns")
    p.add_argument("--min-support", type=int, default=1)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642, help="0 picks an ephemeral port")
    p.add_argument("--cache", type=int, default=4096, help="result-cache entries (0 = off)")
    p.add_argument(
        "--shards",
        type=int,
        default=0,
        help="serve the cube sharded over N worker processes (0/1 = single engine)",
    )
    p.add_argument(
        "--shard-dim",
        type=int,
        default=0,
        dest="shard_dim",
        help="dimension whose value routes each row/query to its shard",
    )
    p.add_argument(
        "--shard-timeout",
        type=float,
        default=30.0,
        dest="shard_timeout",
        help="seconds before a silent shard turns into a structured timeout",
    )
    p.add_argument("--verbose", action="store_true", help="log every request")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("workload", help="drive a serving workload, print latencies")
    p.add_argument(
        "target",
        help="a running server's http://host:port, a CSV table to serve, "
        "or a snapshot directory to mmap",
    )
    p.add_argument("--measures", type=int, default=0, help="trailing measure columns")
    p.add_argument("--min-support", type=int, default=1)
    p.add_argument(
        "--serve",
        action="store_true",
        help="serve a CSV target over a local HTTP server instead of in-process",
    )
    p.add_argument("--cache", type=int, default=4096, help="result-cache entries (0 = off)")
    p.add_argument("--clients", type=int, default=4, help="concurrent clients")
    p.add_argument("--requests", type=int, default=200, help="requests per client")
    p.add_argument("--theta", type=float, default=1.1, help="zipf skew of query popularity")
    p.add_argument("--pool", type=int, default=256, help="distinct queries in the mix")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--mix",
        default=None,
        help="op weights, e.g. point=0.7,rollup=0.15,drilldown=0.1,slice=0.05",
    )
    p.add_argument("--appends", type=int, default=0, help="append batches during the run")
    p.add_argument("--append-rows", type=int, default=32, help="rows per append batch")
    p.add_argument(
        "--batch",
        type=int,
        default=1,
        help="requests per query_batch round trip (1 = request-at-a-time)",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=0,
        help="serve a CSV target sharded over N worker processes",
    )
    p.add_argument(
        "--shard-dim",
        type=int,
        default=0,
        dest="shard_dim",
        help="dimension whose value routes each row/query to its shard",
    )
    p.add_argument(
        "--shard-timeout",
        type=float,
        default=30.0,
        dest="shard_timeout",
        help="seconds before a silent shard turns into a structured timeout",
    )
    p.add_argument(
        "--bind-dim",
        type=int,
        default=None,
        dest="bind_dim",
        help="pin this dimension in every pooled query (shard-key-bound traffic)",
    )
    p.add_argument(
        "--cold-start",
        type=int,
        default=0,
        dest="cold_start",
        help="after the run, time N engine restarts to first answered query "
        "(local targets only; reported as the cold_start op)",
    )
    p.add_argument(
        "--budget-mb",
        type=float,
        default=64.0,
        dest="budget_mb",
        help="snapshot tier resident-bytes budget in MiB (directory targets)",
    )
    p.add_argument(
        "--slo-p99-ms",
        type=float,
        default=None,
        dest="slo_p99_ms",
        help="latency SLO target in ms: report attainment and error-budget burn",
    )
    p.add_argument(
        "--slo-budget",
        type=float,
        default=0.01,
        dest="slo_budget",
        help="allowed fraction of requests over the SLO target (default 1%%)",
    )
    p.add_argument(
        "--approx-fraction",
        type=float,
        default=0.0,
        dest="approx_fraction",
        help="fraction of dice queries answered by the approximate tier "
        "(reported as the dice_approx op with its own percentiles)",
    )
    p.add_argument(
        "--approx-confidence",
        type=float,
        default=0.95,
        dest="approx_confidence",
        help="confidence level for approximate-tier bounds (default 0.95)",
    )
    p.set_defaults(func=_cmd_workload, snapshot_dir=None)

    p = sub.add_parser(
        "snapshot", help="freeze, inspect or probe mmap cube snapshots"
    )
    snap = p.add_subparsers(dest="action", required=True)

    ps = snap.add_parser("save", help="cube a CSV table into a snapshot directory")
    ps.add_argument("table", help="CSV base table to cube and freeze")
    ps.add_argument("--measures", type=int, default=0, help="trailing measure columns")
    ps.add_argument("--min-support", type=int, default=1)
    ps.add_argument("--out", required=True, help="snapshot directory to write")
    ps.add_argument(
        "--shards",
        type=int,
        default=0,
        help="write a sharded fleet: one snapshot per partition plus router.json",
    )
    ps.add_argument(
        "--shard-dim",
        type=int,
        default=0,
        dest="shard_dim",
        help="dimension whose value routes each row to its shard",
    )
    ps.set_defaults(func=_cmd_snapshot_save)

    ps = snap.add_parser("inspect", help="print a snapshot's manifest summary")
    ps.add_argument("snapshot", help="snapshot directory (single or sharded)")
    ps.add_argument("--json", action="store_true", help="machine-readable output")
    ps.set_defaults(func=_cmd_snapshot_inspect)

    ps = snap.add_parser(
        "load", help="mmap a snapshot, answer the apex query, print timings"
    )
    ps.add_argument("snapshot", help="snapshot directory (single or sharded)")
    ps.add_argument(
        "--budget-mb",
        type=float,
        default=64.0,
        dest="budget_mb",
        help="snapshot tier resident-bytes budget in MiB",
    )
    ps.add_argument(
        "--verify",
        action="store_true",
        help="checksum every column file against the manifest first (full read)",
    )
    ps.set_defaults(func=_cmd_snapshot_load)

    p = sub.add_parser("obs", help="fetch telemetry from a running server")
    p.add_argument("server", help="base URL, e.g. http://127.0.0.1:8642")
    p.add_argument(
        "--trace", action="store_true", help="fetch /trace instead of /metrics"
    )
    p.add_argument(
        "--chrome",
        action="store_true",
        help="with --trace: Chrome trace-event JSON (open in Perfetto)",
    )
    p.add_argument(
        "--slowlog", action="store_true", help="fetch /slowlog instead of /metrics"
    )
    p.add_argument(
        "--raw",
        action="store_true",
        help="with --slowlog: print the raw JSON instead of one line per entry",
    )
    p.add_argument(
        "--local",
        action="store_true",
        help="fetch /metrics?scope=local (this process only, no shard federation)",
    )
    p.add_argument("--limit", type=int, default=None, help="keep only the newest N spans")
    p.add_argument("--timeout", type=float, default=5.0, help="request timeout seconds")
    p.add_argument("--out", default=None, help="write the response to a file")
    p.set_defaults(func=_cmd_obs)

    p = sub.add_parser(
        "explain", help="run one query with EXPLAIN, print the per-phase account"
    )
    p.add_argument(
        "target",
        help="a running server's http://host:port, a CSV table, or a snapshot directory",
    )
    p.add_argument(
        "--op",
        default="point",
        choices=("point", "rollup", "drilldown", "slice", "dice"),
    )
    p.add_argument(
        "--bind",
        action="append",
        metavar="DIM=CODE",
        help="bind a dimension index to a value code (repeatable)",
    )
    p.add_argument("--dim", type=int, default=None, help="axis for rollup/drilldown")
    p.add_argument(
        "--pred",
        action="append",
        metavar="DIM=V1,V2",
        help="dice predicate: dimension index = comma-separated codes (repeatable)",
    )
    p.add_argument("--measures", type=int, default=0, help="trailing measure columns")
    p.add_argument("--min-support", type=int, default=1)
    p.add_argument("--cache", type=int, default=4096)
    p.add_argument(
        "--shards",
        type=int,
        default=0,
        help="explain against a local N-shard fleet (CSV targets)",
    )
    p.add_argument("--shard-dim", type=int, default=0, dest="shard_dim")
    p.add_argument(
        "--budget-mb",
        type=float,
        default=64.0,
        dest="budget_mb",
        help="snapshot tier resident-bytes budget in MiB (directory targets)",
    )
    p.add_argument(
        "--approx",
        action="store_true",
        help="answer a dice from the sketch tier (estimate + bounds)",
    )
    p.add_argument(
        "--confidence",
        type=float,
        default=None,
        help="with --approx: bound confidence level (default 0.95)",
    )
    p.add_argument(
        "--having",
        type=float,
        default=None,
        help="with --approx: keep only finest cells with count >= N (iceberg)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable account")
    p.set_defaults(func=_cmd_explain, snapshot_dir=None, shard_timeout=30.0)

    p = sub.add_parser("experiment", help="run a paper experiment driver")
    p.add_argument(
        "which", choices=("fig8", "fig9", "fig10", "fig11", "weather", "ablations")
    )
    p.add_argument("--preset", default="small", choices=("tiny", "small", "paper"))
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("report", help="run every experiment, write a markdown report")
    p.add_argument("--preset", default="tiny", choices=("tiny", "small", "paper"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("claims", help="check the paper's qualitative claims")
    p.add_argument("--preset", default="tiny", choices=("tiny", "small", "paper"))
    p.set_defaults(func=_cmd_claims)

    p = sub.add_parser("tune", help="inspect the dim_order='auto' planner")
    tsub = p.add_subparsers(dest="action", required=True)
    pt = tsub.add_parser(
        "explain", help="print the plan 'auto' would choose for a table"
    )
    pt.add_argument("table", help="CSV base table to sample")
    pt.add_argument("--measures", type=int, default=0, help="trailing measure columns")
    pt.add_argument(
        "--sample", type=int, default=4096, help="reservoir rows the planner scans"
    )
    pt.add_argument(
        "--values",
        action="store_true",
        help="also plan per-dimension value reorders (co-occurrence clustering)",
    )
    pt.add_argument("--json", action="store_true", help="machine-readable plan")
    pt.set_defaults(func=_cmd_tune)

    p = sub.add_parser("advise", help="estimate cube size, recommend a strategy")
    p.add_argument("table")
    p.add_argument("--measures", type=int, default=0)
    p.add_argument("--sample", type=int, default=2000)
    p.set_defaults(func=_cmd_advise)

    p = sub.add_parser(
        "estimate",
        help="sampling-based size estimates: one cuboid (--dims) or the full cube",
    )
    p.add_argument("table", help="CSV base table to sample")
    p.add_argument("--measures", type=int, default=0, help="trailing measure columns")
    p.add_argument(
        "--dims",
        default=None,
        metavar="D1,D2",
        help="estimate one cuboid's distinct-group count instead of the full cube",
    )
    p.add_argument(
        "--sample", type=int, default=2000, help="sampled rows for the GEE estimator"
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_estimate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
