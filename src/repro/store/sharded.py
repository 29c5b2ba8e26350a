"""Per-shard snapshots: mmap handoff for the sharded serving tier.

:func:`save_sharded_snapshot` partitions a fact table exactly like
:meth:`~repro.serve.sharded.ShardRouter.from_table` (value routing on
one shard dimension, global cardinalities), builds each shard's cube and
writes one snapshot directory per shard next to a ``router.json``
describing the fleet — published atomically as one directory swap.

:meth:`ShardRouter.from_snapshot_dir` then spawns the same worker
processes, but each worker *memory-maps* its partition's snapshot
instead of receiving numpy slices over the spawn pickle pipe: the cold
start ships file names, not cubes, and the page cache is shared between
a dying fleet and its replacement.  The workers run
:class:`SnapshotShardEngine` — :class:`~repro.serve.sharded.ShardEngine`
over a read-only :class:`~repro.store.engine.SnapshotEngine`, answering
through the same local resolver; the two-phase append is refused with a
structured ``bad_request`` (ingest means rebuilding and re-snapshotting).
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

from repro.core.incremental import IncrementalRangeCuber
from repro.core.partitioned import shard_partition_payloads
from repro.serve.sharded import ShardEngine
from repro.store.engine import DEFAULT_BUDGET_BYTES, SnapshotEngine
from repro.store.snapshot import (
    SnapshotError,
    _aggregator_manifest,
    _publish_dir,
    rebuild_aggregator,
    write_snapshot,
)
from repro.table.aggregates import Aggregator, default_aggregator
from repro.table.base_table import BaseTable
from repro.table.schema import Dimension, Schema

#: The fleet manifest's ``format`` field.
ROUTER_FORMAT = "repro-snapshot-shards"
ROUTER_VERSION = 1
ROUTER_MANIFEST = "router.json"


def is_sharded_snapshot(path: str | Path) -> bool:
    """Whether ``path`` holds a sharded (vs single) snapshot."""
    return (Path(path) / ROUTER_MANIFEST).exists()


def read_router_manifest(path: str | Path) -> dict:
    """The validated fleet manifest of a sharded snapshot directory."""
    manifest_path = Path(path) / ROUTER_MANIFEST
    if not manifest_path.exists():
        raise SnapshotError(
            f"{path} is not a sharded snapshot (no {ROUTER_MANIFEST})"
        )
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != ROUTER_FORMAT:
        raise SnapshotError(f"{manifest_path} is not a {ROUTER_FORMAT} manifest")
    if int(manifest.get("version", 0)) > ROUTER_VERSION:
        raise SnapshotError(
            f"sharded snapshot version {manifest['version']} is newer than "
            f"supported version {ROUTER_VERSION}"
        )
    return manifest


def save_sharded_snapshot(
    table: BaseTable,
    path: str | Path,
    *,
    n_shards: int = 4,
    shard_dim: int = 0,
    aggregator: Aggregator | None = None,
    min_support: int = 1,
    engine_version: int = 0,
) -> Path:
    """Partition ``table``, cube every shard, snapshot the fleet (atomic).

    The partitioning and per-shard cube construction mirror
    :meth:`ShardRouter.from_table` exactly, so a fleet cold-started from
    this directory answers bit-identically to one built live from the
    same table.
    """
    agg = aggregator or default_aggregator(table.n_measures)
    slices = shard_partition_payloads(table, n_shards, shard_dim)
    # Global cardinalities, as in ShardRouter.from_table: every shard's
    # manifest reports the fleet's domain, not its local maximum code.
    cardinalities = [c or 0 for c in table.schema.cardinalities]
    schema = Schema(
        tuple(
            Dimension(d.name, card)
            for d, card in zip(table.schema.dimensions, cardinalities)
        ),
        table.schema.measures,
    )
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        shard_names = []
        for shard, (codes, measures) in enumerate(slices):
            shard_name = f"shard_{shard:02d}"
            shard_names.append(shard_name)
            cuber = IncrementalRangeCuber(table.n_dims, agg)
            cuber.insert_table(BaseTable(schema, codes, measures))
            write_snapshot(
                cuber.cube(min_support),
                tmp / shard_name,
                schema,
                min_support=min_support,
                engine_version=engine_version,
                rows_absorbed=len(codes),
                # Each shard carries its own approx-tier sketch (built
                # over its partition; skipped for custom aggregators) so
                # a cold-started fleet estimates without a warm-up build.
                # Distinct per-shard seeds keep the samples independent;
                # the router's variance merge assumes that.
                sketch=True,
                sketch_seed=1 + shard,
            )
        manifest = {
            "format": ROUTER_FORMAT,
            "version": ROUTER_VERSION,
            "n_shards": int(n_shards),
            "shard_dim": int(shard_dim),
            "min_support": int(min_support),
            "engine_version": int(engine_version),
            "rows_absorbed": int(table.n_rows),
            "schema": {
                "dimension_names": list(schema.dimension_names),
                "cardinalities": list(cardinalities),
                "measure_names": list(schema.measure_names),
            },
            "aggregator": _aggregator_manifest(agg),
            "shards": shard_names,
        }
        (tmp / ROUTER_MANIFEST).write_text(
            json.dumps(manifest, indent=1, sort_keys=True)
        )
        _publish_dir(tmp, path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return path


class SnapshotShardEngine(ShardEngine):
    """One shard's scatter surface over a memory-mapped snapshot.

    :class:`ShardEngine` with a read-only :class:`SnapshotEngine` inside:
    ``scatter`` runs the same local resolver over the mapped columns, and
    the two-phase refresh hooks refuse with a structured ``bad_request``.
    """

    def __init__(
        self,
        shard_id: int,
        path: str | Path,
        *,
        engine_version: int = 0,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
        promote_after: int = 2,
    ) -> None:
        # Deliberately no super().__init__: the inner engine maps a
        # snapshot instead of cubing a table slice.
        self.shard_id = shard_id
        self.engine = SnapshotEngine(
            path,
            cache_capacity=8,
            budget_bytes=budget_bytes,
            promote_after=promote_after,
            name=f"shard-{shard_id}",
        )
        self.version = int(engine_version)
        self._staged = None
        self._latency = 0.0
        self._fail_next = 0


def _build_snapshot_shard_engine(payload: tuple) -> SnapshotShardEngine:
    """Worker factory (module-level so it pickles by reference).

    The payload is just ``(shard id, snapshot path, engine version,
    budget, promote_after)`` — the worker maps the columns itself, so
    nothing cube-sized ever crosses the spawn pipe.
    """
    shard_id, path, engine_version, budget_bytes, promote_after = payload
    return SnapshotShardEngine(
        shard_id,
        path,
        engine_version=engine_version,
        budget_bytes=budget_bytes,
        promote_after=promote_after,
    )


def router_schema(manifest: dict) -> Schema:
    """The routing schema recorded in a fleet manifest."""
    spec = manifest["schema"]
    base = Schema.from_names(spec["dimension_names"], spec["measure_names"])
    return Schema(
        tuple(
            Dimension(d.name, int(card))
            for d, card in zip(base.dimensions, spec["cardinalities"])
        ),
        base.measures,
    )


def router_aggregator(manifest: dict, aggregator: Aggregator | None = None) -> Aggregator:
    """The fleet's aggregator: the caller's instance or the manifest's specs."""
    return aggregator if aggregator is not None else rebuild_aggregator(
        manifest["aggregator"]
    )
