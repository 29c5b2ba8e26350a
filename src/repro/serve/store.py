"""Named, restartable cube storage for the serving layer.

A :class:`CubeStore` keeps each named cube as three sibling files under
one root directory:

* ``<name>.meta.json`` — schema (dimension/measure names, cardinalities),
  the iceberg threshold and the engine version counter;
* ``<name>.cuber.json`` — the resident incremental trie, via
  :mod:`repro.core.serialize` (the complete write-path state);
* ``<name>.cube.csv`` — an optional export of the emitted range cube in
  the paper's tuple notation (:mod:`repro.data.io`), for interchange.

The trie is the source of truth: loading a cube re-emits the range cube
from it, so the store never has to keep cube and trie consistent.  Files
are written to a temporary sibling, fsynced and atomically renamed (the
directory too), so a crash mid-save leaves the previous generation
intact — which is what lets a serving engine write through to the store
on every refresh.

``CubeStore(root, format="snapshot")`` additionally freezes each saved
cube into a mmap-able snapshot directory (``<name>.snapshot/``, see
:mod:`repro.store`): :meth:`open_engine` then cold-starts by mapping the
columns instead of re-emitting the cube from the trie JSON — near-
instant restarts — while appends keep flowing through the trie as
before.  Entries written without a snapshot keep loading unchanged.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.core.incremental import IncrementalRangeCuber
from repro.core.serialize import load_cuber, save_cuber
from repro.data.io import write_range_cube_csv
from repro.store.snapshot import fsync_dir, fsync_file, load_snapshot, write_snapshot
from repro.table.aggregates import Aggregator, default_aggregator
from repro.table.base_table import BaseTable
from repro.table.schema import Schema

FORMAT_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise ValueError(
            f"invalid cube name {name!r}: use letters, digits, '.', '_', '-' "
            "and start with a letter or digit"
        )
    return name


@dataclass(frozen=True)
class StoredCube:
    """Everything :meth:`CubeStore.load` returns for one named cube."""

    name: str
    cuber: IncrementalRangeCuber
    schema: Schema
    min_support: int
    engine_version: int


class CubeStore:
    """Load/persist named cubes (resident trie + schema) in a directory."""

    #: Accepted ``format`` arguments (the on-disk *read* representation).
    FORMATS = ("json", "snapshot")

    def __init__(self, root: str | Path, *, format: str = "json") -> None:
        if format not in self.FORMATS:
            raise ValueError(
                f"unknown store format {format!r}; supported: {', '.join(self.FORMATS)}"
            )
        self.root = Path(root)
        self.format = format
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths -----------------------------------------------------------

    def _meta_path(self, name: str) -> Path:
        return self.root / f"{_check_name(name)}.meta.json"

    def _cuber_path(self, name: str) -> Path:
        return self.root / f"{_check_name(name)}.cuber.json"

    def _cube_csv_path(self, name: str) -> Path:
        return self.root / f"{_check_name(name)}.cube.csv"

    def _snapshot_path(self, name: str) -> Path:
        return self.root / f"{_check_name(name)}.snapshot"

    # -- enumeration -----------------------------------------------------

    def list_cubes(self) -> list[str]:
        """The stored cube names, sorted."""
        return sorted(p.name[: -len(".meta.json")] for p in self.root.glob("*.meta.json"))

    def exists(self, name: str) -> bool:
        return self._meta_path(name).exists()

    def delete(self, name: str) -> None:
        """Remove every file of ``name`` (missing files are fine)."""
        for path in (
            self._meta_path(name),
            self._cuber_path(name),
            self._cube_csv_path(name),
        ):
            path.unlink(missing_ok=True)
        snapshot = self._snapshot_path(name)
        if snapshot.exists():
            shutil.rmtree(snapshot)

    # -- persistence -----------------------------------------------------

    @staticmethod
    def _atomic_write(path: Path, text: str) -> None:
        # fsync before the rename: os.replace makes the *name* swap
        # atomic, but without flushing the temp file's data first a
        # crash can still publish an empty/truncated file under the
        # final name.  The directory fsync persists the rename itself.
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fsync_dir(path.parent)

    def save(
        self,
        name: str,
        cuber: IncrementalRangeCuber,
        schema: Schema,
        *,
        min_support: int = 1,
        engine_version: int = 0,
    ) -> None:
        """Persist ``cuber`` (and its schema) as cube ``name``.

        In ``format="snapshot"`` mode the emitted cube is additionally
        frozen into ``<name>.snapshot/`` (its own atomic directory swap)
        before the meta flips to point at it, so a crash anywhere in the
        sequence leaves a loadable entry.
        """
        if schema.n_dims != cuber.trie.n_dims:
            raise ValueError(
                f"schema has {schema.n_dims} dims, cuber has {cuber.trie.n_dims}"
            )
        meta = {
            "format": "cube-store-entry",
            "version": FORMAT_VERSION,
            "name": _check_name(name),
            "dimension_names": list(schema.dimension_names),
            "cardinalities": list(schema.cardinalities),
            "measure_names": list(schema.measure_names),
            "min_support": int(min_support),
            "engine_version": int(engine_version),
            "rows_absorbed": cuber.n_rows_absorbed,
        }
        # The cuber first: a crash between the writes leaves a stale but
        # mutually consistent (meta, cuber) pair from the prior save.
        tmp = self._cuber_path(name).with_name(self._cuber_path(name).name + ".tmp")
        save_cuber(cuber, tmp)
        fsync_file(tmp)
        os.replace(tmp, self._cuber_path(name))
        if self.format == "snapshot":
            write_snapshot(
                cuber.cube(min_support),
                self._snapshot_path(name),
                schema,
                min_support=min_support,
                engine_version=engine_version,
                rows_absorbed=cuber.n_rows_absorbed,
                tuning=None if cuber.plan is None else cuber.plan.to_json(),
            )
            meta["read_format"] = "snapshot"
        self._atomic_write(self._meta_path(name), json.dumps(meta, separators=(",", ":")))

    def create(
        self,
        name: str,
        table: BaseTable,
        *,
        aggregator: Aggregator | None = None,
        min_support: int = 1,
        overwrite: bool = False,
        dim_order="auto",
    ) -> StoredCube:
        """Build a resident trie from ``table`` and store it as ``name``.

        ``dim_order`` follows the build-path convention: ``"auto"`` (the
        default) plans the trie order with :mod:`repro.tune`, ``None``
        pins the as-is order, and a sequence or
        :class:`~repro.tune.TuningPlan` pins an explicit choice.  The
        plan is persisted with the cuber, so reloads keep transforming
        inserts and restoring answers exactly as the original process did.
        """
        from repro.tune import resolve_plan

        if self.exists(name) and not overwrite:
            raise FileExistsError(f"cube {name!r} already exists in {self.root}")
        agg = aggregator or default_aggregator(table.n_measures)
        plan, order = resolve_plan(table, dim_order)
        if plan is None and order is not None:
            from repro.tune import TuningPlan

            plan = TuningPlan(order, source="fixed")
        cuber = IncrementalRangeCuber(table.n_dims, agg, plan=plan)
        cuber.insert_table(table)
        self.save(name, cuber, table.schema, min_support=min_support)
        return StoredCube(name, cuber, table.schema, min_support, 0)

    def load(self, name: str, *, aggregator: Aggregator | None = None) -> StoredCube:
        """Restore a stored cube (trie, schema, counters) by name.

        ``aggregator`` defaults to :func:`default_aggregator` over the
        stored measure count — supply the original instance for richer
        aggregates (the trie stores states, not behaviour).
        """
        meta_path = self._meta_path(name)
        if not meta_path.exists():
            raise FileNotFoundError(f"no cube named {name!r} in {self.root}")
        meta = json.loads(meta_path.read_text())
        if meta.get("format") != "cube-store-entry":
            raise ValueError(f"{meta_path} is not a cube-store entry")
        schema = Schema.from_names(meta["dimension_names"], meta["measure_names"])
        schema = Schema(
            tuple(
                d.with_cardinality(int(c))
                for d, c in zip(schema.dimensions, meta["cardinalities"])
            ),
            schema.measures,
        )
        agg = aggregator or default_aggregator(len(meta["measure_names"]))
        cuber = load_cuber(self._cuber_path(name), agg)
        return StoredCube(
            name,
            cuber,
            schema,
            int(meta.get("min_support", 1)),
            int(meta.get("engine_version", 0)),
        )

    def export_csv(self, name: str, *, aggregator: Aggregator | None = None) -> Path:
        """Emit the named cube as a range-cube CSV next to its trie."""
        stored = self.load(name, aggregator=aggregator)
        cube = stored.cuber.cube(stored.min_support)
        path = self._cube_csv_path(name)
        write_range_cube_csv(cube, path, stored.schema.dimension_names)
        return path

    # -- serving ---------------------------------------------------------

    def open_engine(
        self,
        name: str,
        *,
        aggregator: Aggregator | None = None,
        cache_capacity: int = 1024,
    ):
        """A :class:`~repro.serve.engine.QueryEngine` over the stored cube.

        Appends through the engine write back to this store, so the cube
        survives restarts at the latest appended version.  Entries saved
        with ``read_format: "snapshot"`` cold-start by memory-mapping
        the snapshot columns as the initial cube generation — the trie
        is still loaded (it is the write path), but the expensive cube
        emission is skipped until the first compaction.
        """
        from repro.serve.engine import QueryEngine

        stored = self.load(name, aggregator=aggregator)
        initial_cube = None
        meta = json.loads(self._meta_path(name).read_text())
        snapshot_path = self._snapshot_path(name)
        if meta.get("read_format") == "snapshot" and snapshot_path.exists():
            from repro.store.engine import SnapshotCube

            initial_cube = SnapshotCube(
                load_snapshot(snapshot_path, aggregator=aggregator)
            )
        return QueryEngine(
            stored.cuber,
            stored.schema,
            min_support=stored.min_support,
            cache_capacity=cache_capacity,
            store=self,
            name=name,
            initial_version=stored.engine_version,
            initial_cube=initial_cube,
        )

    def __repr__(self) -> str:
        return f"CubeStore({str(self.root)!r}, {len(self.list_cubes())} cubes)"
