"""The on-disk snapshot format: mmap-able columns under a JSON manifest.

A snapshot is a *directory* holding one frozen
:class:`~repro.core.columnar.ColumnarRangeStore` in its native layout:

* ``manifest.json`` — format name/version, schema (dimension/measure
  names, cardinalities), the aggregator's specs, dtype + shape + sha256
  per column file, and the serving counters (``min_support``,
  ``engine_version``, ``rows_absorbed``);
* one little-endian ``.npy`` file per column — the specific matrix, the
  marked/bound/fixed bitmasks, the packed acceptance bitsets, the COUNT
  column and one file per stock measure component (AVG keeps its
  ``(sum, count)`` pair as two files);
* the per-dimension inverted postings flattened into one CSR triple
  (``postings_codes`` / ``postings_offsets`` / ``postings_ids``) plus
  per-dimension bounds, so a value's range-id list is two binary
  searches and a zero-copy slice.

Writes are atomic at directory granularity: everything lands in a
temporary sibling, every file and the directory are fsynced, and one
``os.replace`` publishes the snapshot — a crash mid-save leaves either
the old snapshot or none, never a torn one.  Loads go through
``np.load(..., mmap_mode="r")``, so opening a multi-gigabyte snapshot
costs a few page faults, not a deserialize; the columns stay on disk
until a query touches them (see :class:`SnapshotStore` and the tier
policy in :mod:`repro.store.engine`).

Aggregators whose scalar algebra is overridden (custom state layouts)
cannot be unpacked into measure columns; their states fall back to a
``states.json`` sidecar and loading requires the original aggregator
instance, exactly like :meth:`repro.serve.store.CubeStore.load`.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.approx import CubeSketch, SketchUnsupported
from repro.core.columnar import (
    STAR_CODE,
    ColumnarRangeStore,
    _FastStateColumns,
    explain_collector,
)
from repro.core.range_cube import Range, RangeCube
from repro.core.serialize import _state_from_json, _state_to_json
from repro.table.aggregates import (
    Aggregator,
    AvgFunction,
    MaxFunction,
    MinFunction,
    SumFunction,
)
from repro.table.schema import Schema

#: The manifest's ``format`` field; anything else is refused on load.
SNAPSHOT_FORMAT = "repro-snapshot"

#: Bumped on layout changes.  Loaders refuse *newer* snapshots (forward
#: compatibility is not promised); older versions get explicit upgrade
#: shims here when the layout evolves.
SNAPSHOT_VERSION = 1

MANIFEST_NAME = "manifest.json"

_FUNCTION_BY_NAME = {
    "sum": SumFunction,
    "min": MinFunction,
    "max": MaxFunction,
    "avg": AvgFunction,
}


class SnapshotError(ValueError):
    """A snapshot that cannot be written or loaded (format/layout problems)."""


class SnapshotIntegrityError(SnapshotError):
    """A snapshot whose files contradict the manifest's checksums."""


# ----------------------------------------------------------------------
# durability helpers
# ----------------------------------------------------------------------


def fsync_file(path: Path) -> None:
    """Flush one file's contents to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: Path) -> None:
    """Flush one directory's entries to stable storage (POSIX; best effort)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------


def _little_endian(array: np.ndarray) -> np.ndarray:
    """The array in little-endian byte order (a view on LE platforms)."""
    dtype = array.dtype.newbyteorder("<")
    return np.ascontiguousarray(array, dtype=dtype)


def _postings_csr(store: ColumnarRangeStore) -> dict[str, np.ndarray]:
    """The per-dimension postings flattened into one CSR layout.

    ``codes[dim_bounds[d]:dim_bounds[d+1]]`` are dimension ``d``'s codes
    ascending (``-1``, the ``*`` posting, sorts first); code slot ``i``
    owns ``ids[offsets[i]:offsets[i+1]]``.
    """
    codes: list[int] = []
    id_parts: list[np.ndarray] = []
    offsets = [0]
    dim_bounds = [0]
    for post in store.postings:
        for code, ids in sorted(post.items()):
            codes.append(int(code))
            id_parts.append(np.asarray(ids, dtype=np.int32))
            offsets.append(offsets[-1] + len(ids))
        dim_bounds.append(len(codes))
    ids = (
        np.concatenate(id_parts) if id_parts else np.empty(0, dtype=np.int32)
    )
    return {
        "postings_codes": np.asarray(codes, dtype=np.int64),
        "postings_offsets": np.asarray(offsets, dtype=np.int64),
        "postings_ids": ids.astype(np.int32, copy=False),
        "postings_dim_bounds": np.asarray(dim_bounds, dtype=np.int64),
    }


def _measure_arrays(store: ColumnarRangeStore) -> tuple[list[str], dict[str, np.ndarray]]:
    """Per-measure column files from the store's fast state columns."""
    fast = store._fast_columns
    kinds: list[str] = []
    arrays: dict[str, np.ndarray] = {}
    if fast is None:
        return kinds, arrays
    for j, (kind, column) in enumerate(zip(fast.kinds, fast.columns)):
        kinds.append(kind)
        if kind == "avg":
            sums, counts = column
            arrays[f"measure_{j}_sums"] = np.asarray(sums, dtype=np.float64)
            arrays[f"measure_{j}_counts"] = np.asarray(counts, dtype=np.int64)
        else:
            arrays[f"measure_{j}"] = np.asarray(column, dtype=np.float64)
    return kinds, arrays


def _aggregator_manifest(aggregator: Aggregator) -> dict:
    """The aggregator's portable description (specs by function name)."""
    stock = all(fn.name in _FUNCTION_BY_NAME for fn, _ in aggregator.specs)
    return {
        "class": type(aggregator).__name__,
        "specs": [[fn.name, int(idx)] for fn, idx in aggregator.specs],
        "stock": bool(stock),
    }


def _publish_dir(tmp: Path, path: Path) -> None:
    """Atomically replace ``path`` with the fully-synced ``tmp`` directory."""
    for child in sorted(tmp.iterdir()):
        fsync_file(child)
    fsync_dir(tmp)
    if path.exists():
        doomed = path.with_name(path.name + ".old")
        if doomed.exists():
            shutil.rmtree(doomed)
        os.replace(path, doomed)
        os.replace(tmp, path)
        shutil.rmtree(doomed)
    else:
        os.replace(tmp, path)
    fsync_dir(path.parent)


def write_snapshot(
    source: "RangeCube | ColumnarRangeStore",
    path: str | Path,
    schema: Schema,
    *,
    min_support: int = 1,
    engine_version: int = 0,
    rows_absorbed: int = 0,
    tuning: dict | None = None,
    sketch: "CubeSketch | bool | None" = None,
    sketch_seed: int = 0,
) -> Path:
    """Freeze ``source`` into a snapshot directory at ``path`` (atomic).

    ``source`` is a :class:`RangeCube` (frozen via ``to_columnar``) or an
    already-frozen store.  ``schema`` travels in the manifest so a loaded
    snapshot can serve without the base table.  ``tuning`` (optional) is
    a :meth:`~repro.tune.TuningPlan.to_json` document recording how the
    build was self-tuned — provenance only, since snapshot ranges are
    always stored in original dimension/value coding.  ``sketch`` adds
    the approximate tier's summary (:class:`repro.approx.CubeSketch`) as
    extra ``sketch_*`` columns plus a manifest block: pass a prebuilt
    sketch, or ``True`` to build one here (skipped silently when the
    aggregator has no sampling estimator).  Old loaders ignore both —
    the format version is unchanged.  Returns ``path``.
    """
    store = source if isinstance(source, ColumnarRangeStore) else source.to_columnar()
    if schema.n_dims != store.n_dims:
        raise SnapshotError(
            f"schema has {schema.n_dims} dims, store has {store.n_dims}"
        )
    if sketch is True:
        try:
            # ``sketch_seed`` matters for sharded fleets: each shard must
            # sample with a distinct seed so the router can treat the
            # per-shard estimates as independent when summing variances.
            sketch = CubeSketch.from_store(store, seed=sketch_seed)
        except SketchUnsupported:
            sketch = None
    path = Path(path)
    arrays: dict[str, np.ndarray] = {
        "specific": store.specific,
        "marked_mask": store.marked_mask,
        "bound_mask": store.bound_mask,
        "fixed_mask": store.fixed_mask,
        "accept_words": store.accept_words,
        "counts": store.counts,
    }
    kinds, measure_arrays = _measure_arrays(store)
    arrays.update(measure_arrays)
    arrays.update(_postings_csr(store))
    if sketch:
        arrays.update(sketch.to_arrays())

    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        array_meta: dict[str, dict] = {}
        for name, array in arrays.items():
            file_name = f"{name}.npy"
            array = _little_endian(array)
            np.save(tmp / file_name, array)
            array_meta[name] = {
                "file": file_name,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "sha256": _sha256(tmp / file_name),
            }
        if store._fast_columns is not None:
            states = {"format": "columns", "kinds": kinds}
        else:
            # Custom state layouts: keep the exact tuples as JSON.
            text = json.dumps(
                [_state_to_json(s) for s in store.states], separators=(",", ":")
            )
            (tmp / "states.json").write_text(text)
            states = {
                "format": "json",
                "file": "states.json",
                "sha256": _sha256(tmp / "states.json"),
            }
        manifest = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "n_dims": store.n_dims,
            "n_ranges": len(store),
            "schema": {
                "dimension_names": list(schema.dimension_names),
                "cardinalities": [
                    int(c) if c is not None else None for c in schema.cardinalities
                ],
                "measure_names": list(schema.measure_names),
            },
            "min_support": int(min_support),
            "engine_version": int(engine_version),
            "rows_absorbed": int(rows_absorbed),
            "aggregator": _aggregator_manifest(store.aggregator),
            "states": states,
            "arrays": array_meta,
        }
        if tuning is not None:
            manifest["tuning"] = tuning
        if sketch:
            manifest["sketch"] = sketch.manifest_entry()
        (tmp / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=1, sort_keys=True)
        )
        _publish_dir(tmp, path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return path


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------


def read_manifest(path: str | Path) -> dict:
    """The validated manifest of the snapshot directory at ``path``."""
    manifest_path = Path(path) / MANIFEST_NAME
    if not manifest_path.exists():
        raise SnapshotError(f"{path} is not a snapshot directory (no {MANIFEST_NAME})")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"{manifest_path} is not a {SNAPSHOT_FORMAT} manifest")
    if int(manifest.get("version", 0)) > SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {manifest['version']} is newer than supported "
            f"version {SNAPSHOT_VERSION}"
        )
    return manifest


def manifest_schema(manifest: dict) -> Schema:
    """The serving schema recorded in a snapshot manifest."""
    spec = manifest["schema"]
    schema = Schema.from_names(spec["dimension_names"], spec["measure_names"])
    dims = tuple(
        d.with_cardinality(int(c)) if c is not None else d
        for d, c in zip(schema.dimensions, spec["cardinalities"])
    )
    return Schema(dims, schema.measures)


def _verify_checksums(path: Path, manifest: dict) -> None:
    for name, meta in manifest["arrays"].items():
        actual = _sha256(path / meta["file"])
        if actual != meta["sha256"]:
            raise SnapshotIntegrityError(
                f"checksum mismatch for {meta['file']} in {path}: "
                f"manifest says {meta['sha256'][:12]}…, file is {actual[:12]}…"
            )
    states = manifest["states"]
    if states["format"] == "json" and _sha256(path / states["file"]) != states["sha256"]:
        raise SnapshotIntegrityError(f"checksum mismatch for {states['file']} in {path}")


def _load_array(path: Path, meta: dict, mmap: bool) -> np.ndarray:
    array = np.load(path / meta["file"], mmap_mode="r" if mmap else None)
    if array.dtype.str != meta["dtype"] or list(array.shape) != meta["shape"]:
        raise SnapshotIntegrityError(
            f"{meta['file']} is {array.dtype.str}{array.shape}, manifest says "
            f"{meta['dtype']}{tuple(meta['shape'])}"
        )
    return array


def rebuild_aggregator(spec: dict) -> Aggregator:
    """A stock aggregator from a manifest's ``aggregator`` block.

    Rebuilding from the specs reproduces the original's merge/finalize
    behaviour exactly — the stock subclasses only specialize for speed.
    Custom aggregators (overridden scalar algebra) cannot be rebuilt;
    callers must supply the original instance.
    """
    if not spec.get("stock", False):
        raise SnapshotError(
            f"snapshot was written with a custom aggregator "
            f"({spec.get('class')}); pass the original instance via "
            "load_snapshot(..., aggregator=...)"
        )
    return Aggregator(
        tuple((_FUNCTION_BY_NAME[name](), int(idx)) for name, idx in spec["specs"])
    )


def _rebuild_aggregator(manifest: dict) -> Aggregator:
    return rebuild_aggregator(manifest["aggregator"])


def load_snapshot(
    path: str | Path,
    *,
    aggregator: Aggregator | None = None,
    mmap: bool = True,
    verify: bool = False,
) -> "SnapshotStore":
    """Open the snapshot at ``path`` as a query-ready columnar store.

    With ``mmap=True`` (the default) every column file is memory-mapped
    read-only, so the load is near-instant and the columns page in on
    demand — the store can be much larger than RAM.  ``verify=True``
    checksums every file against the manifest first (a full read; use it
    for audits and after transfers, not on the serving cold-start path).
    """
    path = Path(path)
    manifest = read_manifest(path)
    if verify:
        _verify_checksums(path, manifest)
    arrays = {
        name: _load_array(path, meta, mmap)
        for name, meta in manifest["arrays"].items()
    }
    states_spec = manifest["states"]
    states_json = None
    if states_spec["format"] == "json":
        if aggregator is None:
            _rebuild_aggregator(manifest)  # raises the explanatory error
        raw = json.loads((path / states_spec["file"]).read_text())
        states_json = [_state_from_json(s) for s in raw]
    agg = aggregator if aggregator is not None else _rebuild_aggregator(manifest)
    return SnapshotStore(path, manifest, arrays, agg, states_json=states_json)


def inspect_snapshot(path: str | Path) -> dict:
    """A JSON-able summary of the snapshot at ``path`` (no column reads)."""
    path = Path(path)
    manifest = read_manifest(path)
    files = []
    total = 0
    for name, meta in sorted(manifest["arrays"].items()):
        size = (path / meta["file"]).stat().st_size
        total += size
        files.append(
            {
                "name": name,
                "file": meta["file"],
                "dtype": meta["dtype"],
                "shape": meta["shape"],
                "bytes": size,
            }
        )
    return {
        "path": str(path),
        "format": manifest["format"],
        "format_version": manifest["version"],
        "n_dims": manifest["n_dims"],
        "n_ranges": manifest["n_ranges"],
        "schema": manifest["schema"],
        "aggregator": manifest["aggregator"],
        "states_format": manifest["states"]["format"],
        "min_support": manifest["min_support"],
        "engine_version": manifest["engine_version"],
        "rows_absorbed": manifest["rows_absorbed"],
        "tuning": manifest.get("tuning"),
        "column_bytes": total,
        "files": files,
    }


# ----------------------------------------------------------------------
# the mmap-backed store
# ----------------------------------------------------------------------


class _MappedPostings:
    """One dimension's inverted postings over the CSR arrays (zero-copy).

    Presents the ``dict``-ish surface :class:`ColumnarRangeStore`'s read
    path uses (``get`` / ``items``): a lookup is a binary search over
    the dimension's code slice plus one slice of the id file — no
    per-value arrays are ever materialized.
    """

    __slots__ = ("_codes", "_offsets", "_ids")

    def __init__(self, codes: np.ndarray, offsets: np.ndarray, ids: np.ndarray) -> None:
        self._codes = codes  # ascending; STAR_CODE (-1) first when present
        self._offsets = offsets  # len(codes) + 1 bounds into ids
        self._ids = ids

    def get(self, value, default=None):
        i = int(np.searchsorted(self._codes, value))
        if i >= len(self._codes) or int(self._codes[i]) != value:
            return default
        ids = self._ids[int(self._offsets[i]) : int(self._offsets[i + 1])]
        acc = explain_collector()
        if acc is not None:
            # Bytes this lookup pulls off the mapped postings file — the
            # EXPLAIN "bytes faulted" approximation (page granularity and
            # OS caching aside, this is what the query touches on disk).
            acc.add("snapshot_bytes_faulted", int(ids.nbytes))
        return ids

    def items(self) -> Iterator[tuple[int, np.ndarray]]:
        for i in range(len(self._codes)):
            yield (
                int(self._codes[i]),
                self._ids[int(self._offsets[i]) : int(self._offsets[i + 1])],
            )

    def __len__(self) -> int:
        return len(self._codes)


def _split_postings(arrays: dict[str, np.ndarray], n_dims: int) -> list[_MappedPostings]:
    codes = arrays["postings_codes"]
    offsets = arrays["postings_offsets"]
    ids = arrays["postings_ids"]
    bounds = arrays["postings_dim_bounds"]
    return [
        _MappedPostings(
            codes[int(bounds[d]) : int(bounds[d + 1])],
            offsets[int(bounds[d]) : int(bounds[d + 1]) + 1],
            ids,
        )
        for d in range(n_dims)
    ]


class _LazyStates(Sequence):
    """The states column as a sequence, materializing one tuple at a time."""

    __slots__ = ("_store",)

    def __init__(self, store: "SnapshotStore") -> None:
        self._store = store

    def __len__(self) -> int:
        return len(self._store.counts)

    def __getitem__(self, rid):
        if isinstance(rid, slice):
            return [self[i] for i in range(*rid.indices(len(self)))]
        return self._store.state_at(int(rid))


class _LazyRanges(Sequence):
    """The cube's ranges rebuilt on demand from the mapped columns."""

    __slots__ = ("_store",)

    def __init__(self, store: "SnapshotStore") -> None:
        self._store = store

    def __len__(self) -> int:
        return len(self._store.counts)

    def __getitem__(self, rid):
        if isinstance(rid, slice):
            return [self[i] for i in range(*rid.indices(len(self)))]
        store = self._store
        rid = int(rid)
        specific = tuple(
            None if c == STAR_CODE else c for c in store.specific[rid].tolist()
        )
        return Range(specific, int(store.marked_mask[rid]), store.state_at(rid))


class SnapshotStore(ColumnarRangeStore):
    """A :class:`ColumnarRangeStore` whose columns live in a snapshot.

    Construction wires the memory-mapped arrays straight into the parent
    class's attribute layout — every read-path method (postings
    intersection, cuboid maps, dice kernels, state merging) runs
    unchanged over the mapped columns, which is what makes snapshot
    answers bit-identical to the resident store's.  States and
    :class:`Range` objects are reconstructed lazily from the columns;
    nothing row-shaped is materialized at load time.
    """

    def __init__(
        self,
        path: Path,
        manifest: dict,
        arrays: dict[str, np.ndarray],
        aggregator: Aggregator,
        *,
        states_json: list[tuple] | None = None,
    ) -> None:
        # Deliberately no super().__init__: the columns come from disk,
        # not from a resident cube.
        self.path = Path(path)
        self.manifest = manifest
        self.aggregator = aggregator
        self.n_dims = int(manifest["n_dims"])
        self.specific = arrays["specific"]
        self.marked_mask = arrays["marked_mask"]
        self.bound_mask = arrays["bound_mask"]
        self.fixed_mask = arrays["fixed_mask"]
        self.accept_words = arrays["accept_words"]
        self.counts = arrays["counts"]
        self._states_json = states_json
        if states_json is None:
            kinds = list(manifest["states"]["kinds"])
            columns: list = []
            for j, kind in enumerate(kinds):
                if kind == "avg":
                    columns.append(
                        (arrays[f"measure_{j}_sums"], arrays[f"measure_{j}_counts"])
                    )
                else:
                    columns.append(arrays[f"measure_{j}"])
            self._fast_columns = _FastStateColumns(kinds, columns)
        else:
            self._fast_columns = None
        self.states = _LazyStates(self)
        self.ranges = _LazyRanges(self)
        self.postings = _split_postings(arrays, self.n_dims)
        # The persisted approx-tier summary, when the writer included
        # one; the serving layer builds a resident sketch lazily if not.
        sketch_meta = manifest.get("sketch")
        self.sketch = (
            CubeSketch.from_arrays(sketch_meta, arrays)
            if sketch_meta is not None
            else None
        )
        self._apex_id = self._resolve_apex()
        self._memo_lock = threading.Lock()
        self._cuboid_ids = {}
        self._cuboid_maps = {}
        self._cuboid_sizes = None
        self._memo_policy = None

    def state_at(self, rid: int) -> tuple:
        """The aggregate state of range ``rid``, rebuilt from the columns."""
        if self._states_json is not None:
            return self._states_json[rid]
        state: list = [int(self.counts[rid])]
        fast = self._fast_columns
        for kind, column in zip(fast.kinds, fast.columns):
            if kind == "avg":
                sums, counts = column
                state.append((float(sums[rid]), int(counts[rid])))
            else:
                state.append(float(column[rid]))
        acc = explain_collector()
        if acc is not None:
            acc.add("snapshot_bytes_faulted", 8 * len(state))
        return tuple(state)

    def nbytes(self) -> int:
        """Mapped bytes of the column files (not resident memory)."""
        total = sum(
            (self.path / meta["file"]).stat().st_size
            for meta in self.manifest["arrays"].values()
        )
        return total

    def __repr__(self) -> str:
        return (
            f"SnapshotStore({str(self.path)!r}, {len(self.counts)} ranges x "
            f"{self.n_dims} dims, {self.nbytes() / 1024:.0f} KiB mapped)"
        )
