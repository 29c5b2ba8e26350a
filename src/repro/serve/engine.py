"""The serving engines: one request pipeline over pluggable cube backends.

Every tier — the resident :class:`QueryEngine`, the snapshot-backed
:class:`~repro.store.engine.SnapshotEngine` and the sharded
:class:`~repro.serve.sharded.ShardRouter` — answers through the one
pipeline of :class:`Engine`:

1. **decode and admit** — the request is coerced to a
   :class:`~repro.serve.protocol.QueryRequest` and checked (op, pinned
   version, approx knobs) against the current :class:`CubeVersion`;
2. **cache** — a hit returns the stored response with no planning;
3. **plan** — a miss is validated and turned into *state items*
   (``point``, ``children``, ``dice``, ``approx_dice``), the vocabulary
   the shard workers already speak;
4. **resolve** — the backend turns the items into aggregate-state
   partials: one local cube answers them directly
   (:meth:`CubeVersion.resolve`), the shard router scatters them to the
   workers that hold the relevant rows;
5. **merge** — partial states fold through the aggregator's merge
   algebra and finalize once into the wire response.

Each answer is the state of disjoint ranges (paper Lemma 3, Theorem 1)
and distributive/algebraic partial states merge exactly, so a single
cube is simply a fleet of one shard and every tier returns the same
bytes.  Subclasses supply only what differs: the write path, readiness,
the stats and EXPLAIN extras, and — for the router — the resolver.

Readers take the current :class:`CubeVersion` once per request and
never look back, so a concurrent refresh cannot tear a response.  A
resident version is a base cube plus a :class:`RowDelta` of the rows
appended since it was emitted; the local resolver merges the two.  The
result cache's keys embed the version number, so entries cached against
an old version can never answer for a new one even before the post-swap
``invalidate_all`` (which frees the memory and re-keys the answers no
appended row can reach, not a correctness step).  Failures are
:class:`~repro.serve.protocol.ServeError` carrying the one
:class:`~repro.serve.protocol.ErrorInfo` taxonomy.
"""

from __future__ import annotations

import numbers
import threading
import time
import weakref
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.approx import (
    CubeSketch,
    SketchUnsupported,
    combine_partials,
    component_layout,
    exact_partial,
    finalize_partials,
)
from repro.core.columnar import _FastStateColumns, collect_explain, explain_collector
from repro.core.incremental import IncrementalRangeCuber
from repro.cube.cell import Cell
from repro.obs import OBS_STATE, SlowQueryLog, get_registry, get_tracer
from repro.serve.cache import LRUCache
from repro.serve.protocol import (
    OPS,
    PROTOCOL_VERSION,
    ErrorCode,
    ErrorInfo,
    QueryRequest,
    ServeError,
    coerce_request,
    error_response,
)
from repro.table.aggregates import Aggregator, default_aggregator
from repro.table.base_table import BaseTable
from repro.table.schema import Schema
from repro.tune import TuningPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.store import CubeStore

_TRACER = get_tracer()
_REGISTRY = get_registry()
_REQUESTS = _REGISTRY.counter(
    "repro_requests_total", "Read requests answered, by operation.", ("op",)
)
_REQUEST_ERRORS = _REGISTRY.counter(
    "repro_request_errors_total", "Read requests rejected as malformed, by operation.",
    ("op",),
)
_REQUEST_SECONDS = _REGISTRY.histogram(
    "repro_request_seconds", "Read-request latency in seconds, by operation.", ("op",)
)
_CACHE_HITS = _REGISTRY.counter(
    "repro_cache_hits_total", "Requests answered from the result cache."
)
_CACHE_MISSES = _REGISTRY.counter(
    "repro_cache_misses_total", "Requests that had to reach the cube index."
)
_APPENDS = _REGISTRY.counter(
    "repro_appends_total", "Fact batches appended through the serving write path."
)
_APPEND_ROWS = _REGISTRY.counter(
    "repro_append_rows_total", "Fact rows appended through the serving write path."
)
_APPEND_SECONDS = _REGISTRY.histogram(
    "repro_append_seconds", "Append (absorb + refresh + swap) seconds per batch."
)
_REFRESHES = _REGISTRY.counter(
    "repro_cube_refreshes_total", "Cube version swaps (one per successful append)."
)
_COMPACTIONS = _REGISTRY.counter(
    "repro_compactions_total",
    "Appends that folded the row delta into a freshly emitted base cube.",
)
_SLOW_QUERIES = _REGISTRY.counter(
    "repro_slow_queries_total", "Requests slower than the slow-query threshold."
)
_BATCHES = _REGISTRY.counter(
    "repro_query_batches_total", "Batch read requests answered (POST /query/batch)."
)
_BATCH_ITEMS = _REGISTRY.counter(
    "repro_query_batch_items_total", "Individual requests answered inside batches."
)
_BATCH_SIZE = _REGISTRY.histogram(
    "repro_request_batch_size", "Requests per batch read call."
)
_BATCH_SECONDS = _REGISTRY.histogram(
    "repro_batch_seconds", "Batch read-request latency in seconds (whole batch)."
)
_CACHE_ENTRIES = _REGISTRY.gauge(
    "repro_cache_entries", "Result-cache entries currently held.", ("engine",)
)
_CACHE_CAPACITY = _REGISTRY.gauge(
    "repro_cache_capacity", "Result-cache capacity.", ("engine",)
)
_CACHE_EVICTIONS = _REGISTRY.gauge(
    "repro_cache_evictions", "Result-cache LRU evictions so far.", ("engine",)
)
_CACHE_INVALIDATIONS = _REGISTRY.gauge(
    "repro_cache_invalidations", "Result-cache full invalidations (cube refreshes).",
    ("engine",),
)
_CUBE_VERSION = _REGISTRY.gauge(
    "repro_cube_version", "Version number of the served cube.", ("engine",)
)
_ROWS_RESIDENT = _REGISTRY.gauge(
    "repro_rows_resident", "Fact rows absorbed into the resident trie.", ("engine",)
)
_DELTA_ROWS = _REGISTRY.gauge(
    "repro_delta_rows",
    "Appended rows served from the row delta (not yet in the base cube).",
    ("engine",),
)
_APPROX_REQUESTS = _REGISTRY.counter(
    "repro_approx_requests_total",
    "Dice requests answered by the sketch-backed approximate tier.",
)
_APPROX_FALLBACKS = _REGISTRY.counter(
    "repro_approx_fallbacks_total",
    "approx=true requests that fell back to the exact path.",
    ("reason",),
)
_APPROX_BOUND_WIDTH = _REGISTRY.histogram(
    "repro_approx_bound_width",
    "Relative COUNT bound width, (upper - lower) / estimate, per approx answer.",
)

#: Confidence level used when an approx request does not name one.
DEFAULT_CONFIDENCE = 0.95

#: The ``approx`` block of a dice whose aggregator has no estimator.
_UNSUPPORTED = {"fallback": True, "reason": "unsupported-aggregator"}


def _register_engine_collector(engine: "QueryEngine") -> None:
    """Bridge one engine's internal counters onto gauges at scrape time.

    The collector holds only a weakref; once the engine is gone it raises
    ``LookupError``, which the registry treats as "drop this collector".
    """
    ref = weakref.ref(engine)
    label = engine._name or "default"

    def collect() -> None:
        live = ref()
        if live is None:
            raise LookupError("engine collected")
        cache = live.cache.stats()
        _CACHE_ENTRIES.set(cache.size, engine=label)
        _CACHE_CAPACITY.set(cache.capacity, engine=label)
        _CACHE_EVICTIONS.set(cache.evictions, engine=label)
        _CACHE_INVALIDATIONS.set(cache.invalidations, engine=label)
        _CUBE_VERSION.set(live.version, engine=label)
        _ROWS_RESIDENT.set(live._cuber.n_rows_absorbed, engine=label)
        _DELTA_ROWS.set(live.delta_rows, engine=label)

    _REGISTRY.register_collector(collect)


#: What an append accepts as a row, a measure row or the list of either.
_ROW_TYPES = (list, tuple, np.ndarray)


def validate_rows(rows, measures, n_dims: int, n_measures: int):
    """Validate one append batch against an arity; raises :class:`ServeError`.

    Shared by the single engine and the shard router (which must reject
    exactly what the engine rejects, *before* the batch is routed).
    Returns ``(rows, measures)`` as clean int/float tuples.  Every
    malformed shape — a flat row or measure list, a code that is not a
    non-negative int, a measure that is not a number — is a
    ``bad_request``, and nothing of the batch is absorbed.
    """
    if not rows:
        raise ServeError("append needs at least one row")
    if measures is None:
        measures = [[0.0] * n_measures] * len(rows) if n_measures else [()] * len(rows)
    if not isinstance(measures, _ROW_TYPES):
        raise ServeError("append 'measures' must be a list of measure rows")
    if len(measures) != len(rows):
        raise ServeError(f"{len(rows)} rows but {len(measures)} measure rows")
    clean_rows = []
    clean_measures = []
    for row, meas in zip(rows, measures):
        if not isinstance(row, _ROW_TYPES):
            raise ServeError(f"row {row!r} must be a list of {n_dims} codes")
        if len(row) != n_dims:
            raise ServeError(
                f"row {list(row)!r} has {len(row)} dims, cube has {n_dims}"
            )
        if any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in row):
            raise ServeError(f"row {list(row)!r} must contain non-negative codes")
        if not isinstance(meas, _ROW_TYPES):
            raise ServeError(f"measure row {meas!r} must be a list of {n_measures} numbers")
        if len(meas) != n_measures:
            raise ServeError(
                f"measure row {list(meas)!r} has {len(meas)} values, "
                f"expected {n_measures}"
            )
        if any(not isinstance(v, numbers.Real) or isinstance(v, bool) for v in meas):
            raise ServeError(f"measure row {list(meas)!r} must contain numbers")
        clean_rows.append(tuple(int(v) for v in row))
        clean_measures.append(tuple(float(v) for v in meas))
    return clean_rows, clean_measures


def covering_schema(schema: Schema, rows: Sequence[Sequence[int]] = ()) -> Schema:
    """``schema`` with every cardinality grown to cover the codes in ``rows``.

    Appended rows may carry codes past the schema's cardinalities; the
    next version's schema must cover them, or ``/stats`` would report a
    smaller domain than the cube serves (the workload driver draws its
    codes from it).
    """
    cards = [c or 0 for c in schema.cardinalities]
    for row in rows:
        for d, code in enumerate(row):
            if code >= cards[d]:
                cards[d] = code + 1
    return Schema(
        tuple(d.with_cardinality(c) for d, c in zip(schema.dimensions, cards)),
        schema.measures,
    )


#: A row delta folds into a freshly emitted base (a *compaction*) once it
#: holds this share of the rows the base was emitted from ...
COMPACT_FRACTION = 0.25

#: ... or this many rows, whichever comes first: every read that reaches
#: the delta ANDs bitsets and reduces measure rows whose length follows it.
#: ``bench_serving.py``'s full run times it: on the e2e table shape the
#: delta adds a mean of about 15 µs to a read miss at 256 rows and under
#: 40 µs at 8,192 (a tenth of an HTTP read), growing linearly past that.
COMPACT_MAX_ROWS = 8192


class RowDelta:
    """The rows appended since the base cube was emitted, answered off bitsets.

    Immutable: :meth:`extend` returns a new delta, so a version keeps
    answering from the one it was built with.  ``codes`` holds the rows
    in their original coding, ``measures`` their measure block, and
    ``bits[d][v]`` is a Python-int bitset of the rows carrying code
    ``v`` on dimension ``d``.  A cell's rows are the AND of its bound
    values' bitsets and a dice predicate's the OR of its codes'; COUNT
    is the bitset's popcount and the other state components are one
    reduction each over the delta's ``_FastStateColumns``.  No trie,
    traversal or freeze.
    """

    __slots__ = ("aggregator", "codes", "measures", "bits", "_fast")

    def __init__(
        self,
        aggregator: Aggregator,
        codes: np.ndarray,
        measures: np.ndarray,
        bits: list[dict[int, int]],
    ) -> None:
        self.aggregator = aggregator
        self.codes = codes
        self.measures = measures
        self.bits = bits
        self._fast = _FastStateColumns.from_block(aggregator, measures)

    @classmethod
    def empty(cls, aggregator: Aggregator, n_dims: int, n_measures: int) -> "RowDelta":
        return cls(
            aggregator,
            np.zeros((0, n_dims), dtype=np.int64),
            np.zeros((0, n_measures), dtype=np.float64),
            [{} for _ in range(n_dims)],
        )

    def __len__(self) -> int:
        return len(self.codes)

    def extend(self, rows: Sequence[tuple], measures: Sequence[tuple]) -> "RowDelta":
        """This delta plus validated ``rows`` (a new delta; this one is untouched)."""
        start = len(self)
        batch: list[dict[int, int]] = [{} for _ in self.bits]
        for i, row in enumerate(rows):
            bit = 1 << i
            for seen, v in zip(batch, row):
                seen[v] = seen.get(v, 0) | bit
        bits = []
        for old, seen in zip(self.bits, batch):
            merged = dict(old)
            for v, b in seen.items():
                merged[v] = merged.get(v, 0) | b << start
            bits.append(merged)
        n = len(rows)
        return RowDelta(
            self.aggregator,
            np.concatenate((self.codes, np.asarray(rows, dtype=np.int64).reshape(n, -1))),
            np.concatenate(
                (self.measures, np.asarray(measures, dtype=np.float64).reshape(n, -1))
            ),
            bits,
        )

    def match(self, cell: Cell, predicates: Mapping[int, Sequence[int]] | None = None) -> int:
        """The bitset of the rows matching ``cell``'s bound values and ``predicates``."""
        rows = (1 << len(self)) - 1
        for d, v in enumerate(cell):
            if v is not None:
                rows &= self.bits[d].get(v, 0)
                if not rows:
                    return 0
        for d, codes in (predicates or {}).items():
            bits = self.bits[d]
            admitted = 0
            for v in codes:
                admitted |= bits.get(v, 0)
            rows &= admitted
            if not rows:
                return 0
        return rows

    def mask(self, rows: int) -> np.ndarray:
        """Bitset ``rows`` as a boolean row mask."""
        raw = np.frombuffer(rows.to_bytes((len(self) + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=len(self), bitorder="little").view(bool)

    def state(self, rows: int) -> tuple | None:
        """The merged state of the rows in bitset ``rows`` (None when empty)."""
        if not rows:
            return None
        if self._fast is not None:
            return self._fast.merge(rows.bit_count(), self.mask(rows))
        return self.aggregator.reduce_segments(self.measures[self.mask(rows)], (0,))[0]

    def children(self, cell: Cell, dim: int) -> tuple[list[tuple[int, tuple]], int]:
        """``((code, state) pairs in code order, rows matched)`` along ``dim``.

        The matching rows group by their code in one sort, and
        :meth:`~repro.table.aggregates.Aggregator.reduce_segments` — the
        bulk trie build's batch kernel — reduces each group.
        """
        rows = self.match(cell)
        if not rows:
            return [], 0
        ids = np.flatnonzero(self.mask(rows))
        codes = self.codes[ids, dim]
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        states = self.aggregator.reduce_segments(self.measures[ids[order]], starts)
        return list(zip(codes[starts].tolist(), states)), len(ids)

    def cells(self, rows: int) -> dict[tuple, tuple]:
        """Finest cell -> merged state of the rows in bitset ``rows``."""
        mask = self.mask(rows)
        agg = self.aggregator
        out: dict[tuple, tuple] = {}
        states = agg.states_from_block(self.measures[mask])
        for cell, state in zip(map(tuple, self.codes[mask].tolist()), states):
            out[cell] = agg.merge_many((out.get(cell), state))
        return out


def _merge_pairs(agg: Aggregator, partials: Sequence[list]) -> list:
    """Union ``(code, state)`` lists, merging equal codes, in code order."""
    if len(partials) == 1:
        return partials[0]  # one contributor: already in code order
    by_code: dict[int, tuple] = {}
    for children in partials:
        for code, state in children:
            present = by_code.get(code)
            by_code[code] = state if present is None else agg.merge(present, state)
    return sorted(by_code.items())


class CubeVersion:
    """One immutable generation of the served cube, and its local resolver.

    Readers hold a reference for the duration of a request; an engine
    swaps in a fresh instance on refresh and never mutates an old one.
    ``cube`` is the *base*: a :class:`~repro.core.range_cube.RangeCube`
    or a mapped :class:`~repro.store.engine.SnapshotCube` — or ``None``
    for the shard router, whose cube state lives in its workers.
    ``delta`` is the :class:`RowDelta` of the rows appended since the
    base was emitted (``None`` when there are none), and every answer is
    the base's state merged with the delta's.  Versions that share a
    base share its approx-tier ``sketches`` (built on first use), as
    they share its columnar store and point index.
    """

    __slots__ = ("version", "cube", "schema", "delta", "_sketches")

    def __init__(
        self,
        version: int,
        cube,
        schema: Schema,
        delta: RowDelta | None = None,
        *,
        sketches: dict | None = None,
    ) -> None:
        self.version = version
        self.cube = cube
        self.schema = schema
        self.delta = delta if delta else None
        self._sketches: dict = {} if sketches is None else sketches  # seed -> sketch

    def successor(self, schema: Schema, delta: RowDelta) -> "CubeVersion":
        """The next version: this base (and its sketches) plus ``delta``."""
        return CubeVersion(
            self.version + 1, self.cube, schema, delta, sketches=self._sketches
        )

    def sketch(self, seed: int = 0) -> "CubeSketch | None":
        """The base cube's sampling sketch, loaded or built lazily.

        A mapped snapshot carries its persisted sketch; a resident cube
        builds one from its columnar layout.  ``seed`` must differ per
        shard: the router sums per-shard variances, which is only sound
        for independent samples.  ``None`` — cached too — means the
        store cannot be estimated.
        """
        if seed in self._sketches:
            return self._sketches[seed]
        store = self.cube.to_columnar()
        sketch = getattr(store, "sketch", None)
        if sketch is None:
            try:
                sketch = CubeSketch.from_store(store, seed=seed)
            except SketchUnsupported:
                sketch = None
        # Benign race: concurrent first requests may build twice; the
        # single dict store keeps the publication atomic.
        self._sketches[seed] = sketch
        return sketch

    def resolve(
        self, items: Sequence[tuple], *, pooled: Sequence[int] = (), sketch_seed: int = 0
    ) -> list:
        """One aggregate-state partial per state item, in order.

        ``("point", cell)`` → the cell's state or None;
        ``("children", cell, dim)`` → ``[(code, state)]`` for the
        non-empty specializations along ``dim``; ``("dice", cell,
        {dim: codes})`` → the merged state of the sub-cube;
        ``("approx_dice", cell, {dim: codes}, having)`` → one mergeable
        partial estimate (:meth:`repro.approx.CubeSketch.estimate_partial`).
        Point items at the ``pooled`` positions resolve together through
        one ``lookup_batch``; every other point item is one ``lookup``.
        The base answers first, then the delta's states merge in.
        """
        cube = self.cube
        out: list = [None] * len(items)
        if pooled:
            states = cube.lookup_batch([items[i][1] for i in pooled])
            for i, state in zip(pooled, states):
                out[i] = state
            pooled = set(pooled)
        for i, item in enumerate(items):
            kind = item[0]
            if kind == "point":
                if i not in pooled:
                    out[i] = cube.lookup(item[1])
            elif kind == "children":
                out[i] = self._children(item[1], item[2])
            elif kind == "dice":
                out[i] = self._dice(item[1], item[2])
            elif kind == "approx_dice":
                out[i] = self._approx_dice(item[1], item[2], item[3], sketch_seed)
            else:
                raise ServeError(f"unknown state item kind {kind!r}")
        if self.delta is not None:
            self._add_delta(items, out)
        return out

    def _add_delta(self, items: Sequence[tuple], out: list) -> None:
        """Merge the delta's state for each item into the base's, in place."""
        delta = self.delta
        agg = delta.aggregator
        acc = explain_collector()
        for i, item in enumerate(items):
            kind = item[0]
            if kind == "children":
                children, matched = delta.children(item[1], item[2])
                if children:
                    out[i] = _merge_pairs(agg, [out[i], children]) if out[i] else children
            else:
                rows = delta.match(item[1], None if kind == "point" else item[2])
                matched = rows.bit_count()
                if kind == "approx_dice":  # reads every delta row
                    out[i] = self._approx_with_delta(out[i], item, rows)
                elif rows:
                    out[i] = agg.merge_many((out[i], delta.state(rows)))
            if acc is not None:
                acc.add("delta_rows_matched", matched)

    def _approx_with_delta(self, partial: dict, item: tuple, rows: int) -> dict:
        """An approx dice's base partial plus the delta rows it matched.

        The delta is read in full, so it joins as an exact zero-variance
        partial that counts its rows in ``sample_size``/``matched`` and
        keeps the base's estimator (no ``fallback``).  ``having`` filters
        finest cells on their count in base and delta together: the
        sketch estimates the base cells that clear it alone, and the
        exact part adds the delta's rows of every cell that clears it,
        plus the base rows of the cells that clear it only with the delta.
        """
        delta = self.delta
        agg = delta.aggregator
        having = item[3]
        if having is None:
            state, matched = delta.state(rows), rows.bit_count()
        else:
            cells = delta.cells(rows)
            parts: list = []
            matched = 0
            for added, base in zip(cells.values(), self.cube.lookup_batch(list(cells))):
                below = 0 if base is None else base[0]
                if added[0] + below >= having:
                    parts.append(added)
                    matched += added[0]
                    if below and below < having:
                        parts.append(base)
            state = agg.merge_many(parts)
        return combine_partials(
            partial,
            exact_partial(agg, state, sample_size=len(delta), matched=matched),
        )

    def _children(self, cell: Cell, dim: int) -> list[tuple[int, tuple]]:
        """``(code, state)`` for the non-empty children of ``cell`` along ``dim``.

        One :meth:`~repro.core.columnar.ColumnarRangeStore.children` call
        over the target cuboid's stored ranges.  A shard lists only the
        codes it holds rows for, so the cross-shard union is exactly the
        single-cube drill-down.
        """
        return self.cube.to_columnar().children(cell, dim)

    def _dice(self, cell: Cell, predicates: Mapping[int, Sequence[int]]) -> tuple | None:
        """The merged state of one dice (``predicates`` hold deduped codes)."""
        store = self.cube.to_columnar()
        base = {d: v for d, v in enumerate(cell) if v is not None}
        return store.merge_states(store.dice_ids(predicates, base))

    def _approx_dice(
        self,
        cell: Cell,
        predicates: Mapping[int, Sequence[int]],
        having: float | None,
        seed: int,
    ) -> dict:
        """One mergeable partial estimate; bounds are computed once, at merge."""
        sketch = self.sketch(seed)
        if sketch is None:
            # An estimable aggregator over a store without unpacked state
            # columns: contribute the exact state with zero variance.
            if having is not None:
                raise ServeError(
                    "this cube has no sampling sketch, and 'having' cannot be "
                    "answered by the exact dice path"
                )
            return exact_partial(self.cube.aggregator, self._dice(cell, predicates))
        base = {d: v for d, v in enumerate(cell) if v is not None}
        return sketch.estimate_partial(base, predicates, having=having)


def _carry_over(old: int, new: int, schema: Schema, rows: Sequence[tuple]):
    """The cache re-key function of an append that extends the delta.

    An answer cached under version ``old`` carries over to ``new`` when no
    row of the batch can reach it: one of its bound values, or one of its
    dice predicates, has no row in the batch.  Keys are
    :meth:`Engine._cache_key`'s; dimension names resolve through
    ``schema``.  Entries already under ``new`` stay; approx answers and
    everything else are dropped.
    """
    present = [set(codes) for codes in zip(*rows)]

    def unreachable(key) -> bool:
        op, cell = key[1], key[2]
        if op == "dice" and len(key) > 4:
            return False  # approx answers are dropped
        free = -1
        if op == "rollup":  # as Engine._resolve_dim reads it
            free = schema.dimension_index(key[3]) if isinstance(key[3], str) else key[3]
        if cell is not None and any(
            v is not None and d != free and v not in present[d]
            for d, v in enumerate(cell)
        ):
            return True
        # Predicate keys as Engine._normalize_predicates reads them.
        return op == "dice" and any(
            present[int(dim) if dim.isdigit() else schema.dimension_index(dim)]
            .isdisjoint(codes)
            for dim, codes in key[3]
        )

    def rekey(key, value):
        if key[0] != old:
            return (key, value) if key[0] == new else None
        if not unreachable(key):
            return None
        return (new, *key[1:]), dict(value, version=new)

    return rekey


class _Plan:
    """One validated request: its state items plus the response shape."""

    __slots__ = (
        "op", "items", "cell", "dim", "predicates", "free_dims",
        "approx", "fallback", "confidence", "targets",
    )

    def __init__(
        self,
        op: str,
        items: tuple,
        cell: Cell,
        *,
        dim: int | None = None,
        predicates: dict | None = None,
        free_dims: tuple[int, ...] = (),
        approx: bool = False,
        fallback: bool = False,
        confidence: float | None = None,
    ) -> None:
        self.op = op
        self.items = items
        self.cell = cell
        self.dim = dim
        self.predicates = predicates
        self.free_dims = free_dims
        self.approx = approx  # answer from sketch partials, with bounds
        self.fallback = fallback  # approx asked, aggregator not estimable
        self.confidence = confidence
        self.targets: tuple[int, ...] = ()  # the shards a router sends it to


def _merge_children(agg: Aggregator, cell: Cell, dim: int, partials: list) -> list:
    """Union per-shard ``(code, state)`` children, merged, in code order."""
    out = []
    for code, state in _merge_pairs(agg, partials):
        child = list(cell)
        child[dim] = code
        out.append({"cell": child, "value": agg.finalize(state)})
    return out


class Engine:
    """The request pipeline every serving tier shares (see the module doc).

    Subclasses set ``_version`` to a :class:`CubeVersion` and supply
    ``append``, ``_stats_extras`` and, where they differ from the
    resident defaults, ``readiness``, ``_explain_extras`` and
    ``_resolve``.
    """

    #: Ops accepted by :meth:`execute` (the protocol's op set).
    OPS = OPS

    #: Refuse batches beyond this size (a single request must not pin a
    #: worker thread for an unbounded amount of index work).
    MAX_BATCH = 10_000

    #: The EXPLAIN ``phases_us`` key of the resolve step.
    _RESOLVE_PHASE = "resolve"

    #: Whether every write is refused (a snapshot's one generation).
    read_only = False

    _version: CubeVersion

    def __init__(
        self,
        aggregator: Aggregator,
        *,
        name: str | None,
        min_support: int,
        cache_capacity: int,
        slow_query_threshold: float,
        slow_log_capacity: int = 128,
        slow_log_sample: int = 1,
    ) -> None:
        self._aggregator = aggregator
        self._name = name
        self._min_support = min_support
        try:
            component_layout(aggregator)
            self._estimable = True
        except SketchUnsupported:
            self._estimable = False
        self.cache = LRUCache(cache_capacity)
        #: Requests slower than ``slow_query_threshold`` seconds are
        #: counted and (every ``slow_log_sample``-th one) retained here.
        self.slow_log = SlowQueryLog(
            slow_query_threshold, slow_log_capacity, slow_log_sample
        )
        # Label resolution costs a dict + tuple per call; the read path
        # instead uses these pre-bound (requests, seconds, errors) handles.
        self._op_series = {
            op: (
                _REQUESTS.labels(op=op),
                _REQUEST_SECONDS.labels(op=op),
                _REQUEST_ERRORS.labels(op=op),
            )
            for op in (*self.OPS, "invalid")
        }

    @property
    def version(self) -> int:
        return self._version.version

    def snapshot(self) -> CubeVersion:
        """The current cube generation (stable for the caller's lifetime)."""
        return self._version

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def _resolve_dim(self, snap: CubeVersion, dim) -> int:
        if isinstance(dim, bool) or not isinstance(dim, (int, str)):
            raise ServeError(f"dim must be an index or a name, got {dim!r}")
        if isinstance(dim, str):
            try:
                return snap.schema.dimension_index(dim)
            except KeyError:
                raise ServeError(f"no dimension named {dim!r}") from None
        if not 0 <= dim < snap.schema.n_dims:
            raise ServeError(f"dimension index {dim} out of range")
        return dim

    def _normalize_cell(
        self, snap: CubeVersion, request: QueryRequest, *, default_apex: bool = False
    ) -> Cell:
        """The query cell from a request's ``cell`` list or ``bindings`` map."""
        n = snap.schema.n_dims
        if request.cell is not None:
            raw = request.cell
            if not isinstance(raw, (list, tuple)) or len(raw) != n:
                raise ServeError(f"cell must be a list of {n} entries")
            cell = []
            for v in raw:
                if v is None:
                    cell.append(None)
                elif isinstance(v, int) and not isinstance(v, bool) and v >= 0:
                    cell.append(v)
                else:
                    raise ServeError(f"cell entries are codes or null, got {v!r}")
            return tuple(cell)
        if request.bindings is not None:
            bindings = request.bindings
            if not isinstance(bindings, Mapping):
                raise ServeError("bindings must be a {dimension: code} mapping")
            cell: list = [None] * n
            for key, value in bindings.items():
                if isinstance(key, str) and key.isdigit():
                    key = int(key)  # JSON object keys arrive as strings
                dim = self._resolve_dim(snap, key)
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    raise ServeError(f"binding for {key!r} must be a code, got {value!r}")
                cell[dim] = value
            return tuple(cell)
        if default_apex:  # a dice may range over the whole cube
            return tuple([None] * n)
        raise ServeError("request needs a 'cell' list or a 'bindings' mapping")

    def _normalize_predicates(
        self, snap: CubeVersion, request: QueryRequest, base_cell: Cell
    ) -> dict[int, list[int]]:
        """Validated ``{dim index: admitted codes}`` for a dice request."""
        predicates = request.predicates
        if not isinstance(predicates, Mapping) or not predicates:
            raise ServeError("dice needs a non-empty 'predicates' mapping")
        out: dict[int, list[int]] = {}
        for key, values in predicates.items():
            if isinstance(key, str) and key.isdigit():
                key = int(key)  # JSON object keys arrive as strings
            dim = self._resolve_dim(snap, key)
            if dim in out:
                raise ServeError(f"dimension {dim} appears twice in the predicates")
            if base_cell[dim] is not None:
                raise ServeError(f"dimension {dim} is already bound in the query cell")
            if not isinstance(values, (list, tuple)) or not values:
                raise ServeError(
                    f"predicate for dimension {dim} must be a non-empty code list"
                )
            # Heavy dice carry thousands of codes per dimension; numpy
            # validates a plain-int list in one pass.  Anything that does
            # not coerce to a 1-D integer array (floats, bools, strings,
            # nested lists) drops to the per-value loop, which preserves
            # the exact rejection messages.
            try:
                arr = np.asarray(values)
            except (ValueError, TypeError):
                arr = None
            if (
                arr is not None
                and arr.ndim == 1
                and arr.dtype.kind in "iu"
                and int(arr.min()) >= 0
            ):
                out[dim] = values if isinstance(values, list) else list(values)
                continue
            clean = []
            for v in values:
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    raise ServeError(f"predicate codes must be non-negative, got {v!r}")
                clean.append(v)
            out[dim] = clean
        return out

    def _validate_approx(self, req: QueryRequest) -> float:
        """The validated confidence level of an approx request.

        ``confidence`` and ``having`` are approx-tier knobs; sending
        them without ``approx=true`` is a shape error, as is approx on
        any op but dice (the one op whose cost grows with the selection).
        """
        if not req.approx:
            raise ServeError(
                "'confidence'/'having' apply only to approx=true requests"
            )
        if req.op != "dice":
            raise ServeError("approx=true is only supported for op 'dice'")
        confidence = DEFAULT_CONFIDENCE if req.confidence is None else req.confidence
        if (
            isinstance(confidence, bool)
            or not isinstance(confidence, (int, float))
            or not 0.0 < confidence < 1.0
        ):
            raise ServeError(
                f"confidence must be a level in (0, 1), got {req.confidence!r}"
            )
        if req.having is not None and (
            isinstance(req.having, bool)
            or not isinstance(req.having, (int, float))
            or req.having < 0
        ):
            raise ServeError(
                f"having must be a non-negative count threshold, got {req.having!r}"
            )
        return float(confidence)

    def _admit(self, snap: CubeVersion, req: QueryRequest) -> str:
        """The request's op after the checks every read passes first."""
        op = req.op
        if op not in self.OPS:
            raise ServeError(f"unknown op {op!r}; supported: {', '.join(self.OPS)}")
        if req.version is not None and req.version != snap.version:
            raise ServeError(
                f"request targets version {req.version}, engine serves {snap.version}",
                code=ErrorCode.VERSION_CONFLICT,
            )
        if req.approx or req.confidence is not None or req.having is not None:
            self._validate_approx(req)  # reject malformed approx shapes early
        return op

    # ------------------------------------------------------------------
    # plan, resolve, merge
    # ------------------------------------------------------------------

    def _plan(self, snap: CubeVersion, op: str, req: QueryRequest) -> _Plan:
        """Validate one request and turn it into state items."""
        if op == "point":
            cell = self._normalize_cell(snap, req)
            return _Plan(op, (("point", cell),), cell)
        if op == "rollup":
            cell = self._normalize_cell(snap, req)
            dim = self._resolve_dim(snap, req.dim)
            if cell[dim] is None:
                raise ServeError(f"dimension {dim} is already * in the query cell")
            up = cell[:dim] + (None,) + cell[dim + 1:]
            return _Plan(op, (("point", up),), up, dim=dim)
        if op == "drilldown":
            cell = self._normalize_cell(snap, req)
            dim = self._resolve_dim(snap, req.dim)
            if cell[dim] is not None:
                raise ServeError(f"dimension {dim} is already bound in the query cell")
            return _Plan(op, (("children", cell, dim),), cell, dim=dim)
        if op == "slice":
            cell = self._normalize_cell(snap, req)
            free = tuple(d for d in range(snap.schema.n_dims) if cell[d] is None)
            items = tuple(("children", cell, d) for d in free)
            return _Plan(op, items, cell, free_dims=free)
        if op == "dice":
            cell = self._normalize_cell(snap, req, default_apex=True)
            predicates = self._normalize_predicates(snap, req, cell)
            # Items carry deduped code lists (a repeated code must not
            # double-count); the response echoes the validated predicates.
            deduped = {d: list(dict.fromkeys(codes)) for d, codes in predicates.items()}
            exact = (("dice", cell, deduped),)
            if not req.approx:
                return _Plan(op, exact, cell, predicates=predicates)
            confidence = self._validate_approx(req)
            having = None if req.having is None else float(req.having)
            if self._estimable:
                return _Plan(
                    op, (("approx_dice", cell, deduped, having),), cell,
                    predicates=predicates, approx=True, confidence=confidence,
                )
            if having is not None:
                raise ServeError(
                    "this cube's aggregator has no sampling estimator, and "
                    "'having' cannot be answered by the exact dice path"
                )
            return _Plan(op, exact, cell, predicates=predicates, fallback=True)
        raise ServeError(f"unknown op {op!r}; supported: {', '.join(self.OPS)}")

    def _resolve(
        self,
        snap: CubeVersion,
        plans: Sequence[_Plan],
        *,
        pooled: bool = False,
        account: dict | None = None,
    ) -> list:
        """Per plan: one partial list per item, or the plan's :class:`ErrorInfo`.

        This is the local resolver — the version's own cube, a fleet of
        one shard.  ``pooled`` (a batch) resolves the point requests
        together through one ``lookup_batch``; ``account`` (EXPLAIN)
        collects the index counters and the tier extras.
        """
        items: list = []
        pool: list[int] = []
        for plan in plans:
            if pooled and plan.op == "point":
                pool.append(len(items))
            items.extend(plan.items)
        if account is None:
            states = snap.resolve(items, pooled=pool)
        else:
            with collect_explain() as acc:
                states = snap.resolve(items, pooled=pool)
            account.update(acc.data)
            account.update(self._explain_extras(acc.data))
        out = []
        at = 0
        for plan in plans:
            out.append([[state] for state in states[at:at + len(plan.items)]])
            at += len(plan.items)
        return out

    def _merge(
        self, snap: CubeVersion, plan: _Plan, partials: list, account: dict | None = None
    ) -> dict:
        """Fold the partial states of one plan into its wire response."""
        op = plan.op
        agg = self._aggregator
        version = snap.version
        if op in ("point", "rollup"):
            state = agg.merge_many(partials[0])
            value = None if state is None else agg.finalize(state)
            if op == "rollup":
                return {
                    "op": op, "version": version, "dim": plan.dim,
                    "cell": list(plan.cell), "value": value,
                }
            return {"op": op, "version": version, "cell": list(plan.cell), "value": value}
        if op == "drilldown":
            return {
                "op": op,
                "version": version,
                "dim": plan.dim,
                "children": _merge_children(agg, plan.cell, plan.dim, partials[0]),
            }
        if op == "slice":
            children: list = []
            for dim, item_partials in zip(plan.free_dims, partials):
                children.extend(_merge_children(agg, plan.cell, dim, item_partials))
            return {"op": op, "version": version, "children": children}
        response = {
            "op": op,
            "version": version,
            "predicates": {str(d): v for d, v in sorted(plan.predicates.items())},
            "cell": list(plan.cell),
        }
        if not plan.approx:
            state = agg.merge_many(partials[0])
            response["value"] = None if state is None else agg.finalize(state)
            if plan.fallback:
                if OBS_STATE.enabled:
                    _APPROX_FALLBACKS.inc(reason=_UNSUPPORTED["reason"])
                response["approx"] = dict(_UNSUPPORTED)
                if account is not None:
                    account["approx"] = dict(_UNSUPPORTED)
            return response
        # Per-shard estimators are independent (disjoint row partitions,
        # private samples): estimates and variances sum, and the interval
        # is computed exactly once here.
        answer = finalize_partials(agg, partials[0], plan.confidence)
        if OBS_STATE.enabled:
            _APPROX_REQUESTS.inc()
            _APPROX_BOUND_WIDTH.observe(answer.bound_width)
        response["value"] = answer.estimate
        response["approx"] = answer.to_block()
        if any(p.get("estimator") == "exact" for p in partials[0]):
            response["approx"]["fallback"] = True
        if account is not None:
            account["approx"] = {
                "estimator": answer.estimator,
                "sample_size": answer.sample_size,
                "matched": answer.matched,
                "bound_width": round(answer.bound_width, 6),
            }
        return response

    # ------------------------------------------------------------------
    # the single-request path
    # ------------------------------------------------------------------

    def _cache_key(self, snap: CubeVersion, op: str, request: QueryRequest):
        """The cache key for a request, built without full validation.

        The hot path must not pay the per-entry validation loop on every
        repeat request, so the key uses the raw ``cell`` list (or the
        canonicalized bindings) plus the raw ``dim``.  A malformed
        request therefore simply misses and fails validation in
        :meth:`_plan`; the only laxity is that equality-compatible
        spellings of a code (``1.0``, ``True``) can hit an entry cached
        for the int — they denote the same cell.
        """
        raw = request.cell
        if isinstance(raw, (list, tuple)):
            cell = tuple(raw)
        elif op == "dice" and request.bindings is None:
            cell = None  # a dice over the apex has no cell at all
        else:
            cell = self._normalize_cell(snap, request)
        if op in ("rollup", "drilldown"):
            return (snap.version, op, cell, request.dim)
        if op == "dice":
            predicates = request.predicates
            if not isinstance(predicates, Mapping):
                raise ServeError("dice needs a non-empty 'predicates' mapping")
            canonical = tuple(
                sorted((str(k), tuple(v) if isinstance(v, (list, tuple)) else v)
                       for k, v in predicates.items())
            )
            if request.approx:
                # A separate key space: the exact entry for the same dice
                # must never answer an approx request or vice versa.
                return (
                    snap.version, op, cell, canonical,
                    "approx", request.confidence, request.having,
                )
            return (snap.version, op, cell, canonical)
        return (snap.version, op, cell)

    def _cached(self, snap: CubeVersion, op: str, req: QueryRequest):
        """``(cache key, hit or None)`` for one admitted request."""
        key = self._cache_key(snap, op, req)
        try:
            return key, self.cache.get(key)
        except TypeError:  # unhashable entries in the raw cell
            self._plan(snap, op, req)  # raises the precise ServeError
            raise

    @staticmethod
    def _request_op(request) -> str:
        """The op label of a request-shaped object, for metrics series."""
        # ``type(...) is QueryRequest`` dodges the slow isinstance checks
        # for the overwhelmingly common typed case.
        if type(request) is QueryRequest or isinstance(request, QueryRequest):
            return request.op
        if type(request) is dict or isinstance(request, Mapping):
            return request.get("op", "point")
        return "invalid"

    def execute(self, request: "QueryRequest | Mapping") -> dict:
        """Answer one request, through the result cache.

        ``request`` is a :class:`~repro.serve.protocol.QueryRequest`
        (plain dicts are still accepted through the deprecation shim).
        The response carries ``"cached": True`` when it was served from
        the LRU cache (same cube version, same canonical query).  Each
        request is timed into the ``repro_request_seconds`` histogram,
        counted by op, traced as a ``serve.request`` span (with
        ``cache_hit`` / ``version`` attributes) and, past the slow-query
        threshold, logged — unless observability is globally disabled
        (:func:`repro.obs.set_enabled`), in which case this is a single
        extra branch on the hot path.
        """
        if not OBS_STATE.enabled:
            return self._execute(request)
        op = self._request_op(request)
        series = self._op_series.get(op) or self._op_series["invalid"]
        start = time.perf_counter()
        with _TRACER.span(
            "serve.request",
            remote_context=getattr(request, "trace_context", None),
            op=str(op),
        ) as span:
            try:
                response = self._execute(request)
            except ServeError:
                span.set_attribute("error", True)
                series[2].inc()
                raise
            cached = bool(response.get("cached"))
            span.set_attribute("cache_hit", cached)
            span.set_attribute("version", response.get("version"))
        elapsed = time.perf_counter() - start
        series[0].inc()
        series[1].observe(elapsed)
        (_CACHE_HITS if cached else _CACHE_MISSES).inc()
        if elapsed >= self.slow_log.threshold:
            # The retained entry must stay JSON-able for ``/slowlog``.
            raw = request.to_json() if isinstance(request, QueryRequest) else request
            if self.slow_log.record(
                elapsed, raw, op=op, cache_hit=cached,
                trace_id=span.trace_id, span_id=span.span_id,
            ):
                _SLOW_QUERIES.inc()
        return response

    def _execute(self, request: "QueryRequest | Mapping") -> dict:
        """The uninstrumented request path (see :meth:`execute`)."""
        req = coerce_request(request)
        snap = self._version
        op = self._admit(snap, req)
        if req.explain:
            return self._execute_explain(snap, op, req)
        key, hit = self._cached(snap, op, req)
        if hit is not None:
            return hit
        plan = self._plan(snap, op, req)
        (partials,) = self._resolve(snap, [plan])
        if isinstance(partials, ErrorInfo):
            raise ServeError.from_info(partials)
        response = self._merge(snap, plan, partials)
        # The cached entry is pre-marked and returned by reference on
        # hits, so it must never be mutated by callers (the HTTP layer
        # serializes it, the clients treat responses as read-only).
        self.cache.put(key, dict(response, cached=True))
        return dict(response, cached=False)

    def _execute_explain(self, snap: CubeVersion, op: str, req: QueryRequest) -> dict:
        """Answer one request with a structured cost account attached.

        The account never enters the result cache — the cached entry is
        shared by reference — but the plain payload still does, so an
        ``explain=true`` repeat reports the hit without disturbing
        ordinary callers.  Per-phase timings are microseconds
        (``perf_counter`` deltas); the backend adds its index counters
        and tier (or routing) fields.
        """
        t0 = time.perf_counter()
        key, hit = self._cached(snap, op, req)
        t1 = time.perf_counter()
        account: dict = {
            "op": op,
            "version": snap.version,
            "engine": self._name or "default",
            "cache_hit": hit is not None,
        }
        if hit is not None:
            account["phases_us"] = {"cache": round((t1 - t0) * 1e6, 1)}
            return dict(hit, explain=account)
        plan = self._plan(snap, op, req)
        t2 = time.perf_counter()
        (partials,) = self._resolve(snap, [plan], account=account)
        if isinstance(partials, ErrorInfo):
            raise ServeError.from_info(partials)
        t3 = time.perf_counter()
        response = self._merge(snap, plan, partials, account)
        t4 = time.perf_counter()
        account["phases_us"] = {
            "cache": round((t1 - t0) * 1e6, 1),
            "plan": round((t2 - t1) * 1e6, 1),
            self._RESOLVE_PHASE: round((t3 - t2) * 1e6, 1),
            "merge": round((t4 - t3) * 1e6, 1),
        }
        self.cache.put(key, dict(response, cached=True))
        return dict(response, cached=False, explain=account)

    # ------------------------------------------------------------------
    # the batch path
    # ------------------------------------------------------------------

    def execute_batch(
        self, requests: Sequence["QueryRequest | Mapping"]
    ) -> list[dict]:
        """Answer a whole batch of read requests in one call, in order.

        The batch shares one cube version, so every response carries the
        same ``version`` even if a refresh lands mid-batch.  Cache misses
        are planned first and resolved together — point requests through
        one grouped ``lookup_batch``, a fleet's items in one scatter
        round per shard — and empty cells come back with an explicit
        ``"value": null``.  A malformed *item* yields a structured error
        entry at its position (the same
        :class:`~repro.serve.protocol.ErrorInfo` shape single
        :meth:`execute` failures map to) instead of failing the whole
        batch; only a malformed batch envelope raises
        :class:`ServeError`.
        """
        if not isinstance(requests, (list, tuple)):
            raise ServeError("batch body needs a 'requests' list")
        if len(requests) > self.MAX_BATCH:
            raise ServeError(
                f"batch of {len(requests)} exceeds the {self.MAX_BATCH}-request cap"
            )
        if not OBS_STATE.enabled:
            return self._execute_batch(requests)
        start = time.perf_counter()
        remote = getattr(requests[0], "trace_context", None) if requests else None
        with _TRACER.span(
            "serve.batch", remote_context=remote, requests=len(requests)
        ) as span:
            responses = self._execute_batch(requests)
            cached = sum(1 for r in responses if r.get("cached"))
            errors = sum(1 for r in responses if "error" in r)
            span.set_attribute("cache_hits", cached)
            span.set_attribute("errors", errors)
        elapsed = time.perf_counter() - start
        _BATCHES.inc()
        _BATCH_ITEMS.inc(len(requests))
        _BATCH_SIZE.observe(len(requests))
        _BATCH_SECONDS.observe(elapsed)
        if cached:
            _CACHE_HITS.inc(cached)
        if len(responses) > cached:
            _CACHE_MISSES.inc(len(responses) - cached)
        if self.slow_log.record(
            elapsed, {"batch": len(requests)}, op="batch", cache_hit=False,
            trace_id=span.trace_id, span_id=span.span_id,
        ):
            _SLOW_QUERIES.inc()
        return responses

    def _execute_batch(self, requests: Sequence["QueryRequest | Mapping"]) -> list[dict]:
        """The uninstrumented batch path (see :meth:`execute_batch`)."""
        snap = self._version
        responses: list = [None] * len(requests)
        misses: list[tuple[int, str, _Plan, object]] = []  # (position, op, plan, key)
        for i, request in enumerate(requests):
            try:
                req = coerce_request(request)
                op = self._admit(snap, req)
                if req.explain:
                    # Explained items resolve individually (their account
                    # must cover exactly their own work), so they skip
                    # the pooled resolution below.
                    responses[i] = self._execute_explain(snap, op, req)
                    continue
                key, hit = self._cached(snap, op, req)
                if hit is not None:
                    responses[i] = hit
                else:
                    misses.append((i, op, self._plan(snap, op, req), key))
            except ServeError as exc:
                responses[i] = error_response(
                    snap.version, self._request_op(request), exc.info
                )
        if misses:
            results = self._resolve(snap, [plan for _, _, plan, _ in misses], pooled=True)
            for (i, op, plan, key), partials in zip(misses, results):
                if isinstance(partials, ErrorInfo):
                    responses[i] = error_response(snap.version, op, partials)
                    continue
                response = self._merge(snap, plan, partials)
                self.cache.put(key, dict(response, cached=True))
                responses[i] = dict(response, cached=False)
        return responses

    # ------------------------------------------------------------------
    # introspection and the tier hooks
    # ------------------------------------------------------------------

    def point(self, cell: Sequence[int | None]) -> dict | None:
        """Finalized aggregates of one cell, None when the cell is empty."""
        return self.execute(QueryRequest(op="point", cell=list(cell)))["value"]

    def readiness(self) -> dict:
        """The ``/readyz`` body: a resident engine is always able to serve.

        The interesting states (snapshot still loading, two-phase
        refresh in flight, dead shards) belong to the snapshot engine
        and the shard router, which override this with the same keys.
        """
        return {"ready": True, "state": "serving", "version": self.version}

    def _explain_extras(self, data: dict) -> dict:
        """Tier fields of an EXPLAIN account (the snapshot tier overrides)."""
        return {"tier": {"source": "resident"}}

    def _stats_extras(self, snap: CubeVersion) -> dict:
        """The tier's own ``/stats`` fields (cube size, rows, tier state)."""
        raise NotImplementedError

    def stats(self) -> dict:
        """A JSON-able snapshot of the engine (the ``/stats`` endpoint)."""
        snap = self._version
        schema = snap.schema
        cache = self.cache.stats()
        return {
            "version": snap.version,
            "protocol": PROTOCOL_VERSION,
            "n_dims": schema.n_dims,
            "n_measures": len(schema.measure_names),
            "dimension_names": list(schema.dimension_names),
            "cardinalities": list(schema.cardinalities),
            "min_support": self._min_support,
            **self._stats_extras(snap),
            "cache": {
                "capacity": cache.capacity,
                "size": cache.size,
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "invalidations": cache.invalidations,
                "hit_rate": cache.hit_rate,
            },
            "slow_log": {
                "threshold_s": self.slow_log.threshold,
                "seen": self.slow_log.seen,
                "kept": len(self.slow_log.entries()),
            },
        }

    def append_table(self, table: BaseTable) -> int:
        """Absorb a whole :class:`BaseTable` batch (same arity)."""
        return self.append(table.dim_rows(), table.measure_rows())

    def close(self) -> None:
        """Release the tier's resources (nothing for a local cube)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class QueryEngine(Engine):
    """Point/roll-up/drill-down/slice/dice queries over a refreshable cube.

    The write path is an :class:`~repro.core.incremental.IncrementalRangeCuber`:
    fact batches are appended into its resident trie by a single writer
    (serialized by a lock), and each append swaps in a new
    :class:`CubeVersion`: the same emitted base cube plus a
    :class:`RowDelta` that now holds the batch too.  Once the delta
    reaches :data:`COMPACT_FRACTION` of the rows the base was emitted
    from (or :data:`COMPACT_MAX_ROWS`), the append *compacts*: it
    re-emits the base from the trie and starts an empty delta.  Iceberg
    cubes (``min_support > 1``) compact on every append, since a cell
    below the threshold in the base and in the delta can clear it in
    their sum.
    """

    # e2e_bench/tracing.py wraps ``execute`` in this class's own __dict__
    # (one ``serve.engine.*`` span per read); an alias keeps it there
    # without a second, nested call.
    execute = Engine.execute

    def __init__(
        self,
        cuber: IncrementalRangeCuber,
        schema: Schema,
        *,
        min_support: int = 1,
        cache_capacity: int = 1024,
        store: "CubeStore | None" = None,
        name: str | None = None,
        initial_version: int = 0,
        initial_cube=None,
        slow_query_threshold: float = 0.050,
        slow_log_capacity: int = 128,
        slow_log_sample: int = 1,
    ) -> None:
        if schema.n_dims != cuber.trie.n_dims:
            raise ValueError(
                f"schema has {schema.n_dims} dims, cuber has {cuber.trie.n_dims}"
            )
        if store is not None and name is None:
            raise ValueError("a write-through store needs a cube name")
        super().__init__(
            cuber.aggregator,
            name=name,
            min_support=min_support,
            cache_capacity=cache_capacity,
            slow_query_threshold=slow_query_threshold,
            slow_log_capacity=slow_log_capacity,
            slow_log_sample=slow_log_sample,
        )
        self._cuber = cuber
        self._store = store
        self._write_lock = threading.Lock()
        # Rows the base cube was emitted from (the compaction threshold
        # is a share of it) and the compactions so far.
        self._base_rows = cuber.n_rows_absorbed
        self._compactions = 0
        # A plain attribute assignment swaps versions atomically.  An
        # ``initial_cube`` (e.g. a mmap-loaded snapshot, see
        # :mod:`repro.store`) skips the trie's cube emission entirely —
        # the snapshot cold-start path; it stays the base until the
        # first compaction.
        self._version = CubeVersion(
            initial_version,
            initial_cube if initial_cube is not None else cuber.cube(min_support),
            covering_schema(schema),
        )
        self._empty_delta = RowDelta.empty(
            cuber.aggregator, cuber.trie.n_dims, len(schema.measure_names)
        )
        _register_engine_collector(self)

    @classmethod
    def from_table(
        cls,
        table: BaseTable,
        *,
        aggregator: Aggregator | None = None,
        min_support: int = 1,
        cache_capacity: int = 1024,
        dim_order="auto",
    ) -> "QueryEngine":
        """Build the resident trie from ``table`` and serve its cube.

        ``dim_order`` tunes the resident trie only — answers are always
        expressed in the table's own dimension order and value coding.
        The default ``"auto"`` runs the sampling planner
        (:mod:`repro.tune`); pass ``None`` to pin the as-is order, an
        explicit sequence for a static order, or a prepared
        :class:`~repro.tune.TuningPlan`.  Appends re-plan automatically
        when observed cardinalities drift past the planned estimates.
        """
        from repro.tune import resolve_plan

        agg = aggregator or default_aggregator(table.n_measures)
        plan, order = resolve_plan(table, dim_order)
        if plan is None and order is not None:
            plan = TuningPlan(order, source="fixed")
        cuber = IncrementalRangeCuber(table.n_dims, agg, plan=plan)
        cuber.insert_table(table)
        return cls(
            cuber,
            table.schema,
            min_support=min_support,
            cache_capacity=cache_capacity,
        )

    @property
    def delta_rows(self) -> int:
        """Appended rows the current version serves from its row delta."""
        delta = self._version.delta
        return 0 if delta is None else len(delta)

    def _explain_extras(self, data: dict) -> dict:
        return {
            "tier": {"source": "resident"},
            "delta_rows_matched": int(data.get("delta_rows_matched", 0)),
        }

    def _stats_extras(self, snap: CubeVersion) -> dict:
        plan = self._cuber.plan
        return {
            "n_ranges": snap.cube.n_ranges,
            "rows_absorbed": self._cuber.n_rows_absorbed,
            "delta_rows": 0 if snap.delta is None else len(snap.delta),
            "compactions": self._compactions,
            "trie_nodes": self._cuber.trie_nodes,
            "tuning": (
                None
                if plan is None
                else {
                    "source": plan.source,
                    "dim_order": list(plan.dim_order),
                    "value_dims": sorted(plan.value_orders),
                    "replans": self._cuber.replan_count,
                }
            ),
        }

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def _validate_rows(self, rows, measures):
        return validate_rows(
            rows, measures, self._cuber.trie.n_dims,
            len(self._version.schema.measure_names),
        )

    def append(self, rows: Sequence[Sequence[int]], measures=None) -> int:
        """Absorb a batch of encoded fact rows and refresh the served cube.

        Returns the new version number.  The batch goes into the trie
        (which holds every row) and into the new version's row delta; a
        compaction re-emits the base instead (see the class doc).  The
        refresh is atomic from the readers' point of view: they keep
        answering from the old :class:`CubeVersion` until the single
        attribute swap.  Cache keys embed the version, so an old entry
        can no longer be returned; the swap then re-keys, under the new
        version, the cached answers no batch row can reach (a bound
        value or a dice predicate with no row in the batch) and drops
        the rest — a compaction drops everything.
        """
        clean_rows, clean_measures = self._validate_rows(rows, measures)
        start = time.perf_counter()
        with _TRACER.span("serve.append", rows=len(clean_rows)) as span:
            with self._write_lock:
                # Large batches bulk-build a trie of their own and merge
                # canonically; small ones stream through Algorithm 1.
                self._cuber.insert_batch(clean_rows, clean_measures)
                # Re-plan the resident trie when the append drifted the
                # observed cardinalities past the plan's estimates (cheap
                # comparison otherwise); answers are unaffected.
                if self._cuber.plan is not None:
                    self._cuber.maybe_replan()
                old = self._version
                schema = covering_schema(old.schema, clean_rows)
                delta = None
                if self._min_support == 1:
                    delta = (old.delta or self._empty_delta).extend(
                        clean_rows, clean_measures
                    )
                if delta is None or len(delta) >= min(
                    COMPACT_FRACTION * self._base_rows, COMPACT_MAX_ROWS
                ):
                    with _TRACER.span("serve.compact"):
                        new = CubeVersion(
                            old.version + 1, self._cuber.cube(self._min_support), schema
                        )
                    self._base_rows = self._cuber.n_rows_absorbed
                    self._compactions += 1
                    _COMPACTIONS.inc()
                    self._version = new  # the atomic swap
                    self.cache.invalidate_all()
                else:
                    new = old.successor(schema, delta)
                    self._version = new  # the atomic swap
                    self.cache.invalidate_all(
                        _carry_over(old.version, new.version, schema, clean_rows)
                    )
                if self._store is not None:
                    self._store.save(
                        self._name,
                        self._cuber,
                        new.schema,
                        min_support=self._min_support,
                        engine_version=new.version,
                    )
            span.set_attribute("version", new.version)
        _APPENDS.inc()
        _APPEND_ROWS.inc(len(clean_rows))
        _APPEND_SECONDS.observe(time.perf_counter() - start)
        _REFRESHES.inc()
        return new.version

    def __repr__(self) -> str:
        snap = self._version
        return (
            f"QueryEngine(v{snap.version}, {snap.cube.n_ranges} ranges, "
            f"{self._cuber.n_rows_absorbed} rows absorbed, "
            f"{self.delta_rows} in the delta)"
        )
