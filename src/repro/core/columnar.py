"""Columnar read path for range cubes: frozen arrays + inverted postings.

The paper's Section 4 argument is that a range cube keeps the native
tuple format of a data cube, so ordinary index structures apply to it
unchanged.  :class:`ColumnarRangeStore` takes that literally: it freezes
a :class:`~repro.core.range_cube.RangeCube` into a handful of numpy
columns — in the spirit of Szépkúti's compressed multidimensional
layouts — so whole *batches* of queries resolve inside vectorized
kernels instead of one Python object walk per cell.  The freeze starts
from the cube's :class:`~repro.core.range_cube.RangeColumns` (what
Algorithm 2 emits), so every column below is a whole-array operation.

The layout, for a cube of ``R`` ranges over ``n`` dimensions:

* ``specific`` — ``(R, n)`` int32 matrix of specific-endpoint codes,
  with :data:`STAR_CODE` (-1) as the sentinel for ``*``;
* ``marked_mask`` / ``bound_mask`` / ``fixed_mask`` — int64 per-range
  bitmasks of the marked dimensions, the dimensions bound in the
  specific endpoint, and their difference (``bound & ~marked``), which
  is everything the general endpoint still binds;
* ``accept_words`` — the general-endpoint mask as a packed uint64
  bitset, one word-row per dimension: bit ``r`` of ``accept_words[d]``
  says range ``r`` accepts ``*`` on dimension ``d`` (the dimension is
  marked or free), so an all-``*`` probe is a bitwise AND across rows;
* ``counts`` plus per-measure state columns — the aggregate states
  unpacked column-wise (COUNT always; SUM/MIN/MAX/AVG components when
  the aggregator uses the stock algebra), which lets ``merge_states``
  combine thousands of ranges with a few array reductions;
* per-dimension *inverted postings* — ``value -> sorted range-id
  array`` for every code a dimension binds, with a dedicated ``*``
  posting for the ranges that leave it free.

Query answering:

* :meth:`find_id` intersects the bound dimensions' postings
  (sorted-merge via ``np.intersect1d``) and applies one vectorized
  containment check (``fixed_mask & ~query_mask == 0``) in place of the
  hash index's ``2**m`` probe loop;
* :meth:`find_batch` groups a batch of cells by bound-dimension mask
  and answers each group from a memoized *cuboid map* (projected
  specific endpoint -> range id), so steady-state batched lookups cost
  one dict probe per cell;
* :meth:`select` is the one selection kernel behind drill-down, slice
  and dice: the ranges that give a cell to one target cuboid and match
  a cell's bound values, read off the stored ranges (postings or a
  memoized cuboid selection), never off the value domain;
  :meth:`children` and :meth:`dice_ids` are built on it, and
  :meth:`merge_states` folds a selection into one state;
* :meth:`cuboid` / :meth:`cuboid_sizes` answer whole-cuboid questions
  by mask-filtered column selection, reusing the same memoized per-mask
  range-id lists.

Everything is read-only after construction; the serving layer freezes
one store per immutable cube version.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from functools import cached_property, reduce
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.core.range_cube import STAR_CODE, RangeColumns
from repro.cube.cell import Cell
from repro.obs import OBS_STATE, get_registry, get_tracer
from repro.table.aggregates import Aggregator, CountAggregator, SumCountAggregator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.range_cube import Range, RangeCube

#: Bitmask columns are int64, so the columnar path covers up to 62 dims.
MAX_COLUMNAR_DIMS = 62

#: Cubes with at least this many ranges answer reads through the
#: columnar store; below it, the per-cell hash index wins (array setup
#: costs more than it saves on a handful of ranges).
COLUMNAR_THRESHOLD = 512


def prefers_columnar(cube: "RangeCube") -> bool:
    """Whether reads over ``cube`` should go through the columnar store.

    Sized by the cube's ``n_ranges``, which a :class:`RangeCube` reads off
    its columns without building :class:`Range` objects; any other
    object with a ``ranges`` list is sized by that list.
    """
    n_ranges = getattr(cube, "n_ranges", None)
    if n_ranges is None:
        n_ranges = len(cube.ranges)
    return n_ranges >= COLUMNAR_THRESHOLD and cube.n_dims <= MAX_COLUMNAR_DIMS

#: ``find_batch`` builds a memoized cuboid map for a mask only when the
#: group asking for it is large enough relative to the candidate count;
#: below that, per-cell postings intersection is cheaper than the map.
_MAP_BUILD_FACTOR = 64

_NO_IDS = np.empty(0, dtype=np.int32)

_TRACER = get_tracer()
_REGISTRY = get_registry()
_POSTINGS_HITS = _REGISTRY.counter(
    "repro_query_postings_hits_total",
    "Point lookups resolved by inverted-postings intersection.",
)
_CUBOID_MAP_HITS = _REGISTRY.counter(
    "repro_query_cuboid_map_hits_total",
    "Batched point lookups resolved through a memoized cuboid map.",
)
_FIND_BATCH_SIZE = _REGISTRY.histogram(
    "repro_query_batch_size", "Cells per columnar find_batch call."
)


def _cuboid_map_nbytes(entries: int, n_dims: int) -> int:
    """Approximate heap footprint of a cuboid map (dict slot + cell tuple)."""
    return entries * (120 + 16 * n_dims)


# ----------------------------------------------------------------------
# query EXPLAIN collection
# ----------------------------------------------------------------------

_EXPLAIN_LOCAL = threading.local()


class ExplainCollector:
    """One query's cost account, accumulated across the read path.

    The serving layer installs a collector (thread-local) around an
    ``explain=true`` request; the columnar kernels, the snapshot tier
    policy and the mapped-column readers each drop their counts in as
    they run.  When no collector is installed — every ordinary request —
    the hook is one ``getattr`` returning ``None``, so the hot path
    stays inside the obs-overhead budget.
    """

    __slots__ = ("data",)

    def __init__(self) -> None:
        self.data: dict = {}

    def add(self, key: str, amount: int = 1) -> None:
        self.data[key] = self.data.get(key, 0) + amount

    def put(self, key: str, value: object) -> None:
        self.data[key] = value


def explain_collector() -> ExplainCollector | None:
    """The collector installed on this thread, if any (hot-path hook)."""
    return getattr(_EXPLAIN_LOCAL, "collector", None)


@contextmanager
def collect_explain():
    """Install a fresh :class:`ExplainCollector` for the enclosed query."""
    collector = ExplainCollector()
    previous = getattr(_EXPLAIN_LOCAL, "collector", None)
    _EXPLAIN_LOCAL.collector = collector
    try:
        yield collector
    finally:
        _EXPLAIN_LOCAL.collector = previous


def _pack_bits(flags: np.ndarray) -> np.ndarray:
    """A boolean vector packed little-endian into uint64 words."""
    n_words = (len(flags) + 63) // 64 or 1
    padded = np.zeros(n_words * 64, dtype=bool)
    padded[: len(flags)] = flags
    bits = np.packbits(padded.reshape(n_words, 64), axis=1, bitorder="little")
    return bits.view(np.uint64).reshape(n_words)


class _FastStateColumns:
    """Aggregate states unpacked into per-measure numpy columns.

    Only the stock algebra qualifies (COUNT plus SUM/MIN/MAX/AVG specs
    on an :class:`~repro.table.aggregates.Aggregator` whose scalar
    ``state_from_row``/``merge`` are not overridden): then a state is
    ``(count, c1, c2, ...)`` with each component a float or an
    ``(sum, count)`` pair, and merging a range-id selection reduces to
    one array reduction per column.
    """

    _REDUCERS = {"sum": np.add.reduce, "min": np.minimum.reduce, "max": np.maximum.reduce}

    def __init__(self, kinds: list[str], columns: list) -> None:
        self.kinds = kinds  # per spec: "sum" | "min" | "max" | "avg"
        self.columns = columns  # per spec: ndarray, or (sums, counts) for avg

    @staticmethod
    def _stock(aggregator: Aggregator) -> bool:
        # The stock subclasses override the scalar algebra purely as a
        # speedup — their state layout still follows the specs, so the
        # columnar reductions stay exact.  Any other override may change
        # the layout; fall back to pairwise merging for those.
        return type(aggregator) in (
            Aggregator,
            CountAggregator,
            SumCountAggregator,
        ) or not aggregator._scalar_algebra_overridden()

    @classmethod
    def from_block(
        cls, aggregator: Aggregator, measures: np.ndarray
    ) -> "_FastStateColumns | None":
        """The columns of one-row states, read straight off a measure block."""
        if not cls._stock(aggregator):
            return None
        kinds: list[str] = []
        columns: list = []
        for fn, i in aggregator.specs:
            column = measures[:, i]
            if fn.name in cls._REDUCERS:
                columns.append(column)
            elif fn.name == "avg":
                columns.append((column, np.ones(len(column), dtype=np.int64)))
            else:
                return None
            kinds.append(fn.name)
        return cls(kinds, columns)

    @classmethod
    def build(cls, aggregator: Aggregator, states: Sequence[tuple]) -> "_FastStateColumns | None":
        if not cls._stock(aggregator):
            return None
        kinds: list[str] = []
        columns: list = []
        n = len(states)
        for j, (fn, _) in enumerate(aggregator.specs):
            component = map(itemgetter(j + 1), states)
            if fn.name in cls._REDUCERS:
                kinds.append(fn.name)
                columns.append(np.fromiter(component, dtype=np.float64, count=n))
            elif fn.name == "avg":
                kinds.append("avg")
                pairs = list(component)
                sums = np.fromiter(map(itemgetter(0), pairs), dtype=np.float64, count=n)
                counts = np.fromiter(map(itemgetter(1), pairs), dtype=np.int64, count=n)
                columns.append((sums, counts))
            else:  # an aggregate without a columnar reduction
                return None
        return cls(kinds, columns)

    def merge(self, count: int, ids: np.ndarray) -> tuple:
        """The merged state of the rows ``ids`` selects (ids or a boolean mask)."""
        state: list = [count]
        for kind, column in zip(self.kinds, self.columns):
            if kind == "avg":
                sums, counts = column
                state.append((float(np.add.reduce(sums[ids])), int(np.add.reduce(counts[ids]))))
            else:
                state.append(float(self._REDUCERS[kind](column[ids])))
        return tuple(state)


class ColumnarRangeStore:
    """A range cube frozen into numpy columns plus inverted postings."""

    def __init__(self, cube: "RangeCube") -> None:
        if cube.n_dims > MAX_COLUMNAR_DIMS:
            raise ValueError(
                f"columnar store supports up to {MAX_COLUMNAR_DIMS} dims, "
                f"cube has {cube.n_dims}"
            )
        # Only a weak reference back: the cube caches this store, and a
        # strong pair would outlive the cube until a cyclic collection.
        self._cube = weakref.ref(cube)
        self.aggregator = cube.aggregator
        self.n_dims = cube.n_dims
        n = cube.n_dims
        columns = cube.columns
        self.specific = columns.specific
        bound = self.specific != STAR_CODE
        powers = np.int64(1) << np.arange(n, dtype=np.int64)
        self.bound_mask = (
            bound @ powers if n else np.zeros(len(columns), dtype=np.int64)
        )
        # a marked dim is always bound
        self.marked_mask = columns.marked_mask & self.bound_mask
        self.fixed_mask = self.bound_mask & ~self.marked_mask
        # Packed acceptance bitsets: accept_words[d] bit r <=> range r
        # accepts * on dim d (marked or free there).
        accepts = ~bound | (self.marked_mask[:, None] >> np.arange(n) & 1).astype(bool)
        self.accept_words = np.stack(
            [_pack_bits(accepts[:, d]) for d in range(n)]
        ) if n else np.zeros((0, 1), dtype=np.uint64)
        self.states: list[tuple] = columns.states
        self.counts = np.fromiter(
            map(itemgetter(0), self.states), dtype=np.int64, count=len(self.states)
        )
        self._fast_columns = _FastStateColumns.build(cube.aggregator, self.states)
        self.postings: list[dict[int, np.ndarray]] = [
            self._build_postings(d) for d in range(n)
        ]
        self._apex_id = self._resolve_apex()
        self._memo_lock = threading.Lock()
        self._cuboid_ids: dict[int, np.ndarray] = {}
        self._cuboid_maps: dict[int, dict[Cell, int]] = {}
        self._cuboid_sizes: dict[int, int] | None = None
        self._memo_policy = None

    @cached_property
    def ranges(self) -> list["Range"]:
        """The cube's :class:`Range` list, built only when asked for.

        The cube's own list while it lives (so range identities match);
        rebuilt from the frozen columns once it is gone.
        """
        cube = self._cube()
        if cube is not None:
            return cube.ranges
        return RangeColumns(self.specific, self.marked_mask, self.states).to_ranges()

    # -- memoization policy ----------------------------------------------

    def set_memo_policy(self, policy) -> None:
        """Install an admission policy over the per-mask memo caches.

        ``None`` (the default) memoizes everything — the resident store's
        historical behaviour.  A policy object mediates the hot/cold
        split for out-of-core stores (see :class:`repro.store.TierPolicy`):

        * ``should_map(mask, group_size)`` — consulted by
          :meth:`find_batch_ids` before a group uses (or builds) a cuboid
          map; ``False`` sends the group down the per-cell postings path,
          which never materializes per-mask state.
        * ``admit(kind, mask, nbytes)`` — consulted before a freshly
          built structure (``kind`` ``"ids"`` or ``"map"``) is memoized;
          ``False`` serves it transiently.  The policy may evict other
          masks through :meth:`evict_memo` to make room.
        """
        self._memo_policy = policy

    def evict_memo(self, kind: str, mask: int) -> None:
        """Drop one memoized per-mask structure (policy eviction callback)."""
        memo = self._cuboid_ids if kind == "ids" else self._cuboid_maps
        with self._memo_lock:
            memo.pop(mask, None)

    # -- construction helpers -------------------------------------------

    def _build_postings(self, dim: int) -> dict[int, np.ndarray]:
        """``value -> sorted range ids`` for one dimension (−1 = the ``*`` posting)."""
        column = self.specific[:, dim]
        order = np.argsort(column, kind="stable")  # stable: ids ascend per value
        sorted_vals = column[order]
        boundaries = np.flatnonzero(np.diff(sorted_vals)) + 1
        starts = np.concatenate(([0], boundaries, [len(sorted_vals)]))
        ids32 = order.astype(np.int32)
        return {
            int(sorted_vals[lo]): ids32[lo:hi]
            for lo, hi in zip(starts[:-1], starts[1:])
            if hi > lo
        }

    def _resolve_apex(self) -> int:
        """The id of the range containing the all-``*`` cell (−1 if none).

        One bitwise AND across the packed acceptance words — the only
        lookup where every dimension is free, answered entirely in the
        bitset layout.
        """
        if not len(self):
            return -1
        if not self.n_dims:
            return 0
        words = np.bitwise_and.reduce(self.accept_words, axis=0)
        hits = np.flatnonzero(words)
        if not hits.size:
            return -1
        word = int(words[hits[0]])
        return int(hits[0]) * 64 + (word & -word).bit_length() - 1

    # -- point lookups ---------------------------------------------------

    def star_ids(self, dim: int) -> np.ndarray:
        """Sorted ids of the ranges leaving ``dim`` free (the ``*`` posting)."""
        return self.postings[dim].get(STAR_CODE, np.empty(0, dtype=np.int32))

    def find_id(self, cell: Cell) -> int:
        """The id of the unique range containing ``cell`` (−1 when empty).

        Postings intersection over the bound dimensions, then one
        vectorized containment check: a surviving candidate contains the
        cell iff its fixed dimensions are all bound by the cell
        (``fixed_mask & ~query_mask == 0``) — the marked/free dimensions
        accept ``*`` by construction of the postings.
        """
        qmask = 0
        posts = []
        for d, v in enumerate(cell):
            if v is None:
                continue
            qmask |= 1 << d
            p = self.postings[d].get(v)
            if p is None:
                return -1
            posts.append(p)
        acc = explain_collector()
        if not posts:
            return self._apex_id
        posts.sort(key=len)
        ids = posts[0]
        for p in posts[1:]:
            ids = np.intersect1d(ids, p, assume_unique=True)
            if not ids.size:
                if acc is not None:
                    acc.add("postings_intersected", len(posts))
                return -1
        if acc is not None:
            acc.add("postings_intersected", len(posts))
            acc.add("cells_scanned", int(ids.size))
        ok = ids[(self.fixed_mask[ids] & ~qmask) == 0]
        if not ok.size:
            return -1
        if OBS_STATE.enabled:
            _POSTINGS_HITS.inc()
        return int(ok[0])

    def find(self, cell: Cell) -> "Range | None":
        """The unique range containing ``cell`` (None when the cell is empty)."""
        rid = self.find_id(cell)
        return None if rid < 0 else self.ranges[rid]

    def find_batch_ids(self, cells: Sequence[Cell]) -> list[int]:
        """Range ids for a whole batch of cells (−1 marks empty cells).

        Cells are grouped by bound-dimension mask; each group resolves
        against that mask's memoized cuboid map (one dict probe per
        cell).  A mask whose candidate list dwarfs its group falls back
        to per-cell postings intersection instead of paying the map
        build.
        """
        if not OBS_STATE.enabled:
            return self._find_batch_ids(cells)[0]
        with _TRACER.span("query.find_batch", cells=len(cells)) as span:
            out, n_masks, postings_resolved, map_resolved = self._find_batch_ids(cells)
            span.set_attribute("masks", n_masks)
            span.set_attribute("postings_resolved", postings_resolved)
        _FIND_BATCH_SIZE.observe(len(cells))
        if map_resolved:
            _CUBOID_MAP_HITS.inc(map_resolved)
        return out

    def _find_batch_ids(self, cells: Sequence[Cell]) -> tuple[list[int], int, int, int]:
        out = [-1] * len(cells)
        groups: dict[int, list[int]] = {}
        for pos, cell in enumerate(cells):
            qmask = 0
            for d, v in enumerate(cell):
                if v is not None:
                    qmask |= 1 << d
            groups.setdefault(qmask, []).append(pos)
        postings_resolved = 0
        map_resolved = 0
        for qmask, positions in groups.items():
            cmap = self._cuboid_maps.get(qmask)
            if cmap is None:
                policy = self._memo_policy
                if policy is not None and not policy.should_map(qmask, len(positions)):
                    for pos in positions:
                        out[pos] = self.find_id(cells[pos])
                    postings_resolved += len(positions)
                    continue
                candidates = self.cuboid_ids(qmask)
                if candidates.size > _MAP_BUILD_FACTOR * len(positions):
                    for pos in positions:
                        out[pos] = self.find_id(cells[pos])
                    postings_resolved += len(positions)
                    continue
                cmap = self.cuboid_map(qmask)
            for pos in positions:
                out[pos] = cmap.get(tuple(cells[pos]), -1)
            map_resolved += len(positions)
        acc = explain_collector()
        if acc is not None:
            acc.add("batch_masks", len(groups))
            acc.add("postings_resolved", postings_resolved)
            acc.add("cuboid_map_hits", map_resolved)
        return out, len(groups), postings_resolved, map_resolved

    def find_batch(self, cells: Sequence[Cell]) -> list["Range | None"]:
        """The containing range per cell, batched (None marks empty cells)."""
        ranges = self.ranges
        return [
            None if rid < 0 else ranges[rid] for rid in self.find_batch_ids(cells)
        ]

    # -- cuboids and state merging --------------------------------------

    def cuboid_ids(self, mask: int) -> np.ndarray:
        """Ids of the ranges contributing a cell to cuboid ``mask`` (memoized).

        A range contributes exactly when its fixed dimensions are inside
        ``mask`` and ``mask`` is covered by its bound dimensions — two
        vectorized bitmask comparisons over the whole store.
        """
        ids = self._cuboid_ids.get(mask)
        if ids is None:
            ids = np.flatnonzero(
                ((self.fixed_mask & ~mask) == 0) & ((mask & ~self.bound_mask) == 0)
            ).astype(np.int32)
            acc = explain_collector()
            if acc is not None:
                acc.add("cuboid_ids_built")
                acc.add("cells_scanned", len(self))
            policy = self._memo_policy
            if policy is None or policy.admit("ids", mask, ids.nbytes):
                with self._memo_lock:
                    self._cuboid_ids.setdefault(mask, ids)
        return ids

    def _project(self, rid_rows: np.ndarray, dims: list[int]) -> Iterable[Cell]:
        """Full-width cells binding ``dims`` to each row's specific codes."""
        template: list = [None] * self.n_dims
        for row in rid_rows.tolist():
            for d, v in zip(dims, row):
                template[d] = v
            yield tuple(template)

    def cuboid_map(self, mask: int) -> dict[Cell, int]:
        """``cell -> range id`` for one cuboid (memoized).

        The ranges are disjoint and cover every cell, so each cell of
        the cuboid appears exactly once — the map is the cuboid's
        point-query index, built once per mask.
        """
        cmap = self._cuboid_maps.get(mask)
        if cmap is None:
            ids = self.cuboid_ids(mask)
            dims = [d for d in range(self.n_dims) if mask >> d & 1]
            sub = self.specific[ids][:, dims] if len(dims) else self.specific[ids][:, :0]
            cmap = dict(zip(self._project(sub, dims), ids.tolist()))
            acc = explain_collector()
            if acc is not None:
                acc.add("cuboid_maps_built")
            policy = self._memo_policy
            if policy is None or policy.admit(
                "map", mask, _cuboid_map_nbytes(len(cmap), self.n_dims)
            ):
                with self._memo_lock:
                    self._cuboid_maps.setdefault(mask, cmap)
        return cmap

    def base_cell_ids(self) -> np.ndarray:
        """Ids of the finest cuboid's ranges (every dimension bound).

        Each such range contributes exactly one all-dims-bound cell —
        its specific endpoint — so ``specific[ids]`` / ``counts[ids]``
        enumerate the cube's base cells with their weights.  This is the
        sampling population for :class:`repro.approx.CubeSketch`.
        """
        full_mask = (1 << self.n_dims) - 1 if self.n_dims else 0
        return self.cuboid_ids(full_mask)

    def cuboid(self, mask: int) -> dict[Cell, tuple]:
        """All cells of one cuboid with their aggregate states.

        Same contract as :meth:`RangeCube.cuboid`, answered by the
        memoized mask-filtered selection instead of a Python pass over
        every range.
        """
        states = self.states
        return {cell: states[rid] for cell, rid in self.cuboid_map(mask).items()}

    def cuboid_sizes(self) -> dict[int, int]:
        """Cells per cuboid mask, from the unique (fixed, marked) pairs.

        A range contributes one cell to every mask between its fixed and
        its bound set, so the census only depends on the (fixed, marked)
        bitmask pair — ``np.unique`` collapses the store to those pairs
        and the subset enumeration runs once per distinct pair instead
        of once per range.
        """
        if self._cuboid_sizes is None:
            sizes: dict[int, int] = {}
            if len(self):
                pairs = np.column_stack((self.fixed_mask, self.marked_mask))
                unique, counts = np.unique(pairs, axis=0, return_counts=True)
                for (fixed, marked), count in zip(unique.tolist(), counts.tolist()):
                    marked_dims = [d for d in range(self.n_dims) if marked >> d & 1]
                    for subset in range(1 << len(marked_dims)):
                        mask = fixed
                        for j, dim in enumerate(marked_dims):
                            if subset >> j & 1:
                                mask |= 1 << dim
                        sizes[mask] = sizes.get(mask, 0) + count
            with self._memo_lock:
                if self._cuboid_sizes is None:
                    self._cuboid_sizes = sizes
        return dict(self._cuboid_sizes)

    def merge_states(self, ids: np.ndarray) -> tuple | None:
        """One aggregate state merged across a range-id selection.

        Vectorized per-measure column reductions when the aggregator
        uses the stock algebra; exact pairwise merging otherwise.  A dice
        is :meth:`dice_ids` merged once here.
        """
        ids = np.asarray(ids)
        if not ids.size:
            return None
        acc = explain_collector()
        if acc is not None:
            acc.add("ranges_merged", int(ids.size))
        if self._fast_columns is not None:
            return self._fast_columns.merge(int(np.add.reduce(self.counts[ids])), ids)
        states = self.states
        return reduce(self.aggregator.merge, (states[i] for i in ids.tolist()))

    # -- selection: drill-down, slice and dice ---------------------------

    def _check_arity(self, cell: Cell) -> None:
        if len(cell) != self.n_dims:
            raise ValueError(f"query cell has {len(cell)} dims, cube has {self.n_dims}")

    def select(
        self, cell: Cell, target_mask: int, *, build_cuboid: bool = False
    ) -> np.ndarray:
        """Ids of the ranges giving cuboid ``target_mask`` a cell that matches ``cell``.

        A range gives exactly one cell to every cuboid between its fixed
        and its bound dimensions (``fixed ⊆ target ⊆ bound``): its
        specific endpoint projected onto the target.  ``cell``'s bound
        dimensions lie inside ``target_mask``, so the target cuboid's
        cells that agree with ``cell``'s bound values are those of the
        ranges returned here, one cell each, in ascending range order
        (merges over them add in a fixed order).

        Two plans, picked by estimated size:

        * **postings** — the shortest of the bound values' postings,
          narrowed by the containment test and then by the other bound
          values, each a probe of the ``specific`` column (the postings
          intersection, without merging the longer lists);
        * **cuboid** — the memoized :meth:`cuboid_ids` of the target,
          filtered on the bound values, when that memo already exists
          (or ``build_cuboid`` has it built, as a dice does) and is
          shorter than the shortest posting.  A cell that binds nothing
          has no postings to start from and always takes this plan.
          Memos are built through the admission policy.
        """
        self._check_arity(cell)
        bound: list[tuple[int, int]] = []
        shortest = None
        for d, v in enumerate(cell):
            if v is None:
                continue
            posting = self.postings[d].get(v)
            if posting is None:
                return _NO_IDS
            if shortest is None or len(posting) < len(shortest):
                shortest, first = posting, len(bound)
            bound.append((d, v))
        if build_cuboid or shortest is None:
            memo = self.cuboid_ids(target_mask)
        else:
            memo = self._cuboid_ids.get(target_mask)
        acc = explain_collector()
        if memo is not None and (shortest is None or len(memo) < len(shortest)):
            ids = memo
            if acc is not None:
                acc.add("selection_cuboid")
                acc.add("cells_scanned", int(ids.size))
        else:
            if acc is not None:
                acc.add("selection_postings")
                acc.add("postings_intersected", len(bound))
                acc.add("cells_scanned", int(shortest.size))
            fixed = self.fixed_mask[shortest]
            fixed &= ~target_mask
            covered = self.bound_mask[shortest]
            covered &= target_mask
            keep = fixed == 0
            keep &= covered == target_mask
            ids = shortest[keep]
            del bound[first]
        for d, v in bound:
            if not ids.size:
                break
            ids = ids[self.specific[ids, d] == v]
        return ids

    def children(self, cell: Cell, dim: int) -> list[tuple[int, tuple]]:
        """``(code, state)`` for the non-empty children of ``cell`` along ``dim``.

        A drill-down is a group-by over one cuboid: the children are the
        cells of cuboid ``bound(cell) | dim`` that agree with ``cell``,
        one per range :meth:`select` returns, listed in code order.
        """
        self._check_arity(cell)
        if cell[dim] is not None:
            raise ValueError(f"dimension {dim} is already bound in {cell!r}")
        target = 1 << dim
        for d, v in enumerate(cell):
            if v is not None:
                target |= 1 << d
        ids = self.select(cell, target)
        codes = self.specific[ids, dim]
        order = np.argsort(codes, kind="stable")
        states = self.states
        return [
            (code, states[rid])
            for code, rid in zip(codes[order].tolist(), ids[order].tolist())
        ]

    def dice_ids(
        self,
        value_sets: Mapping[int, Iterable[int]],
        base: Mapping[int, int] | None = None,
    ) -> np.ndarray:
        """Ids of the ranges whose cuboid cell matches a dice predicate.

        ``value_sets`` maps a dimension to its admitted codes; ``base``
        pins dimensions to single values.  The candidates are
        :meth:`select`'s for the base cell and the combined mask (a dice
        builds that cuboid's memo, as it always has, so the kernel picks
        the shorter of it and the postings), narrowed by vectorized
        membership tests on the specific columns; they stay in ascending
        range order.
        """
        cell: list = [None] * self.n_dims
        mask = 0
        for d, v in (base or {}).items():
            cell[d] = v
            mask |= 1 << d
        for d in value_sets:
            mask |= 1 << d
        ids = self.select(cell, mask, build_cuboid=True)
        for d, values in value_sets.items():
            if not ids.size:
                break
            ids = ids[np.isin(self.specific[ids, d], np.fromiter(values, dtype=np.int64))]
        return ids

    # -- introspection ---------------------------------------------------

    def memo_stats(self) -> dict:
        """Sizes of the memoized per-mask structures (for tests/stats)."""
        return {
            "cuboid_id_masks": len(self._cuboid_ids),
            "cuboid_map_masks": len(self._cuboid_maps),
            "cuboid_map_cells": sum(len(m) for m in self._cuboid_maps.values()),
            "sizes_cached": self._cuboid_sizes is not None,
        }

    def nbytes(self) -> int:
        """Approximate footprint of the frozen columns (postings included)."""
        total = (
            self.specific.nbytes
            + self.marked_mask.nbytes
            + self.bound_mask.nbytes
            + self.fixed_mask.nbytes
            + self.accept_words.nbytes
            + self.counts.nbytes
        )
        for postings in self.postings:
            total += sum(p.nbytes for p in postings.values())
        return total

    def __len__(self) -> int:
        return len(self.counts)

    def __repr__(self) -> str:
        return (
            f"ColumnarRangeStore({len(self)} ranges x {self.n_dims} dims, "
            f"{self.nbytes() / 1024:.0f} KiB)"
        )
