"""The range cube: a convex, semantics-preserving partition of all cells.

A *range* ``[general, specific]`` (paper Definition 2) stands for every
cell ``c`` with ``general ⪯ c ⪯ specific``; all of them share one
aggregation value (paper Lemma 3), so one *range tuple* (Definition 6)
represents them losslessly.  A coordinate of a range tuple is

* ``v``  — fixed: bound to ``v`` in both endpoints;
* ``v'`` — marked: ``*`` in the general endpoint, ``v`` in the specific
  one, i.e. the represented cells may bind it or not;
* ``*``  — free in both endpoints.

We store a range as its *specific* endpoint plus a bitmask of marked
dimensions; the general endpoint is derived.  A range with ``m`` marked
dimensions covers ``2**m`` cells.

A :class:`RangeCube` is a list of pairwise-disjoint ranges covering every
cell of the full cube exactly once — a *convex partition* in the sense of
Lakshmanan et al., which is what preserves roll-up/drill-down semantics
(paper Theorem 1).  Algorithm 2 emits that list as :class:`RangeColumns`
— one int32 code row, one int64 marked mask and one aggregate state per
range — and the cube keeps the columns as its primary form: the read
path freezes them without a pass over Python objects, and
:class:`Range` objects are built only when a caller asks for
:attr:`RangeCube.ranges`.
"""

from __future__ import annotations

import threading
from typing import Iterator, Sequence

import numpy as np

from repro.cube.cell import Cell
from repro.cube.full_cube import MaterializedCube
from repro.table.aggregates import Aggregator


class Range:
    """One range: specific endpoint, marked-dimension mask, aggregate state."""

    __slots__ = ("specific", "mask", "state")

    def __init__(self, specific: Cell, mask: int, state) -> None:
        self.specific = specific
        self.mask = mask
        self.state = state

    @property
    def general(self) -> Cell:
        """The general endpoint: marked dimensions relaxed to ``*``."""
        return tuple(
            None if self.mask >> i & 1 else v for i, v in enumerate(self.specific)
        )

    @property
    def n_marked(self) -> int:
        return self.mask.bit_count()

    @property
    def n_cells(self) -> int:
        """Number of cells this range represents (``2**marked``)."""
        return 1 << self.mask.bit_count()

    def contains(self, cell: Cell) -> bool:
        """Membership test ``general ⪯ cell ⪯ specific``."""
        for i, v in enumerate(self.specific):
            c = cell[i]
            if self.mask >> i & 1:
                if c is not None and c != v:
                    return False
            elif c != v:
                return False
        return True

    def cells(self) -> Iterator[Cell]:
        """Every represented cell, by expanding subsets of the marked dims."""
        marked = [i for i in range(len(self.specific)) if self.mask >> i & 1]
        base = list(self.general)
        for subset in range(1 << len(marked)):
            cell = base[:]
            for j, dim in enumerate(marked):
                if subset >> j & 1:
                    cell[dim] = self.specific[dim]
            yield tuple(cell)

    def to_string(self, decode=None) -> str:
        """The paper's range-tuple notation, e.g. ``(S1, C1', *, D1)``."""
        parts = []
        for i, v in enumerate(self.specific):
            if v is None:
                parts.append("*")
                continue
            text = str(v)
            if decode is not None and hasattr(decode, "encoders"):
                text = str(decode.encoders[i].decode(v))
            parts.append(text + "'" if self.mask >> i & 1 else text)
        return "(" + ", ".join(parts) + ")"

    def __repr__(self) -> str:
        return f"Range{self.to_string()}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Range)
            and self.specific == other.specific
            and self.mask == other.mask
            and self.state == other.state
        )

    def __hash__(self) -> int:
        return hash((self.specific, self.mask))


#: Sentinel code standing for ``*`` (``None``) in a specific-code column.
STAR_CODE = -1


class RangeColumns:
    """A list of ranges as columns, in range order.

    ``specific`` is the ``(R, n)`` int32 matrix of specific-endpoint
    codes (:data:`STAR_CODE` for ``*``), ``marked_mask`` the ``(R,)``
    int64 marked-dimension masks and ``states`` the list of aggregate
    states.  Row ``i`` of the three is the range :class:`Range` ``i``
    would hold.
    """

    __slots__ = ("specific", "marked_mask", "states")

    def __init__(
        self, specific: np.ndarray, marked_mask: np.ndarray, states: list
    ) -> None:
        self.specific = specific
        self.marked_mask = marked_mask
        self.states = states

    def __len__(self) -> int:
        return len(self.marked_mask)

    @classmethod
    def from_ranges(cls, n_dims: int, ranges: Sequence[Range]) -> "RangeColumns":
        """The columns of a :class:`Range` list (one Python pass over it)."""
        rows = [[STAR_CODE if v is None else v for v in r.specific] for r in ranges]
        specific = (
            np.asarray(rows, dtype=np.int32)
            if rows
            else np.empty((0, n_dims), dtype=np.int32)
        )
        masks = np.fromiter((r.mask for r in ranges), dtype=np.int64, count=len(ranges))
        return cls(specific, masks, [r.state for r in ranges])

    def to_ranges(self) -> list[Range]:
        """One :class:`Range` per row, ``*`` codes turned back into ``None``."""
        codes = self.specific.astype(object)
        codes[self.specific == STAR_CODE] = None
        dims = [codes[:, d].tolist() for d in range(codes.shape[1])]
        cells = zip(*dims) if dims else [()] * len(self)
        return list(map(Range, cells, self.marked_mask.tolist(), self.states))


class RangeCube:
    """The output of range cubing: disjoint ranges partitioning the cube.

    Built from either a :class:`Range` list (``RangeCube(n, agg,
    ranges)``) or the :class:`RangeColumns` Algorithm 2 emits
    (``columns=``); the other form is derived on first use and cached.
    """

    def __init__(
        self,
        n_dims: int,
        aggregator: Aggregator,
        ranges: list[Range] | None = None,
        *,
        columns: RangeColumns | None = None,
    ) -> None:
        if (ranges is None) == (columns is None):
            raise TypeError("RangeCube takes exactly one of ranges and columns")
        self.n_dims = n_dims
        self.aggregator = aggregator
        self._ranges = ranges
        self._columns = columns
        self._index = None
        self._columnar = None
        # Reentrant: building the index under the lock may itself call
        # to_columnar() (the columnar strategy shares the store).
        self._index_lock = threading.RLock()

    def __getstate__(self) -> dict:
        # The lock is not picklable and the derived read structures are
        # cheaper to rebuild than to ship; drop them.
        state = self.__dict__.copy()
        state["_index"] = None
        state["_columnar"] = None
        del state["_index_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__.setdefault("_columnar", None)
        self._index_lock = threading.RLock()

    # -- the two forms ----------------------------------------------------

    @property
    def ranges(self) -> list[Range]:
        """The ranges as :class:`Range` objects, in range order.

        A cube built from columns builds this list on first access (one
        :class:`Range` per row, about 2 µs and 170 bytes each) and keeps
        it, so identities and in-place edits persist across accesses.
        The columns, and so every lookup, stay as emitted.
        """
        ranges = self._ranges
        if ranges is None:
            with self._index_lock:
                ranges = self._ranges
                if ranges is None:
                    ranges = self._ranges = self._columns.to_ranges()
        return ranges

    @property
    def columns(self) -> RangeColumns:
        """The ranges as :class:`RangeColumns` (derived once from a list)."""
        columns = self._columns
        if columns is None:
            with self._index_lock:
                columns = self._columns
                if columns is None:
                    columns = self._columns = RangeColumns.from_ranges(
                        self.n_dims, self._ranges
                    )
        return columns

    # -- size ------------------------------------------------------------

    @property
    def n_ranges(self) -> int:
        """The paper's "number of tuples in the range cube"."""
        return len(self._columns if self._columns is not None else self._ranges)

    def __len__(self) -> int:
        return self.n_ranges

    @property
    def n_cells(self) -> int:
        """Number of cells represented — the full cube's size when complete.

        Valid because the ranges are disjoint: the sizes simply add up.
        """
        if self._columns is not None:
            masks = self._columns.marked_mask.tolist()
        else:
            masks = (r.mask for r in self._ranges)
        return sum(1 << m.bit_count() for m in masks)

    def tuple_ratio(self, full_cube_cells: int | None = None) -> float:
        """Range-cube tuples over full-cube cells (paper's space metric)."""
        total = full_cube_cells if full_cube_cells is not None else self.n_cells
        return self.n_ranges / total if total else 1.0

    # -- access ----------------------------------------------------------

    def __iter__(self) -> Iterator[Range]:
        return iter(self.ranges)

    def expand(self) -> Iterator[tuple[Cell, tuple]]:
        """Every (cell, aggregate state) pair — the uncompressed cube."""
        for r in self.ranges:
            for cell in r.cells():
                yield cell, r.state

    def cuboid(self, mask: int) -> dict[Cell, tuple]:
        """All cells of one cuboid (dimension bitmask), without full expansion.

        A range contributes to cuboid ``mask`` exactly when its fixed
        dimensions are all in ``mask`` and ``mask`` is covered by fixed
        plus marked dimensions — in that case it contributes the single
        cell that binds ``mask``'s dimensions to the specific endpoint.
        Cost is one pass over the ranges, independent of cube size —
        and for cubes past the columnar threshold, one memoized
        mask-filtered column selection (see
        :class:`~repro.core.columnar.ColumnarRangeStore`).
        """
        columnar = self.columnar_if_worthwhile()
        if columnar is not None:
            return columnar.cuboid(mask)
        out: dict[Cell, tuple] = {}
        n = self.n_dims
        for r in self.ranges:
            fixed = 0
            bound = 0
            for i, v in enumerate(r.specific):
                if v is not None:
                    bound |= 1 << i
                    if not r.mask >> i & 1:
                        fixed |= 1 << i
            if fixed & ~mask or mask & ~bound:
                continue
            cell = tuple(
                r.specific[i] if mask >> i & 1 else None for i in range(n)
            )
            out[cell] = r.state
        return out

    def cuboid_sizes(self) -> dict[int, int]:
        """Cells per cuboid mask, computed range-by-range (no expansion).

        Large cubes answer from the columnar store's memoized census
        (one ``np.unique`` over the mask columns), so repeated calls are
        free after the first.
        """
        columnar = self.columnar_if_worthwhile()
        if columnar is not None:
            return columnar.cuboid_sizes()
        sizes: dict[int, int] = {}
        for r in self.ranges:
            fixed = 0
            marked_dims = []
            for i, v in enumerate(r.specific):
                if v is None:
                    continue
                if r.mask >> i & 1:
                    marked_dims.append(i)
                else:
                    fixed |= 1 << i
            for subset in range(1 << len(marked_dims)):
                mask = fixed
                for j, dim in enumerate(marked_dims):
                    if subset >> j & 1:
                        mask |= 1 << dim
                sizes[mask] = sizes.get(mask, 0) + 1
        return sizes

    def to_materialized(self) -> MaterializedCube:
        """Expand into a plain cell dictionary (for tests and small cubes)."""
        return MaterializedCube(self.n_dims, self.aggregator, dict(self.expand()))

    def to_columnar(self):
        """The frozen columnar read layout, built once and cached.

        See :class:`~repro.core.columnar.ColumnarRangeStore`: numpy
        specific/mask columns plus per-dimension inverted postings,
        which back every drill-down, slice and dice (the selection
        kernel, at any cube size), :meth:`lookup_batch`, the large-cube
        :meth:`cuboid` path and the point-query index above its size
        threshold.  A cube wider than ``MAX_COLUMNAR_DIMS`` raises
        ``ValueError``.  Double-checked under the index lock for the
        same reason as :meth:`_ensure_index`.
        """
        store = self._columnar
        if store is None:
            with self._index_lock:
                store = self._columnar
                if store is None:
                    from repro.core.columnar import ColumnarRangeStore

                    store = ColumnarRangeStore(self)
                    self._columnar = store
        return store

    def columnar_if_worthwhile(self):
        """The columnar store when built already or worth building."""
        store = self._columnar
        if store is not None:
            return store
        from repro.core.columnar import prefers_columnar

        return self.to_columnar() if prefers_columnar(self) else None

    def _ensure_index(self):
        """The point-query index, built on first use.

        Double-checked under a lock: the serving layer issues first
        lookups from many threads at once, and an unguarded lazy build
        would construct the index twice (or let a reader observe a
        half-initialized attribute).  The fast path stays a single
        attribute read.
        """
        index = self._index
        if index is None:
            with self._index_lock:
                index = self._index
                if index is None:
                    from repro.core.range_index import RangeCubeIndex

                    index = RangeCubeIndex(self)
                    self._index = index
        return index

    def lookup(self, cell: Cell):
        """Aggregate state of ``cell``, or None if the cell is empty.

        Delegates to a lazily built :class:`~repro.core.range_index.RangeCubeIndex`.
        """
        return self._ensure_index().lookup(cell)

    def lookup_batch(self, cells) -> list:
        """Aggregate states for a whole batch of cells (None marks empties).

        Resolves the batch in one :meth:`RangeCubeIndex.lookup_batch`
        call — above the columnar threshold that is a grouped postings /
        cuboid-map resolution to range ids and their ``states[rid]``,
        instead of per-cell hash probing.
        """
        return self._ensure_index().lookup_batch(cells)

    def range_of(self, cell: Cell):
        """The unique range containing ``cell`` (None if the cell is empty)."""
        return self._ensure_index().find(cell)

    def value(self, cell: Cell) -> dict[str, float] | None:
        state = self.lookup(cell)
        return None if state is None else self.aggregator.finalize(state)

    # -- presentation ----------------------------------------------------

    def sorted_strings(self, decode=None, limit: int | None = None) -> list[str]:
        lines = sorted(r.to_string(decode) for r in self.ranges)
        return lines if limit is None else lines[:limit]

    def __repr__(self) -> str:
        return f"RangeCube({self.n_ranges} ranges over {self.n_dims} dims)"
