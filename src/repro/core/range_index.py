"""Point-query index over a range cube.

The paper notes (Section 4) that a range cube preserves the native tuple
format of a data cube, so index structures apply to it naturally; the
related quotient-cube work indexes cell classes with a QC-tree.  Here we
provide the analogous capability for ranges: finding, for an arbitrary
query cell, the unique range that contains it.

A cell ``q`` belongs to range ``r`` exactly when ``q`` is obtained from
``r``'s general endpoint by binding some subset of ``r``'s *marked*
dimensions — equivalently, ``r``'s general endpoint is ``q`` with some
subset of ``q``'s bound dimensions relaxed to ``*``.  Two strategies
answer that membership question:

* ``"hash"`` — hash ranges by their general endpoint and probe the
  ``2**m`` candidate generalizations of an ``m``-dimensional query cell,
  verifying each hit against the specific endpoint.  Typical analytical
  queries bind few dimensions, so the probe count stays small; wide
  query cells degrade gracefully to a linear scan of the ranges (which
  both paths answer identically) instead of enumerating an exponential
  probe set.
* ``"columnar"`` — delegate to the cube's frozen
  :class:`~repro.core.columnar.ColumnarRangeStore`: inverted-postings
  intersection with one vectorized containment check per lookup, and
  memoized cuboid maps for :meth:`RangeCubeIndex.find_batch`.

The default (``"auto"``) picks columnar once the cube passes
:data:`~repro.core.columnar.COLUMNAR_THRESHOLD` ranges and hash below
it, where building numpy columns costs more than it saves.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.columnar import prefers_columnar
from repro.core.range_cube import Range, RangeCube
from repro.cube.cell import Cell, bound_dims
from repro.obs import get_registry

#: Never probe more than 2**MAX_PROBE_DIMS generalizations per lookup;
#: wider cells always take the linear-scan path.
MAX_PROBE_DIMS = 24

#: Prefer the scan once the probe count exceeds this multiple of the
#: range count — hash probes are cheaper per step than ``Range.contains``,
#: but not by more than this factor.
_SCAN_COST_FACTOR = 4

_SCAN_FALLBACKS = get_registry().counter(
    "repro_query_scan_fallbacks_total",
    "Point lookups answered by a linear scan over all ranges.",
)


class RangeCubeIndex:
    """Point-query index: hash probing or columnar postings, per ``strategy``.

    ``scan_fallbacks`` counts the lookups answered by the linear scan
    (wide cells, or probe sets larger than the cube itself) — useful for
    spotting workloads that defeat the hash index; each one also lands
    in the ``repro_query_scan_fallbacks_total`` counter.
    """

    def __init__(self, cube: RangeCube, strategy: str = "auto") -> None:
        if strategy not in ("auto", "hash", "columnar"):
            raise ValueError(
                f"unknown strategy {strategy!r}; use 'auto', 'hash' or 'columnar'"
            )
        # No reference back to the cube, which caches this index: it
        # holds only what it reads (a strong pair would outlive the cube
        # until a cyclic collection).
        self.n_dims = cube.n_dims
        self.scan_fallbacks = 0
        self._n_ranges = cube.n_ranges
        if strategy == "auto":
            strategy = "columnar" if prefers_columnar(cube) else "hash"
        self.strategy = strategy
        self._store = cube.to_columnar() if strategy == "columnar" else None
        # The range list and its general-endpoint hash map only exist on
        # the hash path; building them for a columnar cube would double
        # the index memory for structures no lookup touches.
        self._ranges: list[Range] = [] if self._store is not None else cube.ranges
        self._by_general: dict[Cell, list[Range]] = {}
        for r in self._ranges:
            self._by_general.setdefault(r.general, []).append(r)

    def __len__(self) -> int:
        return self._n_ranges

    def _scan(self, cell: Cell) -> Range | None:
        self.scan_fallbacks += 1
        _SCAN_FALLBACKS.inc()
        for r in self._ranges:
            if r.contains(cell):
                return r
        return None

    def _check_arity(self, cell: Cell) -> None:
        if len(cell) != self.n_dims:
            raise ValueError(
                f"query cell has {len(cell)} dims, cube has {self.n_dims}"
            )

    def find(self, cell: Cell) -> Range | None:
        """The unique range containing ``cell`` (None if the cell is empty)."""
        self._check_arity(cell)
        if self._store is not None:
            return self._store.find(cell)
        bound = bound_dims(cell)
        if len(bound) > MAX_PROBE_DIMS or (
            1 << len(bound)
        ) > _SCAN_COST_FACTOR * self._n_ranges:
            return self._scan(cell)
        base = list(cell)
        for subset in range(1 << len(bound)):
            candidate = base[:]
            for j, dim in enumerate(bound):
                if subset >> j & 1:
                    candidate[dim] = None
            for r in self._by_general.get(tuple(candidate), ()):
                if r.contains(cell):
                    return r
        return None

    def find_batch(self, cells: Sequence[Cell]) -> list[Range | None]:
        """The containing range per query cell (None marks empty cells).

        On the columnar path the batch is grouped by bound-dimension
        mask and resolved through memoized cuboid maps — the amortized
        cost is one dict probe per cell.  The hash path simply loops
        :meth:`find`, so both strategies answer identically.
        """
        for cell in cells:
            self._check_arity(cell)
        if self._store is not None:
            return self._store.find_batch(cells)
        return [self.find(cell) for cell in cells]

    def lookup(self, cell: Cell):
        """The aggregate state of ``cell``'s range (None when empty).

        On the columnar path the range id resolves straight to the
        store's ``states[rid]``, so no :class:`Range` object is built.
        """
        if self._store is None:
            found = self.find(cell)
            return None if found is None else found.state
        self._check_arity(cell)
        rid = self._store.find_id(cell)
        return None if rid < 0 else self._store.states[rid]

    def lookup_batch(self, cells: Sequence[Cell]) -> list:
        """:meth:`lookup` for a whole batch, resolved as in :meth:`find_batch`."""
        if self._store is None:
            return [None if r is None else r.state for r in self.find_batch(cells)]
        for cell in cells:
            self._check_arity(cell)
        states = self._store.states
        return [
            None if rid < 0 else states[rid] for rid in self._store.find_batch_ids(cells)
        ]
