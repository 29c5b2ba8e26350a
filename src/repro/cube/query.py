"""OLAP-style queries over any materialized cube representation.

``CubeQuery`` works against any object exposing ``lookup(cell) -> state``
plus an aggregator — :class:`~repro.cube.full_cube.MaterializedCube`,
:class:`~repro.core.range_cube.RangeCube` and the baseline cubes all
qualify.  This demonstrates the paper's *format-preserving* claim:
because a range cube answers the same cell lookups as a plain cube,
existing query layers sit on top of it unchanged.  A range cube (one
offering ``to_columnar``) answers drill-down, slice and dice from the
target cuboid's stored ranges through the columnar selection kernel
(:meth:`~repro.core.columnar.ColumnarRangeStore.select`); any other cube
is probed cell by cell — the plain-cube path the kernel is tested
against.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.cube.cell import Cell, bound_dims, drill_down, make_cell, roll_up
from repro.table.base_table import BaseTable
from repro.table.schema import Schema


class CubeQuery:
    """Name-based point queries, roll-up and drill-down over a cube.

    ``schema`` supplies dimension names; ``table`` (optional) supplies the
    dictionary encoder for raw-value queries and the candidate values for
    drill-downs.
    """

    def __init__(self, cube, schema: Schema, table: BaseTable | None = None) -> None:
        self.cube = cube
        self.schema = schema
        self.table = table

    # ------------------------------------------------------------------

    def _encode(self, dim: int, value: Hashable) -> int:
        if isinstance(value, int) and (self.table is None or self.table.encoder is None):
            return value
        if self.table is None or self.table.encoder is None:
            raise ValueError("raw-value queries need a table with an encoder")
        return self.table.encoder.encoders[dim].encode_existing(value)

    def _columnar_store(self):
        """A range cube's columnar store; None for a lookup-only cube."""
        to_columnar = getattr(self.cube, "to_columnar", None)
        return None if to_columnar is None else to_columnar()

    def cell_for(self, bindings: Mapping[str, Hashable]) -> Cell:
        """Build the query cell for ``{dimension name: value}`` bindings."""
        encoded: dict[int, int] = {}
        for name, value in bindings.items():
            dim = self.schema.dimension_index(name)
            encoded[dim] = self._encode(dim, value)
        return make_cell(self.schema.n_dims, encoded)

    # ------------------------------------------------------------------

    def point(self, **bindings: Hashable) -> dict[str, float] | None:
        """Aggregates for one cell, e.g. ``q.point(store="S1", product="P1")``.

        Returns ``None`` when no base tuple matches (an empty cell).
        """
        try:
            cell = self.cell_for(bindings)
        except KeyError:
            return None  # a binding value never occurs in the data
        state = self.cube.lookup(cell)
        if state is None:
            return None
        return self.cube.aggregator.finalize(state)

    def roll_up(self, cell: Cell, dim_name: str) -> tuple[Cell, dict[str, float] | None]:
        """Generalize ``cell`` along one dimension and return the new cell+value."""
        dim = self.schema.dimension_index(dim_name)
        up = roll_up(cell, dim)
        state = self.cube.lookup(up)
        return up, None if state is None else self.cube.aggregator.finalize(state)

    def drill_down(self, cell: Cell, dim_name: str) -> list[tuple[Cell, dict[str, float]]]:
        """All non-empty specializations of ``cell`` along one dimension.

        A range cube lists them from the target cuboid's stored ranges
        (:meth:`~repro.core.columnar.ColumnarRangeStore.children`).  Any
        other cube is probed one candidate per value: the base table's
        values when available, else the dimension's code range.
        """
        dim = self.schema.dimension_index(dim_name)
        if cell[dim] is not None:
            raise ValueError(f"dimension {dim_name!r} is already bound in the query cell")
        finalize = self.cube.aggregator.finalize
        store = self._columnar_store()
        if store is not None:
            return [
                (drill_down(cell, dim, code), finalize(state))
                for code, state in store.children(cell, dim)
            ]
        candidates: Iterable[int]
        if self.table is not None:
            candidates = sorted(set(self.table.dim_column(dim).tolist()))
        else:
            card = self.schema.dimensions[dim].cardinality
            if card is None:
                raise ValueError("drill-down needs either a table or known cardinality")
            candidates = range(card)
        out = []
        for value in candidates:
            child = drill_down(cell, dim, value)
            state = self.cube.lookup(child)
            if state is not None:
                out.append((child, finalize(state)))
        return out

    def dice(
        self,
        predicates: Mapping[str, Iterable[Hashable]],
        base_cell: Cell | None = None,
    ) -> dict[str, float] | None:
        """Aggregate over a sub-cube: each dimension restricted to a value set.

        ``q.dice({"store": ["S1", "S2"], "date": ["D2"]})`` sums the
        aggregates of every non-empty cell combination — sound for the
        distributive/algebraic aggregators this library uses, because the
        diced cells partition the matching tuples.  Returns None when no
        combination is non-empty.

        Over a range cube the whole dice is one selection plus one
        vectorized state merge
        (:meth:`~repro.core.columnar.ColumnarRangeStore.dice_ids`) — the
        value-combination cross product is never enumerated.  Any other
        cube is walked one lookup per combination.
        """
        dims: list[int] = []
        value_lists: list[list[int]] = []
        for name, values in predicates.items():
            dim = self.schema.dimension_index(name)
            if base_cell is not None and base_cell[dim] is not None:
                raise ValueError(f"dimension {name!r} already bound in base_cell")
            dims.append(dim)
            encoded = []
            for value in values:
                try:
                    encoded.append(self._encode(dim, value))
                except KeyError:
                    continue  # value never occurs: contributes nothing
            # Dedupe: predicates are value *sets*, and a repeated value
            # must not double-count its cells on any path.
            value_lists.append(list(dict.fromkeys(encoded)))
        cell = list(base_cell if base_cell is not None else [None] * self.schema.n_dims)
        store = self._columnar_store()
        if store is not None:
            base = {d: v for d, v in enumerate(cell) if v is not None}
            value_sets = {d: set(vs) for d, vs in zip(dims, value_lists)}
            total = store.merge_states(store.dice_ids(value_sets, base))
            return None if total is None else self.cube.aggregator.finalize(total)
        total = None
        merge = self.cube.aggregator.merge

        def walk(index: int) -> None:
            nonlocal total
            if index == len(dims):
                state = self.cube.lookup(tuple(cell))
                if state is not None:
                    total = state if total is None else merge(total, state)
                return
            for value in value_lists[index]:
                cell[dims[index]] = value
                walk(index + 1)
            cell[dims[index]] = None

        walk(0)
        return None if total is None else self.cube.aggregator.finalize(total)

    def slice(self, cell: Cell) -> list[tuple[Cell, dict[str, float]]]:
        """One-level drill-down along every free dimension of ``cell``."""
        out = []
        bound = set(bound_dims(cell))
        for dim, dimension in enumerate(self.schema.dimensions):
            if dim in bound:
                continue
            out.extend(self.drill_down(cell, dimension.name))
        return out

    def decode(self, cell: Cell) -> tuple[Hashable | None, ...]:
        if self.table is not None and self.table.encoder is not None:
            return self.table.encoder.decode_cell(cell)
        return tuple(cell)
