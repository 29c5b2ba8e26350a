"""Dictionary encoding of dimension values.

All cube algorithms here work on dense integer codes per dimension; raw
values (strings, dates, floats used as categories, ...) are mapped through a
per-dimension dictionary.  Encoding is order-of-first-appearance, which is
sufficient because none of the algorithms relies on value order — only on
equality and per-dimension cardinality.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from repro.table.schema import Schema


class DimensionEncoder:
    """Bidirectional value <-> dense integer code mapping for one dimension."""

    def __init__(self) -> None:
        self._code_of: dict[Hashable, int] = {}
        self._value_of: list[Hashable] = []

    def __len__(self) -> int:
        return len(self._value_of)

    @property
    def cardinality(self) -> int:
        return len(self._value_of)

    def encode(self, value: Hashable) -> int:
        """Return the code for ``value``, assigning a fresh one if unseen."""
        code = self._code_of.get(value)
        if code is None:
            code = len(self._value_of)
            self._code_of[value] = code
            self._value_of.append(value)
        return code

    def encode_many(self, values: Sequence[Hashable]) -> list[int]:
        """Codes for ``values`` in order, as :meth:`encode` one at a time.

        Fresh codes go to unseen values in order of first appearance; the
        distinct values are found with ``dict.fromkeys`` and the codes
        looked up with ``map``, so no Python-level loop runs per value.
        """
        code_of = self._code_of
        for value in dict.fromkeys(values):
            if value not in code_of:
                code_of[value] = len(self._value_of)
                self._value_of.append(value)
        return list(map(code_of.__getitem__, values))

    def encode_existing(self, value: Hashable) -> int:
        """Return the code for ``value``; raise ``KeyError`` if unseen."""
        return self._code_of[value]

    def decode(self, code: int) -> Hashable:
        return self._value_of[code]

    def values(self) -> tuple[Hashable, ...]:
        return tuple(self._value_of)


class TableEncoder:
    """Per-schema collection of :class:`DimensionEncoder` objects."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.encoders = tuple(DimensionEncoder() for _ in schema.dimensions)

    def encode_row(self, row: Sequence[Hashable]) -> tuple[int, ...]:
        if len(row) != self.schema.n_dims:
            raise ValueError(
                f"row has {len(row)} dimension values, schema expects {self.schema.n_dims}"
            )
        return tuple(enc.encode(v) for enc, v in zip(self.encoders, row))

    def encode_rows(self, rows: Iterable[Sequence[Hashable]]) -> list[tuple[int, ...]]:
        return [self.encode_row(r) for r in rows]

    def decode_row(self, codes: Sequence[int]) -> tuple[Hashable, ...]:
        return tuple(enc.decode(c) for enc, c in zip(self.encoders, codes))

    def decode_cell(self, cell: Sequence[int | None]) -> tuple[Hashable | None, ...]:
        """Decode a cell, leaving ``None`` (the ``*`` value) untouched."""
        return tuple(
            None if c is None else enc.decode(c) for enc, c in zip(self.encoders, cell)
        )

    def encoded_schema(self) -> Schema:
        """The schema with observed cardinalities filled in."""
        dims = tuple(
            d.with_cardinality(enc.cardinality)
            for d, enc in zip(self.schema.dimensions, self.encoders)
        )
        return Schema(dims, self.schema.measures)
