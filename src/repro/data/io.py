"""CSV import/export for base tables and range cubes.

The range-cube file format follows the paper's *format-preserving* claim:
one line per range tuple, with the same arity as a base tuple.  Marked
coordinates are suffixed with ``'`` (the paper's notation), free
coordinates are ``*``, and the aggregate results follow.  Such a file can
be consumed by tools that expect plain cube tuples — they simply read the
marked values as bound — and round-trips losslessly through
:func:`read_range_cube_csv`.
"""

from __future__ import annotations

import csv
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.range_cube import Range, RangeCube
from repro.table.aggregates import Aggregator, default_aggregator
from repro.table.base_table import BaseTable
from repro.table.encoding import TableEncoder
from repro.table.schema import Schema


def write_table_csv(table: BaseTable, path: str | Path) -> None:
    """Write a base table with a header line of dimension+measure names."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(table.schema.dimension_names) + list(table.schema.measure_names))
        for codes, measures in zip(table.dim_codes.tolist(), table.measures.tolist()):
            if table.encoder is not None:
                row = list(table.encoder.decode_row(codes))
            else:
                row = list(codes)
            writer.writerow(row + list(measures))


#: Rows the CSV reader holds at once: enough that each chunk's transpose
#: and per-column encode run as a few bulk calls, few enough that the
#: chunk's row strings stay small next to the table's own arrays.
READ_CHUNK_ROWS = 8192


def read_table_csv(
    path: str | Path,
    n_measures: int = 0,
    schema: Schema | None = None,
) -> BaseTable:
    """Read a header-first CSV into an (encoded) base table.

    The last ``n_measures`` columns are parsed as floats; everything else
    is dictionary-encoded as a dimension, whatever its spelling.  The rows
    stream through in chunks of :data:`READ_CHUNK_ROWS`: each chunk is
    transposed into columns, and each column is encoded by its dimension's
    first-appearance dictionary (the codes :meth:`BaseTable.from_rows`
    assigns), so no more than one chunk of row strings is alive at once.
    A row whose field count differs from the header's raises
    ``ValueError``.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header line")
        width = len(header)
        n_dims = width - n_measures
        if n_measures < 0 or n_dims < 0:
            raise ValueError(f"n_measures={n_measures} does not fit a {width}-column header")
        if schema is None:
            schema = Schema.from_names(header[:n_dims], header[n_dims:])
        elif (schema.n_dims, schema.n_measures) != (n_dims, n_measures):
            raise ValueError(
                f"schema has {schema.n_dims} dimensions and {schema.n_measures} "
                f"measures; the header splits into {n_dims} and {n_measures}"
            )
        encoder = TableEncoder(schema)
        code_chunks = [np.empty((0, n_dims), dtype=np.int64)]
        measure_chunks = [np.empty((0, n_measures))]
        n_rows = 0
        while chunk := list(islice(reader, READ_CHUNK_ROWS)):
            if set(map(len, chunk)) != {width}:
                index = next(i for i, row in enumerate(chunk) if len(row) != width)
                raise ValueError(
                    f"{path}: data row {n_rows + index + 1} has "
                    f"{len(chunk[index])} fields, the header has {width}"
                )
            columns = list(zip(*chunk))
            codes = np.empty((len(chunk), n_dims), dtype=np.int64)
            measures = np.empty((len(chunk), n_measures))
            for d, dim_encoder in enumerate(encoder.encoders):
                codes[:, d] = dim_encoder.encode_many(columns[d])
            for m in range(n_measures):
                measures[:, m] = list(map(float, columns[n_dims + m]))
            code_chunks.append(codes)
            measure_chunks.append(measures)
            n_rows += len(chunk)
    return BaseTable(
        encoder.encoded_schema(),
        np.concatenate(code_chunks),
        np.concatenate(measure_chunks),
        encoder,
    )


def write_range_cube_csv(
    cube: RangeCube,
    path: str | Path,
    dim_names: Sequence[str] | None = None,
) -> None:
    """Write one range tuple per line: coordinates then aggregate results.

    Coordinates are the encoded integer codes (``v``/``v'``/``*``); decode
    before writing if raw values are wanted — codes keep the file exact.
    """
    names = list(dim_names) if dim_names else [f"d{i}" for i in range(cube.n_dims)]
    result_names = list(cube.aggregator.result_names())
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names + result_names)
        for r in cube.ranges:
            coords = []
            for i, v in enumerate(r.specific):
                if v is None:
                    coords.append("*")
                elif r.mask >> i & 1:
                    coords.append(f"{v}'")
                else:
                    coords.append(str(v))
            finalized = cube.aggregator.finalize(r.state)
            writer.writerow(coords + [finalized[k] for k in result_names])


def read_range_cube_csv(
    path: str | Path,
    aggregator: Aggregator | None = None,
) -> RangeCube:
    """Round-trip a COUNT/COUNT+SUM range-cube file back into a RangeCube.

    Only the default aggregators are reconstructible from their finalized
    values (count, count+sum); richer aggregates need their own readers.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        lines = list(reader)
    result_names = [h for h in header if h in ("count", "sum")]
    n_dims = len(header) - len(result_names)
    agg = aggregator or default_aggregator(1 if "sum" in result_names else 0)
    ranges = []
    for line in lines:
        specific: list[int | None] = []
        mask = 0
        for i, token in enumerate(line[:n_dims]):
            if token == "*":
                specific.append(None)
            elif token.endswith("'"):
                specific.append(int(token[:-1]))
                mask |= 1 << i
            else:
                specific.append(int(token))
        values = [float(v) for v in line[n_dims:]]
        state = (int(values[0]),) if len(values) == 1 else (int(values[0]), values[1])
        ranges.append(Range(tuple(specific), mask, state))
    return RangeCube(n_dims, agg, ranges)


def table_from_arrays(
    dim_codes: np.ndarray,
    measures: np.ndarray | None = None,
    dim_names: Sequence[str] | None = None,
) -> BaseTable:
    """Convenience wrapper: build an encoded table from plain arrays."""
    n_dims = dim_codes.shape[1]
    n_measures = 0 if measures is None else (1 if measures.ndim == 1 else measures.shape[1])
    names = list(dim_names) if dim_names else [f"d{i}" for i in range(n_dims)]
    schema = Schema.from_names(names, [f"m{i}" for i in range(n_measures)])
    return BaseTable.from_encoded(schema, dim_codes, measures)
