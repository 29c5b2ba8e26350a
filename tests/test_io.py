"""Unit tests for CSV IO of tables and range cubes."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.range_cubing import range_cubing
from repro.data import io
from repro.data.io import (
    read_range_cube_csv,
    read_table_csv,
    table_from_arrays,
    write_range_cube_csv,
    write_table_csv,
)
from repro.table.aggregates import CountAggregator
from repro.table.base_table import BaseTable
from repro.table.schema import Schema

from tests.conftest import cubes_equal, make_paper_table


def test_table_roundtrip(tmp_path):
    table = make_paper_table()
    path = tmp_path / "sales.csv"
    write_table_csv(table, path)
    loaded = read_table_csv(path, n_measures=1)
    assert loaded.schema.dimension_names == table.schema.dimension_names
    assert loaded.schema.measure_names == ("price",)
    assert np.array_equal(loaded.dim_codes, table.dim_codes)
    assert np.array_equal(loaded.measures, table.measures)


def test_table_csv_header(tmp_path):
    table = make_paper_table()
    path = tmp_path / "sales.csv"
    write_table_csv(table, path)
    header = path.read_text().splitlines()[0]
    assert header == "store,city,product,date,price"


def test_range_cube_roundtrip(tmp_path):
    table = make_paper_table()
    cube = range_cubing(table)
    path = tmp_path / "cube.csv"
    write_range_cube_csv(cube, path, table.schema.dimension_names)
    loaded = read_range_cube_csv(path)
    assert loaded.n_ranges == cube.n_ranges
    assert cubes_equal(dict(loaded.expand()), dict(cube.expand()))


def test_range_cube_file_uses_paper_notation(tmp_path):
    table = make_paper_table()
    cube = range_cubing(table)
    path = tmp_path / "cube.csv"
    write_range_cube_csv(cube, path)
    text = path.read_text()
    assert "*" in text
    assert "'" in text  # marked coordinates
    assert text.splitlines()[0] == "store,city,product,date,count,sum".replace(
        "store,city,product,date", "d0,d1,d2,d3"
    )


def test_count_only_cube_roundtrip(tmp_path):
    table = make_paper_table()
    cube = range_cubing(table, aggregator=CountAggregator())
    path = tmp_path / "cube.csv"
    write_range_cube_csv(cube, path)
    loaded = read_range_cube_csv(path)
    assert cubes_equal(dict(loaded.expand()), dict(cube.expand()))


def test_table_from_arrays():
    codes = np.array([[0, 1], [1, 0]])
    table = table_from_arrays(codes, np.array([[1.0], [2.0]]), ["x", "y"])
    assert table.schema.dimension_names == ("x", "y")
    assert table.n_measures == 1
    assert table.n_rows == 2


#: Raw spellings that CSV quoting must carry through unchanged: commas,
#: quotes, a line break, blanks and near-duplicates that must stay distinct.
RAW_VALUES = [
    "a", "A", " a", "a ", "a,b", '"a"', 'say "hi", then', "x\ny", "", "1", "1.0", "01",
]


@st.composite
def raw_tables(draw):
    n_dims = draw(st.integers(1, 3))
    n_rows = draw(st.integers(0, 12))
    rows = [
        tuple(draw(st.sampled_from(RAW_VALUES)) for _ in range(n_dims))
        for _ in range(n_rows)
    ]
    measures = [
        (draw(st.floats(allow_nan=False, allow_infinity=False)),) for _ in range(n_rows)
    ]
    schema = Schema.from_names([f"d{i}" for i in range(n_dims)], ["m"])
    return BaseTable.from_rows(schema, rows, measures)


@settings(max_examples=80, deadline=None)
@given(raw_tables(), st.integers(1, 4))
def test_streamed_read_equals_from_rows(table, chunk_rows):
    # Chunks of one to four rows: most tables cross a chunk boundary.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_table_csv(table, path)
        with mock.patch.object(io, "READ_CHUNK_ROWS", chunk_rows):
            loaded = read_table_csv(path, n_measures=1)
    assert np.array_equal(loaded.dim_codes, table.dim_codes)
    assert [e.values() for e in loaded.encoder.encoders] == [
        e.values() for e in table.encoder.encoders
    ]
    assert loaded.schema.cardinalities == table.schema.cardinalities
    assert np.array_equal(loaded.measures, table.measures)


def test_header_only_file_reads_as_an_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("a,b,m\n")
    table = read_table_csv(path, n_measures=1)
    assert table.n_rows == 0
    assert table.dim_codes.shape == (0, 2)
    assert table.measures.shape == (0, 1)
    assert table.schema.cardinalities == (0, 0)


@pytest.mark.parametrize("n_measures", [0, 1])
@pytest.mark.parametrize("line", ["x,1", "x,y,1,9"], ids=["short", "long"])
def test_row_with_the_wrong_field_count_raises(tmp_path, line, n_measures):
    path = tmp_path / "ragged.csv"
    path.write_text(f"a,b,m\nx,y,1\n{line}\nz,y,2\n")
    with pytest.raises(ValueError, match="data row 2 has"):
        read_table_csv(path, n_measures=n_measures)
