"""Unit tests for the query layer over materialized and range cubes."""

import pytest

from repro.baselines.qc_tree import QCTree
from repro.core.range_cubing import range_cubing
from repro.cube.full_cube import compute_full_cube
from repro.cube.query import CubeQuery
from repro.cube.view_selection import ViewStore

from tests.conftest import make_paper_table


@pytest.fixture
def paper_queries():
    table = make_paper_table()
    materialized = compute_full_cube(table)
    ranged = range_cubing(table)
    return table, materialized, ranged


def test_point_query_by_raw_values(paper_queries):
    table, materialized, ranged = paper_queries
    for cube in (materialized, ranged):
        q = CubeQuery(cube, table.schema, table)
        assert q.point(store="S2")["count"] == 3
        assert q.point(store="S1", product="P1")["sum"] == 100.0
        assert q.point()["count"] == 6  # the apex


def test_point_query_empty_cell_is_none(paper_queries):
    table, materialized, ranged = paper_queries
    for cube in (materialized, ranged):
        q = CubeQuery(cube, table.schema, table)
        assert q.point(store="S3", city="C1") is None


def test_point_query_unknown_value_is_none(paper_queries):
    table, materialized, _ = paper_queries
    q = CubeQuery(materialized, table.schema, table)
    assert q.point(store="S9") is None


def test_roll_up_walks_toward_apex(paper_queries):
    table, materialized, ranged = paper_queries
    for cube in (materialized, ranged):
        q = CubeQuery(cube, table.schema, table)
        cell = q.cell_for({"store": "S1", "city": "C1"})
        up, value = q.roll_up(cell, "city")
        assert up == q.cell_for({"store": "S1"})
        assert value["count"] == 2


def test_drill_down_returns_only_nonempty_children(paper_queries):
    table, materialized, ranged = paper_queries
    for cube in (materialized, ranged):
        q = CubeQuery(cube, table.schema, table)
        cell = q.cell_for({"store": "S3"})
        children = q.drill_down(cell, "city")
        assert len(children) == 1  # S3 only ever sells in C3
        child_cell, value = children[0]
        assert q.decode(child_cell) == ("S3", "C3", None, None)
        assert value["count"] == 1


def test_drill_down_rejects_bound_dim(paper_queries):
    table, materialized, _ = paper_queries
    q = CubeQuery(materialized, table.schema, table)
    with pytest.raises(ValueError):
        q.drill_down(q.cell_for({"store": "S1"}), "store")


def test_slice_covers_all_free_dimensions(paper_queries):
    table, materialized, ranged = paper_queries
    lookup_only = (ViewStore(table, [0b0011]), QCTree.build(table))
    for cube in (materialized, ranged, *lookup_only):
        q = CubeQuery(cube, table.schema, table)
        cell = q.cell_for({"store": "S1"})
        results = q.slice(cell)
        # S1 drills into 1 city, 2 products, 2 dates
        assert len(results) == 5


def test_materialized_and_range_cube_agree_on_all_cells(paper_queries):
    table, materialized, ranged = paper_queries
    for cell, state in materialized.cells():
        assert ranged.lookup(cell) == state


def test_dice_sums_matching_cells(paper_queries):
    table, materialized, ranged = paper_queries
    lookup_only = (ViewStore(table, [0b0011]), QCTree.build(table))
    for cube in (materialized, ranged, *lookup_only):
        q = CubeQuery(cube, table.schema, table)
        # stores S1+S2 on date D2: tuples 2, 3, 4, 5 minus S3 -> rows 1,2,3,4
        result = q.dice({"store": ["S1", "S2"], "date": ["D2"]})
        assert result["count"] == 4
        assert result["sum"] == 500.0 + 200.0 + 1200.0 + 400.0


def test_dice_with_unknown_values_skips_them(paper_queries):
    table, materialized, _ = paper_queries
    q = CubeQuery(materialized, table.schema, table)
    result = q.dice({"store": ["S1", "S9"]})
    assert result["count"] == 2
    assert q.dice({"store": ["S9"]}) is None


def test_dice_respects_base_cell(paper_queries):
    table, materialized, _ = paper_queries
    q = CubeQuery(materialized, table.schema, table)
    base = q.cell_for({"product": "P1"})
    result = q.dice({"store": ["S1", "S2"]}, base_cell=base)
    assert result["count"] == 3  # P1 sold once by S1, twice by S2
    with pytest.raises(ValueError):
        q.dice({"product": ["P1"]}, base_cell=base)


def test_dice_empty_combination(paper_queries):
    table, materialized, _ = paper_queries
    q = CubeQuery(materialized, table.schema, table)
    assert q.dice({"store": ["S3"], "city": ["C1"]}) is None


def test_query_without_table_uses_codes(paper_queries):
    table, materialized, _ = paper_queries
    q = CubeQuery(materialized, table.schema)
    assert q.point(store=0)["count"] == 2
    assert q.decode((0, None, None, None)) == (0, None, None, None)


@pytest.mark.parametrize("cell", [(None, None), (0, None, None, None, None)])
def test_drill_down_and_slice_reject_a_cell_of_the_wrong_length(paper_queries, cell):
    table, _, ranged = paper_queries
    q = CubeQuery(ranged, table.schema, table)
    with pytest.raises(ValueError, match=f"query cell has {len(cell)} dims, cube has 4"):
        q.drill_down(cell, "store" if cell[0] is None else "product")
    with pytest.raises(ValueError, match=f"query cell has {len(cell)} dims, cube has 4"):
        q.slice(cell)
