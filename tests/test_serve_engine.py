"""Unit tests for the serving query engine (read path, cache, refresh)."""

import pytest

from repro.core.range_cubing import range_cubing
from repro.cube.full_cube import compute_full_cube
from repro.cube.query import CubeQuery
from repro.serve import QueryEngine
from repro.serve.engine import ServeError

from tests.conftest import make_encoded_table, make_paper_table


@pytest.fixture
def engine() -> QueryEngine:
    return QueryEngine.from_table(make_paper_table())


def test_point_matches_oracle_on_every_cell(engine):
    table = make_paper_table()
    cube = range_cubing(table)
    oracle = compute_full_cube(table)
    for cell, state in oracle.cells():
        response = engine.execute({"op": "point", "cell": list(cell)})
        assert response["op"] == "point" and response["version"] == 0
        assert response["cell"] == list(cell)
        assert response["value"] == cube.aggregator.finalize(state)
    assert engine.point((2, None, None, None)) is not None
    assert engine.point((2, 0, None, None)) is None  # S3 never sells in C1


def test_rollup_drilldown_slice_match_cube_query(engine):
    table = make_paper_table()
    cube = range_cubing(table)
    query = CubeQuery(cube, table.schema, table=None)

    cell = (0, 0, None, None)
    up, value = query.roll_up(cell, "city")
    response = engine.execute({"op": "rollup", "cell": list(cell), "dim": "city"})
    assert response["cell"] == list(up) and response["value"] == value
    assert response["dim"] == 1

    children = query.drill_down(cell, "product")
    response = engine.execute({"op": "drilldown", "cell": list(cell), "dim": 2})
    assert response["children"] == [
        {"cell": list(c), "value": v} for c, v in children
    ]

    sliced = query.slice((None, 0, 0, None))
    response = engine.execute({"op": "slice", "cell": [None, 0, 0, None]})
    assert response["children"] == [{"cell": list(c), "value": v} for c, v in sliced]


def test_bindings_by_name_index_and_json_key(engine):
    want = engine.execute({"op": "point", "cell": [0, None, 2, None]})["value"]
    by_name = engine.execute({"op": "point", "bindings": {"store": 0, "product": 2}})
    by_index = engine.execute({"op": "point", "bindings": {0: 0, 2: 2}})
    by_json_key = engine.execute({"op": "point", "bindings": {"0": 0, "2": 2}})
    assert by_name["value"] == by_index["value"] == by_json_key["value"] == want
    assert by_name["cell"] == [0, None, 2, None]


@pytest.mark.parametrize(
    "request_",
    [
        {"op": "point", "cell": [0, None]},  # wrong arity
        {"op": "point", "cell": [0, None, None, -1]},  # negative code
        {"op": "point", "cell": [0, None, None, 1.5]},  # non-int code
        {"op": "point", "cell": [True, None, None, None]},  # bool is not a code
        {"op": "point"},  # neither cell nor bindings
        {"op": "point", "bindings": [0, 1]},  # not a mapping
        {"op": "point", "bindings": {"nope": 0}},  # unknown dimension
        {"op": "point", "bindings": {9: 0}},  # index out of range
        {"op": "point", "bindings": {"store": -1}},  # negative binding
        {"op": "cube"},  # unknown op
        {"op": "rollup", "cell": [None, 0, None, None], "dim": 0},  # already *
        {"op": "rollup", "cell": [0, 0, None, None]},  # missing dim
        {"op": "drilldown", "cell": [0, 0, None, None], "dim": 0},  # already bound
        {"op": "drilldown", "cell": [0, None, None, None], "dim": True},
    ],
)
def test_malformed_requests_raise_serve_error(engine, request_):
    with pytest.raises(ServeError):
        engine.execute(request_)


def test_non_mapping_request_rejected(engine):
    with pytest.raises(ServeError):
        engine.execute(["op", "point"])


def test_cached_flag_and_counters(engine):
    request = {"op": "point", "cell": [0, None, None, None]}
    first = engine.execute(request)
    second = engine.execute(dict(request))  # equal but distinct dict
    assert first["cached"] is False and second["cached"] is True
    assert first["value"] == second["value"]
    other = engine.execute({"op": "point", "cell": [1, None, None, None]})
    assert other["cached"] is False
    stats = engine.cache.stats()
    assert stats.hits == 1 and stats.size == 2


def test_unhashable_cell_raises_precise_error(engine):
    with pytest.raises(ServeError):
        engine.execute({"op": "point", "cell": [[0], None, None, None]})


def test_append_bumps_version_and_invalidates_cache(engine):
    request = {"op": "point", "cell": [0, 0, 0, 0]}
    before = engine.execute(request)
    assert engine.execute(request)["cached"] is True
    version = engine.append([[0, 0, 0, 0]], [[900.0]])
    assert version == 1 and engine.version == 1
    after = engine.execute(request)
    assert after["cached"] is False  # the old entry can never be served
    assert after["version"] == 1 and before["version"] == 0
    assert after["value"] != before["value"]
    assert engine.cache.stats().invalidations == 1


def test_append_extends_cardinality_and_drilldown(engine):
    assert engine.stats()["cardinalities"] == [3, 3, 3, 2]
    engine.append([[3, 0, 0, 2]], [[50.0]])  # new store S4, new date D3
    stats = engine.stats()
    assert stats["cardinalities"] == [4, 3, 3, 3]
    children = engine.execute(
        {"op": "drilldown", "cell": [None, None, None, None], "dim": "store"}
    )["children"]
    cells = [tuple(c["cell"]) for c in children]
    assert (3, None, None, None) in cells


@pytest.mark.parametrize(
    "rows,measures",
    [
        ([], None),  # empty batch
        ([[0, 0, 0]], None),  # wrong arity
        ([[0, 0, 0, -1]], None),  # negative code
        ([[0, 0, 0, True]], None),  # bool code
        ([[0, 0, 0, 0]], [[1.0], [2.0]]),  # measure row count mismatch
        ([[0, 0, 0, 0]], [[1.0, 2.0]]),  # measure arity mismatch
    ],
)
def test_append_validation(engine, rows, measures):
    with pytest.raises(ServeError):
        engine.append(rows, measures)
    assert engine.version == 0  # nothing absorbed


def test_append_table_equals_batch_rebuild():
    base = make_encoded_table([(0, 0), (0, 1), (1, 0)])
    extra = make_encoded_table([(1, 1), (0, 0)])
    engine = QueryEngine.from_table(base)
    engine.append_table(extra)
    combined_rows = [tuple(r) for r in base.dim_rows()] + [
        tuple(r) for r in extra.dim_rows()
    ]
    combined_measures = [tuple(m) for m in base.measure_rows()] + [
        tuple(m) for m in extra.measure_rows()
    ]
    oracle = QueryEngine.from_table(
        make_encoded_table(combined_rows, measures=combined_measures)
    )
    for cell, _ in compute_full_cube(make_encoded_table(combined_rows)).cells():
        assert engine.point(cell) == oracle.point(cell)


def test_min_support_filters_sparse_cells():
    engine = QueryEngine.from_table(make_paper_table(), min_support=3)
    assert engine.point((None, None, None, None)) is not None  # apex count 6
    assert engine.point((0, 0, 0, 0)) is None  # count 1 < 3


def test_stats_shape(engine):
    stats = engine.stats()
    assert stats["version"] == 0
    assert stats["n_dims"] == 4 and stats["n_measures"] == 1
    assert stats["dimension_names"] == ["store", "city", "product", "date"]
    assert stats["rows_absorbed"] == 6
    assert stats["n_ranges"] == 33  # the paper's Figure 6 count
    assert stats["min_support"] == 1
    assert set(stats["cache"]) == {
        "capacity", "size", "hits", "misses", "evictions", "invalidations", "hit_rate",
    }


def test_schema_arity_mismatch_rejected():
    from repro.core.incremental import IncrementalRangeCuber
    from repro.table.aggregates import default_aggregator

    table = make_paper_table()
    cuber = IncrementalRangeCuber(3, default_aggregator(1))
    with pytest.raises(ValueError):
        QueryEngine(cuber, table.schema)


def test_append_frees_the_replaced_cube_version():
    """A swapped-out version dies with its last reference, not at a collection.

    The cube caches its columnar store and point index; neither may point
    back at it strongly, or every replaced version (tens of MB at scale)
    would linger until the cyclic collector ran.
    """
    import gc
    import weakref

    from repro.data.synthetic import uniform_table
    from repro.serve import QueryRequest

    engine = QueryEngine.from_table(uniform_table(6000, 4, 10, seed=3))
    gc.collect()
    gc.disable()
    try:
        engine.execute(QueryRequest(op="point", cell=[1, None, 2, None]))
        engine.execute(QueryRequest(op="slice", cell=[1, None, None, None]))
        engine.execute(QueryRequest(op="dice", predicates={"0": [1, 2]}, approx=True))
        cube = engine.snapshot().cube
        assert cube._columnar is not None and cube._index is not None
        replaced = weakref.ref(cube)
        del cube
        engine.append([[0, 0, 0, 0]], [[1.0]])
        assert replaced() is None
    finally:
        gc.enable()
