"""Algorithm 2 emits range columns; the read path freezes them as they are.

``_traverse`` appends each emitted range to column buffers (int32
specific codes, int64 marked mask, aggregate state), a tuning plan is
undone by a column remap, and :class:`ColumnarRangeStore` is frozen from
those columns.  The reference is the same ranges handed over as a
:class:`Range` list — ``RangeCube(n, agg, list(cube.ranges))`` — which
takes the one-Python-pass-per-range freeze.  Both stores must agree
array for array (postings included), both snapshots byte for byte, and
every answer must equal the naive full cube.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.columnar import ColumnarRangeStore
from repro.core.complex_measures import TopKAvgAggregator
from repro.core.range_cube import RangeColumns, RangeCube
from repro.core.range_cubing import range_cubing
from repro.cube.full_cube import compute_full_cube
from repro.data.correlated import FunctionalDependency, correlated_table
from repro.serve import QueryEngine
from repro.serve.protocol import QueryRequest
from repro.store import write_snapshot
from repro.table.aggregates import (
    AvgAggregator,
    CountAggregator,
    MaxAggregator,
    MinAggregator,
    SumCountAggregator,
)
from repro.tune import TuningPlan

from tests.conftest import (
    make_encoded_table,
    make_paper_table,
    states_equal,
    table_strategy,
)

#: COUNT, SUM/COUNT, MIN, MAX, AVG, and one aggregator whose overridden
#: scalar algebra keeps its states as Python tuples (no state columns).
AGGREGATORS = {
    "count": CountAggregator,
    "sum": lambda: SumCountAggregator(0),
    "min": MinAggregator,
    "max": MaxAggregator,
    "avg": AvgAggregator,
    "topk": lambda: TopKAvgAggregator(k=2),
}

MIN_SUPPORTS = (1, 3)


def _plans(table) -> dict:
    """As-is, an explicit order, and a plan that also permutes values.

    The orders are rotations, not reversals: a reversal is its own
    inverse, so it would not tell a remap from its inverse.
    """
    n = table.n_dims
    value_orders = {}
    if table.n_rows:
        for d in range(n):
            size = int(table.dim_codes[:, d].max()) + 1
            if size > 1:
                value_orders[d] = np.roll(np.arange(size), 1)
    return {
        "none": None,
        "order": tuple(range(1, n)) + (0,),
        "plan": TuningPlan((n - 1,) + tuple(range(n - 1)), value_orders=value_orders),
    }


def _assert_same_store(got: ColumnarRangeStore, want: ColumnarRangeStore) -> None:
    for name in (
        "specific",
        "marked_mask",
        "bound_mask",
        "fixed_mask",
        "accept_words",
        "counts",
    ):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
    assert list(got.states) == list(want.states)
    if want._fast_columns is None:
        assert got._fast_columns is None
    else:
        assert got._fast_columns.kinds == want._fast_columns.kinds
        for a, b in zip(got._fast_columns.columns, want._fast_columns.columns):
            # an AVG column is a (sums, counts) pair
            for x, y in zip(*((c if isinstance(c, tuple) else (c,)) for c in (a, b))):
                assert x.dtype == y.dtype and np.array_equal(x, y)
    assert len(got.postings) == len(want.postings)
    for a, b in zip(got.postings, want.postings):
        assert a.keys() == b.keys()
        for code in a:
            assert a[code].dtype == b[code].dtype
            assert np.array_equal(a[code], b[code])
    assert got._apex_id == want._apex_id


def _assert_matches_oracle(store, table, agg, min_support: int) -> None:
    """Every full-cube cell answers its state; cells under the support, None."""
    iceberg = compute_full_cube(table, agg, min_support).as_dict()
    cells = list(compute_full_cube(table, agg).as_dict())
    ids = store.find_batch_ids(cells)
    for cell, rid in zip(cells, ids):
        assert rid == store.find_id(cell)
        want = iceberg.get(cell)
        if want is None:
            assert rid < 0, cell
        else:
            assert rid >= 0 and states_equal(store.states[rid], want), cell


def _check_grid(table) -> None:
    for make in AGGREGATORS.values():
        for min_support in MIN_SUPPORTS:
            for dim_order in _plans(table).values():
                agg = make()
                cube = range_cubing(
                    table, aggregator=agg, dim_order=dim_order, min_support=min_support
                )
                assert cube._ranges is None  # built from columns
                emitted = ColumnarRangeStore(cube)
                listed = RangeCube(cube.n_dims, agg, list(cube.ranges))
                assert listed._columns is None  # built from the Range list
                _assert_same_store(emitted, ColumnarRangeStore(listed))
                _assert_matches_oracle(emitted, table, agg, min_support)


@settings(max_examples=25, deadline=None)
@given(table_strategy(max_dims=4))
def test_emitted_columns_freeze_like_the_range_list(table):
    _check_grid(table)


@pytest.mark.parametrize(
    "make_table",
    [
        make_paper_table,
        # empty table: no ranges at all
        lambda: make_encoded_table(np.zeros((0, 3), dtype=np.int64)),
        # min_support 3 leaves the apex alone
        lambda: make_encoded_table([(0, 0), (1, 1), (2, 2)]),
    ],
    ids=["paper", "empty", "apex-only"],
)
def test_emitted_columns_on_fixed_tables(make_table):
    _check_grid(make_table())


def test_apex_only_cube_is_one_all_star_range():
    table = make_encoded_table([(0, 0), (1, 1), (2, 2)])
    cube = range_cubing(table, min_support=3)
    assert cube.n_ranges == len(cube) == 1 and cube.n_cells == 1
    assert cube.columns.specific.tolist() == [[-1, -1]]
    assert [(r.specific, r.mask) for r in cube.ranges] == [((None, None), 0)]


def test_empty_cube_columns_keep_their_width():
    cube = range_cubing(make_encoded_table(np.zeros((0, 3), dtype=np.int64)))
    assert cube.columns.specific.shape == (0, 3) and cube.n_cells == 0
    assert cube.ranges == [] and ColumnarRangeStore(cube)._apex_id == -1


def _snapshot_digests(cube, schema, root: Path, name: str) -> dict:
    path = write_snapshot(cube, root / name, schema, sketch=True)
    manifest = json.loads((path / "manifest.json").read_text())
    digests = {k: v["sha256"] for k, v in manifest["arrays"].items()}
    digests["states"] = manifest["states"].get("sha256")
    return digests


@pytest.mark.parametrize("agg_name", sorted(AGGREGATORS))
@pytest.mark.parametrize("plan_name", ["none", "order", "plan"])
def test_snapshot_bytes_equal_the_range_list_freeze(agg_name, plan_name):
    table = correlated_table(
        300, 4, 6, [FunctionalDependency((0,), (1, 2))], theta=1.2, seed=3
    )
    agg = AGGREGATORS[agg_name]()
    cube = range_cubing(table, aggregator=agg, dim_order=_plans(table)[plan_name])
    listed = RangeCube(cube.n_dims, agg, list(cube.ranges))
    with tempfile.TemporaryDirectory() as tmp:
        emitted = _snapshot_digests(cube, table.schema, Path(tmp), "emitted")
        frozen = _snapshot_digests(listed, table.schema, Path(tmp), "listed")
    assert emitted == frozen


def test_column_remap_passes_star_and_late_codes_through():
    # Permuted space (d1, d2, d0); the value map on original d0 covers 0..2.
    columns = RangeColumns(
        np.array([[5, 6, 1], [-1, 4, 2], [0, -1, 7]], dtype=np.int32),
        np.array([0b011, 0b010, 0b100], dtype=np.int64),
        [(1,), (2,), (3,)],
    )
    plan = TuningPlan((1, 2, 0), value_orders={0: np.array([2, 0, 1])})
    restored = plan.restore_ranges(columns)
    # inverse of [2, 0, 1] is [1, 2, 0]; code 7 is outside the map's domain
    assert restored.specific.tolist() == [[2, 5, 6], [0, -1, 4], [7, 0, -1]]
    assert restored.marked_mask.tolist() == [0b110, 0b100, 0b001]
    assert restored.states is columns.states
    assert TuningPlan((0, 1, 2)).restore_ranges(columns) is columns


def test_ranges_are_built_once_and_keep_identity():
    cube = range_cubing(make_paper_table())
    first = cube.ranges
    assert cube.ranges is first
    first.append(first[0])
    try:
        assert cube.ranges[-1] is first[0]
    finally:
        first.pop()
    assert cube.n_ranges == len(cube.columns) == len(first)


def _engine_table(rows: int, seed: int):
    return correlated_table(
        rows,
        5,
        10,
        [FunctionalDependency((0,), (1, 2))],
        theta=1.1,
        seed=seed,
    )


def _oracle_answers(table, requests: list[dict]) -> list:
    agg = SumCountAggregator(0)
    cells = compute_full_cube(table, agg).as_dict()
    codes = table.dim_codes
    out = []
    for request in requests:
        cell = tuple(request["cell"])
        if request["op"] == "point":
            state = cells.get(cell)
            out.append(None if state is None else agg.finalize(state))
            continue
        if request["op"] == "dice":
            keep = np.ones(len(codes), dtype=bool)
            for d, v in enumerate(cell):
                if v is not None:
                    keep &= codes[:, d] == v
            for d, values in request["predicates"].items():
                keep &= np.isin(codes[:, int(d)], values)
            rows = np.flatnonzero(keep)
            out.append(
                {"count": len(rows), "sum": float(table.measures[rows, 0].sum())}
                if len(rows)
                else None
            )
            continue
        dims = [request["dim"]] if request["op"] == "drilldown" else [
            d for d, v in enumerate(cell) if v is None
        ]
        children = []
        for d in dims:
            for value in sorted({int(v) for v in codes[:, d]}):
                child = list(cell)
                child[d] = value
                state = cells.get(tuple(child))
                if state is not None:
                    children.append((child, agg.finalize(state)))
        out.append(sorted(children, key=repr))
    return out


def _served(response: dict):
    if "children" in response:
        return sorted(((c["cell"], c["value"]) for c in response["children"]), key=repr)
    return response["value"]


def _same(got, want) -> bool:
    if isinstance(want, list):
        return len(got) == len(want) and all(
            g[0] == w[0] and _same(g[1], w[1]) for g, w in zip(got, want)
        )
    if want is None or got is None:
        return got is want
    return got["count"] == want["count"] and got["sum"] == pytest.approx(want["sum"])


def test_resident_engine_serves_without_building_ranges(monkeypatch):
    """Point, drill-down, slice and dice across two appends, all from columns."""

    def refuse(self):
        raise AssertionError("a serving path built Range objects")

    monkeypatch.setattr(RangeColumns, "to_ranges", refuse)
    table = _engine_table(600, seed=5)
    order = (2, 4, 0, 1, 3)
    plan = TuningPlan(order, value_orders={0: np.roll(np.arange(10), 3)})
    engine = QueryEngine.from_table(table, dim_order=plan)
    rng = np.random.default_rng(0)
    seen = table
    for step in range(3):
        cube = engine._version.cube
        assert cube.n_ranges >= 512  # large enough for the columnar path
        rows = seen.dim_codes[rng.choice(seen.n_rows, size=6)].tolist()
        requests = []
        for row in rows:
            requests.append({"op": "point", "cell": [row[0], None, row[2], None, None]})
            requests.append({"op": "point", "cell": row})
            requests.append(
                {"op": "drilldown", "cell": [row[0], None, None, None, None], "dim": 3}
            )
            requests.append({"op": "slice", "cell": [row[0], row[1], None, row[3], row[4]]})
            requests.append(
                {
                    "op": "dice",
                    "cell": [None, None, None, row[3], None],
                    "predicates": {"0": [row[0], (row[0] + 1) % 10], "4": [row[4]]},
                }
            )
        want = _oracle_answers(seen, requests)
        for request, expected in zip(requests, want):
            response = engine.execute(QueryRequest.from_json(request))
            assert response["version"] == step
            assert _same(_served(response), expected), request
        if step == 2:
            break
        # The second batch brings codes 10 and 11 on d0: outside the value
        # map's domain, they must pass through the restore unchanged.
        batch = _engine_table(200, seed=10 + step)
        codes = batch.dim_codes.copy()
        if step == 1:
            codes[:40, 0] = 10 + np.arange(40) % 2
        engine.append(codes.tolist(), batch.measures.tolist())
        seen = make_encoded_table(
            np.concatenate([seen.dim_codes, codes]),
            measures=np.concatenate([seen.measures, batch.measures]),
        )
    assert engine._version.cube._ranges is None
