"""Tests for the columnar range store: postings, batched lookups, cuboids.

The load-bearing guarantees are *strategy identity* — ``find_batch``
over the columnar store, the hash-probe index and a plain linear scan
must return the same containing range for every query cell, including
all-``*`` and fully-bound cells — and *oracle identity* of the selection
kernel: ``children`` and ``dice_ids`` + ``merge_states`` must answer
exactly what the full cube (``repro.cube.full_cube``) holds, on the
resident store, its snapshot and a snapshot pinned cold.  The rest are
unit tests for the memoized cuboid structures, the vectorized state
merge, the kernel's two plans and the observability counters.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.columnar import (
    COLUMNAR_THRESHOLD,
    MAX_COLUMNAR_DIMS,
    STAR_CODE,
    ColumnarRangeStore,
    collect_explain,
    prefers_columnar,
)
from repro.core.complex_measures import TopKAvgAggregator
from repro.core.range_cubing import range_cubing
from repro.core.range_index import RangeCubeIndex
from repro.cube.full_cube import compute_full_cube
from repro.cube.query import CubeQuery
from repro.data.correlated import FunctionalDependency, correlated_table
from repro.obs import get_registry
from repro.store import TierPolicy, load_snapshot, write_snapshot
from repro.table.aggregates import AvgAggregator, MinAggregator, SumCountAggregator

from tests.conftest import (
    cubes_equal,
    make_encoded_table,
    make_paper_table,
    states_equal,
    table_strategy,
)


def _scan(cube, cell):
    for r in cube.ranges:
        if r.contains(cell):
            return r
    return None


def _query_cells(table, cube, rng):
    """A query mix: real cells at every mask width, ghosts, apex, full rows."""
    n_dims = table.schema.n_dims
    rows = [tuple(int(v) for v in row) for row in table.dim_rows()]
    cells = [tuple([None] * n_dims)]  # the apex (all-*) cell
    cells.extend(rows[:10])  # fully-bound cells
    for _ in range(60):
        row = rng.choice(rows)
        keep = rng.sample(range(n_dims), rng.randint(1, n_dims))
        cells.append(tuple(v if d in keep else None for d, v in enumerate(row)))
    for _ in range(15):  # ghost cells: values outside every domain
        keep = rng.sample(range(n_dims), rng.randint(1, n_dims))
        cells.append(tuple(999 if d in keep else None for d in range(n_dims)))
    return cells


@pytest.mark.parametrize("rng_seed", [0, 1, 7])
def test_strategies_identical_on_correlated_tables(rng_seed):
    """find_batch == hash probe == linear scan, cell for cell."""
    table = correlated_table(
        400,
        5,
        8,
        [FunctionalDependency((0,), (1, 2))],
        theta=1.2,
        seed=rng_seed,
    )
    cube = range_cubing(table)
    store = ColumnarRangeStore(cube)
    hash_index = RangeCubeIndex(cube, strategy="hash")
    cells = _query_cells(table, cube, random.Random(rng_seed))
    batched = store.find_batch(cells)
    for cell, via_batch in zip(cells, batched):
        assert store.find(cell) is via_batch
        assert hash_index.find(cell) is via_batch
        assert _scan(cube, cell) is via_batch


@seed(20260807)
@settings(max_examples=25, deadline=None)
@given(table_strategy(max_rows=18, max_dims=4))
def test_property_batched_lookup_matches_oracle(table):
    """Every oracle cell resolves identically through all three strategies."""
    cube = range_cubing(table)
    store = ColumnarRangeStore(cube)
    hash_index = RangeCubeIndex(cube, strategy="hash")
    oracle = compute_full_cube(table)
    cells = [cell for cell, _ in oracle.cells()]
    n_dims = table.schema.n_dims
    cells.append(tuple([None] * n_dims))  # apex, in case the oracle order hides it
    cells.append(tuple([99] * n_dims))  # a fully-bound ghost
    batched = store.find_batch(cells)
    for cell, via_batch in zip(cells, batched):
        assert hash_index.find(cell) is via_batch
        assert _scan(cube, cell) is via_batch
    for cell, state in oracle.cells():
        found = store.find(cell)
        assert found is not None and states_equal(found.state, state)


def test_apex_and_empty_cube_edges():
    table = make_paper_table()
    cube = range_cubing(table)
    store = ColumnarRangeStore(cube)
    apex = (None, None, None, None)
    assert store.find(apex) is _scan(cube, apex)
    assert store.find_batch([apex]) == [_scan(cube, apex)]
    # A miss on a value no posting holds short-circuits to None.
    assert store.find((99, None, None, None)) is None


def test_cuboid_and_sizes_match_python_path():
    table = correlated_table(
        200, 4, 6, [FunctionalDependency((0,), (1,))], theta=1.0, seed=3
    )
    cube = range_cubing(table)
    store = ColumnarRangeStore(cube)
    sizes = store.cuboid_sizes()
    by_loop: dict[int, int] = {}
    for mask in range(1 << table.schema.n_dims):
        cuboid = store.cuboid(mask)
        # Disjointness: every cell appears once, states come straight
        # from the owning range.
        assert len(cuboid) == len(store.cuboid_map(mask))
        by_loop[mask] = len(cuboid)
        assert cubes_equal(cuboid, _cuboid_by_scan(cube, mask))
    assert sizes == {m: n for m, n in by_loop.items() if n}


def _cuboid_by_scan(cube, mask: int):
    """The cuboid as the paper defines it: one projected cell per range
    whose fixed dims fit inside the mask and whose bound dims cover it."""
    out = {}
    for r in cube.ranges:
        bound = 0
        for d, v in enumerate(r.specific):
            if v is not None:
                bound |= 1 << d
        marked = r.mask & bound
        fixed = bound & ~marked
        if (fixed & ~mask) or (mask & ~bound):
            continue
        cell = tuple(
            r.specific[d] if mask >> d & 1 else None for d in range(cube.n_dims)
        )
        out[cell] = r.state
    return out


def test_memoization_reused_across_entry_points():
    table = correlated_table(150, 4, 5, [], theta=1.0, seed=5)
    cube = range_cubing(table)
    store = ColumnarRangeStore(cube)
    assert store.memo_stats()["cuboid_map_masks"] == 0
    first = store.cuboid(0b0011)
    stats = store.memo_stats()
    assert stats["cuboid_map_masks"] == 1 and stats["cuboid_id_masks"] == 1
    # The same mask through cuboid_map and find_batch reuses the memo.
    cmap = store.cuboid_map(0b0011)
    assert store.memo_stats()["cuboid_map_masks"] == 1
    assert len(first) == len(cmap)
    row = tuple(int(v) for v in table.dim_rows()[0])
    cell = (row[0], row[1], None, None)
    store.find_batch([cell] * 8)
    assert store.memo_stats()["cuboid_map_masks"] == 1
    # cuboid_sizes is computed once and then served from the cache.
    sizes = store.cuboid_sizes()
    assert store.memo_stats()["sizes_cached"]
    assert store.cuboid_sizes() == sizes


def test_merge_states_fast_path_matches_exact_merge():
    from functools import reduce

    table = correlated_table(300, 4, 6, [], theta=1.3, seed=9, n_measures=2)
    cube = range_cubing(table)
    store = ColumnarRangeStore(cube)
    assert store._fast_columns is not None
    rng = np.random.default_rng(0)
    for size in (1, 3, 17, len(store)):
        ids = rng.choice(len(store), size=min(size, len(store)), replace=False)
        fast = store.merge_states(ids)
        exact = reduce(
            cube.aggregator.merge, (store.states[int(i)] for i in ids)
        )
        assert states_equal(fast, exact)
    assert store.merge_states(np.empty(0, dtype=np.int64)) is None


def test_dice_ids_matches_predicate_scan():
    table = correlated_table(
        250, 4, 6, [FunctionalDependency((0,), (2,))], theta=1.0, seed=11
    )
    cube = range_cubing(table)
    store = ColumnarRangeStore(cube)
    rows = table.dim_rows()
    base = {0: int(rows[0][0])}
    value_sets = {1: {0, 1, 2}, 3: {0, 1}}
    ids = store.dice_ids(value_sets, base)
    mask = 0b1011
    expected = [
        rid
        for rid, cell in (
            (i, c) for c, i in store.cuboid_map(mask).items()
        )
        if cell[0] == base[0]
        and cell[1] in value_sets[1]
        and cell[3] in value_sets[3]
    ]
    assert sorted(int(i) for i in ids) == sorted(expected)
    # An empty predicate set yields no ids.
    assert store.dice_ids({1: set()}, None).size == 0


# ----------------------------------------------------------------------
# the selection kernel against the full-cube oracle
# ----------------------------------------------------------------------

#: SUM/COUNT, MIN, AVG, and a custom aggregator whose states stay Python
#: tuples (a snapshot carries them as JSON, with no state columns).
ORACLE_AGGREGATORS = {
    "sum": lambda: SumCountAggregator(0),
    "min": lambda: MinAggregator(0),
    "avg": lambda: AvgAggregator(0),
    "topk": lambda: TopKAvgAggregator(k=2),
}


def _tiers(cube, table, tmp: Path) -> dict:
    """The resident store, its snapshot, and that snapshot pinned cold."""
    path = write_snapshot(cube, tmp / "cube.snapshot", table.schema)
    cold = load_snapshot(path, aggregator=cube.aggregator)
    TierPolicy(budget_bytes=0).attach(cold)  # admits no memo at all
    return {
        "resident": cube.to_columnar(),
        "snapshot": load_snapshot(path, aggregator=cube.aggregator),
        "cold": cold,
    }


def _oracle_children(iceberg: dict) -> dict:
    """``(parent cell, dim) -> [(code, state)]`` in code order, from the oracle."""
    out: dict = {}
    for cell, state in iceberg.items():
        for d, code in enumerate(cell):
            if code is not None:
                parent = cell[:d] + (None,) + cell[d + 1:]
                out.setdefault((parent, d), []).append((code, state))
    return {key: sorted(pairs) for key, pairs in out.items()}


def _oracle_dice(agg, iceberg: dict, base: dict, value_sets: dict):
    mask = 0
    for d in (*base, *value_sets):
        mask |= 1 << d
    total = None
    for cell, state in iceberg.items():
        if any((v is not None) != bool(mask >> d & 1) for d, v in enumerate(cell)):
            continue
        if all(cell[d] == v for d, v in base.items()) and all(
            cell[d] in codes for d, codes in value_sets.items()
        ):
            total = state if total is None else agg.merge(total, state)
    return total


def _same_pairs(got: list, want: list) -> bool:
    return [c for c, _ in got] == [c for c, _ in want] and all(
        states_equal(a, b) for (_, a), (_, b) in zip(got, want)
    )


@seed(20261020)
@settings(max_examples=40, deadline=None)
@given(
    table=table_strategy(max_rows=18, max_dims=4),
    agg_name=st.sampled_from(sorted(ORACLE_AGGREGATORS)),
    min_support=st.sampled_from((1, 3)),
    rotated=st.booleans(),
    data=st.data(),
)
def test_selection_kernel_matches_full_cube_on_every_tier(
    table, agg_name, min_support, rotated, data
):
    """children and dice_ids + merge_states == the full cube, on every tier."""
    agg = ORACLE_AGGREGATORS[agg_name]()
    n = table.n_dims
    order = tuple(range(1, n)) + (0,) if rotated else None
    cube = range_cubing(table, aggregator=agg, dim_order=order, min_support=min_support)
    iceberg = compute_full_cube(table, agg, min_support).as_dict()
    parents = list(compute_full_cube(table, agg).as_dict())  # below-support ones too
    parents.append(tuple([None] * n))
    parents.append(tuple([99] * (n - 1)) + (None,))  # a ghost: no children
    children = _oracle_children(iceberg)
    cards = [int(table.dim_codes[:, d].max()) + 1 for d in range(n)]
    dice = []
    for _ in range(8):
        dims = data.draw(st.permutations(range(n)))
        n_base = data.draw(st.integers(0, n - 1))
        base = {d: data.draw(st.integers(0, cards[d])) for d in dims[:n_base]}
        pred_dims = dims[n_base:n_base + data.draw(st.integers(1, n - n_base))]
        value_sets = {
            d: data.draw(st.lists(st.integers(0, cards[d]), min_size=1, max_size=4))
            for d in pred_dims
        }
        dice.append((base, value_sets))
    with tempfile.TemporaryDirectory() as tmp:
        for tier, store in _tiers(cube, table, Path(tmp)).items():
            for parent in parents:
                for d in range(n):
                    if parent[d] is None:
                        got = store.children(parent, d)
                        want = children.get((parent, d), [])
                        assert _same_pairs(got, want), (tier, parent, d)
            for base, value_sets in dice:
                ids = store.dice_ids(value_sets, base)
                assert list(ids) == sorted(ids), tier  # merges add in range order
                got = store.merge_states(ids)
                want = _oracle_dice(agg, iceberg, base, value_sets)
                assert (got is None) == (want is None), (tier, base, value_sets)
                assert got is None or states_equal(got, want), (tier, base, value_sets)
            assert store.memo_stats()["cuboid_map_masks"] == 0  # no map is built


def _plan_counts(store, cell, target) -> tuple[np.ndarray, dict]:
    with collect_explain() as acc:
        ids = store.select(cell, target)
    return ids, acc.data


def test_select_plans_and_explain_counters():
    table = correlated_table(3000, 4, 30, [FunctionalDependency((0,), (1,))], seed=1)
    store = range_cubing(table, dim_order=None).to_columnar()
    row = tuple(int(v) for v in table.dim_rows()[0])
    cell = (row[0], None, None, None)
    target = 0b0011  # d0 determines d1: a cuboid of at most 30 cells
    # No memo yet: the postings plan, which builds nothing.
    by_postings, acc = _plan_counts(store, cell, target)
    assert acc["selection_postings"] == 1 and "selection_cuboid" not in acc
    assert acc["postings_intersected"] == 1
    assert acc["cells_scanned"] == len(store.postings[0][row[0]])
    assert store.memo_stats()["cuboid_id_masks"] == 0
    # A cell that binds nothing starts from the cuboid, and memoizes it.
    apex_ids, acc = _plan_counts(store, (None,) * 4, target)
    assert acc["selection_cuboid"] == 1 and acc["cuboid_ids_built"] == 1
    assert np.array_equal(apex_ids, store.cuboid_ids(target))
    # With the memo shorter than the posting, the same cell filters it.
    assert len(store.cuboid_ids(target)) < len(store.postings[0][row[0]])
    by_cuboid, acc = _plan_counts(store, cell, target)
    assert acc["selection_cuboid"] == 1 and "cuboid_ids_built" not in acc
    assert np.array_equal(by_cuboid, by_postings)
    assert store.memo_stats()["cuboid_map_masks"] == 0
    # A bound value no posting holds selects nothing.
    assert store.select((999, None, None, None), target).size == 0
    with pytest.raises(ValueError, match="already bound"):
        store.children(cell, 0)


def test_query_layer_over_a_too_wide_cube_names_the_limit():
    table = make_paper_table()
    cube = range_cubing(table)
    cube.n_dims = MAX_COLUMNAR_DIMS + 1  # simulate a too-wide cube
    query = CubeQuery(cube, table.schema)
    with pytest.raises(ValueError, match=f"up to {MAX_COLUMNAR_DIMS} dims"):
        query.drill_down((0, None, None, None), "city")
    with pytest.raises(ValueError, match=f"up to {MAX_COLUMNAR_DIMS} dims"):
        query.dice({"city": [0]})


def test_prefers_columnar_threshold_and_dim_cap():
    small = range_cubing(make_paper_table())
    assert not prefers_columnar(small)
    assert small.n_ranges < COLUMNAR_THRESHOLD

    class FakeCube:
        ranges = [None] * COLUMNAR_THRESHOLD
        n_dims = MAX_COLUMNAR_DIMS + 1

    assert not prefers_columnar(FakeCube())
    FakeCube.n_dims = MAX_COLUMNAR_DIMS
    assert prefers_columnar(FakeCube())


def test_store_rejects_too_many_dims():
    cube = range_cubing(make_encoded_table([(0, 1)]))
    cube.n_dims = MAX_COLUMNAR_DIMS + 1  # simulate a too-wide cube
    with pytest.raises(ValueError):
        ColumnarRangeStore(cube)


def test_index_len_is_precomputed_and_constant_time():
    """Satellite: __len__ returns the stored count, not a per-call sum."""
    table = make_paper_table()
    cube = range_cubing(table)
    index = RangeCubeIndex(cube)
    assert len(index) == cube.n_ranges == index._n_ranges
    # Mutating the list afterwards does not change the frozen count —
    # proof the value was captured at construction.
    cube.ranges.append(cube.ranges[0])
    try:
        assert len(index) == index._n_ranges
    finally:
        cube.ranges.pop()


def test_scan_fallbacks_feed_obs_counter(monkeypatch):
    """Satellite: linear-scan fallbacks land in the process-wide counter."""
    import repro.core.range_index as range_index_module

    counter = get_registry().counter(
        "repro_query_scan_fallbacks_total",
        "Point lookups answered by a linear scan over all ranges.",
    )
    before = counter.value()
    table = make_paper_table()
    cube = range_cubing(table)
    index = RangeCubeIndex(cube, strategy="hash")
    monkeypatch.setattr(range_index_module, "MAX_PROBE_DIMS", 0)
    index.find((0, 0, 0, 0))
    index.find((2, 0, 1, 1))
    assert index.scan_fallbacks == 2
    assert counter.value() == before + 2


def test_index_columnar_strategy_delegates_and_skips_hash_map():
    table = correlated_table(100, 4, 5, [], theta=1.0, seed=2)
    cube = range_cubing(table)
    columnar = RangeCubeIndex(cube, strategy="columnar")
    hashed = RangeCubeIndex(cube, strategy="hash")
    assert columnar.strategy == "columnar" and columnar._store is not None
    assert columnar._by_general == {} and hashed._by_general
    cells = [tuple(int(v) for v in table.dim_rows()[0])]
    cells.append((None,) * 4)
    assert columnar.find_batch(cells) == hashed.find_batch(cells)
    with pytest.raises(ValueError):
        RangeCubeIndex(cube, strategy="bogus")
    with pytest.raises(ValueError):
        columnar.find_batch([(0, 0)])


def test_cube_lookup_batch_and_lazy_columnar():
    table = correlated_table(80, 4, 5, [], theta=1.0, seed=4)
    cube = range_cubing(table)
    assert cube._columnar is None
    store = cube.to_columnar()
    assert cube.to_columnar() is store  # cached
    cells = [tuple(int(v) for v in r) for r in table.dim_rows()[:5]]
    cells.append((99, None, None, None))
    states = cube.lookup_batch(cells)
    for cell, state in zip(cells, states):
        expected = _scan(cube, cell)
        if expected is None:
            assert state is None
        else:
            assert states_equal(state, expected.state)


def test_lazy_lookup_above_threshold_does_not_deadlock():
    """Regression: cube.lookup() on a big cube builds the index under the
    cube lock, and the columnar strategy re-enters it via to_columnar();
    a non-reentrant lock deadlocked here."""
    import threading

    table = correlated_table(3000, 4, 30, [], theta=1.2, seed=1)
    cube = range_cubing(table)
    assert prefers_columnar(cube)
    result = []
    cell = tuple(int(v) for v in table.dim_rows()[0])
    worker = threading.Thread(target=lambda: result.append(cube.lookup(cell)))
    worker.daemon = True
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "lazy index build deadlocked"
    assert result and result[0] is not None
    assert cube._columnar is not None
    assert cube._index._store is cube._columnar


def test_pickle_roundtrip_drops_columnar_cache():
    import pickle

    cube = range_cubing(make_paper_table())
    cube.to_columnar()
    clone = pickle.loads(pickle.dumps(cube))
    assert clone._columnar is None
    assert clone.lookup((0, None, None, None)) == cube.lookup((0, None, None, None))


def test_star_code_and_postings_shape():
    cube = range_cubing(make_paper_table())
    store = ColumnarRangeStore(cube)
    assert STAR_CODE == -1
    for d in range(store.n_dims):
        total = sum(len(ids) for ids in store.postings[d].values())
        assert total == len(store)  # every range posted exactly once per dim
        for ids in store.postings[d].values():
            assert ids.dtype == np.int32
            assert np.all(np.diff(ids) > 0)  # sorted, unique
        assert len(store.star_ids(d)) == len(
            store.postings[d].get(STAR_CODE, ())
        )
