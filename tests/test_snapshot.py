"""The snapshot subsystem: mmap round-trip identity, integrity, tiering.

The load-bearing property is *bit identity*: a cube loaded back from a
memory-mapped snapshot must answer every read — point, children, dice,
batch — exactly like the resident :class:`ColumnarRangeStore` and the
hash index it was frozen from.  The measure columns are saved from the
same float64 arrays the resident store reduces over, so even float
aggregates compare with ``==``, not a tolerance.

The second property is *honesty about resources*: with a resident-bytes
budget far below the mapped columns, the tier policy must keep its
promise (``resident_bytes <= budget``) while every answer stays correct
— the out-of-core path, exercised end to end over HTTP.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.range_cubing import range_cubing
from repro.core.range_index import RangeCubeIndex
from repro.cube.full_cube import compute_full_cube
from repro.data.correlated import FunctionalDependency, correlated_table
from repro.serve import (
    CubeServer,
    CubeStore,
    HTTPCubeClient,
    InProcessClient,
    QueryEngine,
    QueryRequest,
    ServeError,
    ShardRouter,
)
from repro.serve.engine import COMPACT_FRACTION
from repro.serve.protocol import ErrorCode
from repro.serve.workload import WorkloadDriver
from repro.store import (
    SnapshotCube,
    SnapshotEngine,
    SnapshotError,
    SnapshotIntegrityError,
    TierPolicy,
    inspect_snapshot,
    is_sharded_snapshot,
    load_snapshot,
    read_manifest,
    save_sharded_snapshot,
    write_snapshot,
)
from repro.table.aggregates import (
    AggregateFunction,
    Aggregator,
    AvgAggregator,
    CountAggregator,
    MaxFunction,
    MinFunction,
    MultiAggregator,
    SumCountAggregator,
    SumFunction,
)
from tests.conftest import make_paper_table, table_strategy

AGGREGATORS = {
    "count": CountAggregator,
    "sumcount": lambda: SumCountAggregator(0),
    "avg": lambda: AvgAggregator(0),
    "multi": lambda: MultiAggregator(
        [(SumFunction(), 0), (MinFunction(), 0), (MaxFunction(), 0)]
    ),
}


def _snapshot_of(cube, schema, tmp, **kw) -> Path:
    path = Path(tmp) / "cube.snapshot"
    write_snapshot(cube, path, schema, **kw)
    return path


def _probe_cells(table, oracle) -> list[tuple]:
    """Every non-empty cell of the full lattice plus misses and the apex."""
    cells = list(oracle.iter_cells())
    ghost = tuple(int(table.dim_codes[:, d].max()) + 1 for d in range(table.n_dims))
    cells.append(ghost)
    cells.append(tuple([None] * table.n_dims))
    return cells


# ----------------------------------------------------------------------
# round-trip identity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("agg_name", sorted(AGGREGATORS))
@settings(max_examples=15, deadline=None)
@given(table_strategy(max_rows=16, max_dims=4))
def test_round_trip_answers_bit_identical(agg_name, table):
    """Point/batch answers from the reloaded mmap == resident + hash index."""
    agg = AGGREGATORS[agg_name]()
    cube = range_cubing(table, aggregator=agg)
    hash_index = RangeCubeIndex(cube, strategy="hash")
    cells = _probe_cells(table, compute_full_cube(table))
    with tempfile.TemporaryDirectory() as tmp:
        path = _snapshot_of(cube, table.schema, tmp, rows_absorbed=table.n_rows)
        reloaded = SnapshotCube(load_snapshot(path))
        assert len(reloaded) == cube.n_ranges
        batch = reloaded.lookup_batch(cells)
        for cell, via_batch in zip(cells, batch):
            expect = cube.lookup(cell)
            assert reloaded.lookup(cell) == expect
            assert via_batch == expect
            found = hash_index.find(cell)
            assert (found.state if found is not None else None) == expect


@settings(max_examples=10, deadline=None)
@given(table_strategy(max_rows=16, max_dims=4, n_measures=2))
def test_round_trip_children_and_dice_identical(table):
    """The serve read surface (all five ops) over mmap == resident engine."""
    engine = QueryEngine.from_table(table, cache_capacity=0)
    snap = engine.snapshot()
    n_dims = table.n_dims
    card0 = int(table.dim_codes[:, 0].max()) + 1
    requests = [
        QueryRequest(op="point", cell=[None] * n_dims),
        QueryRequest(op="point", cell=[0] + [None] * (n_dims - 1)),
        QueryRequest(op="rollup", cell=[0] + [None] * (n_dims - 1), dim=0),
        QueryRequest(op="drilldown", cell=[None] * n_dims, dim=0),
        QueryRequest(op="slice", cell=[0] + [None] * (n_dims - 1)),
        QueryRequest(
            op="dice",
            cell=[None] * n_dims,
            predicates={"0": sorted({0, card0 - 1})},
        ),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = _snapshot_of(snap.cube, snap.schema, tmp, rows_absorbed=table.n_rows)
        mapped = SnapshotEngine(path, cache_capacity=0)
        for request in requests:
            assert mapped.execute(request) == engine.execute(request)
        assert mapped.execute_batch(requests) == engine.execute_batch(requests)


def test_paper_example_round_trip():
    """The paper's sales table survives freeze/thaw with exact aggregates."""
    table = make_paper_table()
    cube = range_cubing(table)
    with tempfile.TemporaryDirectory() as tmp:
        path = _snapshot_of(cube, table.schema, tmp)
        store = load_snapshot(path)
        q = SnapshotCube(store)
        assert q.lookup((None, None, None, None)) == cube.lookup((None, None, None, None))
        info = inspect_snapshot(path)
        assert info["n_ranges"] == cube.n_ranges
        assert info["states_format"] == "columns"
        assert info["column_bytes"] > 0


def test_custom_aggregator_falls_back_to_json_states():
    """Non-stock algebra: states travel as JSON, caller must supply the agg."""

    class ProductFunction(AggregateFunction):
        name = "product"

        def initial(self, value):
            return value

        def merge(self, a, b):
            return a * b

        def finalize(self, state):
            return state

    agg = Aggregator(((ProductFunction(), 0),))
    table = make_paper_table()
    cube = range_cubing(table, aggregator=agg)
    with tempfile.TemporaryDirectory() as tmp:
        path = _snapshot_of(cube, table.schema, tmp)
        assert inspect_snapshot(path)["states_format"] == "json"
        with pytest.raises(SnapshotError, match="custom aggregator"):
            load_snapshot(path)
        reloaded = SnapshotCube(load_snapshot(path, aggregator=agg))
        for cell in [(None,) * 4, (0, None, None, None), (0, 0, 0, 0)]:
            assert reloaded.lookup(cell) == cube.lookup(cell)


# ----------------------------------------------------------------------
# integrity and versioning
# ----------------------------------------------------------------------


def _small_snapshot(tmp) -> Path:
    table = make_paper_table()
    return _snapshot_of(range_cubing(table), table.schema, tmp)


def test_corrupted_column_rejected_by_verify(tmp_path):
    path = _small_snapshot(tmp_path)
    victim = path / "counts.npy"
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0xFF
    victim.write_bytes(bytes(blob))
    with pytest.raises(SnapshotIntegrityError, match="checksum mismatch"):
        load_snapshot(path, verify=True)


def test_shape_mismatch_rejected_even_without_verify(tmp_path):
    path = _small_snapshot(tmp_path)
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["arrays"]["counts"]["shape"][0] += 1
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SnapshotIntegrityError, match="manifest says"):
        load_snapshot(path)


def test_newer_format_version_refused(tmp_path):
    path = _small_snapshot(tmp_path)
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["version"] += 1
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError, match="newer"):
        read_manifest(path)


def test_missing_or_foreign_directory_refused(tmp_path):
    with pytest.raises(SnapshotError):
        read_manifest(tmp_path / "nope")
    (tmp_path / "foreign").mkdir()
    (tmp_path / "foreign" / "manifest.json").write_text('{"format": "other"}')
    with pytest.raises(SnapshotError):
        read_manifest(tmp_path / "foreign")


def test_overwrite_is_atomic_and_leaves_no_temp_dirs(tmp_path):
    table = make_paper_table()
    cube = range_cubing(table)
    path = _snapshot_of(cube, table.schema, tmp_path)
    first = read_manifest(path)
    write_snapshot(cube, path, table.schema, engine_version=7)
    assert read_manifest(path)["engine_version"] == 7
    assert first["engine_version"] == 0
    leftovers = [p.name for p in tmp_path.iterdir() if p.name != path.name]
    assert leftovers == []


# ----------------------------------------------------------------------
# the two-tier engine
# ----------------------------------------------------------------------


def _int_table(n_rows=2500, n_dims=5, card=9, seed=5):
    table = correlated_table(
        n_rows, n_dims, card, [FunctionalDependency((0,), (1,))], theta=1.2, seed=seed
    )
    table.measures[:] = np.round(table.measures)
    return table


def test_engine_is_read_only():
    table = make_paper_table()
    cube = range_cubing(table)
    with tempfile.TemporaryDirectory() as tmp:
        path = _snapshot_of(cube, table.schema, tmp)
        with SnapshotEngine(path) as engine:
            with pytest.raises(ServeError) as err:
                engine.append([[0, 0, 0, 0]], [[1.0]])
            assert err.value.info.code == ErrorCode.BAD_REQUEST


def test_out_of_core_budget_is_respected_over_http():
    """A serve process answers off a snapshot larger than its budget."""
    table = _int_table()
    reference = QueryEngine.from_table(table, cache_capacity=0)
    snap = reference.snapshot()
    budget = 32 * 1024
    rng = np.random.default_rng(17)
    requests = []
    for _ in range(80):
        bound = rng.choice(table.n_dims, size=int(rng.integers(1, 4)), replace=False)
        cell = [None] * table.n_dims
        for d in bound:
            cell[int(d)] = int(rng.integers(0, 9))
        requests.append({"op": "point", "cell": cell})
    with tempfile.TemporaryDirectory() as tmp:
        path = _snapshot_of(snap.cube, snap.schema, tmp, rows_absorbed=table.n_rows)
        engine = SnapshotEngine(
            path, cache_capacity=0, budget_bytes=budget, promote_after=1
        )
        assert engine.store.nbytes() > budget  # genuinely out of core
        with CubeServer(engine, port=0) as server:
            client = HTTPCubeClient(server.url)
            try:
                responses = client.query_batch(requests)
                for request, response in zip(requests, responses):
                    assert response["value"] == reference.point(request["cell"])
                stats = client.stats()
            finally:
                client.close()
        tier = stats["snapshot"]["tier"]
        assert tier["resident_bytes"] <= budget
        assert tier["hot_hits"] > 0  # promote_after=1: every group maps

        # Pinned cold (promotion threshold unreachable): every answer comes
        # straight off the mapped columns, nothing is ever made resident.
        cold = SnapshotEngine(
            path, cache_capacity=0, budget_bytes=budget, promote_after=1 << 30
        )
        with CubeServer(cold, port=0) as server:
            client = HTTPCubeClient(server.url)
            try:
                responses = client.query_batch(requests)
                for request, response in zip(requests, responses):
                    assert response["value"] == reference.point(request["cell"])
                stats = client.stats()
            finally:
                client.close()
        tier = stats["snapshot"]["tier"]
        assert tier["resident_bytes"] == 0
        assert tier["cold_hits"] > 0
        assert tier["hot_hits"] == 0


def test_tier_policy_promotes_and_evicts_within_budget():
    table = _int_table(n_rows=1500)
    cube = range_cubing(table)
    store = cube.to_columnar()
    # At 1500 rows a two-dimension cuboid map memo runs ~15 KiB, so a
    # 20 KiB budget holds one such map (plus id memos) but never two:
    # the second promotion must evict the first.
    budget = 20 * 1024
    policy = TierPolicy(budget_bytes=budget, promote_after=1)
    policy.attach(store)
    rng = np.random.default_rng(3)
    for mask_round in range(12):
        bound = rng.choice(table.n_dims, size=2, replace=False)
        cells = []
        for _ in range(8):
            cell = [None] * table.n_dims
            for d in bound:
                cell[int(d)] = int(rng.integers(0, 9))
            cells.append(tuple(cell))
        store.find_batch_ids(cells)
        assert policy.stats()["resident_bytes"] <= budget
    stats = policy.stats()
    assert stats["promotions"] > 0
    assert stats["evictions"] > 0  # the budget forced turnover


def test_unpolicied_store_behavior_unchanged():
    """Without a policy every memo is admitted — the pre-snapshot default."""
    table = make_paper_table()
    store = range_cubing(table).to_columnar()
    cells = [(0, None, None, None), (1, None, None, None)]
    store.find_batch_ids(cells)
    assert store._memo_policy is None


# ----------------------------------------------------------------------
# CubeStore integration
# ----------------------------------------------------------------------


def test_cube_store_snapshot_format_round_trip(tmp_path):
    table = _int_table(n_rows=600, n_dims=4)
    store = CubeStore(tmp_path / "cubes", format="snapshot")
    store.create("sales", table)
    meta = json.loads((tmp_path / "cubes" / "sales.meta.json").read_text())
    assert meta["read_format"] == "snapshot"
    engine = store.open_engine("sales")
    plain = CubeStore(tmp_path / "cubes").load("sales")
    reference = QueryEngine(plain.cuber, plain.schema)
    assert isinstance(engine.snapshot().cube, SnapshotCube)
    for cell in ([None] * 4, [0, None, None, None], [8, 8, 8, 8]):
        assert engine.point(cell) == reference.point(cell)
    # Appends keep flowing through the trie.  The appended row is
    # answered at once, while the mapped snapshot stays the base ...
    before = (engine.point([3, 3, 3, 3]) or {"count": 0})["count"]
    engine.append([[3, 3, 3, 3]], [[5.0]])
    assert isinstance(engine.snapshot().cube, SnapshotCube)
    assert engine.point([3, 3, 3, 3])["count"] == before + 1
    assert engine.version == reference.version + 1
    # ... until a compaction replaces it with a freshly emitted cube.
    n_rows = int(COMPACT_FRACTION * table.n_rows)
    engine.append([[3, 3, 3, 3]] * n_rows, [[5.0]] * n_rows)
    assert not isinstance(engine.snapshot().cube, SnapshotCube)
    assert engine.point([3, 3, 3, 3])["count"] == before + 1 + n_rows


def test_cube_store_legacy_json_entries_still_load(tmp_path):
    table = make_paper_table()
    CubeStore(tmp_path / "cubes").create("legacy", table)
    # Opening through a snapshot-format store must not require a snapshot.
    engine = CubeStore(tmp_path / "cubes", format="snapshot").open_engine("legacy")
    assert not isinstance(engine.snapshot().cube, SnapshotCube)
    assert engine.point([None] * table.n_dims)["count"] == table.n_rows


def test_cube_store_delete_removes_snapshot_dir(tmp_path):
    table = make_paper_table()
    store = CubeStore(tmp_path / "cubes", format="snapshot")
    store.create("doomed", table)
    assert (tmp_path / "cubes" / "doomed.snapshot").is_dir()
    store.delete("doomed")
    assert list((tmp_path / "cubes").iterdir()) == []


def test_cube_store_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown store format"):
        CubeStore(tmp_path, format="parquet")


# ----------------------------------------------------------------------
# the sharded fleet
# ----------------------------------------------------------------------


def test_sharded_snapshot_identity_and_read_only(tmp_path):
    table = _int_table(n_rows=900, n_dims=4, seed=9)
    path = save_sharded_snapshot(table, tmp_path / "fleet", n_shards=2)
    assert is_sharded_snapshot(path)
    rng = np.random.default_rng(23)
    requests = []
    for _ in range(24):
        bound = rng.choice(4, size=int(rng.integers(0, 3)), replace=False)
        cell = [None] * 4
        for d in bound:
            cell[int(d)] = int(rng.integers(0, 9))
        requests.append(QueryRequest(op="point", cell=cell))
    requests.append(QueryRequest(op="drilldown", cell=[None] * 4, dim=0))
    live = ShardRouter.from_table(table, n_shards=2)
    try:
        expected = [live.execute(r) for r in requests]
    finally:
        live.close()
    mapped = ShardRouter.from_snapshot_dir(path)
    try:
        for request, expect in zip(requests, expected):
            assert mapped.execute(request) == expect
        with pytest.raises(ServeError) as err:
            mapped.append([[0, 0, 0, 0]], [[1.0]])
        assert err.value.info.code == ErrorCode.BAD_REQUEST
        assert "snapshot" in str(err.value)
    finally:
        mapped.close()


# ----------------------------------------------------------------------
# workload cold-start mode and the CLI
# ----------------------------------------------------------------------


def test_workload_cold_start_reported(tmp_path):
    table = _int_table(n_rows=400, n_dims=4)
    engine = QueryEngine.from_table(table, cache_capacity=0)
    snap = engine.snapshot()
    path = _snapshot_of(snap.cube, snap.schema, tmp_path, rows_absorbed=table.n_rows)
    serving = SnapshotEngine(path)
    driver = WorkloadDriver(
        lambda: InProcessClient(serving),
        pool_size=16,
        cold_start=3,
        cold_start_factory=lambda: SnapshotEngine(path),
    )
    report = driver.run(clients=1, requests_per_client=8)
    assert report.op_latency["cold_start"].count == 3
    assert "cold_start" in report.format()
    assert report.total_requests == 8  # restarts are not requests


def test_workload_cold_start_requires_factory():
    with pytest.raises(ValueError, match="cold_start_factory"):
        WorkloadDriver(lambda: None, cold_start=2)


def test_cli_snapshot_save_inspect_load(tmp_path, capsys):
    from repro.cli import main
    from repro.data.io import write_table_csv

    csv = tmp_path / "t.csv"
    write_table_csv(_int_table(n_rows=300, n_dims=4), csv)
    out = tmp_path / "t.snapshot"
    assert main(["snapshot", "save", str(csv), "--measures", "1", "--out", str(out)]) == 0
    assert main(["snapshot", "inspect", str(out)]) == 0
    assert main(["snapshot", "load", str(out), "--verify"]) == 0
    output = capsys.readouterr().out
    assert "checksums: ok" in output
    assert "first query" in output


def test_cli_snapshot_save_frees_the_build(tmp_path, monkeypatch):
    # A cube and its columnar store reference each other; the command
    # must free both before it returns, not leave them to a later
    # collection in a process that goes on to build again.
    import sys
    import weakref

    from repro.cli import main
    from repro.data.io import write_table_csv

    cubing = sys.modules["repro.core.range_cubing"]
    built = []

    def keep_a_weak_reference(*args, **kwargs):
        cube, stats = real(*args, **kwargs)
        built.append(weakref.ref(cube))
        return cube, stats

    real = cubing.range_cubing_detailed
    monkeypatch.setattr(cubing, "range_cubing_detailed", keep_a_weak_reference)
    csv = tmp_path / "t.csv"
    write_table_csv(_int_table(n_rows=300, n_dims=4), csv)
    out = tmp_path / "t.snapshot"
    assert main(["snapshot", "save", str(csv), "--measures", "1", "--out", str(out)]) == 0
    assert len(built) == 1 and built[0]() is None


def test_cli_serve_requires_exactly_one_source(capsys):
    from repro.cli import main

    assert main(["serve"]) == 2
    assert "snapshot-dir" in capsys.readouterr().err
