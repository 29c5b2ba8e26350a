"""The approximate answer tier: sketches, bounds, and the serving thread.

Three layers of guarantees:

* unit — the sketch's histograms and stratified estimator against
  hand-computable inputs, and the partial-combination algebra
  (:func:`finalize_partials`) including the degenerate intervals that
  once inverted;
* property — on any small synthetic table the sample covers the whole
  population, so the reported ``[lower, upper]`` MUST contain the true
  aggregate (no probabilistic slack), for plain dice and for HAVING;
* statistical — on a correlated/skewed table far larger than the
  sample, the true answer lands inside the 95% interval on at least
  85% of random heavy dice (the same floor ``bench_approx`` gates).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx import (
    CubeSketch,
    SketchUnsupported,
    component_layout,
    exact_partial,
    finalize_partials,
)
from repro.core.range_cubing import range_cubing
from repro.data.correlated import FunctionalDependency, correlated_table
from repro.data.synthetic import zipf_table
from repro.serve import QueryEngine, QueryRequest, ShardRouter
from repro.serve.engine import ServeError
from repro.table.aggregates import MinAggregator, default_aggregator

from tests.conftest import make_paper_table, table_strategy


def exact_dice(engine, predicates, having=None):
    """Oracle: the exact per-cell scan the sketch estimates."""
    snap = engine.snapshot()
    store = snap.cube.to_columnar()
    ids = store.base_cell_ids()
    cells = store.specific[ids]
    counts = store.counts[ids]
    keep = np.ones(len(ids), dtype=bool)
    for dim, values in predicates.items():
        keep &= np.isin(cells[:, int(dim)], list(values))
    if having is not None:
        keep &= counts >= having
    agg = snap.cube.aggregator
    total = store.merge_states(ids[keep])
    return None if total is None else agg.finalize(total)


def assert_contains(block, truth):
    """The approx block's interval must contain the exact answer."""
    assert "estimate" in block, f"unexpected fallback: {block}"
    for key, est in block["estimate"].items():
        true_v = 0.0 if truth is None else float(truth[key])
        lo, hi = block["lower"][key], block["upper"][key]
        if lo is None or hi is None:
            continue  # AVG over a possibly-empty selection: unbounded
        assert lo - 1e-6 <= true_v <= hi + 1e-6, (
            f"{key}: {true_v} outside [{lo}, {hi}]"
        )
        assert lo - 1e-9 <= est <= hi + 1e-9


# ----------------------------------------------------------------------
# wire protocol: opt-in fields stay absent-when-unset
# ----------------------------------------------------------------------


def test_wire_shape_without_approx_is_byte_identical():
    request = QueryRequest(op="dice", predicates={"0": [1, 2]})
    wire = request.to_json()
    assert "approx" not in wire and "confidence" not in wire
    assert "having" not in wire
    assert json.dumps(wire, sort_keys=True) == json.dumps(
        {"op": "dice", "predicates": {"0": [1, 2]}}, sort_keys=True
    )


def test_approx_fields_round_trip():
    request = QueryRequest(
        op="dice",
        predicates={"0": [1]},
        approx=True,
        confidence=0.99,
        having=5,
    )
    back = QueryRequest.from_json(request.to_json())
    assert back.approx is True
    assert back.confidence == 0.99
    assert back.having == 5


def test_exact_dice_response_carries_no_approx_block():
    engine = QueryEngine.from_table(make_paper_table())
    response = engine.execute(
        QueryRequest(op="dice", predicates={"store": [0, 1]})
    )
    assert "approx" not in response


# ----------------------------------------------------------------------
# request validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "request_",
    [
        QueryRequest(op="point", cell=[None, None, None, None], approx=True),
        QueryRequest(op="dice", predicates={"0": [0]}, confidence=0.9),
        QueryRequest(op="dice", predicates={"0": [0]}, having=1),
        QueryRequest(op="dice", predicates={"0": [0]}, approx=True, confidence=1.5),
        QueryRequest(op="dice", predicates={"0": [0]}, approx=True, confidence=0.0),
        QueryRequest(op="dice", predicates={"0": [0]}, approx=True, having=-1),
    ],
)
def test_malformed_approx_requests_raise(request_):
    engine = QueryEngine.from_table(make_paper_table())
    with pytest.raises(ServeError):
        engine.execute(request_)


def test_predicate_validation_still_rejects_bad_codes():
    engine = QueryEngine.from_table(make_paper_table())
    for bad in ([0, -1], [0.5], [True], "S1", []):
        with pytest.raises(ServeError):
            engine.execute(
                QueryRequest(op="dice", predicates={"0": bad}, approx=True)
            )


# ----------------------------------------------------------------------
# engine: fully-sampled tables answer exactly
# ----------------------------------------------------------------------


def test_tiny_table_estimate_is_exact_with_zero_width_bounds():
    engine = QueryEngine.from_table(make_paper_table())
    exact = engine.execute(
        QueryRequest(op="dice", predicates={"store": [0, 1]})
    )
    approx = engine.execute(
        QueryRequest(op="dice", predicates={"store": [0, 1]}, approx=True)
    )
    block = approx["approx"]
    for key, value in exact["value"].items():
        assert block["estimate"][key] == pytest.approx(float(value))
        assert block["lower"][key] == pytest.approx(float(value))
        assert block["upper"][key] == pytest.approx(float(value))
    assert block["confidence"] == 0.95
    assert approx["cell"] == exact["cell"]
    assert approx["predicates"] == exact["predicates"]


def test_having_filters_light_cells():
    # paper table: every (store,city,product,date) cell holds one row,
    # so having=2 over the finest cells admits nothing.
    engine = QueryEngine.from_table(make_paper_table())
    response = engine.execute(
        QueryRequest(
            op="dice",
            predicates={"store": [0, 1, 2]},
            approx=True,
            having=2,
        )
    )
    block = response["approx"]
    assert block["estimate"]["count"] == 0.0
    assert block["upper"]["count"] == 0.0


def test_unsupported_aggregator_falls_back_to_exact():
    engine = QueryEngine.from_table(
        make_paper_table(), aggregator=MinAggregator(0)
    )
    response = engine.execute(
        QueryRequest(op="dice", predicates={"store": [0]}, approx=True)
    )
    block = response["approx"]
    assert block == {"fallback": True, "reason": "unsupported-aggregator"}
    exact = engine.execute(QueryRequest(op="dice", predicates={"store": [0]}))
    assert response["value"] == exact["value"]


def test_having_cannot_ride_the_fallback():
    engine = QueryEngine.from_table(
        make_paper_table(), aggregator=MinAggregator(0)
    )
    with pytest.raises(ServeError):
        engine.execute(
            QueryRequest(
                op="dice", predicates={"store": [0]}, approx=True, having=1
            )
        )


def test_explain_reports_the_estimator():
    engine = QueryEngine.from_table(make_paper_table())
    response = engine.execute(
        QueryRequest(
            op="dice", predicates={"store": [0]}, approx=True, explain=True
        )
    )
    account = response["explain"]["approx"]
    assert account["estimator"] == "stratified-cell-sample"
    assert account["sample_size"] > 0
    assert "bound_width" in account


# ----------------------------------------------------------------------
# property: full-coverage tables must always bound the truth
# ----------------------------------------------------------------------


@st.composite
def dice_case(draw):
    table = draw(table_strategy(min_rows=2, max_rows=24, min_dims=2))
    n_dims = table.schema.n_dims
    n_pred = draw(st.integers(1, n_dims))
    dims = draw(
        st.lists(
            st.integers(0, n_dims - 1),
            min_size=n_pred,
            max_size=n_pred,
            unique=True,
        )
    )
    predicates = {
        str(d): draw(
            st.lists(st.integers(0, 4), min_size=1, max_size=4, unique=True)
        )
        for d in dims
    }
    having = draw(st.none() | st.integers(0, 3))
    return table, predicates, having


@given(dice_case())
@settings(max_examples=60, deadline=None)
def test_bounds_always_contain_truth_when_fully_sampled(case):
    table, predicates, having = case
    engine = QueryEngine.from_table(table, cache_capacity=0)
    response = engine.execute(
        QueryRequest(op="dice", predicates=predicates, approx=True, having=having)
    )
    block = response["approx"]
    assert_contains(block, exact_dice(engine, predicates, having))
    # well-formed intervals, always
    for key in block["estimate"]:
        lo, hi = block["lower"][key], block["upper"][key]
        if lo is not None and hi is not None:
            assert lo <= hi
    assert block["lower"]["count"] >= 0.0


# ----------------------------------------------------------------------
# statistical: real sampling regime covers at the configured confidence
# ----------------------------------------------------------------------


def test_sampled_regime_hits_the_coverage_floor():
    rng = np.random.default_rng(11)
    table = correlated_table(
        30_000,
        6,
        40,
        (FunctionalDependency((0,), (1,)),),
        theta=1.1,
        seed=3,
    )
    engine = QueryEngine.from_table(table, cache_capacity=0)
    covered = total = 0
    for _ in range(60):
        dims = rng.choice(6, size=3, replace=False)
        predicates = {
            str(int(d)): sorted(
                int(v) for v in rng.choice(40, size=15, replace=False)
            )
            for d in dims
        }
        response = engine.execute(
            QueryRequest(op="dice", predicates=predicates, approx=True)
        )
        block = response["approx"]
        truth = exact_dice(engine, predicates)
        true_count = 0.0 if truth is None else float(truth["count"])
        total += 1
        covered += (
            block["lower"]["count"] - 1e-6
            <= true_count
            <= block["upper"]["count"] + 1e-6
        )
    assert covered / total >= 0.85


# ----------------------------------------------------------------------
# sketch unit tests
# ----------------------------------------------------------------------


@pytest.fixture
def sketch():
    table = make_paper_table()
    store = range_cubing(table).to_columnar()
    return CubeSketch.from_store(store)


def test_histogram_mass_matches_the_table(sketch):
    # store S1 has 2 rows, S2 has 3, S3 has 1 (paper running example)
    assert sketch.hist_mass(0, [0]) == 2
    assert sketch.hist_mass(0, [1]) == 3
    assert sketch.hist_mass(0, [0, 1, 2]) == 6
    assert sketch.hist_mass(0, []) == 0
    assert sketch.hist_mass(0, [99]) == 0  # out of range: no mass
    assert sketch.hist_mass(0, [-3, 0]) == 2  # negatives carry no mass
    assert sketch.hist_mass(1, np.array([0, 1, 2])) == 6


def test_estimate_partial_counts_and_ceiling(sketch):
    partial = sketch.estimate_partial({}, {0: [0, 1]})
    assert partial["matched"] == 5  # 5 finest cells under S1/S2
    assert partial["ceil"] == 5.0  # histogram COUNT ceiling
    assert partial["est"][0] == pytest.approx(5.0)  # fully sampled: exact
    assert all(v == 0.0 for v in partial["var"])


def test_repeated_codes_count_their_mass_once(sketch):
    assert sketch.hist_mass(0, [0, 1, 1, 1]) == sketch.hist_mass(0, [0, 1]) == 5
    assert sketch.hist_mass(1, np.array([2, 2, 0])) == sketch.hist_mass(1, [0, 2])
    once = sketch.estimate_partial({}, {0: [0, 1]})
    repeated = sketch.estimate_partial({}, {0: [0, 1, 1]})
    assert repeated["ceil"] == once["ceil"] == 5.0
    assert repeated["est"] == once["est"]


def test_estimate_partial_with_base_and_empty_sets(sketch):
    pinned = sketch.estimate_partial({0: 1}, {2: [0]})
    assert pinned["matched"] == 2  # S2 sells P1 in two cities
    empty = sketch.estimate_partial({}, {0: []})
    assert empty["matched"] == 0 and empty["est"][0] == 0.0


def test_min_aggregator_is_unsupported():
    table = make_paper_table()
    store = range_cubing(table, aggregator=MinAggregator(0)).to_columnar()
    with pytest.raises(SketchUnsupported):
        CubeSketch.from_store(store)


def test_sketch_array_round_trip(sketch):
    back = CubeSketch.from_arrays(sketch.manifest_entry(), sketch.to_arrays())
    a = sketch.estimate_partial({}, {0: [0, 1]})
    b = back.estimate_partial({}, {0: [0, 1]})
    assert a == b


# ----------------------------------------------------------------------
# finalize_partials: the combination algebra
# ----------------------------------------------------------------------


def agg1():
    return default_aggregator(1)


def test_exact_partial_finalizes_to_zero_width():
    agg = agg1()
    state = (3, 42.0)
    answer = finalize_partials(agg, [exact_partial(agg, state)], 0.95)
    assert answer.estimate == {"count": 3.0, "sum": 42.0}
    assert answer.lower == answer.upper == answer.estimate
    assert answer.bound_width == 0.0


def test_partials_sum_across_shards():
    agg = agg1()
    answer = finalize_partials(
        agg,
        [exact_partial(agg, (2, 10.0)), exact_partial(agg, (3, 5.0))],
        0.9,
    )
    assert answer.estimate == {"count": 5.0, "sum": 15.0}
    assert answer.confidence == 0.9


def test_contradictory_interval_falls_back_to_the_deterministic_box():
    # Regression: estimate far above the ceiling with a tiny variance
    # used to clip into an inverted (upper < lower) interval.
    agg = agg1()
    partial = {
        "estimator": "stratified-cell-sample",
        "est": [100.0, 100.0],
        "var": [1.0, 1.0],
        "floor": [2.0, 2.0],
        "floor_valid": [True, True],
        "ceil": 10.0,
        "sample_size": 8,
        "matched": 4,
        "population": 100,
        "rows": 1000,
    }
    answer = finalize_partials(agg, [partial], 0.95)
    assert answer.lower["count"] == 2.0
    assert answer.upper["count"] == 10.0
    assert answer.lower["count"] <= answer.estimate["count"] <= answer.upper["count"]
    for key in answer.estimate:
        assert answer.lower[key] <= answer.upper[key]


def test_component_layout_names_match_results():
    agg = agg1()
    components, kinds = component_layout(agg)
    assert components == ("count", "s0")
    assert kinds == ("sum",)


# ----------------------------------------------------------------------
# snapshot + sharded serving paths
# ----------------------------------------------------------------------


def test_snapshot_persists_and_serves_the_sketch(tmp_path):
    from repro.store import SnapshotEngine, write_snapshot

    table = zipf_table(800, 4, 8, 1.2, seed=5)
    cube = range_cubing(table)
    path = str(tmp_path / "cube.snapshot")
    write_snapshot(cube, path, table.schema, sketch=True)
    request = QueryRequest(op="dice", predicates={"0": [0, 1]}, approx=True)
    with SnapshotEngine(path, cache_capacity=0) as engine:
        assert engine._store.sketch is not None  # loaded, not rebuilt
        response = engine.execute(request)
    resident = QueryEngine.from_table(table, cache_capacity=0)
    assert_contains(response["approx"], exact_dice(resident, {0: [0, 1]}))


def test_sharded_router_merges_partials_with_bounds():
    table = zipf_table(3000, 4, 10, 1.2, seed=9)
    resident = QueryEngine.from_table(table, cache_capacity=0)
    predicates = {"1": [0, 1, 2], "2": [0, 1, 2, 3]}
    with ShardRouter.from_table(table, n_shards=2) as router:
        response = router.execute(
            QueryRequest(op="dice", predicates=predicates, approx=True)
        )
    block = response["approx"]
    assert block["sample_size"] > 0
    assert_contains(block, exact_dice(resident, {1: [0, 1, 2], 2: [0, 1, 2, 3]}))
