"""Cross-tier identity: one request list, three backends, one answer.

The resident :class:`QueryEngine`, a :class:`SnapshotEngine` over that
engine's own cube and a 2-shard :class:`ShardRouter` over the same table
all answer through one request pipeline, so every response — values,
cache flags, error entries, approx blocks — must be equal.  Only the
EXPLAIN account's timing, tier and routing fields (and the index
counters they carry) may differ.  Integer measures keep the cross-shard
merges exact, and the tables are small enough that every sketch keeps
its whole population, so the approx estimates are exact on every tier.
Approx requests leave the shard dimension free: a routed one reports
only its shard's ``sample_size``.  Before the list runs, the resident
engine and the router absorb rows whose codes lie past the table's
cardinality, so drill-downs and slices must list children the schema
never had.  Those engines answer from their base cube plus the appended
rows' row delta; the snapshot is written from one cube over every
absorbed row.
"""

import numpy as np
import pytest

from repro.data.correlated import FunctionalDependency, correlated_table
from repro.obs import OBS_STATE, get_registry, set_enabled
from repro.serve import QueryEngine, QueryRequest, ServeError, ShardRouter
from repro.store import SnapshotEngine, write_snapshot
from repro.table.aggregates import MinAggregator, default_aggregator

N_DIMS = 4
CARD = 6

#: Appended before the requests run: codes past ``CARD`` on dims 0 and 2.
APPENDED = [[CARD, 1, 2, 3], [CARD + 1, 1, CARD, 0], [CARD + 1, 4, 2, 3]]

#: Account fields every tier reports identically; the rest are its
#: timing (``phases_us``), tier (``engine``, ``tier``, ``snapshot``,
#: index counters) or routing (``sharded``, ``routing``, ``shards``).
_NEUTRAL = ("op", "version", "cache_hit", "approx")

_OPS = ("point", "rollup", "drilldown", "slice", "dice")


def _table():
    table = correlated_table(
        300, N_DIMS, CARD, [FunctionalDependency((0,), (1,))], theta=1.1, seed=19
    )
    table.measures[:] = np.round(table.measures * 10)
    return table


def _script() -> list:
    """Singles and batches; a batch is a list of requests."""
    q = QueryRequest
    return [
        q(op="point", cell=[1, None, 2, None]),
        q(op="point", cell=[1, None, 2, None]),  # a cache hit
        q(op="point", bindings={"1": 3}),
        q(op="rollup", cell=[1, 2, None, None], dim=0),
        q(op="drilldown", cell=[None, 2, None, None], dim=0),  # along the shard dim
        q(op="drilldown", cell=[1, None, None, None], dim=3),
        q(op="slice", cell=[2, None, 1, None]),
        q(op="dice", predicates={"0": [0, 2, 2], "3": [1, 4]}),  # a repeated code
        q(op="dice", cell=[None, 1, None, None], predicates={"2": [0, 1, 5]}),
        q(op="dice", predicates={"1": [0, 1, 2]}, approx=True),
        q(op="dice", cell=[None, 1, None, None], predicates={"2": [2, 3]}, approx=True,
          confidence=0.9),
        q(op="dice", predicates={"3": [0, 1, 2, 3]}, approx=True, having=2),
        q(op="point", cell=[1, None, 2, None], version=7),  # a version conflict
        q(op="drilldown", cell=[0, None, None, None], dim=0),  # malformed
        q(op="point", cell=[2, None, None, 3], explain=True),
        q(op="slice", cell=[1, None, None, 2], explain=True),
        q(op="dice", predicates={"1": [0, 1, 2]}, approx=True, explain=True),  # hit
        q(op="dice", predicates={"2": [0, 3]}, approx=True, explain=True),
        q(op="drilldown", cell=[None, 1, 2, None], dim=0),  # appended codes
        q(op="slice", cell=[None, 1, None, 0]),  # appended codes on dims 0 and 2
        q(op="drilldown", cell=[CARD + 5, None, None, None], dim=1),  # no children
        [
            q(op="point", cell=[1, None, 2, None]),  # hit
            q(op="cube"),  # unknown op
            q(op="point", cell=[2, None, None, None], version=99),  # conflict
            q(op="point", cell=[3, None, None, 1]),
            q(op="point", cell=[None, None, None, None]),
            q(op="rollup", cell=[3, 1, None, 4], dim=3),
            q(op="drilldown", cell=[None, None, 2, None], dim=1),
            q(op="dice", predicates={"0": [4, 5]}),
            q(op="dice", predicates={"3": [2, 5], "1": [0, 4]}, approx=True),
            q(op="point", cell=[4, None, 0, None], explain=True),
        ],
    ]


def _neutral(response: dict) -> dict:
    out = dict(response)
    if "explain" in out:
        account = out["explain"]
        assert "phases_us" in account
        out["explain"] = {k: account[k] for k in _NEUTRAL if k in account}
    return out


def _run(engine) -> list:
    results = []
    for entry in _script():
        if isinstance(entry, list):
            results.append([_neutral(r) for r in engine.execute_batch(entry)])
            continue
        try:
            results.append(_neutral(engine.execute(entry)))
        except ServeError as exc:
            results.append(("error", exc.info.code, str(exc)))
    return results


def _served_counts() -> tuple:
    registry = get_registry()
    requests = registry.get("repro_requests_total")
    seconds = registry.get("repro_request_seconds")
    return (
        tuple(requests.value(op=op) for op in _OPS),
        tuple(seconds.value(op=op) for op in _OPS),
        registry.get("repro_query_batches_total").value(),
        registry.get("repro_query_batch_items_total").value(),
        registry.get("repro_batch_seconds").value(),
        registry.get("repro_approx_fallbacks_total").value(
            reason="unsupported-aggregator"
        ),
    )


@pytest.mark.parametrize("aggregator", ["sum", "min"])
def test_every_tier_answers_one_request_list_identically(aggregator, tmp_path):
    table = _table()
    agg = default_aggregator(1) if aggregator == "sum" else MinAggregator(0)
    previous = OBS_STATE.enabled
    set_enabled(True)
    resident = QueryEngine.from_table(table, aggregator=agg)
    router = ShardRouter.from_table(table, n_shards=2, aggregator=agg)
    try:
        measures = [[10.0 * (i + 1)] for i in range(len(APPENDED))]
        assert resident.append(APPENDED, measures) == router.append(APPENDED, measures) == 1
        # The resident engine serves its base plus the appended rows as a
        # row delta; the snapshot tier is one cube over every absorbed row.
        snap = resident.snapshot()
        assert snap.delta is not None and len(snap.delta) == len(APPENDED)
        path = write_snapshot(
            resident._cuber.cube(), tmp_path / "cube.snapshot", snap.schema,
            rows_absorbed=table.n_rows + len(APPENDED), engine_version=snap.version,
        )
        answers = {}
        counts = {}
        with SnapshotEngine(path) as mapped:
            for tier, engine in (
                ("resident", resident), ("snapshot", mapped), ("router", router)
            ):
                before = _served_counts()
                answers[tier] = _run(engine)
                after = _served_counts()
                counts[tier] = [
                    np.subtract(a, b).tolist() for a, b in zip(after, before)
                ]
        assert answers["snapshot"] == answers["resident"]
        assert answers["router"] == answers["resident"]
        drill, sliced, empty = answers["resident"][18:21]
        assert [c["cell"][0] for c in drill["children"]][-1] == CARD
        assert {c["cell"][0] for c in sliced["children"]} >= {CARD + 1}
        assert {c["cell"][2] for c in sliced["children"]} >= {CARD}
        assert empty["children"] == []
        # Routed requests and batches land in the same series as the
        # single engines' ...
        assert counts["router"] == counts["resident"] == counts["snapshot"]
        assert sum(counts["router"][0]) > 0 and counts["router"][2] == 1

        approx = [r for r in answers["router"][9:12] if isinstance(r, dict)]
        if aggregator == "min":
            # The router's approx fallback is the single engine's block.
            assert approx[0]["approx"] == {
                "fallback": True, "reason": "unsupported-aggregator"
            }
            assert answers["router"][11][0] == "error"  # having needs the sketch
            assert counts["router"][5] > 0
        else:
            assert len(approx) == 3
            assert all(r["approx"]["lower"] == r["approx"]["upper"] for r in approx)

        # ... and honour the global switch.
        set_enabled(False)
        before = _served_counts()
        router.execute(QueryRequest(op="point", cell=[5, None, None, None]))
        router.execute_batch([QueryRequest(op="point", cell=[5, 0, None, None])])
        assert _served_counts() == before
    finally:
        set_enabled(previous)
        router.close()
