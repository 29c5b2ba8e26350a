"""One oracle state machine for the resident engines' base ⊕ delta.

A :class:`~repro.serve.QueryEngine` serves the cube it emitted last (the
*base*) plus a row delta of the rows appended since, and re-emits only
when the delta crosses the compaction threshold.  This machine drives
three engines through the same appends — a resident engine, an iceberg
engine (``min_support=2``, which compacts on every append) and one
opened from a ``CubeStore(format="snapshot")``, whose base is a mapped
snapshot until its first compaction — and after every step checks
point, roll-up, drill-down, slice and dice answers against
:func:`repro.cube.full_cube.compute_full_cube` over every row sent.

The steps cover both absorb paths around ``BULK_ABSORB_THRESHOLD``
(codes past the cardinality included), a batch big enough to compact,
and a code drift that forces a replan.  Measures are integer-valued, so
SUM compares with ``==``.  Every answer the result cache carried over an
append must equal a fresh miss, and an approx dice over a sketch that
holds the whole population must contain the truth without a fallback,
with and without a ``having`` filter.
"""

import shutil
import tempfile

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.incremental import BULK_ABSORB_THRESHOLD
from repro.cube.full_cube import compute_full_cube
from repro.serve import CubeStore, QueryEngine, QueryRequest
from repro.serve.cache import LRUCache
from repro.serve.engine import COMPACT_FRACTION

from tests.conftest import make_encoded_table

N_DIMS = 3
CARD = 4
#: Query cells draw codes up to here: past every appended code, so some
#: cells have no rows at all.
QUERY_CODES = CARD + 4
BASE_ROWS = 60


def _rows(rng: np.random.Generator, n: int, high: int) -> tuple[list, list]:
    codes = rng.integers(0, high, size=(n, N_DIMS)).tolist()
    measures = [[float(v)] for v in rng.integers(0, 50, size=n).tolist()]
    return codes, measures


class DeltaOracle(RuleBasedStateMachine):
    """Appends, compactions and replans against the full-cube oracle."""

    @initialize(seed=st.integers(0, 2**16))
    def build(self, seed):
        rng = np.random.default_rng(seed)
        codes, measures = _rows(rng, BASE_ROWS, CARD)
        self.codes, self.measures = codes, measures
        table = make_encoded_table(codes, measures=np.asarray(measures))
        self.root = tempfile.mkdtemp(prefix="delta-oracle-")
        store = CubeStore(self.root, format="snapshot")
        store.create("cube", table)
        self.engines = {
            "resident": QueryEngine.from_table(table),
            "iceberg": QueryEngine.from_table(table, min_support=2),
            "snapshot": store.open_engine("cube"),
        }
        self.seed = seed
        self.sent: dict[str, list] = {name: [] for name in self.engines}
        self.carried = 0

    def teardown(self):
        shutil.rmtree(getattr(self, "root", ""), ignore_errors=True)

    # -- steps -----------------------------------------------------------

    def _append(self, codes: list, measures: list) -> None:
        self.codes += codes
        self.measures += measures
        oracles = self._oracles()
        for name, engine in self.engines.items():
            version = engine.version
            assert engine.append(codes, measures) == version + 1
            self._check_carried(name, engine, oracles[engine.stats()["min_support"]])

    @rule(n=st.integers(1, 80), seed=st.integers(0, 2**16))
    def append_batch(self, n, seed):
        """Either absorb path: below and above ``BULK_ABSORB_THRESHOLD``."""
        assert 1 < BULK_ABSORB_THRESHOLD < 80
        self.seed = seed
        self._append(*_rows(np.random.default_rng(seed), n, CARD + 2))

    @rule(seed=st.integers(0, 2**16))
    def append_to_compact(self, seed):
        """A batch past the compaction threshold of any base so far."""
        self.seed = seed
        before = {name: e.stats()["compactions"] for name, e in self.engines.items()}
        n = int(COMPACT_FRACTION * len(self.codes)) + 1
        self._append(*_rows(np.random.default_rng(seed), n, CARD))
        for name, engine in self.engines.items():
            assert engine.stats()["compactions"] == before[name] + 1
            assert engine.stats()["delta_rows"] == 0

    @rule(seed=st.integers(0, 2**16))
    def drift(self, seed):
        """Codes far past the planned cardinality on dimension 0: a replan."""
        self.seed = seed
        rng = np.random.default_rng(seed)
        seen = {row[0] for row in self.codes}
        codes, measures = _rows(rng, len(seen) + 1, CARD)
        for i, row in enumerate(codes):
            row[0] = max(seen) + 1 + i  # more than doubles the distinct codes
        replans = self.engines["resident"].stats()["tuning"]["replans"]
        self._append(codes, measures)
        assert self.engines["resident"].stats()["tuning"]["replans"] == replans + 1

    # -- the oracle ------------------------------------------------------

    def _oracles(self) -> dict:
        """``min_support -> (full cube, its cells grouped by cuboid mask)``."""
        table = make_encoded_table(self.codes, measures=np.asarray(self.measures))
        out = {}
        for min_support in (1, 2):
            full = compute_full_cube(table, min_support=min_support)
            by_mask: dict = {}
            for cell, state in full.cells():
                mask = frozenset(d for d in range(N_DIMS) if cell[d] is not None)
                by_mask.setdefault(mask, []).append((cell, state))
            out[min_support] = (full, by_mask)
        return out

    def _expected(self, oracle, request: QueryRequest):
        full, by_mask = oracle
        cell = list(request.cell or [None] * N_DIMS)
        if request.op == "point":
            return full.value(tuple(cell))
        if request.op == "rollup":
            cell[request.dim] = None
            return full.value(tuple(cell))
        if request.op in ("drilldown", "slice"):
            dims = (
                [request.dim] if request.op == "drilldown"
                else [d for d in range(N_DIMS) if cell[d] is None]
            )
            children = []
            for dim in dims:
                for code in sorted({row[dim] for row in self.codes}):
                    child = cell[:dim] + [code] + cell[dim + 1:]
                    value = full.value(tuple(child))
                    if value is not None:
                        children.append({"cell": child, "value": value})
            return children
        predicates = {int(d): set(codes) for d, codes in request.predicates.items()}
        mask = frozenset(d for d in range(N_DIMS) if cell[d] is not None) | set(predicates)
        states = [
            state for c, state in by_mask.get(mask, ())
            if all(cell[d] is None or c[d] == cell[d] for d in range(N_DIMS))
            and all(c[d] in codes for d, codes in predicates.items())
        ]
        state = full.aggregator.merge_many(states)
        return None if state is None else full.aggregator.finalize(state)

    def _requests(self) -> list[QueryRequest]:
        rng = np.random.default_rng(self.seed)
        appended = self.codes[BASE_ROWS:]
        out = []
        for i in range(12):
            # Half the cells come from appended rows, so they bind codes
            # only the delta holds; the rest may have no rows at all.
            if appended and i % 2:
                row = appended[int(rng.integers(len(appended)))]
                cell = [v if rng.random() < 0.6 else None for v in row]
            else:
                cell = [
                    int(v) if rng.random() < 0.5 else None
                    for v in rng.integers(0, QUERY_CODES, size=N_DIMS)
                ]
            bound = [d for d in range(N_DIMS) if cell[d] is not None]
            free = [d for d in range(N_DIMS) if cell[d] is None]
            out.append(QueryRequest(op="point", cell=cell))
            if bound:
                out.append(QueryRequest(op="rollup", cell=cell, dim=bound[0]))
            if free:
                out.append(QueryRequest(op="drilldown", cell=cell, dim=free[-1]))
                out.append(QueryRequest(op="slice", cell=cell))
                codes = sorted({int(v) for v in rng.integers(0, QUERY_CODES, size=3)})
                predicates = {str(free[0]): codes}
                out.append(QueryRequest(op="dice", cell=cell, predicates=predicates))
        return out

    @staticmethod
    def _answer(response: dict):
        return response["value"] if "value" in response else response["children"]

    def _check_carried(self, name: str, engine, oracle) -> None:
        """Answers cached before the append and carried over equal fresh misses."""
        for request in self.sent[name]:
            response = engine.execute(request)
            if not response["cached"]:
                continue
            self.carried += 1
            cache, engine.cache = engine.cache, LRUCache(0)
            try:
                fresh = engine.execute(request)
            finally:
                engine.cache = cache
            assert dict(response, cached=False) == fresh
            assert self._answer(response) == self._expected(oracle, request), (name, request)
        self.sent[name] = []

    @invariant()
    def answers_equal_the_full_cube(self):
        if not hasattr(self, "engines"):
            return
        requests = self._requests()
        oracles = self._oracles()
        for name, engine in self.engines.items():
            oracle = oracles[engine.stats()["min_support"]]
            for request in requests:
                response = engine.execute(request)
                assert response["version"] == engine.version
                assert self._answer(response) == self._expected(oracle, request), (
                    name, request, response,
                )
            self.sent[name] = requests

    @invariant()
    def approx_dice_contains_the_truth(self):
        if not hasattr(self, "engines"):
            return
        oracle = self._oracles()[1]
        full, by_mask = oracle
        finest = by_mask.get(frozenset(range(N_DIMS)), [])
        rng = np.random.default_rng(self.seed + 1)
        for i in range(4):
            dim = int(rng.integers(N_DIMS))
            codes = sorted({int(v) for v in rng.integers(0, QUERY_CODES, size=3)})
            # Every other dice keeps only finest cells of count >= 2: a
            # cell may clear that only with the delta's rows added.
            having = 2 if i % 2 else None
            request = QueryRequest(
                op="dice", predicates={str(dim): codes}, approx=True, having=having
            )
            if having is None:
                truth = self._expected(oracle, request)
            else:
                state = full.aggregator.merge_many([
                    state for cell, state in finest
                    if cell[dim] in codes and state[0] >= having
                ])
                truth = None if state is None else full.aggregator.finalize(state)
            truth = truth or {"count": 0, "sum": 0.0}
            for name in ("resident", "snapshot"):
                block = self.engines[name].execute(request)["approx"]
                assert "fallback" not in block, (name, block)
                for key, value in truth.items():
                    assert block["lower"][key] - 1e-6 <= value <= block["upper"][key] + 1e-6


DeltaOracle.TestCase.settings = settings(
    max_examples=12,
    stateful_step_count=6,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
TestDeltaOracle = DeltaOracle.TestCase
