"""Seeded inputs: correlated fact rows, the read pool and the append batches.

Everything the benchmark sends to the program is generated here from the
``--seed`` argument, so a change to the program's own generators
(``repro.data``, ``repro.serve.workload``) changes neither what is
measured nor how it is checked.

The fact table has the shape of the repository's ``BENCH_*`` files:
8 dimensions of cardinality 100, Zipf skew 1.5 on every dimension, and
two functional dependencies, ``d0 -> {d1, d2}`` (a store determining
city-like attributes) and ``d4 -> {d5, d6, d7}`` (a station determining
its coordinates).  Correlation is what range cubing exploits (paper
Section 1), so it is what every phase runs on.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

N_DIMS = 8
CARDINALITY = 100
THETA = 1.5
FDS = ((0, (1, 2)), (4, (5, 6, 7)))

#: Read mix: the default ``repro workload`` weights (point .70, rollup
#: .15, drilldown .10, slice .05) plus a dice share.  The repository has
#: no production trace, so the dice weight is an assumption.
MIX = {"point": 0.70, "rollup": 0.15, "drilldown": 0.10, "slice": 0.05, "dice": 0.10}

#: Zipf skew of query popularity over the pool (the ``repro workload``
#: default).
QUERY_THETA = 1.1

#: Rows per append batch: at least ``BULK_ABSORB_THRESHOLD`` (64), so
#: every batch takes the bulk-absorb path.
APPEND_ROWS = 256


def zipf_weights(n: int, theta: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** theta
    return weights / weights.sum()


#: Seeds the fact tables: value popularity orders, dependency maps, and
#: the rows of the build table and of the ingest base.  They stay the same
#: for every ``--seed``, which draws the reads, the appended rows and the
#: checker's samples.  Drawn per seed, the tables would differ in cube
#: size by several percent and in the dimension order the planner picks
#: from its row sample (identity on some seeds, one of several orders on
#: others), and those differences would swamp every run-to-run comparison.
WORLD_SEED = 20040330


class FactSource:
    """Correlated fact rows in raw values, from one fixed distribution.

    The base table and every append batch come from the same value
    popularity orders and dependency maps.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._p = zipf_weights(CARDINALITY, THETA)
        self._perm = [rng.permutation(CARDINALITY) for _ in range(N_DIMS)]
        self._fd_maps = {
            target: rng.integers(0, CARDINALITY, size=CARDINALITY)
            for _, targets in FDS
            for target in targets
        }

    def draw(self, n_rows: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """``n_rows`` raw rows ``(n, N_DIMS)`` and their one measure column."""
        raw = np.empty((n_rows, N_DIMS), dtype=np.int64)
        for d in range(N_DIMS):
            raw[:, d] = self._perm[d][rng.choice(CARDINALITY, size=n_rows, p=self._p)]
        for source, targets in FDS:
            for target in targets:
                raw[:, target] = self._fd_maps[target][raw[:, source]]
        measures = rng.uniform(1.0, 100.0, size=n_rows).round(2)
        return raw, measures


class ServedCodes:
    """Raw value -> the integer code the server uses for it.

    ``read_table_csv`` dictionary-encodes every dimension by first
    appearance down its column; appended rows travel as codes, and a raw
    value the server has not seen yet gets the next free code.  The
    checker works in these codes, exactly like the server.
    """

    def __init__(self) -> None:
        self._lut = np.full((N_DIMS, CARDINALITY), -1, dtype=np.int64)
        self._next = [0] * N_DIMS

    def encode(self, raw: np.ndarray) -> np.ndarray:
        codes = np.empty_like(raw)
        for d in range(N_DIMS):
            column = raw[:, d]
            lut = self._lut[d]
            _, first = np.unique(column, return_index=True)
            for value in column[np.sort(first)].tolist():
                if lut[value] < 0:
                    lut[value] = self._next[d]
                    self._next[d] += 1
            codes[:, d] = lut[column]
        return codes


def write_csv(path: Path, raw: np.ndarray, measures: np.ndarray) -> None:
    """Header-first CSV in raw values: what ``repro serve`` and ``read_table_csv`` read."""
    header = ",".join([f"d{i}" for i in range(N_DIMS)] + ["m0"])
    data = np.column_stack([raw.astype(np.float64), measures])
    # "%.2f" round-trips the 2-decimal measures to the same doubles.
    np.savetxt(
        path, data, fmt=["%d"] * N_DIMS + ["%.2f"], delimiter=",",
        header=header, comments="",
    )


def _bind(row: list[int], dims) -> list:
    cell: list = [None] * N_DIMS
    for d in dims:
        cell[d] = row[d]
    return cell


def _subset(rng: np.random.Generator, items, k: int) -> list[int]:
    """``k`` distinct elements of ``items`` (a sequence or ``range(n)`` bound)."""
    return rng.permutation(items)[:k].tolist()


def _request(op: str, codes: np.ndarray, cards: list[int], rng: np.random.Generator) -> dict:
    """One read in wire shape, its bound values drawn from a real fact row."""
    row = codes[int(rng.integers(len(codes)))].tolist()
    if op in ("point", "rollup"):
        bound = _subset(rng, N_DIMS, int(rng.integers(1, 4)))
        request = {"op": op, "cell": _bind(row, bound)}
        if op == "rollup":
            request["dim"] = bound[int(rng.integers(len(bound)))]
        return request
    if op == "drilldown":
        bound = _subset(rng, N_DIMS, int(rng.integers(0, 3)))
        free = [d for d in range(N_DIMS) if d not in bound]
        return {"op": op, "cell": _bind(row, bound), "dim": free[int(rng.integers(len(free)))]}
    if op == "slice":
        # One free dimension, as ``repro workload`` builds its slices.
        bound = _subset(rng, N_DIMS, N_DIMS - 1)
        return {"op": op, "cell": _bind(row, bound)}
    bound = _subset(rng, N_DIMS, int(rng.integers(0, 2)))
    free = [d for d in range(N_DIMS) if d not in bound]
    predicates = {}
    for d in _subset(rng, free, int(rng.integers(1, 3))):
        values = {row[d]}
        values.update(_subset(rng, cards[d], int(rng.integers(1, 4))))
        predicates[str(d)] = sorted(values)
    return {"op": "dice", "cell": _bind(row, bound), "predicates": predicates}


def make_pool(codes: np.ndarray, size: int, rng: np.random.Generator) -> list[dict]:
    """``size`` distinct reads over the served codes of ``codes``."""
    cards = [int(codes[:, d].max()) + 1 for d in range(N_DIMS)]
    ops = list(MIX)
    probs = np.array([MIX[op] for op in ops])
    probs /= probs.sum()
    pool: list[dict] = []
    seen: set = set()
    while len(pool) < size:
        for op in rng.choice(len(ops), size=size - len(pool), p=probs).tolist():
            request = _request(ops[op], codes, cards, rng)
            key = repr(sorted(request.items()))
            if key not in seen:
                seen.add(key)
                pool.append(request)
    return pool


def shape_cover(pool: list[dict]) -> list[int]:
    """One pool index per distinct cuboid a drill-down, slice or dice reaches.

    Those reads build a per-cuboid structure on first touch (a cuboid map
    or a cuboid's range ids) and reuse it afterwards; a warm-up that
    sends one of each leaves none to be built during the timed reads.
    """
    first: dict = {}
    for index, request in enumerate(pool):
        bound = {d for d, v in enumerate(request["cell"]) if v is not None}
        if request["op"] == "drilldown":
            bound.add(request["dim"])
        elif request["op"] == "slice":
            bound = set(range(N_DIMS))
        elif request["op"] == "dice":
            bound.update(int(d) for d in request["predicates"])
        else:
            continue
        first.setdefault((request["op"], frozenset(bound)), index)
    return sorted(first.values())


def read_sequence(pool_size: int, length: int, rng: np.random.Generator) -> np.ndarray:
    """Pool indices in request order: Zipf popularity over a shuffled pool."""
    ranks = rng.permutation(pool_size)
    return ranks[rng.choice(pool_size, size=length, p=zipf_weights(pool_size, QUERY_THETA))]


def apex_read() -> dict:
    """The read sent first after every append: the grand total."""
    return {"op": "point", "cell": [None] * N_DIMS}
