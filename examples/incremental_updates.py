"""Incremental cube maintenance: absorbing daily fact loads.

A warehouse rarely recomputes its cube from scratch — facts arrive in
batches.  Because the range trie is invariant to insertion order, a
resident :class:`~repro.core.incremental.IncrementalRangeCuber` absorbs
each day's load and re-emits the range cube on demand, and the result is
the same range cube as a full recompute over the whole history.  This
script simulates a week of loads, refreshes after each, verifies the
refresh against a batch recompute, and reports how the amortized refresh
cost compares.

The recompute keeps the as-is dimension order (``dim_order=None``), as
the cuber does: the default ``"auto"`` planner may pick another order,
and so another, equally valid, decomposition into ranges.  Cells, range
counts and COUNTs match exactly.  SUMs match to rounding only: the two
builds add the same measure values in different orders — the
summation-order caveat the tuning tests carry, and an open float
determinism item in ROADMAP.md.

Run:  python examples/incremental_updates.py
"""

import math
import time

import numpy as np

from repro.core.incremental import IncrementalRangeCuber
from repro.core.range_cubing import range_cubing
from repro.data.synthetic import zipf_table
from repro.table.base_table import BaseTable

N_DAYS = 7
ROWS_PER_DAY = 800
N_DIMS = 5
CARDINALITY = 40


def daily_batches():
    """One skewed fact batch per day (different seed per day)."""
    for day in range(N_DAYS):
        yield zipf_table(ROWS_PER_DAY, N_DIMS, CARDINALITY, theta=1.2, seed=100 + day)


def concatenate(tables):
    first = tables[0]
    codes = np.concatenate([t.dim_codes for t in tables])
    measures = np.concatenate([t.measures for t in tables])
    return BaseTable(first.schema, codes, measures)


def assert_same_cube(incremental, batch) -> None:
    """Same cells, ranges and COUNTs; other components equal to rounding."""
    assert incremental.n_ranges == batch.n_ranges
    got, want = dict(incremental.expand()), dict(batch.expand())
    assert got.keys() == want.keys()
    for cell, state in want.items():
        other = got[cell]
        assert other[0] == state[0], cell
        assert all(
            math.isclose(a, b, rel_tol=1e-12) for a, b in zip(other[1:], state[1:])
        ), cell


def main() -> None:
    cuber = IncrementalRangeCuber(N_DIMS)
    history = []
    print(f"{'day':>4}  {'rows total':>10}  {'trie nodes':>10}  "
          f"{'refresh (s)':>11}  {'batch recompute (s)':>19}")
    for day, batch in enumerate(daily_batches(), start=1):
        history.append(batch)

        start = time.perf_counter()
        cuber.insert_table(batch)
        cube = cuber.cube()
        refresh_seconds = time.perf_counter() - start

        start = time.perf_counter()
        batch_cube = range_cubing(concatenate(history), dim_order=None)
        batch_seconds = time.perf_counter() - start

        assert_same_cube(cube, batch_cube)

        print(f"{day:>4}  {cuber.n_rows_absorbed:>10,}  {cuber.trie_nodes:>10,}  "
              f"{refresh_seconds:>11.3f}  {batch_seconds:>19.3f}")

    print("\nevery refresh verified against a from-scratch recompute")
    print("(same cells, ranges and COUNTs; SUMs equal to rounding);")
    print("the incremental path only pays insertion for the new batch plus")
    print("the traversal, while the batch path re-inserts the whole history.")


if __name__ == "__main__":
    main()
