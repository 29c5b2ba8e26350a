"""Incremental range-cube maintenance.

The range trie is built by one-tuple-at-a-time insertion and is invariant
to insertion order (paper Section 3.1), which makes it a natural vehicle
for incremental cube maintenance: keep the trie resident, append new fact
batches into it, and re-emit the range cube on demand.  Because the trie
after ``insert(batch2)`` is *identical* to the trie built from
``batch1 + batch2`` in one load, the incrementally maintained cube equals
the batch-recomputed cube exactly — a property the test suite checks
structurally.

This addresses the maintenance question the original leaves open: the
expensive part of range cubing (trie construction over the full history)
is amortized across loads, and only the traversal (proportional to the
*output*, not the input) is paid per refresh.

Batch absorption rides the same canonicality: a large batch is built
into its own trie with the vectorized sort-based bulk builder
(:meth:`~repro.core.range_trie.RangeTrie.bulk_build_arrays`) and fused
into the resident trie with the canonical merge of
:func:`repro.core.partitioned.merge_tries` — identical, node for node, to
having inserted the batch row by row.  Small batches (and the streaming
:meth:`IncrementalRangeCuber.insert_row` path) keep using Algorithm 1
directly, where the bulk path's sort/merge setup would cost more than it
saves.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.range_cube import RangeCube
from repro.core.range_cubing import _restore, _traverse
from repro.core.range_trie import RangeTrie
from repro.obs import get_registry, get_tracer
from repro.table.aggregates import Aggregator, default_aggregator
from repro.table.base_table import BaseTable
from repro.tune import REPLAN_DRIFT_FACTOR, TuningPlan, plan_codes, record_replan

_TRACER = get_tracer()
_REGISTRY = get_registry()
_ABSORB_BATCHES = _REGISTRY.counter(
    "repro_absorb_batches_total",
    "Fact batches absorbed into resident tries, by construction path.",
    ("path",),
)
_ABSORB_ROWS = _REGISTRY.counter(
    "repro_absorb_rows_total",
    "Fact rows absorbed into resident tries, by construction path.",
    ("path",),
)

#: Batches with at least this many rows absorb through the bulk builder
#: plus a canonical trie merge; smaller ones insert tuple-at-a-time
#: (the lexsort + merge setup only pays for itself on real batches).
BULK_ABSORB_THRESHOLD = 64


def range_cubing_from_trie(
    trie: RangeTrie,
    min_support: int = 1,
) -> RangeCube:
    """Emit the range cube of an already-built trie (traversal only).

    The trie is not modified (Algorithm 2's reductions are
    non-destructive), so it can keep absorbing inserts afterwards.
    """
    columns = _traverse(trie, trie.aggregator, min_support)
    return RangeCube(trie.n_dims, trie.aggregator, columns=columns)


class IncrementalRangeCuber:
    """A resident range trie that absorbs fact batches and re-emits cubes.

    >>> cuber = IncrementalRangeCuber(schema.n_dims)      # doctest: +SKIP
    >>> cuber.insert_table(monday_facts)                  # doctest: +SKIP
    >>> cube = cuber.cube()                               # doctest: +SKIP
    >>> cuber.insert_table(tuesday_facts)                 # doctest: +SKIP
    >>> cube = cuber.cube()     # == batch recompute over both days
    """

    def __init__(
        self,
        n_dims: int,
        aggregator: Aggregator | None = None,
        *,
        plan: TuningPlan | None = None,
    ) -> None:
        self.aggregator = aggregator or default_aggregator(1)
        self.trie = RangeTrie(n_dims, self.aggregator)
        self.n_rows_absorbed = 0
        self.replan_count = 0
        if plan is not None and plan.n_dims != n_dims:
            raise ValueError(
                f"plan covers {plan.n_dims} dims, cuber expects {n_dims}"
            )
        self.plan = plan
        # Per-dimension distinct codes observed since the plan was made,
        # tracked in *original* space (only maintained when a plan is
        # active — it feeds the drift check in maybe_replan()).
        self._observed: list[set] | None = (
            [set() for _ in range(n_dims)] if plan is not None else None
        )

    # -- tuning plan ------------------------------------------------------

    def _note_codes(self, dim_codes: np.ndarray) -> None:
        if self._observed is None:
            return
        for d, seen in enumerate(self._observed):
            seen.update(np.unique(dim_codes[:, d]).tolist())

    def _note_row(self, row: Sequence[int]) -> None:
        if self._observed is None:
            return
        for d, seen in enumerate(self._observed):
            seen.add(int(row[d]))

    def drifted_dims(self, factor: float = REPLAN_DRIFT_FACTOR) -> list[int]:
        """Original dims whose observed distinct count outgrew the plan's
        sampled estimate by more than ``factor`` (empty without a plan)."""
        if self.plan is None or self._observed is None:
            return []
        planned = {s["dim"]: s["distinct"] for s in self.plan.dim_stats}
        return [
            d
            for d, seen in enumerate(self._observed)
            if planned.get(d, 0) > 0 and len(seen) > factor * planned[d]
        ]

    def maybe_replan(self, factor: float = REPLAN_DRIFT_FACTOR) -> bool:
        """Re-plan (and rebuild the resident trie) on cardinality drift.

        Cheap when nothing drifted: one distinct-count comparison per
        dimension.  Returns whether a re-plan happened.
        """
        if not self.drifted_dims(factor):
            return False
        self.replan()
        return True

    def replan(self) -> TuningPlan:
        """Re-run the planner over the absorbed data and rebuild the trie.

        The resident trie's leaves are a lossless summary of everything
        absorbed (one leaf per distinct fact row, with its aggregate
        state), so the rebuild replays leaf assignments — mapped back to
        original space through the old plan, then forward through the
        new one — without touching the raw history.  The planner sees
        the distinct rows rather than the raw multiset; for the trie
        (whose shape depends only on distinct rows) that is exactly the
        right input.
        """
        if self.plan is None:
            raise ValueError("replan() requires a cuber built with a tuning plan")
        old_plan = self.plan
        leaves = [
            (dict(old_plan.original_assignment(assignment)), state)
            for assignment, state in self.trie.leaf_assignments()
        ]
        n_dims = self.trie.n_dims
        if leaves:
            codes = np.array(
                [[row[d] for d in range(n_dims)] for row, _ in leaves],
                dtype=np.int64,
            )
        else:
            codes = np.zeros((0, n_dims), dtype=np.int64)
        new_plan = plan_codes(codes, value_reorder=bool(old_plan.value_orders))
        rebuilt = RangeTrie(n_dims, self.aggregator)
        for row, state in leaves:
            pairs = [
                (pos, new_plan.tuned_value(old_dim, row[old_dim]))
                for pos, old_dim in enumerate(new_plan.dim_order)
            ]
            rebuilt.insert_assignment(pairs, state)
        self.trie = rebuilt
        self.plan = new_plan
        self._observed = [set() for _ in range(n_dims)]
        self._note_codes(codes)
        self.replan_count += 1
        record_replan()
        return new_plan

    def insert_table(self, table: BaseTable, *, build_strategy: str = "auto") -> None:
        """Absorb every row of ``table`` (schema must match in arity).

        ``build_strategy``: ``"auto"`` (the default) bulk-builds batches of
        at least :data:`BULK_ABSORB_THRESHOLD` rows and streams smaller
        ones; ``"bulk"`` / ``"tuple"`` force one path.  The resident trie
        is canonical either way.
        """
        if table.n_dims != self.trie.n_dims:
            raise ValueError(
                f"table has {table.n_dims} dims, cuber expects {self.trie.n_dims}"
            )
        if build_strategy not in ("auto", "bulk", "tuple"):
            raise ValueError(
                f"unknown build_strategy {build_strategy!r}; "
                "expected 'auto', 'bulk' or 'tuple'"
            )
        if table.n_rows == 0:
            return
        bulk = build_strategy == "bulk" or (
            build_strategy == "auto" and table.n_rows >= BULK_ABSORB_THRESHOLD
        )
        path = "bulk" if bulk else "tuple"
        with _TRACER.span("absorb_batch", rows=table.n_rows, path=path):
            self._note_codes(table.dim_codes)
            if bulk:
                codes = table.dim_codes
                if self.plan is not None:
                    codes = self.plan.transform_codes(codes)
                self._absorb_arrays(codes, table.measures)
            else:
                state_from_row = self.aggregator.state_from_row
                dims = range(table.n_dims)
                plan = self.plan
                for row, measures in zip(table.dim_rows(), table.measure_rows()):
                    if plan is not None:
                        row = plan.transform_row(row)
                    pairs = [(d, row[d]) for d in dims]
                    self.trie._insert(row.__getitem__, pairs, state_from_row(measures))
        _ABSORB_BATCHES.inc(path=path)
        _ABSORB_ROWS.inc(table.n_rows, path=path)
        self.n_rows_absorbed += table.n_rows

    def insert_batch(
        self,
        rows: Sequence[Sequence[int]],
        measures: Sequence[Sequence[float]] | None = None,
        *,
        build_strategy: str = "auto",
    ) -> None:
        """Absorb a batch of encoded fact rows (the serving append path).

        Same strategy selection as :meth:`insert_table`; ``measures``
        defaults to zero measure columns (COUNT-only aggregators).
        """
        n_rows = len(rows)
        if n_rows == 0:
            return
        if build_strategy not in ("auto", "bulk", "tuple"):
            raise ValueError(
                f"unknown build_strategy {build_strategy!r}; "
                "expected 'auto', 'bulk' or 'tuple'"
            )
        if build_strategy == "tuple" or (
            build_strategy == "auto" and n_rows < BULK_ABSORB_THRESHOLD
        ):
            if measures is None:
                measures = [()] * n_rows
            with _TRACER.span("absorb_batch", rows=n_rows, path="tuple"):
                for row, meas in zip(rows, measures):
                    self.insert_row(row, meas)
            _ABSORB_BATCHES.inc(path="tuple")
            _ABSORB_ROWS.inc(n_rows, path="tuple")
            return
        with _TRACER.span("absorb_batch", rows=n_rows, path="bulk"):
            codes = np.asarray(rows, dtype=np.int64).reshape(n_rows, self.trie.n_dims)
            self._note_codes(codes)
            if self.plan is not None:
                codes = self.plan.transform_codes(codes)
            if measures is None:
                meas = np.zeros((n_rows, 0), dtype=np.float64)
            else:
                meas = np.asarray(measures, dtype=np.float64).reshape(n_rows, -1)
            self._absorb_arrays(codes, meas)
        _ABSORB_BATCHES.inc(path="bulk")
        _ABSORB_ROWS.inc(n_rows, path="bulk")
        self.n_rows_absorbed += n_rows

    def _absorb_arrays(self, dim_codes: np.ndarray, measures: np.ndarray) -> None:
        """Bulk-build the batch's trie and fuse it into the resident one.

        The merge consumes both inputs (the result shares their untouched
        sub-tries), which is exactly the resident-trie lifecycle: the old
        trie reference is dropped on assignment.
        """
        from repro.core.partitioned import merge_tries

        batch = RangeTrie.bulk_build_arrays(
            self.trie.n_dims, dim_codes, measures, self.aggregator
        )
        if self.trie.root.agg is None:
            self.trie = batch
        else:
            self.trie = merge_tries([self.trie, batch])

    def insert_row(self, row: Sequence[int], measures: Sequence[float] = ()) -> None:
        """Absorb a single encoded fact row (original-space codes)."""
        if len(row) != self.trie.n_dims:
            raise ValueError(
                f"row has {len(row)} dims, cuber expects {self.trie.n_dims}"
            )
        self._note_row(row)
        if self.plan is not None:
            row = self.plan.transform_row(row)
        pairs = [(d, row[d]) for d in range(len(row))]
        self.trie._insert(
            tuple(row).__getitem__, pairs, self.aggregator.state_from_row(measures)
        )
        self.n_rows_absorbed += 1

    def cube(self, min_support: int = 1) -> RangeCube:
        """The range cube over everything absorbed so far.

        Always expressed in original dimension order and value coding:
        when a tuning plan is active the traversal runs in planned trie
        space and the emitted columns are restored through the plan's
        inverse maps.
        """
        columns = _traverse(self.trie, self.aggregator, min_support)
        columns = _restore(columns, self.plan, None)
        return RangeCube(self.trie.n_dims, self.aggregator, columns=columns)

    @property
    def trie_nodes(self) -> int:
        return self.trie.n_nodes()
