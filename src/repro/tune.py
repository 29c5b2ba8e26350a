"""Self-tuning dimension order and attribute-value reordering.

The paper's experiments (and ``bench_ablation_dimorder``) show multi-x
spread in range-cube build time between static dimension orders, and the
best order depends on how the table's correlations line up with the trie:
a dimension that is functionally determined by dimensions *earlier* in
the order never creates trie levels (the bulk builder folds it into node
keys), while the same dimension placed first fans the trie out for
nothing.  In the spirit of Kaser & Lemire ("Attribute Value Reordering
for Efficient Hybrid OLAP"), this module adds a sampling-based planner
that picks the order automatically:

1. draw a bounded, deterministic reservoir of the table (strided, at
   most ``sample_rows`` rows);
2. estimate per-dimension cardinality and skew, plus the joint distinct
   counts that expose correlation, from the reservoir;
3. generate a small **candidate set** of orders — the static
   cardinality-descending / ascending / as-is orders and two greedy
   correlation-aware refinements — and score each with a cost model that
   simulates the bulk builder's per-level work (rows scanned in
   non-singleton groups, skipping dimensions that are constant within
   their group, plus a per-node creation charge);
4. emit a :class:`TuningPlan` holding the winning order and (optionally)
   per-dimension value permutations that cluster co-occurring values
   into contiguous runs.

Because the static orders are themselves candidates, the chosen plan is
never worse than the best static order *as measured by the cost model*;
the committed ``BENCH_dimorder.json`` gate verifies this holds for real
build times too.  A plan only describes how the trie is built — emitted
ranges are always restored to the table's original dimension order and
value coding, so a tuned build answers every query identically to an
untuned one: the same cells, the same counts, and float sums equal up
to summation-order rounding (a different trie order adds the same
addends in a different order).
"""

from __future__ import annotations

import time
from typing import Iterator, Sequence

import numpy as np

from repro.obs import get_registry, get_tracer

#: Default reservoir bound: planning cost is O(sample · n_dims²) and
#: independent of the table size beyond this many rows.
DEFAULT_SAMPLE_ROWS = 4096

#: Cost-model charge (in row-equivalents) per trie node created; biases
#: the planner away from orders that explode interior fan-out early.
NODE_COST = 4.0

#: Drift threshold for serving-path re-planning: a dimension whose
#: observed distinct count exceeds the planned estimate by this factor
#: marks the plan stale (see ``IncrementalRangeCuber.maybe_replan``).
REPLAN_DRIFT_FACTOR = 1.5

_TRACER = get_tracer()
_REGISTRY = get_registry()
_PLANS = _REGISTRY.counter(
    "repro_tune_plans_total",
    "Tuning plans computed, by the candidate order that won.",
    ("source",),
)
_PLAN_SECONDS = _REGISTRY.histogram(
    "repro_tune_plan_seconds", "Wall-clock seconds spent planning."
)
_SAMPLE_ROWS = _REGISTRY.counter(
    "repro_tune_sample_rows_total", "Rows drawn into planner reservoirs."
)
_REPLANS = _REGISTRY.counter(
    "repro_tune_replans_total",
    "Serving-path re-plans, by what triggered them.",
    ("trigger",),
)


def _reservoir(codes: np.ndarray, sample_rows: int) -> np.ndarray:
    """A deterministic strided sample of at most ``sample_rows`` rows."""
    n = codes.shape[0]
    if n <= sample_rows:
        return codes
    picks = np.unique(np.linspace(0, n - 1, sample_rows).astype(np.intp))
    return codes[picks]


def _greedy_order(sample: np.ndarray, maximize: bool) -> tuple[int, ...]:
    """Greedy joint-distinct ordering over the reservoir.

    ``maximize=True`` picks, at each step, the dimension whose addition
    to the chosen prefix yields the *most* distinct prefixes — a
    correlation-aware refinement of cardinality-descending: a dimension
    determined by the prefix adds no distincts and sinks below its
    determinants.  ``maximize=False`` is the mirror image (determinants
    first, maximal folding of the dimensions they determine).
    """
    n_dims = sample.shape[1]
    remaining = list(range(n_dims))
    order: list[int] = []
    gid = np.zeros(len(sample), dtype=np.int64)
    while remaining:
        best: tuple[tuple, int] | None = None
        for c in remaining:
            col = sample[:, c]
            base = int(col.max()) + 1 if len(col) else 1
            joint = len(np.unique(gid * base + col))
            key = (-joint if maximize else joint, c)
            if best is None or key < best[0]:
                best = (key, c)
        chosen = best[1]
        order.append(chosen)
        remaining.remove(chosen)
        col = sample[:, chosen]
        base = int(col.max()) + 1 if len(col) else 1
        _, gid = np.unique(gid * base + col, return_inverse=True)
    return tuple(order)


def _estimate_cost(sample: np.ndarray, order: Sequence[int]) -> float:
    """Simulated bulk-build work for ``order`` over the reservoir.

    Mirrors the builder's recursion: each level scans the rows of every
    group of size > 1 unless the level's dimension is constant within
    the group (the fold that correlation buys), and each node created
    costs :data:`NODE_COST` row-equivalents of bookkeeping.
    """
    n = len(sample)
    if n == 0:
        return 0.0
    gid = np.zeros(n, dtype=np.int64)
    cost = 0.0
    group_sizes = np.full(n, n, dtype=np.int64)
    for d in order:
        col = sample[:, d]
        base = int(col.max()) + 1
        key = gid * base + col
        _, inv, counts = np.unique(key, return_inverse=True, return_counts=True)
        active = group_sizes > 1
        constant = counts[inv] == group_sizes
        busy = active & ~constant
        cost += float(np.count_nonzero(busy))
        if busy.any():
            cost += NODE_COST * len(np.unique(inv[busy]))
        gid = inv.astype(np.int64)
        group_sizes = counts[inv]
    return cost


def _entropy(col: np.ndarray) -> float:
    """Shannon entropy (bits) of a code column; 0.0 for empty columns."""
    if len(col) == 0:
        return 0.0
    counts = np.unique(col, return_counts=True)[1]
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def _value_orders(
    table_codes: np.ndarray, sample: np.ndarray, order: Sequence[int]
) -> dict[int, np.ndarray]:
    """Per-dimension permutations clustering co-occurring values.

    Rows of the reservoir are sorted in the planned trie order; each
    dimension's values are then ranked by first appearance in that
    sorted stream, so values that co-occur under the same trie prefix
    receive adjacent codes.  Codes never seen in the reservoir follow in
    ascending code order, keeping every permutation a bijection on
    ``[0, max_code + 1)``; codes beyond that (late appends) pass through
    unchanged — they cannot collide because the permutation's image
    stays inside ``[0, max_code + 1)``.
    """
    if len(sample) == 0:
        return {}
    sorted_rows = np.lexsort(tuple(sample[:, d] for d in reversed(order)))
    out: dict[int, np.ndarray] = {}
    for d in range(table_codes.shape[1]):
        full_max = int(table_codes[:, d].max())
        stream = sample[sorted_rows, d]
        seen, first_pos = np.unique(stream, return_index=True)
        ranked = seen[np.argsort(first_pos, kind="stable")]
        missing = np.setdiff1d(np.arange(full_max + 1), seen, assume_unique=True)
        forward = np.empty(full_max + 1, dtype=np.int64)
        forward[np.concatenate([ranked, missing])] = np.arange(full_max + 1)
        if not np.array_equal(forward, np.arange(full_max + 1)):
            out[d] = forward
    return out


class TuningPlan:
    """The planner's output: a dimension order plus optional value maps.

    ``dim_order`` uses the codebase's standard convention
    (``dim_order[new_pos] = old_dim``).  ``value_orders`` maps an
    *original* dimension index to a forward permutation array
    (``tuned_code = perm[original_code]``); the inverse maps are derived
    lazily.  Plans are value objects: JSON-serializable, comparable, and
    safe to ship to parallel workers.
    """

    def __init__(
        self,
        dim_order: Sequence[int],
        *,
        value_orders: dict[int, np.ndarray] | None = None,
        source: str = "fixed",
        sampled_rows: int = 0,
        n_rows: int = 0,
        dim_stats: list[dict] | None = None,
        candidate_costs: dict[str, float] | None = None,
        plan_seconds: float = 0.0,
    ) -> None:
        self.dim_order = tuple(int(d) for d in dim_order)
        self.value_orders = {
            int(d): np.asarray(perm, dtype=np.int64)
            for d, perm in (value_orders or {}).items()
        }
        self.source = source
        self.sampled_rows = sampled_rows
        self.n_rows = n_rows
        self.dim_stats = dim_stats or []
        self.candidate_costs = candidate_costs or {}
        self.plan_seconds = plan_seconds
        self._inverse_value_orders: dict[int, np.ndarray] | None = None

    # -- basic properties -------------------------------------------------

    @property
    def n_dims(self) -> int:
        return len(self.dim_order)

    @property
    def is_identity_order(self) -> bool:
        return self.dim_order == tuple(range(self.n_dims))

    @property
    def is_identity(self) -> bool:
        """True when applying the plan would change nothing at all."""
        return self.is_identity_order and not self.value_orders

    def __eq__(self, other) -> bool:
        if not isinstance(other, TuningPlan):
            return NotImplemented
        return (
            self.dim_order == other.dim_order
            and self.value_orders.keys() == other.value_orders.keys()
            and all(
                np.array_equal(perm, other.value_orders[d])
                for d, perm in self.value_orders.items()
            )
        )

    def __repr__(self) -> str:
        return (
            f"TuningPlan(order={self.dim_order}, source={self.source!r}, "
            f"value_dims={sorted(self.value_orders)})"
        )

    # -- value permutations -----------------------------------------------

    @property
    def inverse_value_orders(self) -> dict[int, np.ndarray]:
        """``original_code = inverse[tuned_code]`` per original dim."""
        if self._inverse_value_orders is None:
            self._inverse_value_orders = {
                d: np.argsort(perm).astype(np.int64)
                for d, perm in self.value_orders.items()
            }
        return self._inverse_value_orders

    def _map_value(self, dim: int, code: int, mapping: dict[int, np.ndarray]) -> int:
        perm = mapping.get(dim)
        if perm is None or code >= len(perm) or code < 0:
            return code
        return int(perm[code])

    def tuned_value(self, dim: int, code: int) -> int:
        """Original-space ``code`` of original ``dim`` -> tuned code."""
        return self._map_value(dim, code, self.value_orders)

    def original_value(self, dim: int, code: int) -> int:
        """Tuned-space code of original ``dim`` -> original code."""
        return self._map_value(dim, code, self.inverse_value_orders)

    # -- applying the plan ------------------------------------------------

    def transform_codes(self, codes: np.ndarray) -> np.ndarray:
        """Map an original-space code matrix into planned trie space."""
        codes = np.asarray(codes, dtype=np.int64)
        if self.value_orders:
            codes = codes.copy()
            for d, perm in self.value_orders.items():
                col = codes[:, d]
                small = col < len(perm)
                col[small] = perm[col[small]]
        if not self.is_identity_order:
            codes = codes[:, list(self.dim_order)]
        return codes

    def transform_row(self, row: Sequence[int]) -> tuple[int, ...]:
        """Map one original-space row into planned trie space."""
        return tuple(
            self.tuned_value(old_dim, int(row[old_dim]))
            for old_dim in self.dim_order
        )

    def transform_table(self, table):
        """A :class:`BaseTable` re-expressed in planned trie space."""
        from repro.table.base_table import BaseTable

        if self.is_identity:
            return table
        codes = self.transform_codes(table.dim_codes)
        schema = (
            table.schema
            if self.is_identity_order
            else table.schema.reordered(list(self.dim_order))
        )
        return BaseTable(schema, codes, table.measures, None)

    def restore_ranges(self, columns):
        """:class:`~repro.core.range_cube.RangeColumns` emitted in planned
        trie space -> original space (the same columns for an identity plan)."""
        from repro.core.range_cubing import _remap_ranges

        if self.is_identity:
            return columns
        return _remap_ranges(
            columns, self.dim_order, value_maps=self.inverse_value_orders or None
        )

    def original_assignment(
        self, assignment: dict[int, int]
    ) -> Iterator[tuple[int, int]]:
        """A planned-space ``{tuned_pos: tuned_code}`` leaf assignment,
        yielded as original-space ``(dim, code)`` pairs."""
        for tuned_pos, tuned_code in assignment.items():
            old_dim = self.dim_order[tuned_pos]
            yield old_dim, self.original_value(old_dim, int(tuned_code))

    # -- persistence ------------------------------------------------------

    def to_json(self) -> dict:
        """A JSON-safe dict; ``from_json`` restores an equal plan."""
        return {
            "dim_order": list(self.dim_order),
            "value_orders": {
                str(d): perm.tolist() for d, perm in sorted(self.value_orders.items())
            },
            "source": self.source,
            "sampled_rows": self.sampled_rows,
            "n_rows": self.n_rows,
            "dim_stats": self.dim_stats,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "TuningPlan":
        return cls(
            doc["dim_order"],
            value_orders={
                int(d): np.asarray(perm, dtype=np.int64)
                for d, perm in doc.get("value_orders", {}).items()
            },
            source=doc.get("source", "fixed"),
            sampled_rows=int(doc.get("sampled_rows", 0)),
            n_rows=int(doc.get("n_rows", 0)),
            dim_stats=doc.get("dim_stats", []),
        )

    # -- reporting --------------------------------------------------------

    def explain(self, dimension_names: Sequence[str] | None = None) -> str:
        """A human-readable account of what the planner saw and chose."""
        names = dimension_names or [f"d{i}" for i in range(self.n_dims)]
        lines = [
            f"plan: order {self.dim_order} via {self.source!r} "
            f"(sampled {self.sampled_rows:,} of {self.n_rows:,} rows, "
            f"{self.plan_seconds * 1000:.1f}ms)"
        ]
        if self.candidate_costs:
            ranked = sorted(self.candidate_costs.items(), key=lambda kv: kv[1])
            lines.append(
                "candidate costs: "
                + ", ".join(f"{name}={cost:,.0f}" for name, cost in ranked)
            )
        for stat in self.dim_stats:
            d = stat["dim"]
            extra = ", values reordered" if d in self.value_orders else ""
            lines.append(
                f"  {names[d]}: position {self.dim_order.index(d)}, "
                f"~{stat['distinct']} distinct, "
                f"entropy {stat['entropy']:.2f} bits{extra}"
            )
        return "\n".join(lines)


def plan_table(
    table,
    *,
    sample_rows: int = DEFAULT_SAMPLE_ROWS,
    value_reorder: bool = False,
) -> TuningPlan:
    """Plan a trie dimension order (and optional value maps) for ``table``."""
    return plan_codes(
        table.dim_codes, sample_rows=sample_rows, value_reorder=value_reorder
    )


def plan_codes(
    codes: np.ndarray,
    *,
    sample_rows: int = DEFAULT_SAMPLE_ROWS,
    value_reorder: bool = False,
) -> TuningPlan:
    """Plan from a raw code matrix (used when no table object exists)."""
    codes = np.asarray(codes, dtype=np.int64)
    n_rows, n_dims = codes.shape
    t0 = time.perf_counter()
    with _TRACER.span("tune.plan", rows=n_rows, dims=n_dims) as span:
        sample = _reservoir(codes, sample_rows)
        _SAMPLE_ROWS.inc(len(sample))
        span.set_attribute("sample_rows", len(sample))
        if n_rows == 0 or n_dims <= 1:
            plan = TuningPlan(
                range(n_dims),
                source="trivial",
                sampled_rows=len(sample),
                n_rows=n_rows,
                plan_seconds=time.perf_counter() - t0,
            )
            span.set_attribute("source", plan.source)
            _PLANS.inc(source=plan.source)
            _PLAN_SECONDS.observe(plan.plan_seconds)
            return plan

        observed = [len(np.unique(sample[:, d])) for d in range(n_dims)]
        dim_stats = [
            {
                "dim": d,
                "distinct": observed[d],
                "entropy": round(_entropy(sample[:, d]), 4),
            }
            for d in range(n_dims)
        ]
        # Candidate orders, highest priority first; dedupe keeps the
        # highest-priority name so ties resolve toward cheaper paths
        # ("as-is" needs no column permutation at all).
        candidates: dict[tuple[int, ...], str] = {}
        for name, order in (
            ("as-is", tuple(range(n_dims))),
            ("desc", tuple(sorted(range(n_dims), key=lambda i: (-observed[i], i)))),
            ("greedy-max", _greedy_order(sample, maximize=True)),
            ("greedy-min", _greedy_order(sample, maximize=False)),
            ("asc", tuple(sorted(range(n_dims), key=lambda i: (observed[i], i)))),
        ):
            candidates.setdefault(order, name)
        costs = {
            name: _estimate_cost(sample, order) for order, name in candidates.items()
        }
        best_order, best_name = None, None
        for order, name in candidates.items():  # insertion order = priority
            if best_name is None or costs[name] < costs[best_name]:
                best_order, best_name = order, name

        value_orders = (
            _value_orders(codes, sample, best_order) if value_reorder else {}
        )
        plan = TuningPlan(
            best_order,
            value_orders=value_orders,
            source=best_name,
            sampled_rows=len(sample),
            n_rows=n_rows,
            dim_stats=dim_stats,
            candidate_costs=costs,
            plan_seconds=time.perf_counter() - t0,
        )
        span.set_attribute("source", best_name)
        span.set_attribute("order", str(best_order))
    _PLANS.inc(source=best_name)
    _PLAN_SECONDS.observe(plan.plan_seconds)
    return plan


def record_replan(trigger: str = "drift") -> None:
    """Count a serving-path re-plan (kept here so all tuning metrics live
    in one registry module)."""
    _REPLANS.inc(trigger=trigger)


def resolve_plan(table, dim_order) -> tuple[TuningPlan | None, tuple[int, ...] | None]:
    """Normalize a ``dim_order`` argument into ``(plan, static_order)``.

    Accepts the four spellings every build entrypoint supports:
    ``None`` (as-is), the ``"auto"`` sentinel (run the planner), a
    prepared :class:`TuningPlan`, or an explicit dimension sequence.
    At most one of the returned values is non-``None``.  A returned plan
    may be an identity plan, whose ``transform_table`` and
    ``restore_ranges`` hand their input back unchanged; callers still
    report it.
    """
    if dim_order is None:
        return None, None
    if isinstance(dim_order, str):
        if dim_order != "auto":
            raise ValueError(
                f"unknown dim_order sentinel {dim_order!r}; expected 'auto', "
                "None, a TuningPlan or an explicit dimension sequence"
            )
        return plan_table(table), None
    if isinstance(dim_order, TuningPlan):
        return dim_order, None
    order = tuple(int(d) for d in dim_order)
    return None, (None if order == tuple(range(len(order))) else order)
