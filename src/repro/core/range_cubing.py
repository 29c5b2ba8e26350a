"""Range cubing (paper Section 5, Algorithm 2).

The algorithm walks a range trie depth-first, emitting one range per node,
then reorganizes the trie from ``n`` dimensions to ``n-1`` and repeats —
at every level of the recursion.  For a node whose key is
``(a_i1, a_i2, ..., a_ik)`` with start value ``a_i1``:

* the *general* endpoint binds the start values of the node and its
  ancestors (within the current trie context);
* the *specific* endpoint additionally binds every non-start key value —
  the values *implied* by the start values (paper Lemma 2);

so the emitted range covers exactly the cells of paper Lemma 3, all with
the node's aggregate.  Each node is aggregated once during construction or
reduction and never re-aggregated — the paper's simultaneous-aggregation
argument — and a node whose tuple count misses an iceberg threshold prunes
its whole branch (Apriori pruning), while still participating in trie
reductions, whose merged nodes can only have larger counts.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.compat import legacy_call_shim
from repro.core.range_cube import STAR_CODE, RangeColumns, RangeCube
from repro.core.range_trie import RangeTrie, RangeTrieNode
from repro.core.reduction import reduce_trie
from repro.obs import get_registry, get_tracer
from repro.table.aggregates import Aggregator, default_aggregator
from repro.table.base_table import BaseTable
from repro.tune import TuningPlan, resolve_plan


#: Trie construction strategies accepted by ``build_strategy=``.
BUILD_STRATEGIES = ("bulk", "tuple")

_TRACER = get_tracer()
_REGISTRY = get_registry()
_BUILDS = _REGISTRY.counter(
    "repro_builds_total", "Cube builds completed, by trie construction strategy.",
    ("strategy",),
)
_BUILD_ROWS = _REGISTRY.counter(
    "repro_build_rows_total", "Base-table rows consumed by cube builds."
)
_PHASE_SECONDS = _REGISTRY.histogram(
    "repro_build_phase_seconds",
    "Wall-clock seconds per cube-build phase (build/traverse and the bulk "
    "builder's sort/group/aggregate split).",
    ("phase",),
)


def _record_bulk_phases(phases: dict, build_start_wall: float, parent) -> None:
    """Synthesize sort/group/aggregate child spans from the phase seconds.

    The bulk builder runs its phases back to back, so laying them out
    sequentially from the build span's start reconstructs the timeline
    without threading span objects into the vectorized kernels.
    """
    offset = build_start_wall
    for phase in ("sort", "group", "aggregate"):
        seconds = phases.get(f"{phase}_seconds")
        if seconds is None:
            continue
        _TRACER.record_span(
            phase, start_wall=offset, duration=seconds, parent=parent
        )
        _PHASE_SECONDS.observe(seconds, phase=phase)
        offset += seconds


@legacy_call_shim("aggregator", "dim_order", "min_support")
def range_cubing(
    table: BaseTable,
    *,
    aggregator: Aggregator | None = None,
    dim_order: Sequence[int] | str | TuningPlan | None = "auto",
    min_support: int = 1,
    build_strategy: str = "bulk",
) -> RangeCube:
    """Compute the range cube of ``table``.

    ``dim_order`` controls the dimension order used by the trie: the
    default ``"auto"`` runs the sampling planner (:mod:`repro.tune`) and
    builds in whichever candidate order its cost model scores cheapest;
    ``None`` keeps the table's as-is order; an explicit sequence (e.g.
    ``table.schema.cardinality_descending_order()``, the paper's
    preferred order) pins a static order; and a prepared
    :class:`~repro.tune.TuningPlan` reuses an existing plan (value
    permutations included).  Whatever the order, the returned ranges are
    always expressed in the table's *original* dimension order and value
    coding — the choice affects build cost only, never answers.
    ``min_support`` > 1 computes the iceberg range cube: only ranges
    whose count reaches the threshold.  ``build_strategy`` selects the
    trie construction: ``"bulk"`` (the default,
    :meth:`RangeTrie.bulk_build`'s vectorized sort-based path) or
    ``"tuple"`` (Algorithm 1's tuple-at-a-time insertion) — the trie is
    canonical, so both produce the same cube.
    """
    cube, _ = range_cubing_detailed(
        table,
        aggregator=aggregator,
        dim_order=dim_order,
        min_support=min_support,
        build_strategy=build_strategy,
    )
    return cube


@legacy_call_shim("aggregator", "dim_order", "min_support")
def range_cubing_detailed(
    table: BaseTable,
    *,
    aggregator: Aggregator | None = None,
    dim_order: Sequence[int] | str | TuningPlan | None = "auto",
    min_support: int = 1,
    build_strategy: str = "bulk",
) -> tuple[RangeCube, dict[str, float]]:
    """Like :func:`range_cubing` but also returns harness statistics.

    The stats dict carries the initial trie's node counts (the paper's
    node-ratio ingredient) and the build/traversal split of the run time;
    with the bulk strategy the build phase is further broken down into
    ``sort_seconds`` / ``group_seconds`` / ``aggregate_seconds``.  When a
    tuning plan was used (``dim_order="auto"`` or an explicit
    :class:`~repro.tune.TuningPlan`) the dict additionally carries
    ``tune_seconds`` and a ``tuning`` block describing the chosen plan.
    """
    if build_strategy not in BUILD_STRATEGIES:
        raise ValueError(
            f"unknown build_strategy {build_strategy!r}; "
            f"expected one of {BUILD_STRATEGIES}"
        )
    agg = aggregator or default_aggregator(table.n_measures)
    phases: dict[str, float] = {}
    with _TRACER.span(
        "range_cubing",
        strategy=build_strategy,
        rows=table.n_rows,
        dims=table.n_dims,
        min_support=min_support,
    ) as root:
        # Planning (and the reorder copy it may imply) runs inside the
        # root span so an exported trace accounts for the whole build;
        # the planner's own ``tune.plan`` span nests here.
        tune_start = time.perf_counter()
        plan, order = resolve_plan(table, dim_order)
        if plan is not None:
            working = plan.transform_table(table)
        else:
            working = table if order is None else table.reordered(order)
        tune_seconds = time.perf_counter() - tune_start
        t0 = time.perf_counter()
        with _TRACER.span("build") as build_span:
            if build_strategy == "bulk":
                trie = RangeTrie.bulk_build(working, agg, timings=phases)
            else:
                trie = RangeTrie.build(working, agg)
        _record_bulk_phases(phases, build_span.start_wall, build_span)
        t1 = time.perf_counter()
        with _TRACER.span("traverse"):
            columns = _traverse(trie, agg, min_support)
        t2 = time.perf_counter()
        with _TRACER.span("remap"):
            columns = _restore(columns, plan, order)
        with _TRACER.span("stats"):
            census = trie.stats()
        root.set_attribute("trie_nodes", census.nodes)
        root.set_attribute("n_ranges", len(columns))
    _BUILDS.inc(strategy=build_strategy)
    _BUILD_ROWS.inc(table.n_rows)
    _PHASE_SECONDS.observe(t1 - t0, phase="build")
    _PHASE_SECONDS.observe(t2 - t1, phase="traverse")
    stats = {
        "trie_nodes": census.nodes,
        "trie_interior": census.interior,
        "trie_leaves": census.leaves,
        "trie_depth": census.max_depth,
        "build_strategy": build_strategy,
        "build_seconds": t1 - t0,
        "traverse_seconds": t2 - t1,
        # planning time (zero unless dim_order="auto" ran the planner)
        # counts toward the paper's "total run time" metric
        "total_seconds": (t2 - t0) + tune_seconds,
        **phases,
    }
    if plan is not None:
        stats["tune_seconds"] = tune_seconds
        stats["tuning"] = plan.to_json()
    return RangeCube(table.n_dims, agg, columns=columns), stats


class _Emitter:
    """Growable buffers the traversal appends each emitted range to.

    ``codes`` holds every range's specific codes back to back
    (:data:`STAR_CODE` for ``*``), ``masks`` the marked masks and
    ``states`` the node aggregates.  Appending to flat lists allocates
    no cell tuple or :class:`Range` per range; :meth:`columns` turns
    them into numpy columns in one pass each.
    """

    __slots__ = ("codes", "masks", "states")

    def __init__(self) -> None:
        self.codes: list[int] = []
        self.masks: list[int] = []
        self.states: list = []

    def columns(self, n_dims: int) -> RangeColumns:
        n = len(self.masks)
        specific = np.fromiter(self.codes, dtype=np.int32, count=n * n_dims)
        return RangeColumns(
            specific.reshape(n, n_dims),
            np.fromiter(self.masks, dtype=np.int64, count=n),
            self.states,
        )


def _traverse(trie: RangeTrie, agg: Aggregator, min_support: int) -> RangeColumns:
    """Algorithm 2: emit one range per node over successive trie reductions.

    The ranges come back as :class:`RangeColumns` in the trie's own
    dimension order and coding; :func:`_restore` maps them back.
    """
    n = trie.n_dims
    out = _Emitter()
    if trie.root.agg is not None and agg.count(trie.root.agg) >= min_support:
        # The apex cell (*, ..., *) is its own single-cell range.
        out.codes.extend([STAR_CODE] * n)
        out.masks.append(0)
        out.states.append(trie.root.agg)
    if trie.root.children:
        _cube(trie.root, [STAR_CODE] * n, 0, out, agg, min_support)
    return out.columns(n)


def _cube(
    node: RangeTrieNode,
    specific: list,
    mask: int,
    out: _Emitter,
    agg: Aggregator,
    min_support: int,
) -> None:
    """Process the trie rooted at ``node`` within the given cell context.

    ``specific``/``mask`` carry the ancestor context: the key values bound
    so far and which of them are marked (non-start, i.e. implied).  The
    while loop is the per-level dimension iteration of Algorithm 2: emit
    ranges for the current start dimension, then reduce the trie and move
    to the next one.
    """
    count = agg.count
    merge = agg.merge
    add_codes = out.codes.extend
    add_mask = out.masks.append
    add_state = out.states.append
    while node.children:
        for child in node.children.values():
            if min_support > 1 and count(child.agg) < min_support:
                continue  # Apriori pruning; the child still merges into reductions
            key = child.key
            child_specific = specific.copy()
            child_mask = mask
            child_specific[key[0][0]] = key[0][1]
            for dim, value in key[1:]:
                child_specific[dim] = value
                child_mask |= 1 << dim
            add_codes(child_specific)
            add_mask(child_mask)
            add_state(child.agg)
            if child.children:
                _cube(child, child_specific, child_mask, out, agg, min_support)
        node = reduce_trie(node, merge)


def _remap_ranges(
    columns: RangeColumns,
    order: Sequence[int],
    value_maps: dict[int, Sequence[int]] | None = None,
) -> RangeColumns:
    """Translate emitted columns from permuted dimension space back to the original.

    One column gather (original dimension ``d`` reads the permuted column
    holding it), one bit permutation of the marked masks and, per entry
    of ``value_maps`` — the inverse value permutation of a tuning plan,
    keyed by *original* dimension (``original_code = value_maps[d][code]``)
    — one ``np.take``.  ``*`` and codes outside a map's domain pass
    through unchanged, matching the forward transform's handling of
    late-appended values.  Range order and states are kept.
    """
    specific = np.take(columns.specific, np.argsort(np.asarray(order)), axis=1)
    masks = np.zeros_like(columns.marked_mask)
    for new_dim, old_dim in enumerate(order):
        masks |= (columns.marked_mask >> new_dim & 1) << old_dim
    for dim, value_map in (value_maps or {}).items():
        codes = specific[:, dim]
        inside = (codes >= 0) & (codes < len(value_map))
        codes[inside] = np.take(value_map, codes[inside])
    return RangeColumns(specific, masks, columns.states)


def _restore(
    columns: RangeColumns,
    plan: TuningPlan | None,
    order: Sequence[int] | None,
) -> RangeColumns:
    """Emitted columns back in the table's original order and coding.

    Every build path ends here with what :func:`~repro.tune.resolve_plan`
    gave it: a plan restores through :meth:`TuningPlan.restore_ranges`
    (a no-op for an identity plan), a static order through
    :func:`_remap_ranges`, and an as-is build needs nothing.
    """
    if plan is not None:
        return plan.restore_ranges(columns)
    if order is not None:
        return _remap_ranges(columns, order)
    return columns
