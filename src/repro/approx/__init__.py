"""Sketch-backed approximate answers for heavy dice / iceberg queries.

The paper's range trie makes point lookups cheap, but a *dice* over wide
value sets still degenerates to a scan of the matching cells — the one
query shape whose latency grows with data size.  Following Buccafurri et
al. ("Estimating Range Queries using Aggregate Data", PAPERS.md), this
package answers such queries from coarse pre-aggregated summaries with
probabilistic error bounds instead of scanning:

* :class:`CubeSketch` — a per-cube summary built once at freeze /
  snapshot time: a *stratified sample* of the finest cuboid's cells
  (heavy cells kept exactly, the tail sampled within log-weight strata)
  plus exact *per-dimension histograms* used as deterministic bound
  clips;
* :func:`finalize_partials` — turns one or many mergeable partial
  estimates (one per shard in the scatter-gather tier) into a
  ``(estimate, lower, upper, confidence)`` answer with variance-correct
  combination (independent per-shard estimators: sums of estimates and
  of variances);
* :func:`exact_partial` — wraps an exact aggregate state in the same
  partial shape, so a shard that cannot estimate (or the single-engine
  fallback path) merges into the combination with zero variance.

The serving layer threads an opt-in ``approx=true`` flag through the
wire protocol down to these functions; see ``docs/serving.md``.
"""

from repro.approx.sketch import (
    ApproxAnswer,
    CubeSketch,
    SketchUnsupported,
    combine_partials,
    component_layout,
    exact_partial,
    finalize_partials,
)

__all__ = [
    "ApproxAnswer",
    "CubeSketch",
    "SketchUnsupported",
    "combine_partials",
    "component_layout",
    "exact_partial",
    "finalize_partials",
]
